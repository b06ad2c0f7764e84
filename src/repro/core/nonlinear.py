"""Nonlinear (convective) terms — paper steps (a)-(h) and eq. (2) sources.

The divergence-form nonlinearity ``H = -div(u u)`` enters the KMM
equations only through

    h_g = i kz H1 - i kx H3                     (omega_y source)
    h_v = -k² H2 - d/dy (i kx H1 + i kz H3)     (phi source)

Both are invariant under ``H -> H - grad(q)``: the curl kills gradients
in h_g, and in h_v the two q-terms cancel identically.  The isotropic
part of the product tensor can therefore be absorbed into the pressure,
leaving **five** quadratic fields to transform back from the quadrature
grid — the paper's step (g) "compute five quadratic products":

    P1 = uu - ww,  P2 = vv - ww,  P3 = uv,  P4 = uw,  P5 = vw.

With q = ww absorbed, the gradient-free parts are

    H1 = -( i kx P1 + d/dy P3 + i kz P4 )
    H2 = -( i kx P3 + d/dy P2 + i kz P5 )
    H3 = -( i kx P4 + d/dy P5 )

and the mean-mode (kx = kz = 0) momentum sources reduce to
``H1|00 = -d<uv>/dy`` and ``H3|00 = -d<vw>/dy`` as they must.

The physical-space evaluation is delegated to a *transform backend*
(the one transform on the serial 1x1 grid or on a rank's pencils), so
this module is shared verbatim between the serial and parallel solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.modes import ModeSet
from repro.core.operators import WallNormalOps


@dataclass
class NonlinearResult:
    """Sources for one evaluation of the convective terms.

    ``hg``/``hv`` are collocated values over the local mode block;
    ``h1_mean``/``h3_mean`` are the real mean-momentum sources ``(ny,)``
    (None on ranks that do not own the mean mode).  ``cfl_speeds`` holds
    the local (|u|max, |v|max, |w|max) for time-step control.
    """

    hg: np.ndarray
    hv: np.ndarray
    h1_mean: np.ndarray | None
    h3_mean: np.ndarray | None
    cfl_speeds: tuple[float, float, float]


class NonlinearTerms:
    """Evaluator for the dealiased convective sources."""

    def __init__(self, modes: ModeSet, ops: WallNormalOps, backend) -> None:
        self.modes = modes
        self.ops = ops
        self.backend = backend

    def physical_velocity(
        self, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Velocity on (this worker's part of) the quadrature grid.

        One field at a time: its collocated values are formed and
        transformed before the next component's, so at most one spectral
        value array is alive beside the physical fields.  The returned
        arrays are fresh and owned by the caller.
        """
        ops, be = self.ops, self.backend
        up, vp, wp = (be.to_physical(ops.values(f)) for f in (u, v, w))
        return up, vp, wp

    def compute(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> NonlinearResult:
        """Evaluate h_g, h_v and mean sources from velocity coefficients.

        The working set is the three physical velocities plus one product
        buffer: each product is formed and projected (steps (g)-(h))
        before the next one overwrites it, ``ww`` then lands in ``w``'s
        buffer and ``uu - ww``/``vv - ww`` in the velocity buffers.  The
        spectral sources are assembled in place in the projected spectra.
        Every expression keeps the operand order of its out-of-place
        form, so the results are the same bits.
        """
        m, ops, be = self.modes, self.ops, self.backend
        up, vp, wp = self.physical_velocity(u, v, w)
        # max|x| without an |x| temporary; NaN or ±inf still comes through
        speeds = tuple(float(max(x.max(), -x.min())) for x in (up, vp, wp))

        # steps (g)-(h): P3 = uv, P4 = uw, P5 = vw in one buffer laid out
        # like the velocities (the backend's contiguous transform path)
        prod = np.empty_like(up)
        s3 = be.from_physical(np.multiply(up, vp, out=prod))
        s4 = be.from_physical(np.multiply(up, wp, out=prod))
        s5 = be.from_physical(np.multiply(vp, wp, out=prod))
        del prod
        ww = np.multiply(wp, wp, out=wp)
        p1 = np.multiply(up, up, out=up)
        s1 = be.from_physical(np.subtract(p1, ww, out=p1))
        p2 = np.multiply(vp, vp, out=vp)
        s2 = be.from_physical(np.subtract(p2, ww, out=p2))
        del up, vp, wp, ww, p1, p2

        # The spectra *are* collocated values, so the undifferentiated
        # terms use them as they come (values(coeffs(s)) == s); only the
        # three fields under d/dy are expanded into spline space.
        ikx, ikz = m.ikx, m.ikz
        d = ops.dvalues(ops.coeffs(s3))  # then scratch for one term at a time
        # H1 = -(i kx P1 + d/dy P3 + i kz P4), in s1
        h1 = np.multiply(ikx, s1, out=s1)
        h1 += d
        h1 += np.multiply(ikz, s4, out=d)
        np.negative(h1, out=h1)
        # H2 = -(i kx P3 + d/dy P2 + i kz P5), in s3
        h2 = np.multiply(ikx, s3, out=s3)
        h2 += ops.dvalues(ops.coeffs(s2), out=d)
        h2 += np.multiply(ikz, s5, out=d)
        np.negative(h2, out=h2)
        # H3 = -(i kx P4 + d/dy P5), in s4
        h3 = np.multiply(ikx, s4, out=s4)
        h3 += ops.dvalues(ops.coeffs(s5), out=d)
        np.negative(h3, out=h3)

        hg = np.multiply(ikz, h1, out=s2)
        hg -= np.multiply(ikx, h3, out=d)

        # h_v = -k² H2 - d/dy(i kx H1 + i kz H3); the y-derivative needs a
        # re-expansion of the collocated combination into spline space.
        comb = np.multiply(ikx, h1, out=d)
        comb += np.multiply(ikz, h3, out=s5)
        hv = np.multiply(-m.ksq[..., None], h2, out=h2)
        hv -= ops.dvalues(ops.coeffs(comb), out=d)

        if m.owns_mean:
            h1_mean = h1[m.mean_index].real.copy()
            h3_mean = h3[m.mean_index].real.copy()
        else:
            h1_mean = h3_mean = None
        return NonlinearResult(hg=hg, hv=hv, h1_mean=h1_mean, h3_mean=h3_mean, cfl_speeds=speeds)
