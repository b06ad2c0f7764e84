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
(serial full-array transforms or the distributed pencil pipeline), so
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

        Backends exposing the batched ``to_physical_many`` entry point
        (the planned serial pipeline) get the whole 3-velocity stack in
        one call; others (the pencil path) are driven per field.
        """
        ops, be = self.ops, self.backend
        vals = (ops.values(u), ops.values(v), ops.values(w))
        if hasattr(be, "to_physical_many"):
            up, vp, wp = be.to_physical_many(vals)
            return up, vp, wp
        return tuple(be.to_physical(f) for f in vals)

    def compute(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> NonlinearResult:
        """Evaluate h_g, h_v and mean sources from velocity coefficients."""
        m, ops, be = self.modes, self.ops, self.backend
        up, vp, wp = self.physical_velocity(u, v, w)

        # step (g): five quadratic products on the dealiased grid
        ww = wp * wp
        p1 = up * up - ww
        p2 = vp * vp - ww
        p3 = up * vp
        p4 = up * wp
        p5 = vp * wp

        # step (h): Galerkin projection back to spectral space — the
        # 5-product stack goes through the backend in one batched call
        # when it supports it.
        products = (p1, p2, p3, p4, p5)
        if hasattr(be, "from_physical_many"):
            specs = be.from_physical_many(products)
        else:
            specs = [be.from_physical(p) for p in products]
        # The spectra *are* collocated values, so the undifferentiated
        # terms use them as they come (values(coeffs(s)) == s); only the
        # three fields under d/dy are expanded into spline space.
        s1, s2, s3, s4, s5 = specs
        a2, a3, a5 = ops.coeffs(s2), ops.coeffs(s3), ops.coeffs(s5)

        ikx, ikz = m.ikx, m.ikz
        h1 = -(ikx * s1 + ops.dvalues(a3) + ikz * s4)
        h2 = -(ikx * s3 + ops.dvalues(a2) + ikz * s5)
        h3 = -(ikx * s4 + ops.dvalues(a5))

        hg = ikz * h1 - ikx * h3

        # h_v = -k² H2 - d/dy(i kx H1 + i kz H3); the y-derivative needs a
        # re-expansion of the collocated combination into spline space.
        comb = ikx * h1 + ikz * h3
        dcomb = ops.dvalues(ops.coeffs(comb))
        hv = -m.ksq[..., None] * h2 - dcomb

        if m.owns_mean:
            h1_mean = h1[m.mean_index].real.copy()
            h3_mean = h3[m.mean_index].real.copy()
        else:
            h1_mean = h3_mean = None
        speeds = (
            float(np.abs(up).max()),
            float(np.abs(vp).max()),
            float(np.abs(wp).max()),
        )
        return NonlinearResult(hg=hg, hv=hv, h1_mean=h1_mean, h3_mean=h3_mean, cfl_speeds=speeds)
