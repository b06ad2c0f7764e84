"""Influence-matrix (Green's function) solver for the phi-v system.

The viscous step for ``phi = (d²/dy² - k²) v`` is a second-order Helmholtz
problem, but its physical boundary conditions live on v: ``v = dv/dy = 0``
at both walls — four conditions for a fourth-order composite system.  The
classical decomposition (Kim–Moin–Moser 1987) solves it as the paper's
"three linear systems per wavenumber":

1. particular Helmholtz solve for phi with homogeneous Dirichlet data,
2. Poisson-type solve ``(d²/dy² - k²) v_p = phi_p`` with ``v_p(±1) = 0``,
3. a 2x2 *influence matrix* correction built from two precomputed
   Green's functions (unit phi at either wall) chosen so the corrected
   ``v`` also satisfies ``dv/dy(±1) = 0``.

All solves are the custom banded solver batched over the local block of
wavenumbers (the full grid in serial, one pencil block per rank in
parallel), against factor sets that hold one row per distinct ``k²``.
The Poisson set holds no implicit weight, so the stepper factors it once
and hands it to all three substeps' solvers; within one substep the
Green's functions depend on ``k²`` alone, so they are solved once per
distinct value and expanded per mode.  Within a substep the solves are
*fused*: omega_y shares the Helmholtz factors with phi, so
:meth:`InfluenceSolver.advance` — the stepper's one solve path — sweeps
both right-hand sides in one blocked pass of the solve engine (the
stepper packs the real mean-mode profiles into the (0,0) omega_y
member), and the Green's-function setup batches its two Helmholtz and
two Poisson solves the same way.  Fixed-width sweeps make the fused
results bit-for-bit identical to separate solves: :meth:`solve` (phi/v
alone) stays as the oracle the tests compose the unfused substep from.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import WallNormalOps
from repro.linalg.custom import FoldedLU
from repro.linalg.helmholtz import HelmholtzOperator


class InfluenceSolver:
    """phi/v viscous-step solver for one RK implicit coefficient.

    Parameters
    ----------
    ops:
        Cached collocation matrices of the wall-normal basis.
    helm:
        Shared Helmholtz assembly factory.
    poisson_lu:
        The factored Poisson pencil of the local wavenumber block.  It
        does not depend on the implicit weight, so one set serves every
        substep; its :attr:`~repro.linalg.custom.FoldedLU.rows` (the
        distinct-``k²`` map) is reused for the Helmholtz factors.
    c:
        Implicit weight ``beta_i * nu * dt`` of this substep.
    """

    def __init__(
        self,
        ops: WallNormalOps,
        helm: HelmholtzOperator,
        poisson_lu: FoldedLU,
        c: float,
    ) -> None:
        self.ops = ops
        self.c = float(c)
        self.ny = helm.basis.n
        rows = poisson_lu.rows
        self.nmodes = rows.nbatch

        self.helm_lu = helm.factor_helmholtz(rows, self.c)
        self.poisson_lu = poisson_lu

        # Green's functions: unit phi at the upper (+) / lower (-) wall,
        # solved once per distinct k² and expanded per mode.  The two
        # Helmholtz solves ride one multi-RHS sweep, as do the two
        # Poisson solves that follow.
        rhs = np.zeros((rows.nrows, self.ny, 2))
        rhs[:, -1, 0] = 1.0  # plus wall
        rhs[:, 0, 1] = 1.0  # minus wall
        a_phi = self.helm_lu.engine.solve_rows(rhs)
        phi_vals = ops.values(np.ascontiguousarray(a_phi.transpose(2, 0, 1)))
        phi_vals[:, :, 0] = 0.0
        phi_vals[:, :, -1] = 0.0
        a_v = self.poisson_lu.engine.solve_rows(np.ascontiguousarray(phi_vals.transpose(1, 2, 0)))
        # The wall stencils below are GEMVs, whose kernels may depend on
        # the batch length, so they run per mode, as the steps' do.
        self.a_v_plus = a_v[rows.members, :, 0]
        self.a_v_minus = a_v[rows.members, :, 1]

        dplus_lo, dplus_up = ops.wall_derivatives(self.a_v_plus)
        dminus_lo, dminus_up = ops.wall_derivatives(self.a_v_minus)
        # Influence matrix M = [[Dv+(+1), Dv-(+1)], [Dv+(-1), Dv-(-1)]]
        det = dplus_up * dminus_lo - dminus_up * dplus_lo
        if np.any(np.abs(det) < 1e-300):
            raise ArithmeticError("singular influence matrix — degenerate Green's functions")
        self._minv = (
            np.stack([dminus_lo, -dminus_up, -dplus_lo, dplus_up], axis=-1) / det[..., None]
        )  # rows of M^{-1}: [[m00, m01], [m10, m11]] flattened

    def _poisson_with_bc(self, phi_values: np.ndarray) -> np.ndarray:
        """Poisson solve with homogeneous Dirichlet rows enforced on the RHS."""
        rhs = np.array(phi_values, copy=True)
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
        return self.poisson_lu.solve(rhs)

    def _v_from_phi(self, a_phi: np.ndarray) -> np.ndarray:
        """phi coefficients -> v coefficients with the influence correction."""
        a_v = self._poisson_with_bc(self.ops.values(a_phi))
        d_lo, d_up = self.ops.wall_derivatives(a_v)
        m = self._minv
        c_plus = -(m[:, 0] * d_up + m[:, 1] * d_lo)
        c_minus = -(m[:, 2] * d_up + m[:, 3] * d_lo)
        a_v += c_plus[:, None] * self.a_v_plus + c_minus[:, None] * self.a_v_minus
        return a_v

    # ------------------------------------------------------------------

    def solve(self, rhs_phi: np.ndarray) -> np.ndarray:
        """Advance: collocated phi right-hand side -> new v coefficients.

        ``rhs_phi`` has y on the last axis and ``nmodes`` leading entries
        in any shape; boundary rows are overwritten with the homogeneous
        Dirichlet data of the particular solution.
        """
        shape = rhs_phi.shape
        rhs = rhs_phi.reshape(self.nmodes, self.ny).copy()
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
        a_phi = self.helm_lu.solve(rhs)
        return self._v_from_phi(a_phi).reshape(shape)

    def advance(
        self, rhs_phi: np.ndarray, rhs_omega: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused viscous substep: advance phi/v *and* omega_y together.

        omega_y obeys the same Helmholtz pencil as phi (identical
        factors), so one blocked sweep of the engine carries both
        right-hand sides — the per-substep fusion of the solve engine.
        Boundary rows of both are overwritten with homogeneous Dirichlet
        data.  Returns ``(a_v, a_omega)``; bit-for-bit identical to the
        separate :meth:`solve` + ``helm_lu.solve(rhs_omega)`` path.
        """
        shape_phi = rhs_phi.shape
        shape_omega = rhs_omega.shape
        rp = rhs_phi.reshape(self.nmodes, self.ny).copy()
        ro = rhs_omega.reshape(self.nmodes, self.ny).copy()
        for r in (ro, rp):
            r[:, 0] = 0.0
            r[:, -1] = 0.0
        a_omega, a_phi = self.helm_lu.engine.solve_stack([ro, rp])
        a_v = self._v_from_phi(a_phi).reshape(shape_phi)
        return a_v, a_omega.reshape(shape_omega)
