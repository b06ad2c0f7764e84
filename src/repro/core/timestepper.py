"""Low-storage IMEX Runge–Kutta time advancement (paper §2.1).

The scheme is the third-order mixed implicit/explicit Runge–Kutta of
Spalart, Moser & Rogers (JCP 1991): convective terms explicit, viscous
terms implicit (Crank–Nicolson-like within each substep):

    psi' = psi + dt [ alpha_i L psi + beta_i L psi' + gamma_i N(psi)
                      + zeta_i N(psi_prev) ]

with ``L = nu (d²/dy² - k²)`` and the classic coefficient triplets below.
Each substep solves one Helmholtz system per state variable per
wavenumber — the banded systems of paper eq. (3).  The omega_y and phi
systems share factors, so they ride one blocked sweep of the solve
engine per substep; the real mean-mode profiles ``u00``/``w00`` ride the
same sweep as the real and imaginary parts of the (0,0) omega_y member,
whose ``k² = 0`` Helmholtz row is exactly their matrix.  All implicit
solves are timed under the nested ``SOLVE`` section.

The stepper operates on a :class:`~repro.core.modes.ModeSet` (full grid
in serial, a pencil block per rank in parallel) with physical-space work
delegated to a transform backend, so the identical advance drives both
the serial and the distributed solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.grid import ChannelGrid
from repro.core.influence import InfluenceSolver
from repro.core.modes import ModeSet
from repro.core.nonlinear import NonlinearResult, NonlinearTerms
from repro.core.operators import WallNormalOps
from repro.core.velocity import recover_uw
from repro.instrument import SectionTimers, SolveCounters
from repro.linalg.helmholtz import HelmholtzOperator


@dataclass(frozen=True)
class SMR91:
    """Spalart–Moser–Rogers (1991) low-storage IMEX RK3 coefficients."""

    alpha: tuple[float, float, float] = (29.0 / 96.0, -3.0 / 40.0, 1.0 / 6.0)
    beta: tuple[float, float, float] = (37.0 / 160.0, 5.0 / 24.0, 1.0 / 6.0)
    gamma: tuple[float, float, float] = (8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0)
    zeta: tuple[float, float, float] = (0.0, -17.0 / 60.0, -5.0 / 12.0)

    def __post_init__(self) -> None:
        # Consistency: per-substep implicit and explicit weights must agree,
        # and the explicit weights must sum to one.
        for i in range(3):
            assert abs(self.alpha[i] + self.beta[i] - self.gamma[i] - self.zeta[i]) < 1e-14
        assert abs(sum(self.gamma) + sum(self.zeta) - 1.0) < 1e-14


@dataclass
class ChannelState:
    """Prognostic variables, all as spline coefficient arrays (y last).

    ``v``/``omega_y`` cover the local wavenumber block (the mean-mode
    entries are kept at zero); ``u00``/``w00`` are the real mean-mode
    profiles, present only where the block owns the (0,0) mode.  The
    derived ``u``/``w`` coefficient arrays are cached after every step.
    """

    v: np.ndarray
    omega_y: np.ndarray
    u00: np.ndarray | None
    w00: np.ndarray | None
    u: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    w: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    time: float = 0.0

    def finite(self) -> bool:
        """True when every prognostic array of this (local) block is finite."""
        arrays = (self.v, self.omega_y, self.u00, self.w00)
        return all(arr is None or np.all(np.isfinite(arr)) for arr in arrays)

    def copy(self) -> "ChannelState":
        return ChannelState(
            v=self.v.copy(),
            omega_y=self.omega_y.copy(),
            u00=None if self.u00 is None else self.u00.copy(),
            w00=None if self.w00 is None else self.w00.copy(),
            u=None if self.u is None else self.u.copy(),
            w=None if self.w is None else self.w.copy(),
            time=self.time,
        )


class IMEXStepper:
    """One full RK3 IMEX timestep of the KMM system.

    Factors every banded system once at construction — one Helmholtz set
    per implicit coefficient (three), shared by omega_y, phi and the
    mean-mode profiles, plus one Poisson set for v that no coefficient
    enters — then reuses the factors every step, the
    production pattern the paper's custom solver is built for.  Each set
    holds one factor row per distinct ``k²`` of the block; :meth:`set_dt`
    refactors only the coefficient-dependent sets.
    """

    def __init__(
        self,
        grid: ChannelGrid,
        nu: float,
        dt: float,
        forcing: float = 1.0,
        scheme: SMR91 | None = None,
        modes: ModeSet | None = None,
        backend=None,
        reduce_max: Callable[[tuple], tuple] | None = None,
        timers=None,
    ) -> None:
        self.grid = grid
        self.nu = float(nu)
        self.dt = float(dt)
        self.forcing = float(forcing)
        self.scheme = scheme or SMR91()
        self.modes = modes if modes is not None else grid.modes
        self.ops = WallNormalOps(grid)
        if backend is None:
            from repro.core.transforms import SerialTransformBackend

            backend = SerialTransformBackend(grid)
        self.backend = backend
        self.reduce_max = reduce_max or (lambda x: x)
        self.timers = timers if timers is not None else SectionTimers()
        self.nonlinear = NonlinearTerms(self.modes, self.ops, backend)
        self._helm = HelmholtzOperator(grid.basis)
        # D2 - k²B holds no dt: one Poisson set, over the distinct k² of
        # the block, serves all three substeps and survives set_dt
        self._poisson_lu = self._helm.factor_poisson(self.modes.ksq)
        self._build_solvers()

        self._prev_nl: NonlinearResult | None = None
        self.last_cfl_speeds: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def _build_solvers(self) -> None:
        """Factor the dt-dependent implicit systems: one Helmholtz set per
        RK implicit coefficient, with its Green's functions."""
        self._influence = [
            InfluenceSolver(self.ops, self._helm, self._poisson_lu, beta * self.nu * self.dt)
            for beta in self.scheme.beta
        ]

    def set_dt(self, dt: float) -> None:
        """Change the time step, refactoring the dt-dependent systems."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt != self.dt:
            self.dt = float(dt)
            self._build_solvers()

    # ------------------------------------------------------------------

    def step(self, state: ChannelState) -> ChannelState:
        """Advance the state by one full timestep (three RK substeps).

        The input state is left as it is: the step only ever rebinds the
        arrays of its own shallow copy, so the result shares no memory
        with the input."""
        state = replace(state)
        if state.u is None or state.w is None:
            state.u, state.w = recover_uw(
                self.modes, self.ops, state.v, state.omega_y, state.u00, state.w00
            )

        for i in range(3):
            if self.scheme.zeta[i] == 0.0:
                self._prev_nl = None  # unread by this substep: free it first
            with self.timers.section(self.timers.NONLINEAR):
                nl = self.nonlinear.compute(state.u, state.v, state.w)
            with self.timers.section(self.timers.ADVANCE):
                self._advance(i, state, nl, self._prev_nl)
            self._prev_nl = nl
            self.last_cfl_speeds = nl.cfl_speeds

        state.time += self.dt
        return state

    def _advance(
        self, i: int, state: ChannelState, nl: NonlinearResult, zeta_nl: NonlinearResult | None
    ) -> None:
        """Substep ``i``'s implicit advance of ``state``, rebinding its arrays.

        Right-hand sides are built in place, in the operand order of
        ``rhs = vals + dt * (alpha nu lap + gamma h)``; every temporary
        dies on return, before the next substep's nonlinear evaluation."""
        m, ops, sch = self.modes, self.ops, self.scheme
        dt, nu = self.dt, self.nu
        mean = m.mean_index
        ksq = m.ksq[..., None]

        # -- omega_y advance -------------------------------------------------
        rhs_w = ops.values(state.omega_y)
        lap = ops.d2values(state.omega_y)
        tmp = np.multiply(ksq, rhs_w)
        lap -= tmp
        self._accumulate(rhs_w, lap, tmp, i, nl.hg, None if zeta_nl is None else zeta_nl.hg)

        # -- mean modes ------------------------------------------------------
        # the (0,0) mode has no omega_y; its k² = 0 Helmholtz row is the
        # mean profiles' matrix, so u00 rides that member as its real
        # part and w00 as its imaginary part
        if mean is not None:
            f = self.forcing
            rhs_u0 = ops.values(state.u00) + dt * (
                sch.alpha[i] * nu * ops.d2values(state.u00)
                + sch.gamma[i] * (nl.h1_mean + f)
            )
            rhs_w0 = ops.values(state.w00) + dt * (
                sch.alpha[i] * nu * ops.d2values(state.w00) + sch.gamma[i] * nl.h3_mean
            )
            if zeta_nl is not None:
                rhs_u0 += dt * sch.zeta[i] * (zeta_nl.h1_mean + f)
                rhs_w0 += dt * sch.zeta[i] * zeta_nl.h3_mean
            row = rhs_w[mean]
            row.real, row.imag = rhs_u0, rhs_w0
        rhs_w = rhs_w.reshape(-1, self.grid.ny)

        # -- phi / v advance (influence matrix) ------------------------------
        rhs_phi = ops.laplacian_values(state.v, m.ksq)
        # a_phi interpolates phi_vals: its values are already in hand
        lap = ops.d2values(ops.coeffs(rhs_phi))
        lap -= np.multiply(ksq, rhs_phi, out=tmp)
        self._accumulate(rhs_phi, lap, tmp, i, nl.hv, None if zeta_nl is None else zeta_nl.hv)
        del lap, tmp

        # omega_y shares the Helmholtz factors with phi: one blocked
        # sweep carries both right-hand sides
        with self.timers.section(self.timers.SOLVE):
            new_v, new_omega = self._influence[i].advance(rhs_phi, rhs_w)
        new_omega = new_omega.reshape(state.omega_y.shape)
        del rhs_w, rhs_phi
        if mean is not None:
            state.u00 = new_omega[mean].real.copy()
            state.w00 = new_omega[mean].imag.copy()
            new_omega[mean] = 0.0
            new_v[mean] = 0.0

        state.v = new_v
        state.omega_y = new_omega
        # the old u, w go first: recover_uw's temporaries take their place
        state.u = state.w = None
        state.u, state.w = recover_uw(m, ops, state.v, state.omega_y, state.u00, state.w00)

    def _accumulate(
        self,
        rhs: np.ndarray,
        lap: np.ndarray,
        tmp: np.ndarray,
        i: int,
        h: np.ndarray,
        h_prev: np.ndarray | None,
    ) -> None:
        """``rhs += dt * (alpha_i nu lap + gamma_i h)`` then, when given,
        ``rhs += dt * zeta_i h_prev`` — in place, ``lap`` and ``tmp``
        consumed as scratch."""
        sch, dt = self.scheme, self.dt
        np.multiply(sch.alpha[i] * self.nu, lap, out=lap)
        lap += np.multiply(sch.gamma[i], h, out=tmp)
        rhs += np.multiply(dt, lap, out=lap)
        if h_prev is not None:
            rhs += np.multiply(dt * sch.zeta[i], h_prev, out=tmp)

    # ------------------------------------------------------------------

    def solve_counters(self) -> dict:
        """Aggregated :class:`~repro.instrument.SolveCounters` snapshot
        over the engine of every factor set the stepper holds: the three
        Helmholtz sets and the shared Poisson set, so the ``solves``
        count is every engine solve the ``linalg.solve`` spans see.
        Reads counters only, so it never allocates — safe to call from
        the telemetry hot path."""
        total = dict.fromkeys(SolveCounters.FIELDS, 0)
        for lu in [self._poisson_lu] + [inf.helm_lu for inf in self._influence]:
            for k in total:
                total[k] += getattr(lu.engine.counters, k)
        return total

    def cfl_number(self) -> float:
        """Advective CFL of the last substep's velocity field.

        The three component maxima pass through ``reduce_max`` (the
        elementwise global max on a decomposed run) *before* they are
        combined, so the value is the same whichever rank holds which
        maximum."""
        return self._cfl(self.reduce_max(self.last_cfl_speeds))

    def _cfl(self, speeds: tuple[float, float, float]) -> float:
        """CFL number of the component maxima ``speeds``: of this block's
        own when they are ``last_cfl_speeds`` (no communicator call)."""
        g = self.grid
        umax, vmax, wmax = speeds
        dx = g.lx / g.nxq
        dz = g.lz / g.nzq
        dy_min = float(np.diff(g.y).min())
        return self.dt * (umax / dx + vmax / dy_min + wmax / dz)
