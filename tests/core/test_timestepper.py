"""Time stepper tests: scheme coefficients, steady states, convergence, decay."""

import tracemalloc

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.influence import InfluenceSolver
from repro.core.initial import laminar_profile
from repro.core.timestepper import ChannelState, SMR91
from repro.linalg.custom import FoldedLU
from repro.linalg.engine import BandedSolveEngine
from repro.linalg.helmholtz import HelmholtzOperator


class TestSMR91:
    def test_coefficients_consistent(self):
        s = SMR91()
        for i in range(3):
            assert abs(s.alpha[i] + s.beta[i] - s.gamma[i] - s.zeta[i]) < 1e-15
        assert abs(sum(s.gamma) + sum(s.zeta) - 1.0) < 1e-15

    def test_first_substep_has_no_zeta(self):
        assert SMR91().zeta[0] == 0.0


def laminar_state(grid, nu, forcing=1.0):
    return ChannelState(
        v=np.zeros(grid.spectral_shape, complex),
        omega_y=np.zeros(grid.spectral_shape, complex),
        u00=laminar_profile(grid, nu, forcing),
        w00=np.zeros(grid.ny),
    )


class TestSteadyStates:
    def test_laminar_poiseuille_is_steady(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, re_tau=180.0, dt=1e-3)
        dns = ChannelDNS(cfg)
        dns.initialize(laminar_state(dns.grid, cfg.nu, cfg.forcing))
        u_init = dns.state.u00.copy()
        dns.run(5)
        drift = np.abs(dns.state.u00 - u_init).max() / np.abs(u_init).max()
        assert drift < 1e-12

    def test_quiescent_fluid_spins_up_under_forcing(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, re_tau=180.0, dt=1e-3)
        dns = ChannelDNS(cfg)
        g = dns.grid
        dns.initialize(
            ChannelState(
                v=np.zeros(g.spectral_shape, complex),
                omega_y=np.zeros(g.spectral_shape, complex),
                u00=np.zeros(g.ny),
                w00=np.zeros(g.ny),
            )
        )
        dns.run(10)
        # acceleration du/dt = F = 1 initially -> u ~ t in the core
        t = 10 * cfg.dt
        centre = dns.state.u00 @ dns.grid.basis.colloc_matrix(0)[dns.grid.ny // 2]
        assert centre == pytest.approx(t, rel=0.05)


class TestStokesDecay:
    def test_exact_viscous_decay_rate(self):
        """u = cos(kz z) cos(pi y/2) decays at exactly nu (kz² + pi²/4)."""
        cfg = ChannelConfig(
            nx=16, ny=32, nz=16, dt=1e-3, forcing=0.0, nu_value=0.01, lz=np.pi
        )
        dns = ChannelDNS(cfg)
        g = dns.grid
        af = g.basis.interpolate(np.cos(np.pi * g.y / 2))
        omega = np.zeros(g.spectral_shape, complex)
        kz1 = g.kz[1]
        omega[0, 1] = 1j * kz1 * 5e-4 * af
        omega[0, g.mz - 1] = np.conj(omega[0, 1])
        dns.initialize(
            ChannelState(
                v=np.zeros(g.spectral_shape, complex),
                omega_y=omega,
                u00=np.zeros(g.ny),
                w00=np.zeros(g.ny),
            )
        )
        e0 = dns.kinetic_energy()
        n = 50
        dns.run(n)
        rate = -np.log(dns.kinetic_energy() / e0) / (2 * n * cfg.dt)
        exact = cfg.nu * (kz1**2 + (np.pi / 2) ** 2)
        assert rate == pytest.approx(exact, rel=1e-6)


class TestInvariants:
    def test_divergence_free_through_steps(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=2)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(5)
        assert dns.divergence_norm() < 1e-10

    def test_mean_mode_of_v_omega_stays_zero(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=2)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(3)
        assert np.abs(dns.state.v[0, 0]).max() == 0.0
        assert np.abs(dns.state.omega_y[0, 0]).max() == 0.0

    def test_physical_field_stays_real(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=4)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(3)
        u, v, w = dns.physical_velocity()
        for f in (u, v, w):
            assert np.isrealobj(f)

    def test_time_advances(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=5e-4)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(4)
        assert dns.state.time == pytest.approx(4 * cfg.dt)


def unfused_advance(inf, rhs_phi, rhs_omega):
    """A substep's solves one variable at a time, from public calls:
    omega_y alone, phi/v alone (``InfluenceSolver.solve``), and the
    (u00, w00) pair the stepper packs into the (0,0) omega_y member
    against a k² = 0 factor set of its own, as real columns."""
    ro = rhs_omega.reshape(inf.nmodes, inf.ny).copy()
    ro[:, 0] = 0.0
    ro[:, -1] = 0.0
    a_omega = inf.helm_lu.solve(ro)
    mean = ro[0]  # the serial block's (0,0) mode is its first member
    mean_lu = HelmholtzOperator(inf.ops.grid.basis).factor_helmholtz(np.zeros(2), inf.c)
    a_omega[0].real, a_omega[0].imag = mean_lu.solve(np.stack([mean.real, mean.imag]))
    return inf.solve(rhs_phi), a_omega.reshape(rhs_omega.shape)


class TestFusedSolves:
    def test_fused_equals_unfused_bit_for_bit(self, monkeypatch):
        """The fused omega/phi sweep, with the mean profiles riding the
        (0,0) omega_y member, must not change the trajectory at all:
        every state array identical to separate solves after several
        full steps."""
        cfg = ChannelConfig(nx=8, ny=17, nz=8, dt=5e-4, init_amplitude=0.3, seed=5)
        fused = ChannelDNS(cfg)
        fused.initialize()
        fused.run(4)
        assert fused.modes.mean_index == (0, 0)
        monkeypatch.setattr(InfluenceSolver, "advance", unfused_advance)
        unfused = ChannelDNS(cfg)
        unfused.initialize()
        unfused.run(4)
        for name in ("v", "omega_y", "u00", "w00", "u", "w"):
            a = getattr(fused.state, name)
            b = getattr(unfused.state, name)
            assert np.array_equal(a, b), f"{name} diverged between solve paths"

    def test_solve_section_timed_inside_advance(self):
        cfg = ChannelConfig(nx=8, ny=17, nz=8, dt=5e-4, init_amplitude=0.3, seed=5)
        dns = ChannelDNS(cfg)
        dns.initialize()
        spans = []

        class Tracer:  # the trace spans stay inclusive: they show the nesting
            def add_complete(self, name, t0, dt):
                spans.append((name, t0, t0 + dt))

        t = dns.stepper.timers
        t.tracer = Tracer()
        dns.run(1)
        assert t.elapsed[t.SOLVE] > 0.0 and t.elapsed[t.ADVANCE] > 0.0
        assert t.calls[t.SOLVE] >= 3  # at least one per substep
        advances = [(a, b) for name, a, b in spans if name == t.ADVANCE]
        solves = [(a, b) for name, a, b in spans if name == t.SOLVE]
        assert len(solves) == t.calls[t.SOLVE]
        assert all(any(a <= s0 and s1 <= b for a, b in advances) for s0, s1 in solves)
        # exclusive: ns_advance keeps only its own time, so the sections
        # sum to the total without counting the solves twice
        inclusive = sum(b - a for a, b in advances)
        assert t.elapsed[t.ADVANCE] + t.elapsed[t.SOLVE] == pytest.approx(inclusive)
        assert t.total() == pytest.approx(sum(t.elapsed.values()))
        assert set(t.elapsed) == {t.ADVANCE, t.SOLVE, t.NONLINEAR, t.FFT}


def factor_sets(obj) -> list:
    """Every :class:`FoldedLU` reachable through the attributes, lists and
    tuples of ``obj`` and the package objects it holds."""
    found, seen, todo = [], set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, FoldedLU):
            found.append(o)
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif type(o).__module__.startswith("repro.") and hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return found


class TestFactorSets:
    """One Poisson set per stepper, one Helmholtz set per substep, every
    set over the distinct k² of the block only."""

    def test_three_helmholtz_one_poisson_over_distinct_ksq(self):
        cfg = ChannelConfig(nx=48, ny=17, nz=48, dt=2e-4)
        st = ChannelDNS(cfg).stepper
        ksq = st.modes.ksq.ravel()
        distinct = np.unique(ksq).size
        poisson = st._poisson_lu
        helms = [inf.helm_lu for inf in st._influence]
        assert len({id(h) for h in helms}) == 3
        assert all(inf.poisson_lu is poisson for inf in st._influence)
        for lu in [poisson, *helms]:
            assert lu.data.shape[0] == distinct < lu.nbatch == ksq.size
            assert lu.rows is poisson.rows

        # factor bytes against the per-mode layout (a Helmholtz and a
        # Poisson set per substep, every mode its own factor row)
        per_mode = 0
        for i in range(3):
            c = st.scheme.beta[i] * st.nu * st.dt
            for matrix in (st._helm.assemble_helmholtz(ksq, c), st._helm.assemble_poisson(ksq)):
                lu = FoldedLU(matrix)
                per_mode += lu.nbytes()
        assert sum(lu.nbytes() for lu in [poisson, *helms]) <= 0.35 * per_mode

    def test_holds_one_poisson_and_three_helmholtz_sets_only(self):
        """No mean-mode factor sets: the (0,0) profiles ride the k² = 0
        member of each Helmholtz set."""
        st = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4)).stepper
        assert st.modes.owns_mean
        held = factor_sets(st)
        helms = [inf.helm_lu for inf in st._influence]
        assert len(held) == 4
        assert {id(lu) for lu in held} == {id(st._poisson_lu), *map(id, helms)}

    def test_one_step_makes_six_engine_solves(self, monkeypatch):
        """Per substep one fused omega_y/phi/mean sweep and one Poisson
        solve; ``solve_counters`` sees every one of them."""
        dns = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, init_amplitude=0.3, seed=6))
        dns.initialize()
        dns.run(1)
        calls = []
        for name in ("solve", "solve_many", "solve_stack"):
            fn = getattr(BandedSolveEngine, name)

            def counted(self, *args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(self, *args)

            monkeypatch.setattr(BandedSolveEngine, name, counted)
        before = dns.stepper.solve_counters()
        dns.run(1)
        after = dns.stepper.solve_counters()
        assert sorted(calls) == ["solve"] * 3 + ["solve_stack"] * 3
        assert after["solves"] - before["solves"] == 6
        assert after["columns"] - before["columns"] == 18

    def test_set_dt_keeps_poisson_and_equals_fresh_stepper(self):
        cfg = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, init_amplitude=0.3, seed=6)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(2)
        poisson = dns.stepper._poisson_lu
        fresh = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=1.3e-4))
        fresh.initialize(dns.state.copy())
        dns.set_dt(1.3e-4)
        assert dns.stepper._poisson_lu is poisson
        assert all(inf.poisson_lu is poisson for inf in dns.stepper._influence)
        dns.run(3)
        fresh.run(3)
        for name in ("v", "omega_y", "u00", "w00", "u", "w"):
            assert np.array_equal(getattr(dns.state, name), getattr(fresh.state, name)), name


class TestStepWorkingSet:
    """The step streams its products through one buffer and frees each
    substep's temporaries; it never writes into the state it is given."""

    @pytest.mark.parametrize("nx,ny,nz", [(48, 17, 48), (16, 193, 16)])
    def test_warm_step_peak_is_at_most_ten_quadrature_fields(self, nx, ny, nz):
        dns = ChannelDNS(ChannelConfig(nx=nx, ny=ny, nz=nz, dt=2e-4, init_amplitude=0.5, seed=3))
        dns.initialize()
        dns.run(2)  # plans, workspaces and factor engines exist from here on
        g = dns.grid
        field_bytes = g.nxq * g.nzq * g.ny * 8
        tracemalloc.start()
        try:
            dns.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * field_bytes, f"{peak / field_bytes:.1f} quadrature-grid fields"

    @pytest.mark.parametrize("cached_uw", [True, False])
    def test_step_leaves_input_state_alone(self, cached_uw):
        dns = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, init_amplitude=0.5, seed=3))
        dns.initialize()
        dns.run(1)
        state = dns.state
        if not cached_uw:
            state.u = state.w = None
        names = [n for n in ("v", "omega_y", "u00", "w00", "u", "w") if getattr(state, n) is not None]
        before = {n: getattr(state, n).copy() for n in names}
        out = dns.stepper.step(state)
        for n in names:
            assert np.array_equal(getattr(state, n), before[n]), n
        if not cached_uw:
            assert state.u is None and state.w is None
        assert out.time == state.time + dns.stepper.dt
        for n in ("v", "omega_y", "u00", "w00", "u", "w"):
            for m in names:
                assert not np.shares_memory(getattr(out, n), getattr(state, m)), (n, m)


class TestTemporalConvergence:
    def test_third_order_in_time(self):
        """Richardson: halving dt shrinks the error by ~2³ (allow >= 2²)."""

        def run(dt, nsteps):
            cfg = ChannelConfig(
                nx=16, ny=24, nz=16, re_tau=180.0, dt=dt, init_amplitude=0.3, seed=3
            )
            dns = ChannelDNS(cfg)
            dns.initialize()
            dns.run(nsteps)
            return dns.state

        T = 0.008
        s1 = run(T / 8, 8)
        s2 = run(T / 16, 16)
        s4 = run(T / 32, 32)
        e1 = np.abs(s1.v - s4.v).max() + np.abs(s1.omega_y - s4.omega_y).max()
        e2 = np.abs(s2.v - s4.v).max() + np.abs(s2.omega_y - s4.omega_y).max()
        order = np.log2(e1 / e2)
        assert order > 2.0, f"observed temporal order {order:.2f}"

    def test_cfl_number_positive_after_step(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5)
        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.run(1)
        assert 0.0 < dns.cfl_number() < 1.0
