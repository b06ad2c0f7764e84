"""Nonlinear (convective) term tests."""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.grid import ChannelGrid
from repro.core.nonlinear import NonlinearResult, NonlinearTerms
from repro.core.transforms import SerialTransformBackend
from repro.core.modes import ModeSet
from repro.core.operators import WallNormalOps

from tests.core.test_velocity import wall_compatible_state
from repro.core.velocity import recover_uw


class TestZeroFields:
    def test_quiescent_fluid(self, small_grid):
        g = small_grid
        ops = WallNormalOps(g)
        nl = NonlinearTerms(g.modes, ops, SerialTransformBackend(g))
        zero = np.zeros(g.spectral_shape, complex)
        res = nl.compute(zero, zero, zero)
        assert np.abs(res.hg).max() == 0.0
        assert np.abs(res.hv).max() == 0.0

    def test_pure_mean_flow_has_no_fluctuating_source(self, small_grid):
        """Mean u(y) alone: h_g = h_v = 0 and mean sources vanish too."""
        g = small_grid
        ops = WallNormalOps(g)
        nl = NonlinearTerms(g.modes, ops, SerialTransformBackend(g))
        u = np.zeros(g.spectral_shape, complex)
        u[0, 0] = g.basis.interpolate(1 - g.y**2)
        zero = np.zeros_like(u)
        res = nl.compute(u, zero, zero)
        assert np.abs(res.hg).max() < 1e-12
        assert np.abs(res.hv).max() < 1e-12
        # <uv> = <vw> = 0 for this field
        assert np.abs(res.h1_mean).max() < 1e-12
        assert np.abs(res.h3_mean).max() < 1e-12


class TestSpanwiseShearMode:
    def test_z_dependent_u_has_zero_convection(self):
        """u = f(y) cos(kz z), v = w = 0 is exactly advection-free."""
        g = ChannelGrid(nx=16, ny=24, nz=16)
        ops = WallNormalOps(g)
        nl = NonlinearTerms(g.modes, ops, SerialTransformBackend(g))
        af = g.basis.interpolate(np.cos(np.pi * g.y / 2))
        u = np.zeros(g.spectral_shape, complex)
        u[0, 1] = 0.5 * af
        u[0, g.mz - 1] = 0.5 * af
        zero = np.zeros_like(u)
        res = nl.compute(u, zero, zero)
        # uu is the only nonzero product, and it only enters through
        # gradient terms that the formulation annihilates.
        assert np.abs(res.hg).max() < 1e-11
        assert np.abs(res.hv).max() < 1e-11
        assert np.abs(res.h1_mean).max() < 1e-11


class TestMeanSources:
    def test_mean_source_is_minus_d_uv_dy(self, small_grid, rng):
        """h1_mean must equal -d<u'v'>/dy computed independently."""
        g = small_grid
        ops = WallNormalOps(g)
        nl = NonlinearTerms(g.modes, ops, SerialTransformBackend(g))
        v, omega = wall_compatible_state(g, rng)
        u, w = recover_uw(g.modes, ops, v, omega, np.zeros(g.ny), np.zeros(g.ny))
        res = nl.compute(u, v, w)

        # independent computation from the physical fields
        up, vp, wp = nl.physical_velocity(u, v, w)
        uv_mean = (up * vp).mean(axis=(0, 1))
        a = g.basis.interpolate(uv_mean)
        expected = -ops.dvalues(a)
        np.testing.assert_allclose(res.h1_mean, expected, atol=1e-10)

    def test_cfl_speeds_reported(self, small_grid, rng):
        g = small_grid
        ops = WallNormalOps(g)
        nl = NonlinearTerms(g.modes, ops, SerialTransformBackend(g))
        u = np.zeros(g.spectral_shape, complex)
        u[0, 0] = g.basis.interpolate(np.full(g.ny, 3.0) * (1 - g.y**2))
        zero = np.zeros_like(u)
        res = nl.compute(u, zero, zero)
        assert 2.0 < res.cfl_speeds[0] <= 3.1
        assert res.cfl_speeds[1] == 0.0


class TestEnergyConservation:
    def test_nonlinear_terms_conserve_energy(self, small_grid, rng):
        """The convective terms redistribute but do not create energy.

        Run two inviscid-limit micro-steps and verify the energy change is
        O(dt³) rather than O(dt) (the scheme's dissipation-free check).
        """
        from repro.core import ChannelConfig, ChannelDNS

        cfg_kwargs = dict(nx=16, ny=24, nz=16, re_tau=1e6, forcing=0.0,
                          nu_value=1e-9, init_amplitude=0.2, seed=7)
        drifts = []
        for dt in (2e-3, 1e-3):
            dns = ChannelDNS(ChannelConfig(dt=dt, **cfg_kwargs))
            dns.initialize()
            e0 = dns.kinetic_energy()
            dns.run(1)
            drifts.append(abs(dns.kinetic_energy() - e0) / e0)
        # superlinear decay of the energy drift with dt
        assert drifts[1] < drifts[0] * 0.55


def reference_compute(nl: NonlinearTerms, u, v, w) -> NonlinearResult:
    """The out-of-place evaluation the streamed ``compute`` replaced, kept
    verbatim as an oracle: all five products on the quadrature grid at
    once, fresh arrays for every spectral expression."""
    m, ops, be = nl.modes, nl.ops, nl.backend
    vals = (ops.values(u), ops.values(v), ops.values(w))
    if hasattr(be, "to_physical_many"):
        up, vp, wp = be.to_physical_many(vals)
    else:
        up, vp, wp = tuple(be.to_physical(f) for f in vals)

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


def random_velocity(modes: ModeSet, ny: int, rng):
    shape = modes.state_shape(ny)
    return tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))


def assert_same_bits(a: NonlinearResult, b: NonlinearResult) -> None:
    assert np.array_equal(a.hg, b.hg)
    assert np.array_equal(a.hv, b.hv)
    for x, y in ((a.h1_mean, b.h1_mean), (a.h3_mean, b.h3_mean)):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)
    assert a.cfl_speeds == b.cfl_speeds


class TestStreamedEqualsOracle:
    """The one-buffer, in-place evaluation is the out-of-place one, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_serial_48x17x48(self, seed):
        g = ChannelGrid(nx=48, ny=17, nz=48)
        nl = NonlinearTerms(g.modes, WallNormalOps(g), SerialTransformBackend(g))
        u, v, w = random_velocity(g.modes, g.ny, np.random.default_rng(seed))
        assert_same_bits(nl.compute(u, v, w), reference_compute(nl, u, v, w))

    def test_serial_dns_state(self):
        dns = ChannelDNS(ChannelConfig(nx=48, ny=17, nz=48, init_amplitude=0.5, seed=3))
        dns.initialize()
        s, nl = dns.state, dns.stepper.nonlinear
        assert_same_bits(nl.compute(s.u, s.v, s.w), reference_compute(nl, s.u, s.v, s.w))

    def test_rank_blocks_of_2x2(self):
        from repro.mpi.simmpi import run_spmd
        from repro.pencil.distributed import DistributedChannelDNS

        cfg = ChannelConfig(nx=32, ny=17, nz=32)

        def prog(comm):
            dns = DistributedChannelDNS(comm, cfg, 2, 2)
            nl = dns.stepper.nonlinear
            u, v, w = random_velocity(dns.modes, cfg.ny, np.random.default_rng(comm.rank))
            assert_same_bits(nl.compute(u, v, w), reference_compute(nl, u, v, w))
            return dns.modes.owns_mean

        assert sum(run_spmd(4, prog)) == 1


class _StrideSpy:
    """A transform backend recording the strides it hands out and takes in."""

    def __init__(self, backend) -> None:
        self.backend, self.out_strides, self.in_strides = backend, set(), set()

    def to_physical(self, spec):
        phys = self.backend.to_physical(spec)
        self.out_strides.add(phys.strides)
        return phys

    def from_physical(self, phys):
        self.in_strides.add(phys.strides)
        return self.backend.from_physical(phys)


def test_products_keep_the_velocity_layout(small_grid, rng):
    """Every product reaches ``from_physical`` laid out like the velocities
    (the serial pipeline's contiguous (z, y, x) rFFT path)."""
    g = small_grid
    spy = _StrideSpy(SerialTransformBackend(g))
    NonlinearTerms(g.modes, WallNormalOps(g), spy).compute(*random_velocity(g.modes, g.ny, rng))
    assert len(spy.out_strides) == 1
    assert spy.in_strides == spy.out_strides


class _Poisoned:
    """A transform backend whose ``component``-th physical velocity carries
    ``value`` at flat index ``at``."""

    def __init__(self, backend, component: int, value: float, at: int) -> None:
        self.backend, self.component, self.value, self.at = backend, component, value, at
        self.calls = 0

    def to_physical(self, spec):
        phys = self.backend.to_physical(spec)
        if self.calls == self.component:
            phys[np.unravel_index(self.at, phys.shape)] = self.value
        self.calls += 1
        return phys

    def from_physical(self, phys):
        return self.backend.from_physical(phys)


class TestCflSpeedsSeeNonFinite:
    """``HealthMonitor`` trusts ``np.isfinite(cfl)``: one non-finite
    velocity value anywhere must reach the CFL speed of its component."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_non_finite_reaches_speed(self, small_grid, rng, value, component):
        g = small_grid
        u, v, w = random_velocity(g.modes, g.ny, rng)
        size = int(np.prod(g.quadrature_shape))
        for at in (0, size - 1, int(rng.integers(size))):
            be = _Poisoned(SerialTransformBackend(g), component, value, at)
            nl = NonlinearTerms(g.modes, WallNormalOps(g), be)
            with np.errstate(invalid="ignore", over="ignore"):
                speeds = nl.compute(u, v, w).cfl_speeds
            assert not np.isfinite(speeds[component]), (value, component, at)
            others = [c for c in range(3) if c != component]
            assert all(np.isfinite(speeds[c]) for c in others)
