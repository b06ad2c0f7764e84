"""TransformPipeline: equivalence to the naive reference, buffer reuse."""

import numpy as np
import pytest

from repro.core.grid import ChannelGrid
from repro.core.transforms import (
    NaiveTransformBackend,
    SerialTransformBackend,
    from_quadrature_grid,
    to_quadrature_grid,
)
from repro.fft.pipeline import TransformPipeline
from repro.fft.plans import Planner, available_backends

GRIDS = [(16, 10, 16), (16, 9, 24), (8, 8, 8), (24, 11, 16), (32, 17, 32)]


def random_fields(grid, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
        for _ in range(n)
    ]


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("shape", GRIDS)
    def test_numpy_estimate_is_bit_for_bit(self, shape):
        """The default pipeline reproduces the naive chain exactly."""
        g = ChannelGrid(*shape)
        pipe = TransformPipeline(g, backend="numpy", planner=Planner())
        for f in random_fields(g, seed=3, n=2):
            phys = pipe.to_physical(f)
            np.testing.assert_array_equal(phys, to_quadrature_grid(f, g))
            np.testing.assert_array_equal(pipe.from_physical(phys), from_quadrature_grid(phys, g))

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", [(16, 10, 16), (24, 9, 24)])
    def test_measured_backends_match_reference(self, backend, shape):
        """Every backend, threaded, agrees with the reference to roundoff."""
        g = ChannelGrid(*shape)
        pipe = TransformPipeline(g, backend=backend, workers=2, planner=Planner())
        (f,) = random_fields(g, seed=5)
        phys = pipe.to_physical(f)
        ref = to_quadrature_grid(f, g)
        np.testing.assert_allclose(phys, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        spec = pipe.from_physical(ref)
        sref = from_quadrature_grid(ref, g)
        np.testing.assert_allclose(spec, sref, rtol=0, atol=1e-12 * np.abs(sref).max())

    @pytest.mark.parametrize("shape", GRIDS)
    def test_roundtrip_identity(self, shape):
        g = ChannelGrid(*shape)
        pipe = TransformPipeline(g, planner=Planner())
        rng = np.random.default_rng(11)
        f = rng.standard_normal(g.spectral_shape) + 1j * rng.standard_normal(g.spectral_shape)
        # real-representable mean mode so the forward transform is exact
        f[0, 0] = rng.standard_normal(g.ny)
        half = g.nz // 2
        for j in range(1, half):
            f[0, g.mz - j] = np.conj(f[0, j])
        back = pipe.from_physical(pipe.to_physical(f))
        np.testing.assert_allclose(back, f, atol=1e-11)

    def test_shape_validation(self):
        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g, planner=Planner())
        with pytest.raises(ValueError):
            pipe.to_physical(np.zeros((3, 3, 3), complex))
        with pytest.raises(ValueError):
            pipe.from_physical(np.zeros((3, 3, 3)))


class TestBufferDiscipline:
    def test_repeated_substeps_allocate_no_new_workspace(self):
        """After one warm substep the workspace counters are frozen."""
        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g, planner=Planner())
        fields = random_fields(g, seed=7, n=3)
        phys = pipe.to_physical_many(fields)
        products = [p * q for p, q in zip(phys, phys[::-1])] + [phys[0] * phys[0]] * 2
        pipe.from_physical_many(products)

        warm = pipe.counters.snapshot()
        # the two pads, the backward truncation scratch, and the numpy
        # backend's two destination-hint buffers
        assert warm["workspace_allocs"] == 5
        assert warm["workspace_bytes"] == pipe.workspace_bytes()
        for _ in range(3):  # three more "substeps"
            phys = pipe.to_physical_many(fields)
            pipe.from_physical_many(products)
        after = pipe.counters.snapshot()
        assert after["workspace_allocs"] == warm["workspace_allocs"]
        assert after["workspace_bytes"] == warm["workspace_bytes"]
        # ... while the execution counters kept moving
        assert after["transforms"] == warm["transforms"] + 3 * 16
        assert after["fields_forward"] == warm["fields_forward"] + 9
        assert after["fields_backward"] == warm["fields_backward"] + 15

    def test_outputs_are_caller_owned(self):
        """Pipeline outputs are fresh arrays, never workspace views."""
        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g, planner=Planner())
        (f,) = random_fields(g, seed=1)
        p1 = pipe.to_physical(f)
        keep = p1.copy()
        pipe.to_physical(2.0 * f)  # would clobber p1 if it aliased workspace
        np.testing.assert_array_equal(p1, keep)
        s1 = pipe.from_physical(p1)
        skeep = s1.copy()
        pipe.from_physical(2.0 * p1)
        np.testing.assert_array_equal(s1, skeep)

    def test_dealias_zeros_survive_interleaved_reuse(self):
        """The pads' dealiasing bands are zeroed once at allocation;
        interleaving backward calls (which run in-place FFTs over their
        own scratch) must never dirty what a later forward call reads."""
        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g, planner=Planner())
        for seed in range(3):
            (f,) = random_fields(g, seed=seed)
            phys = pipe.to_physical(f)
            np.testing.assert_array_equal(phys, to_quadrature_grid(f, g))
            spec = pipe.from_physical(phys)  # dirties the shared workspace
            np.testing.assert_array_equal(spec, from_quadrature_grid(phys, g))


class TestBatchedStacks:
    def test_many_equals_single(self):
        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g, planner=Planner())
        fields = random_fields(g, seed=2, n=3)
        many = pipe.to_physical_many(fields)
        for f, p in zip(fields, many):
            np.testing.assert_array_equal(p, pipe.to_physical(f))
        back = pipe.from_physical_many(many)
        for p, s in zip(many, back):
            np.testing.assert_array_equal(s, pipe.from_physical(p))


class TestPlanSharing:
    def test_pipelines_share_the_plan_cache(self):
        g = ChannelGrid(16, 10, 16)
        planner = Planner()
        p1 = TransformPipeline(g, planner=planner)
        n_after_first = len(planner)
        p2 = TransformPipeline(g, planner=planner)
        assert len(planner) == n_after_first  # no new plans for same shapes
        assert p1.plans() == p2.plans()

    def test_pencil_and_serial_share_by_default(self):
        from repro.fft.plans import default_planner

        g = ChannelGrid(16, 10, 16)
        pipe = TransformPipeline(g)
        assert pipe.planner is default_planner()


class TestSerialBackendWiring:
    def test_backend_is_pipeline_backed(self):
        g = ChannelGrid(16, 10, 16)
        be = SerialTransformBackend(g)
        assert isinstance(be.pipeline, TransformPipeline)
        assert be.counters is be.pipeline.counters

    def test_backend_matches_naive_backend(self):
        g = ChannelGrid(16, 10, 16)
        be = SerialTransformBackend(g)
        naive = NaiveTransformBackend(g)
        (f,) = random_fields(g, seed=9)
        p = be.to_physical(f)
        np.testing.assert_array_equal(p, naive.to_physical(f))
        np.testing.assert_array_equal(be.from_physical(p), naive.from_physical(p))

    def test_dns_statistics_identical_to_naive_backend(self):
        """Same seed, same dt: the planned pipeline reproduces the naive
        trajectory bit-for-bit (the acceptance invariant of this PR)."""
        from repro.core import ChannelConfig, ChannelDNS
        from repro.core.timestepper import IMEXStepper

        cfg = ChannelConfig(nx=16, ny=20, nz=16, dt=2e-4, seed=4)
        dns = ChannelDNS(cfg)
        dns.initialize()
        ref = ChannelDNS(cfg)
        ref.stepper = IMEXStepper(
            ref.grid, nu=cfg.nu, dt=cfg.dt, forcing=cfg.forcing, scheme=cfg.scheme,
            backend=NaiveTransformBackend(ref.grid),
        )
        ref.initialize()
        dns.run(5)
        ref.run(5)
        np.testing.assert_array_equal(dns.state.v, ref.state.v)
        np.testing.assert_array_equal(dns.state.omega_y, ref.state.omega_y)
        np.testing.assert_array_equal(dns.state.u00, ref.state.u00)
        assert dns.kinetic_energy() == ref.kinetic_energy()
