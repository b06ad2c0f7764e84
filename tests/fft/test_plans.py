"""FFTW-style plan and plan-cache tests."""

import numpy as np
import pytest

from repro.fft.plans import (
    FFTPlan,
    Planner,
    available_backends,
    default_planner,
    resolve_backend,
)


class TestFFTPlan:
    @pytest.mark.parametrize("kind", ["fft", "ifft", "rfft"])
    def test_matches_numpy(self, kind, rng):
        a = rng.standard_normal((16, 8))
        if kind in ("fft", "ifft"):
            a = a + 1j * rng.standard_normal((16, 8))
        plan = FFTPlan(kind, a.shape, axis=0)
        ref = getattr(np.fft, kind)(a, axis=0)
        np.testing.assert_allclose(plan.execute(a), ref, atol=1e-12)

    def test_irfft_with_nout(self, rng):
        a = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        plan = FFTPlan("irfft", a.shape, axis=1, nout=16)
        np.testing.assert_allclose(plan.execute(a), np.fft.irfft(a, n=16, axis=1), atol=1e-12)

    def test_wrong_shape_raises(self, rng):
        plan = FFTPlan("fft", (8, 8), axis=0)
        with pytest.raises(ValueError):
            plan.execute(np.zeros((4, 8), complex))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            FFTPlan("dct", (8,), axis=0)


class TestPlanner:
    def test_cache_reuse(self):
        planner = Planner()
        p1 = planner.plan("fft", (8, 8), 0)
        p2 = planner.plan("fft", (8, 8), 0)
        assert p1 is p2

    def test_distinct_keys(self):
        planner = Planner()
        assert planner.plan("fft", (8, 8), 0) is not planner.plan("fft", (8, 8), 1)

    def test_execute_shortcut(self, rng):
        planner = Planner()
        a = rng.standard_normal((8, 4)) + 0j
        np.testing.assert_allclose(
            planner.execute("ifft", a, axis=0), np.fft.ifft(a, axis=0), atol=1e-13
        )

    def test_backend_keys_separate_entries(self):
        planner = Planner()
        p_np = planner.plan("fft", (8, 8), 0, backend="numpy")
        assert planner.plan("fft", (8, 8), 0, backend="numpy") is p_np
        if "scipy" in available_backends():
            assert planner.plan("fft", (8, 8), 0, backend="scipy") is not p_np

    def test_default_planner_is_a_singleton(self):
        assert default_planner() is default_planner()


class TestBackends:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("kind", ["fft", "ifft", "rfft"])
    def test_backends_match_numpy(self, backend, kind, rng):
        a = rng.standard_normal((12, 10))
        if kind in ("fft", "ifft"):
            a = a + 1j * rng.standard_normal((12, 10))
        plan = FFTPlan(kind, a.shape, axis=0, backend=backend, workers=2)
        ref = getattr(np.fft, kind)(a, axis=0)
        np.testing.assert_allclose(plan.execute(a), ref, atol=1e-12)

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            resolve_backend("fftw")
