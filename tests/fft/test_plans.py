"""FFTW-style planner tests."""

import numpy as np
import pytest

from repro.fft.plans import (
    MEASURE_RUNS,
    FFTPlan,
    PlanFlags,
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

    def test_measure_mode_picks_a_strategy(self, rng):
        plan = FFTPlan("fft", (64, 64), axis=0, flags=PlanFlags.MEASURE)
        assert plan.strategy in ("direct", "copy-contiguous")
        assert len(plan.measured) == 2

    def test_strategies_agree(self, rng):
        a = rng.standard_normal((32, 16)) + 0j
        plan = FFTPlan("fft", a.shape, axis=0)
        np.testing.assert_allclose(plan._direct(a), plan._copy_contiguous(a), atol=1e-12)

    def test_copy_contiguous_takes_real_input_to_c2c(self, rng):
        """A real array through a c2c plan: the scratch copy is real, so it
        cannot double as the complex destination (MEASURE may pick this
        strategy on timing alone)."""
        a = rng.standard_normal((16, 16))
        plan = FFTPlan("fft", a.shape, axis=0)
        np.testing.assert_array_equal(plan._copy_contiguous(a), plan._direct(a))

    def test_last_axis_has_single_candidate(self):
        plan = FFTPlan("fft", (8, 16), axis=-1, flags=PlanFlags.MEASURE)
        assert plan.strategy == "direct"

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


class TestMeasurement:
    def test_measure_uses_best_of_n_runs(self, monkeypatch):
        """Planning must not be decided by one noisy sample: each candidate
        is timed MEASURE_RUNS times and the minimum wins."""
        calls = []
        real = FFTPlan._direct

        def counting_direct(self, a):
            calls.append("direct")
            return real(self, a)

        monkeypatch.setattr(FFTPlan, "_direct", counting_direct)
        FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE)
        # one warm-up + MEASURE_RUNS timed runs for the direct candidate
        assert calls.count("direct") == 1 + MEASURE_RUNS

    def test_copy_contiguous_output_is_contiguous_and_reuses_scratch(self, rng):
        plan = FFTPlan("fft", (8, 16), axis=0)
        a = rng.standard_normal((8, 16)) + 0j
        out1 = plan._copy_contiguous(a)
        assert out1.flags["C_CONTIGUOUS"]
        scratch = plan._tlocal.buf
        out2 = plan._copy_contiguous(2.0 * a)
        assert plan._tlocal.buf is scratch  # persistent workspace
        np.testing.assert_allclose(out2, 2.0 * out1, atol=1e-12)
