"""The one statistics accumulator: batch oracle, reads, restart and shrink.

The acceptance property of the streaming accumulator: a streamed run's
profiles and spectra match the batch ``stats/`` functions — bit-for-bit
in serial (identical operations in identical order), and to the
documented :data:`repro.serving.REDUCTION_RTOL` across ranks (the
allreduce regroups the floating-point sums) — and the match survives a
mid-run kill/restart and an elastic shrink with no samples lost.  The
batch oracle itself (``mode_weights`` / ``plane_covariance``) and the
profile read helpers are pinned here too.
"""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import ShardedCheckpointRotation
from repro.core.statistics import mode_weights, plane_covariance
from repro.mpi.simmpi import run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.serving import REDUCTION_RTOL, SIDECAR_NAME, StatsStore, StreamingStatistics
from repro.stats.spectra import energy_spectrum_x, energy_spectrum_z

from tests.faults import rank1_kill_plan

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)


def _serial_reference(nsteps: int, every: int = 1):
    """Streamed serial run: the oracle the resilience tests compare against."""
    dns = ChannelDNS(CFG)
    dns.initialize()
    stream = dns.attach_streaming(every=every)
    dns.run(nsteps)
    return dns, stream


def _assert_matches(result: dict, ref: dict, rtol: float, names=None):
    for name in names or ("U", "uu", "vv", "ww", "uv"):
        np.testing.assert_allclose(
            result[name], ref[name], rtol=rtol, atol=1e-14, err_msg=name
        )


class TestBatchOracle:
    def test_kx0_counts_once(self, small_grid):
        w = mode_weights(small_grid)
        assert np.all(w[0, :] == 1.0)
        assert np.all(w[1:, :] == 2.0)

    def test_covariance_matches_physical_average(self, small_grid, rng):
        """Spectral covariance equals the physical plane average (Parseval)."""
        from tests.core.test_transforms import random_spectral
        from repro.core.transforms import to_quadrature_grid

        g = small_grid
        f = random_spectral(g, rng)
        cov = plane_covariance(g, f, f)
        phys = to_quadrature_grid(f, g)
        mean = phys.mean(axis=(0, 1))
        expected = (phys**2).mean(axis=(0, 1)) - mean**2
        np.testing.assert_allclose(cov, expected, rtol=1e-8, atol=1e-12)


class TestSerialIdentity:
    def test_profiles_bit_identical_to_batch_oracle(self):
        """Streamed profiles == per-snapshot ``plane_covariance`` sums, bit
        for bit: both sum the same per-plane weighted products in the
        same order."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming(every=1)
        batch = {name: np.zeros(CFG.ny) for name in stream.PROFILES}

        def accumulate(d):
            g, ops, s = d.grid, d.stepper.ops, d.state
            u, v, w = ops.values(s.u), ops.values(s.v), ops.values(s.w)
            batch["U"] += u[0, 0].real
            batch["uu"] += plane_covariance(g, u, u)
            batch["vv"] += plane_covariance(g, v, v)
            batch["ww"] += plane_covariance(g, w, w)
            batch["uv"] += plane_covariance(g, u, v)

        dns.run(4, callback=accumulate)
        res = stream.result()
        for name in ("uu", "vv", "ww", "uv"):
            np.testing.assert_array_equal(res[name], batch[name] / 4)
            np.testing.assert_array_equal(stream.profile(name), batch[name] / 4)
        # U differs only by the summation route (values-of-sum vs
        # sum-of-values); both are exact to one ulp
        np.testing.assert_allclose(res["U"], batch["U"] / 4, rtol=0, atol=1e-14)

    def test_spectra_match_batch_functions(self):
        """A single streamed sample reproduces energy_spectrum_x/z at
        every plane (round-off only: the batch path slices the y plane
        before summing, the streamed path after)."""
        dns, stream = _serial_reference(1)
        res = stream.result()
        ops = dns.stepper.ops
        for field, comp in ((dns.state.u, "u"), (dns.state.v, "v"), (dns.state.w, "w")):
            for yi in (0, CFG.ny // 2, CFG.ny - 1):
                kx, ex = energy_spectrum_x(dns.grid, ops, field, yi)
                kz, ez = energy_spectrum_z(dns.grid, ops, field, yi)
                np.testing.assert_array_equal(kx, res["kx"])
                np.testing.assert_array_equal(kz, res["kz"])
                np.testing.assert_allclose(
                    res[f"spec_x_{comp}"][:, yi], ex, rtol=1e-12, atol=1e-300
                )
                np.testing.assert_allclose(
                    res[f"spec_z_{comp}"][:, yi], ez, rtol=1e-12, atol=1e-300
                )

    def test_sampling_cadence(self):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming(every=2)
        dns.run(5)
        assert stream.counters.samples == 2  # steps 2 and 4
        assert stream.total_samples == 2

    def test_stats_timer_section_accumulates(self):
        dns, stream = _serial_reference(3)
        timers = dns.timers
        assert timers is dns.stepper.timers  # one set of timers per run
        assert timers.calls.get(timers.STATS) == 3
        assert timers.elapsed[timers.STATS] > 0.0
        assert stream.counters.sample_seconds > 0.0

    def test_result_without_samples_raises(self):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming()
        with pytest.raises(RuntimeError, match="no samples"):
            stream.result()
        with pytest.raises(RuntimeError, match="no samples"):
            stream.profile("U")


class TestProfileReads:
    """The read helpers on a short sampled run (physical sanity)."""

    @pytest.fixture(scope="class")
    def sampled(self):
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=5)
        dns = ChannelDNS(cfg)
        dns.initialize()
        stats = dns.attach_streaming(every=2)
        dns.run(4)
        return stats

    def test_sample_count(self, sampled):
        assert sampled.nsamples == 2

    def test_variances_nonnegative(self, sampled):
        for name in ("uu", "vv", "ww"):
            assert np.all(sampled.profile(name) >= -1e-14)

    def test_variances_vanish_at_walls(self, sampled):
        for name in ("uu", "vv", "ww", "uv"):
            prof = sampled.profile(name)
            assert abs(prof[0]) < 1e-12 and abs(prof[-1]) < 1e-12

    def test_reynolds_stress_is_minus_uv(self, sampled):
        np.testing.assert_array_equal(sampled.reynolds_stress(), -sampled.profile("uv"))

    def test_friction_velocity_near_unity(self, sampled):
        """With forcing = 1 the equilibrium friction velocity is 1."""
        assert 0.5 < sampled.friction_velocity() < 2.0
        assert sampled.friction_velocity() == sampled.result()["u_tau"]

    def test_wall_units_monotone(self, sampled):
        yplus, uplus = sampled.wall_units()
        assert yplus[0] < 1e-12
        assert np.all(np.diff(yplus) > 0)
        assert abs(uplus[0]) < 1e-10

    def test_bulk_velocity_positive(self, sampled):
        assert sampled.bulk_velocity() > 0.0

    def test_mean_profile_symmetric_for_symmetric_ic(self):
        """A z-independent symmetric start stays symmetric in the mean."""
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.0, seed=0)
        dns = ChannelDNS(cfg)
        dns.initialize()
        stats = dns.attach_streaming(every=1)
        dns.run(3)
        u = stats.mean_velocity()
        # evaluate on a symmetric sampling grid to compare halves
        yy = np.linspace(-0.9, 0.9, 19)
        a = dns.grid.basis.interpolate(u)
        prof = dns.grid.basis.evaluate(a, yy)
        np.testing.assert_allclose(prof, prof[::-1], atol=1e-8)


class TestSerialSidecar:
    def test_kill_restart_loses_no_samples(self, tmp_path):
        """Serial mid-run 'kill': checkpoint at step 3, rebuild from disk,
        resume to step 6 — streamed stats == an uninterrupted streamed run."""
        _, ref_stream = _serial_reference(6)
        ref = ref_stream.result()

        rot = ShardedCheckpointRotation(tmp_path, keep=3)
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.attach_streaming(every=1)
        dns.run(3)
        snap = rot.save(dns)  # writes the stats sidecar inside the snapshot
        assert (snap / SIDECAR_NAME).exists()
        del dns  # the "kill"

        restored = ChannelDNS(CFG)
        stream = restored.attach_streaming(every=1)
        rot.load_latest(restored)  # hands the accumulator its sidecar
        assert restored.step_count == 3
        assert stream.total_samples == 3
        assert stream.counters.restores == 1
        restored.run(3)
        res = stream.result()
        assert res["nsamples"] == 6
        # restored-base + resumed-partial regroups the sum, so the match
        # is to the documented reduction tolerance, not bit-exact
        _assert_matches(res, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_z_w"):
            np.testing.assert_allclose(
                res[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )

    def test_missing_sidecar_restores_empty(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming()
        assert not stream.restore_from(tmp_path)
        assert stream.total_samples == 0

    def test_sidecar_grid_mismatch_rejected(self, tmp_path):
        dns, stream = _serial_reference(1)
        stream.save_to(tmp_path)
        other = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4))
        other.initialize()
        with pytest.raises(ValueError, match="grid mismatch"):
            other.attach_streaming().restore_from(tmp_path)

    def test_sidecars_rotate_with_snapshots(self, tmp_path):
        """A sidecar lives only inside its snapshot directory and is
        pruned with it."""
        rot = ShardedCheckpointRotation(tmp_path, keep=2)
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.attach_streaming(every=1)
        for _ in range(4):
            dns.run(1)
            rot.save(dns)
        sidecars = sorted(tmp_path.rglob("stats*.npz"))
        assert sidecars == [snap / SIDECAR_NAME for snap in reversed(rot.snapshot_dirs())]
        assert rot.snapshot_dirs()[0].name == f"step-{dns.step_count:09d}"


class TestDistributedIdentity:
    def test_distributed_matches_serial_to_reduction_tolerance(self):
        _, ref_stream = _serial_reference(4)
        ref = ref_stream.result()

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            stream = dns.attach_streaming(every=1)
            dns.run(4)
            return stream.result() if comm.rank == 0 else stream.result() and None

        results = run_spmd(4, prog)
        res = results[0]
        _assert_matches(res, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_x_v", "spec_x_w", "spec_z_u", "spec_z_w"):
            np.testing.assert_allclose(
                res[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )
        assert res["nsamples"] == 4
        np.testing.assert_allclose(res["u_tau"], ref["u_tau"], rtol=REDUCTION_RTOL)

    @pytest.mark.parametrize("pa,pb", [(2, 2), (4, 1)])
    def test_reads_match_serial(self, pa, pb):
        """Every rank's profile reads and u_tau equal the serial
        accumulator's (sampling every other step, read on every rank)."""
        _, ref = _serial_reference(4, every=2)

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
            dns.initialize()
            stats = dns.attach_streaming(every=2)
            dns.run(4)
            out = {name: stats.profile(name) for name in stats.PROFILES}
            out["u_tau"] = stats.friction_velocity()
            return out

        for res in run_spmd(pa * pb, prog):
            for name in StreamingStatistics.PROFILES:
                np.testing.assert_allclose(
                    res[name], ref.profile(name), atol=1e-12, err_msg=name
                )
            assert res["u_tau"] == pytest.approx(ref.friction_velocity(), abs=1e-12)

    def test_no_samples_raises_on_every_rank(self):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=1)
            dns.initialize()
            stats = dns.attach_streaming()
            with pytest.raises(RuntimeError):
                stats.profile("uu")
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))

    def test_supervised_restart_preserves_samples(self, tmp_path):
        """A mid-run rank kill -> full restart: published statistics match
        the uninterrupted serial oracle with exactly n_steps samples."""
        _, ref_stream = _serial_reference(10)
        ref = ref_stream.result()
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=5,
            fault_plans=[plan],
            streaming_every=1, publish=tmp_path / "store",
        )
        assert [e.kind for e in log] == ["restart"]
        manifest, arrays = StatsStore(tmp_path / "store").load(CFG.re_tau)
        assert manifest["nsamples"] == 10
        _assert_matches(arrays, ref, REDUCTION_RTOL)

    def test_elastic_shrink_preserves_samples(self, tmp_path):
        """The 4 -> 2x1-survivor shrink continues accumulating: published
        statistics still match the serial oracle, no samples dropped."""
        _, ref_stream = _serial_reference(10)
        ref = ref_stream.result()
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=5,
            fault_plans=[plan], elastic=True,
            streaming_every=1, publish=tmp_path / "store",
        )
        assert "shrink" in [e.kind for e in log]
        manifest, arrays = StatsStore(tmp_path / "store").load(CFG.re_tau)
        assert manifest["nsamples"] == 10
        _assert_matches(arrays, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_z_u"):
            np.testing.assert_allclose(
                arrays[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )
