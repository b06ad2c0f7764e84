"""Multi-job scheduler tests: placement, preemption, quarantine, retry.

The isolation contract under test: concurrently scheduled jobs run on
disjoint leases of one pool, and every job that completes — whatever
happened to its neighbours — lands bit-for-bit on its own serial
oracle trajectory.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.jobs import JobManager, JobSpec
from repro.mpi.pool import RankPool
from repro.mpi.simmpi import PreemptRequired
from repro.telemetry import read_manifest, read_stream

from tests.faults import rank1_kill_plan

CFG_A = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
CFG_B = dataclasses.replace(CFG_A, seed=21)


def _serial(config, n_steps):
    dns = ChannelDNS(config)
    dns.initialize()
    dns.run(n_steps)
    return dns.state


def _assert_bit_exact(full, ref):
    np.testing.assert_array_equal(full.v, ref.v)
    np.testing.assert_array_equal(full.omega_y, ref.omega_y)
    np.testing.assert_array_equal(full.u00, ref.u00)
    np.testing.assert_array_equal(full.w00, ref.w00)
    assert full.time == ref.time


def _events(directory):
    # validate the whole stream, keep the event records (drop the summary)
    records = list(read_stream(directory / "events.jsonl"))
    return [e for e in records if e["type"] == "event"]


class TestConcurrentPlacement:
    def test_two_jobs_run_disjoint_and_bit_exact(self, tmp_path):
        """Two jobs share a 4-rank pool concurrently; each finishes on
        its own serial trajectory, leases never overlap."""
        mgr = JobManager(4, directory=tmp_path)
        mgr.submit(JobSpec("alpha", CFG_A, n_steps=6, ranks=2, checkpoint_every=3))
        mgr.submit(JobSpec("beta", CFG_B, n_steps=6, ranks=2, checkpoint_every=3))
        records = mgr.run(timeout=300.0)

        assert not mgr.timed_out
        assert records["alpha"].state == "completed"
        assert records["beta"].state == "completed"
        assert records["alpha"].outcome == "completed"
        assert records["beta"].outcome == "completed"
        _assert_bit_exact(records["alpha"].result, _serial(CFG_A, 6))
        _assert_bit_exact(records["beta"].result, _serial(CFG_B, 6))

        placed = [e for e in _events(tmp_path) if e["kind"] == "placed"]
        leases = {e["job"]: set(e["info"]["pool_ranks"]) for e in placed}
        assert leases["alpha"].isdisjoint(leases["beta"])

    def test_completed_job_drivers_are_gone_when_run_returns(
        self, tmp_path, no_cyclic_gc, driver_census
    ):
        """With the cyclic collector off, a completed job keeps its
        gathered result and none of its rank drivers."""
        mgr = JobManager(2, directory=tmp_path)
        mgr.submit(JobSpec("alpha", CFG_A, n_steps=4, ranks=2, checkpoint_every=2))
        records = mgr.run(timeout=300.0)
        assert records["alpha"].state == "completed"
        _assert_bit_exact(records["alpha"].result, _serial(CFG_A, 4))
        assert driver_census.sizes == [2, 2]
        assert driver_census.alive() == []

    def test_manager_events_validate_and_carry_job_tags(self, tmp_path):
        mgr = JobManager(4, directory=tmp_path)
        mgr.submit(JobSpec("alpha", CFG_A, n_steps=4, ranks=2))
        mgr.submit(JobSpec("beta", CFG_B, n_steps=4, ranks=2))
        mgr.run(timeout=300.0)

        # read_stream validates every record against schema v4
        events = _events(tmp_path)
        by_kind = {}
        for e in events:
            if e["type"] == "event":
                assert e["job"] in ("alpha", "beta")
                by_kind.setdefault(e["kind"], []).append(e)
        assert len(by_kind["submitted"]) == 2
        assert len(by_kind["placed"]) == 2
        assert len(by_kind["completed"]) == 2

    def test_manifest_carries_pool_census_and_job_table(self, tmp_path):
        mgr = JobManager(RankPool(4), directory=tmp_path)
        mgr.submit(JobSpec("alpha", CFG_A, n_steps=4, ranks=2, priority=3))
        mgr.run(timeout=300.0)
        manifest = read_manifest(tmp_path)
        assert manifest["pool"]["size"] == 4
        assert manifest["pool"]["jobs"]["alpha"]["ranks"] == 2
        assert manifest["pool"]["jobs"]["alpha"]["priority"] == 3

    def test_per_job_streams_nest_under_manager_directory(self, tmp_path):
        mgr = JobManager(4, directory=tmp_path)
        mgr.submit(JobSpec("alpha", CFG_A, n_steps=4, ranks=2))
        mgr.run(timeout=300.0)
        placement = tmp_path / "job-alpha" / "placement-00"
        # the placement's own supervised-run event stream validates too
        assert (placement / "events.jsonl").exists()
        list(read_stream(placement / "events.jsonl"))
        assert (placement / "attempt-00" / "telemetry-rank000.jsonl").exists()


class TestPreemption:
    def test_high_priority_preempts_checkpoint_then_resumes(self, tmp_path):
        """A late high-priority arrival evicts the running job at a
        checkpoint boundary; the victim requeues, resumes from the
        snapshot and still lands bit-for-bit on its oracle."""
        mgr = JobManager(2, directory=tmp_path)
        low = mgr.submit(
            JobSpec(
                "low", CFG_A, n_steps=40, ranks=2, min_ranks=2,
                checkpoint_every=5, priority=0,
            )
        )
        high = mgr.submit(
            JobSpec(
                "high", CFG_B, n_steps=4, ranks=2, min_ranks=2,
                checkpoint_every=2, priority=10, start_after=0.02,
            )
        )
        records = mgr.run(timeout=600.0)

        assert not mgr.timed_out
        assert high.state == "completed"
        assert low.state == "completed"
        assert low.preemptions >= 1
        assert low.placements >= 2
        assert low.outcome == "preempted-resumed"
        # no checkpointed progress lost: both trajectories exact
        _assert_bit_exact(low.result, _serial(CFG_A, 40))
        _assert_bit_exact(high.result, _serial(CFG_B, 4))

        kinds = [(e["job"], e["kind"]) for e in _events(tmp_path)]
        assert ("low", "requeued") in kinds


class TestQuarantineIsolation:
    def test_failed_rank_invisible_to_other_jobs_until_probed(self, tmp_path):
        """Job alpha loses a rank; without a prober the backing pool rank
        stays quarantined forever — alpha grows back using a *different*
        free rank and beta is never handed the poisoned one."""
        pool = RankPool(5)
        mgr = JobManager(pool, directory=tmp_path)  # no prober
        plan = rank1_kill_plan(CFG_A, 4)
        alpha = mgr.submit(
            JobSpec(
                "alpha", CFG_A, n_steps=10, ranks=4, min_ranks=2,
                checkpoint_every=5, fault_plans=[plan],
            )
        )
        beta = mgr.submit(
            JobSpec("beta", CFG_B, n_steps=4, ranks=2, min_ranks=2)
        )
        records = mgr.run(timeout=600.0)

        assert not mgr.timed_out
        assert plan.triggered
        # alpha: 4 ranks -> shrink to 3 (pool rank 1 quarantined) -> grow
        # back to 4 on the spare pool rank
        assert alpha.state == "completed"
        assert alpha.counters.shrinks == 1
        assert alpha.counters.grows == 1
        assert alpha.outcome == "grown"
        assert pool.quarantined_ranks() == (1,)
        _assert_bit_exact(alpha.result, _serial(CFG_A, 10))
        # beta never saw pool rank 1 and is bit-exact on its own oracle
        assert beta.state == "completed"
        placed = [e for e in _events(tmp_path) if e["kind"] == "placed"]
        for e in placed:
            if e["job"] == "beta":
                assert 1 not in e["info"]["pool_ranks"]
        _assert_bit_exact(beta.result, _serial(CFG_B, 4))

    def test_prober_heals_quarantine_and_emits_probe_events(self, tmp_path):
        pool = RankPool(4)
        mgr = JobManager(pool, directory=tmp_path, prober=lambda r: True)
        plan = rank1_kill_plan(CFG_A, 4)
        alpha = mgr.submit(
            JobSpec(
                "alpha", CFG_A, n_steps=10, ranks=4, min_ranks=2,
                checkpoint_every=5, fault_plans=[plan],
            )
        )
        records = mgr.run(timeout=600.0)

        assert alpha.state == "completed"
        assert alpha.outcome == "grown"
        assert pool.quarantined_ranks() == ()
        kinds = [e["kind"] for e in _events(tmp_path)]
        assert "quarantine" in kinds
        assert "probe" in kinds
        _assert_bit_exact(alpha.result, _serial(CFG_A, 10))


class TestRetryAndDeadline:
    def test_hard_failure_retried_then_recovered(self, tmp_path):
        """A shrink below min_ranks kills the placement outright; the
        manager requeues with backoff and the clean retry completes."""
        pool = RankPool(3)
        mgr = JobManager(pool, directory=tmp_path, backoff_base=0.01, backoff_max=0.02)
        plan = rank1_kill_plan(CFG_A, 2)
        job = mgr.submit(
            JobSpec(
                "flaky", CFG_A, n_steps=6, ranks=2, min_ranks=2,
                checkpoint_every=3, fault_plans=[plan], max_retries=1,
            )
        )
        records = mgr.run(timeout=600.0)

        assert job.state == "completed"
        assert job.retries == 1
        assert job.placements == 2
        assert job.outcome == "recovered"
        assert pool.quarantined_ranks() == (1,)
        _assert_bit_exact(job.result, _serial(CFG_A, 6))
        requeued = [e for e in _events(tmp_path) if e["kind"] == "requeued"]
        assert requeued and requeued[0]["info"]["retry"] == 1
        assert requeued[0]["info"]["delay_s"] > 0.0

    def test_retry_budget_exhausted_fails_visibly(self, tmp_path):
        pool = RankPool(3)
        mgr = JobManager(pool, directory=tmp_path, backoff_base=0.01)
        plans = [rank1_kill_plan(CFG_A, 2)]
        job = mgr.submit(
            JobSpec(
                "doomed", CFG_A, n_steps=6, ranks=2, min_ranks=2,
                checkpoint_every=3, fault_plans=plans, max_retries=0,
            )
        )
        records = mgr.run(timeout=600.0)
        assert job.state == "failed"
        assert job.outcome == "failed"
        assert job.error is not None
        kinds = [e["kind"] for e in _events(tmp_path)]
        assert "failed" in kinds

    def test_deadline_stops_at_boundary_without_losing_checkpoint(self, tmp_path):
        mgr = JobManager(2, directory=tmp_path)
        job = mgr.submit(
            JobSpec(
                "late", CFG_A, n_steps=50, ranks=2, min_ranks=2,
                checkpoint_every=5, deadline=0.0,
            )
        )
        mgr.run(timeout=600.0)
        assert job.state == "failed"
        assert isinstance(job.error, PreemptRequired)
        assert job.error.reason == "deadline exceeded"
        # the boundary snapshot landed before the stop
        ckpt = tmp_path / "job-late" / "checkpoints"
        assert (ckpt / f"step-{job.error.step:09d}").is_dir()

    def test_manager_timeout_is_a_zero_hang_guard(self, tmp_path):
        mgr = JobManager(2, directory=tmp_path)
        job = mgr.submit(
            JobSpec(
                "runaway", CFG_A, n_steps=10_000, ranks=2, min_ranks=2,
                checkpoint_every=5,
            )
        )
        t0 = time.monotonic()
        mgr.run(timeout=0.2)
        assert mgr.timed_out
        assert job.state == "failed"
        # the guard fires promptly: one boundary, not 10k steps
        assert time.monotonic() - t0 < 120.0

    def test_unplaceable_job_fails_instead_of_hanging(self, tmp_path):
        pool = RankPool(4)
        for r in (1, 2, 3):
            pool.quarantine(r)
        mgr = JobManager(pool, directory=tmp_path)  # no prober: nothing heals
        job = mgr.submit(JobSpec("big", CFG_A, n_steps=4, ranks=2, min_ranks=2))
        mgr.run(timeout=60.0)
        assert job.state == "failed"
        assert "unplaceable" in str(job.error)

    def test_duplicate_submit_rejected(self, tmp_path):
        mgr = JobManager(2, directory=tmp_path)
        mgr.submit(JobSpec("twin", CFG_A, n_steps=2, ranks=2))
        with pytest.raises(ValueError, match="already submitted"):
            mgr.submit(JobSpec("twin", CFG_B, n_steps=2, ranks=2))
