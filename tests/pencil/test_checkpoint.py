"""Sharded checkpoint tests: coordinated write/restore, kill-restart identity.

The distributed acceptance property: a 4-rank run whose rank 1 is killed
mid-transpose and that is relaunched by the job-level supervisor lands
bit-for-bit on the uninterrupted trajectory.
"""

import time

import numpy as np
import pytest

from repro.core import ChannelConfig
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointUnrecoverableError,
    ShardedCheckpointRotation,
)
from repro.core.health import UnstableError
from repro.instrument import RecoveryCounters
from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.pencil.transpose import TransposeMethod
from repro.storage import read_npz

from tests.faults import rank1_kill_plan, stamp_newer_format

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)


def _flip_byte(path, offset_fraction=0.5):
    data = bytearray(path.read_bytes())
    data[int(len(data) * offset_fraction)] ^= 0xFF
    path.write_bytes(bytes(data))


def _uninterrupted_state(nsteps=10):
    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
        dns.initialize()
        dns.run(nsteps)
        return dns.gather_state()

    return run_spmd(4, prog)[0]


class TestShardedRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(3)
            dns.save_checkpoint(tmp_path)

            fresh = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            fresh.load_checkpoint(tmp_path)
            assert fresh.step_count == 3
            assert fresh.state.time == dns.state.time
            np.testing.assert_array_equal(fresh.state.v, dns.state.v)
            np.testing.assert_array_equal(fresh.state.omega_y, dns.state.omega_y)
            fresh.run(2)
            dns.run(2)
            np.testing.assert_array_equal(fresh.state.v, dns.state.v)
            return True

        assert all(run_spmd(4, prog))

    def test_layout_on_disk(self, tmp_path):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(2)
            dns.save_checkpoint(tmp_path)
            return True

        run_spmd(4, prog)
        snap = tmp_path / "step-000000002"
        assert snap.is_dir()
        assert (snap / "manifest.json").exists()
        assert sorted(p.name for p in snap.glob("shard-*.npz")) == [
            f"shard-r{r:04d}.npz" for r in range(4)
        ]
        assert (tmp_path / "latest").read_text().strip() == snap.name

    def test_rotation_keeps_k_snapshots(self, tmp_path):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            rot = ShardedCheckpointRotation(tmp_path, keep=2)
            for _ in range(4):
                dns.run(1)
                rot.save(dns)
            return True

        run_spmd(4, prog)
        rot = ShardedCheckpointRotation(tmp_path, keep=2)
        assert [p.name for p in rot.snapshot_dirs()] == [
            "step-000000004",
            "step-000000003",
        ]


class TestCoordinatedFallback:
    def test_corrupt_shard_falls_back_collectively(self, tmp_path):
        """One flipped byte in one rank's shard must make ALL ranks skip
        that snapshot together and restore the previous one."""

        def save_two(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            rot = ShardedCheckpointRotation(tmp_path)
            dns.run(2)
            rot.save(dns)
            dns.run(2)
            rot.save(dns)
            return True

        run_spmd(4, save_two)
        _flip_byte(tmp_path / "step-000000004" / "shard-r0002.npz")

        counters = RecoveryCounters()

        def restore(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            ShardedCheckpointRotation(tmp_path, counters=counters).load_latest(dns)
            return dns.step_count

        assert run_spmd(4, restore) == [2, 2, 2, 2]
        assert counters.verify_failures >= 1

    def test_all_snapshots_corrupt_raises_everywhere(self, tmp_path):
        def save_one(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            dns.save_checkpoint(tmp_path)
            return True

        run_spmd(4, save_one)
        for shard in (tmp_path / "step-000000001").glob("shard-*.npz"):
            _flip_byte(shard)

        def restore(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            with pytest.raises(CheckpointCorruptError, match="no verifiable"):
                dns.load_checkpoint(tmp_path)
            comm.barrier()
            return True

        assert all(run_spmd(4, restore))

    def test_failure_message_names_shard_rank_path_and_reason(self, tmp_path):
        """When every snapshot is exhausted, the error says exactly which
        rank's shard failed verification and why — not a generic mismatch."""

        def save_one(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            dns.save_checkpoint(tmp_path)
            return True

        run_spmd(4, save_one)
        _flip_byte(tmp_path / "step-000000001" / "shard-r0002.npz")

        def restore(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            try:
                dns.load_checkpoint(tmp_path)
            except CheckpointCorruptError as exc:
                return str(exc)
            return None

        messages = run_spmd(4, restore)
        for msg in messages:
            assert msg is not None
            # which rank, which file, and the underlying reason
            assert "rank 2" in msg
            assert "shard-r0002.npz" in msg
            assert "failed verification" in msg
            assert "checksum mismatch" in msg or "unreadable" in msg

    def test_two_corrupt_generations_raise_typed_error_with_attribution(
        self, tmp_path
    ):
        """Regression for the exhaustion path: corrupt a different shard
        in each of two generations — the typed error lists *both*
        generations with per-shard rank/path/reason attribution, newest
        first, and is a CheckpointCorruptError for existing handlers."""

        def save_two(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            dns.save_checkpoint(tmp_path)
            dns.run(1)
            dns.save_checkpoint(tmp_path)
            return True

        run_spmd(4, save_two)
        _flip_byte(tmp_path / "step-000000001" / "shard-r0001.npz")
        _flip_byte(tmp_path / "step-000000002" / "shard-r0003.npz")

        def restore(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            try:
                dns.load_checkpoint(tmp_path)
            except CheckpointUnrecoverableError as exc:
                return exc
            return None

        for exc in run_spmd(4, restore):
            assert isinstance(exc, CheckpointCorruptError)  # handler compat
            names = [name for name, _ in exc.generations]
            assert names == ["step-000000002", "step-000000001"]  # newest first
            for (name, fails), rank, shard in (
                (exc.generations[0], 3, "shard-r0003.npz"),
                (exc.generations[1], 1, "shard-r0001.npz"),
            ):
                assert [f["rank"] for f in fails] == [rank]
                assert fails[0]["path"] == str(tmp_path / name / shard)
                assert "checksum mismatch" in fails[0]["reason"] or "unreadable" in fails[0]["reason"]
            # the message still carries the full story for log greps
            msg = str(exc)
            assert "no verifiable" in msg
            assert "rank 3" in msg and "shard-r0003.npz" in msg
            assert "rank 1" in msg and "shard-r0001.npz" in msg

    def test_layout_mismatch_rejected(self, tmp_path):
        def save_4ranks(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            dns.save_checkpoint(tmp_path)
            return True

        run_spmd(4, save_4ranks)

        def restore_2ranks(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=1, pb=2)
            dns.load_checkpoint(tmp_path)

        with pytest.raises(ValueError, match="layout mismatch"):
            run_spmd(2, restore_2ranks)


class TestKillRestartIdentity:
    def test_killed_and_relaunched_run_matches_uninterrupted(self, tmp_path):
        """THE distributed acceptance criterion: rank 1 is killed inside
        a pencil-transpose alltoall mid-run; the job-level supervisor
        relaunches from the sharded snapshot at step 5 and the final
        state at step 10 is bit-for-bit the uninterrupted one."""
        straight = _uninterrupted_state(10)

        counters = RecoveryCounters()
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        final, log = run_supervised_spmd(
            4,
            CFG,
            pa=2,
            pb=2,
            n_steps=10,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            fault_plans=[plan],
            counters=counters,
        )

        assert plan.triggered  # the kill really fired
        assert [e.kind for e in log] == ["restart"]
        assert "RankFailure" in log[0].detail
        assert counters.restarts == 1
        np.testing.assert_array_equal(final.v, straight.v)
        np.testing.assert_array_equal(final.omega_y, straight.omega_y)
        np.testing.assert_array_equal(final.u00, straight.u00)
        assert final.time == straight.time

    @staticmethod
    def _kill_and_compare(tmp_path, method, stages, op):
        """Rank 1 killed at its exchange call ``3 * per_step + 6`` of the
        ``method``/``stages`` transport (counted by a dry run), so in step
        3 (0-based) of the first attempt, before the step-5 snapshot; the
        relaunch re-runs every step and lands on the uninterrupted bits."""
        straight = _uninterrupted_state(10)
        plan = rank1_kill_plan(CFG, 4, 2, 2, method=method, stages=stages)
        counters = RecoveryCounters()
        rank1_steps: list[int] = []  # across attempts

        def monitor_factory():
            def monitor(dns) -> None:
                if dns.comm.rank == 1:
                    rank1_steps.append(dns.step_count)

            return monitor

        final, log = run_supervised_spmd(
            4,
            CFG,
            pa=2,
            pb=2,
            n_steps=10,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=5,
            fault_plans=[plan],
            counters=counters,
            method=method,
            stages=stages,
            monitor_factory=monitor_factory,
        )

        assert [(t["op"], t["action"]) for t in plan.triggered] == [(op, "kill")]
        assert [e.kind for e in log] == ["restart"]
        assert counters.restarts == 1
        # rank 1 finished steps 1-3, died in the next; the relaunch re-ran all
        assert rank1_steps == [1, 2, 3] + list(range(1, 11))
        np.testing.assert_array_equal(final.v, straight.v)
        np.testing.assert_array_equal(final.omega_y, straight.omega_y)
        np.testing.assert_array_equal(final.u00, straight.u00)
        assert final.time == straight.time

    def test_killed_pipelined_run_matches_uninterrupted(self, tmp_path):
        """The same criterion on the pipelined transposes in two slabs:
        the kill is deferred from an ``ialltoallv`` post to its wait."""
        self._kill_and_compare(tmp_path, TransposeMethod.PIPELINED, 2, "ialltoallv")

    @pytest.mark.parametrize(
        "method, op",
        [(TransposeMethod.PIPELINED, "alltoall"), (TransposeMethod.PAIRWISE, "send")],
        ids=["pipelined-one-slab", "pairwise"],
    )
    def test_killed_blocking_exchange_run_matches_uninterrupted(self, tmp_path, method, op):
        """The kill lands on the call a blocking exchange makes: one-slab
        pipelined transposes call ``alltoall``, pairwise ones ``send``."""
        self._kill_and_compare(tmp_path, method, 1, op)

    def test_unfaulted_supervised_run_needs_no_restart(self, tmp_path):
        straight = _uninterrupted_state(6)
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=6, checkpoint_dir=tmp_path, checkpoint_every=3
        )
        assert log == []
        np.testing.assert_array_equal(final.v, straight.v)

    def test_gives_up_after_max_restarts(self, tmp_path):
        """A kill that re-fires on every attempt exhausts the restart
        budget and the last failure propagates to the caller."""
        # the first alltoall fires after the baseline snapshot is durable,
        # so every attempt restarts cleanly and dies again at step 1
        plans = [
            FaultPlan([FaultEvent(action="kill", rank=0, op="alltoall", call=0)])
            for _ in range(3)
        ]
        with pytest.raises(Exception) as info:
            run_supervised_spmd(
                4,
                CFG,
                pa=2,
                pb=2,
                n_steps=4,
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                max_restarts=2,
                fault_plans=plans,
            )
        assert "killed by fault plan" in str(info.value)


class TestRanksLaunchGuards:
    """The ranks launch runs the same loop as the in-thread one, so it
    refuses to checkpoint a poisoned state, degrades dt after an
    instability and stops at a snapshot it cannot read."""

    def test_nan_is_never_checkpointed_and_restarts_from_last_snapshot(self, tmp_path):
        """NaN put into rank 1's block at step 7, no watchdog: the step-10
        snapshot refuses the state, the job restarts from step 5 and lands
        on the uninterrupted bits; no snapshot on disk holds a NaN."""
        straight = _uninterrupted_state(10)
        rank1_steps: list[int] = []  # across attempts

        def monitor_factory():
            def inject(dns) -> None:
                if dns.comm.rank != 1:
                    return
                rank1_steps.append(dns.step_count)
                if dns.step_count == 7 and rank1_steps.count(7) == 1:
                    dns.state.v[0, 0, 0] = np.nan

            return inject

        counters = RecoveryCounters()
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10, checkpoint_dir=tmp_path,
            checkpoint_every=5, monitor_factory=monitor_factory, counters=counters,
        )

        assert [e.kind for e in log] == ["restart"]
        assert "DivergedError" in log[0].detail and counters.restarts == 1
        assert rank1_steps == list(range(1, 11)) + list(range(6, 11))
        np.testing.assert_array_equal(final.v, straight.v)
        np.testing.assert_array_equal(final.omega_y, straight.omega_y)
        np.testing.assert_array_equal(final.u00, straight.u00)
        assert final.time == straight.time
        shards = sorted(tmp_path.glob("step-*/shard-*.npz"))
        assert shards
        for shard in shards:
            _, arrays = read_npz(shard)
            assert all(np.all(np.isfinite(a)) for a in arrays.values()), shard

    def test_refusal_waits_until_every_peer_finished_the_step(self, tmp_path):
        """Rank 0 refuses its step-5 snapshot while rank 3 is still busy
        after step 5: the attempt fails only once rank 3 has reached the
        save too, never while a peer is still stepping."""
        poisoned, failed_before_rank3_saved = [], []

        def monitor_factory():
            def monitor(dns) -> None:
                if dns.step_count != 5:
                    return
                if dns.comm.rank == 0 and not poisoned:
                    poisoned.append(True)
                    dns.state.v[0, 0, 0] = np.nan
                elif dns.comm.rank == 3 and not failed_before_rank3_saved:
                    time.sleep(0.2)
                    failed_before_rank3_saved.append(dns.comm._ctx.error.is_set())

            return monitor

        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=5, checkpoint_dir=tmp_path,
            checkpoint_every=5, monitor_factory=monitor_factory,
        )

        assert [e.kind for e in log] == ["restart"] and "DivergedError" in log[0].detail
        assert failed_before_rank3_saved == [False]
        np.testing.assert_array_equal(final.v, _uninterrupted_state(5).v)

    def test_unstable_relaunches_at_reduced_dt(self, tmp_path):
        """A monitor that trips while the configured dt is in force: one
        restart, relaunched at half the dt, which then completes."""

        def monitor_factory():
            def monitor(dns) -> None:
                if dns.stepper.dt == CFG.dt and dns.step_count == 3:
                    raise UnstableError("synthetic CFL blow-up", step=dns.step_count)

            return monitor

        counters = RecoveryCounters()
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=6, checkpoint_dir=tmp_path,
            checkpoint_every=5, monitor_factory=monitor_factory, counters=counters,
        )

        assert [e.kind for e in log] == ["restart", "dt_reduction"]
        assert counters.restarts == 1 and counters.dt_reductions == 1
        assert final.time == pytest.approx(6 * CFG.dt * 0.5)
        assert np.all(np.isfinite(final.v))

    def test_newer_format_head_propagates_and_is_kept(self, tmp_path):
        """A head generation written by a newer build stops the resume with
        ValueError: no restart, no fallback, and the generation stays."""
        run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=4, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        head = tmp_path / "step-000000004"
        stamp_newer_format(head)
        counters = RecoveryCounters()
        with pytest.raises(ValueError, match="unsupported checkpoint format") as info:
            run_supervised_spmd(
                4, CFG, pa=2, pb=2, n_steps=6, checkpoint_dir=tmp_path,
                checkpoint_every=2, counters=counters,
            )
        assert not isinstance(info.value, CheckpointCorruptError)
        assert counters.restarts == 0 and counters.verify_failures == 0
        assert (tmp_path / "latest").read_text().strip() == head.name
        for shard in head.glob("shard-*.npz"):
            with pytest.raises(ValueError, match="unsupported checkpoint format"):
                read_npz(shard)
