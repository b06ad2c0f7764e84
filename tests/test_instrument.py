"""SectionTimers / SolveCounters / RecoveryCounters instrumentation tests."""

import time

import numpy as np

from repro.instrument import RecoveryCounters, SectionTimers, SolveCounters


class TestSectionTimers:
    def test_accumulates(self):
        t = SectionTimers()
        with t.section("fft"):
            time.sleep(0.01)
        with t.section("fft"):
            time.sleep(0.01)
        assert t.elapsed["fft"] >= 0.02
        assert t.calls["fft"] == 2

    def test_total(self):
        t = SectionTimers()
        with t.section("a"):
            pass
        with t.section("b"):
            pass
        assert t.total() == t.elapsed["a"] + t.elapsed["b"]

    def test_records_on_exception(self):
        t = SectionTimers()
        try:
            with t.section("x"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert t.calls["x"] == 1

    def test_reset(self):
        t = SectionTimers()
        with t.section("a"):
            pass
        t.reset()
        assert t.total() == 0.0
        assert not t.calls

    def test_merge(self):
        t1, t2 = SectionTimers(), SectionTimers()
        with t1.section("a"):
            time.sleep(0.002)
        with t2.section("a"):
            time.sleep(0.002)
        with t2.section("b"):
            pass
        t1.merge(t2)
        assert t1.calls["a"] == 2
        assert "b" in t1.elapsed

    def test_report_format(self):
        t = SectionTimers()
        with t.section("transpose"):
            pass
        rep = t.report()
        assert "transpose=" in rep and "total=" in rep

    def test_canonical_names(self):
        assert SectionTimers.TRANSPOSE == "transpose"
        assert SectionTimers.FFT == "fft"
        assert SectionTimers.ADVANCE == "ns_advance"
        assert SectionTimers.SOLVE == "solve"
        assert SectionTimers.CHECKPOINT == "checkpoint"
        assert SectionTimers.RECOVERY == "recovery"

    def test_recovery_sections_count_toward_total(self):
        """CHECKPOINT/RECOVERY are disjoint from the per-step sections,
        so they belong in the wall-clock total (unlike nested SOLVE)."""
        t = SectionTimers()
        with t.section(t.CHECKPOINT):
            pass
        with t.section(t.RECOVERY):
            pass
        assert t.CHECKPOINT not in t.NESTED and t.RECOVERY not in t.NESTED
        assert t.total() == t.elapsed[t.CHECKPOINT] + t.elapsed[t.RECOVERY]

    def test_nested_sections_excluded_from_total(self):
        """SOLVE runs inside ADVANCE; summing both would double-count."""
        t = SectionTimers()
        with t.section(t.ADVANCE):
            with t.section(t.SOLVE):
                time.sleep(0.002)
        assert t.elapsed[t.SOLVE] > 0.0
        assert t.total() == t.elapsed[t.ADVANCE]
        assert t.SOLVE in t.NESTED


class TestSolveCounters:
    def test_workspace_and_execution_counters(self):
        c = SolveCounters()
        c.count_workspace(np.empty((4, 8)))
        assert c.workspace_allocs == 1
        assert c.workspace_bytes == 4 * 8 * 8
        c.solves += 2
        c.sweeps += 3
        c.columns += 5
        snap = c.snapshot()
        assert snap == {
            "workspace_bytes": 256,
            "workspace_allocs": 1,
            "solves": 2,
            "sweeps": 3,
            "columns": 5,
        }
        rep = c.report()
        assert "workspace_bytes=256" in rep and "workspace_allocs=1" in rep
        assert "solves=2" in rep
        c.reset()
        assert c.snapshot()["workspace_bytes"] == 0


class TestRecoveryCounters:
    def test_counters_snapshot_report_reset(self):
        c = RecoveryCounters()
        c.checkpoints_saved += 4
        c.checkpoints_pruned += 1
        c.verify_failures += 2
        c.failures += 3
        c.rollbacks += 2
        c.restarts += 1
        c.dt_reductions += 1
        c.shrinks += 2
        c.reshard_restores += 1
        assert c.snapshot() == {
            "checkpoints_saved": 4,
            "checkpoints_pruned": 1,
            "verify_failures": 2,
            "failures": 3,
            "rollbacks": 2,
            "restarts": 1,
            "dt_reductions": 1,
            "shrinks": 2,
            "reshard_restores": 1,
        }
        rep = c.report()
        assert "checkpoints_saved=4" in rep and "checkpoints_pruned=1" in rep
        assert "verify_failures=2" in rep and "rollbacks=2" in rep
        c.reset()
        assert all(v == 0 for v in c.snapshot().values())

    def test_rotation_moves_save_and_prune_counters(self, tmp_path):
        from repro.core import ChannelConfig, ChannelDNS
        from repro.core.checkpoint import ShardedCheckpointRotation

        dns = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, seed=3))
        dns.initialize()
        c = RecoveryCounters()
        rot = ShardedCheckpointRotation(tmp_path, keep=2, counters=c)
        for _ in range(3):
            dns.run(1)
            rot.save(dns)
        assert c.checkpoints_saved == 3
        assert c.checkpoints_pruned == 1
