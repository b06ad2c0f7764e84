"""RunSupervisor tests: crash/rollback/retry, degradation, giving up.

The acceptance property of the fault-tolerant harness is pinned here:
a trajectory that crashes and is auto-restarted by the supervisor is
bit-for-bit identical to the uninterrupted one, and streamed statistics
survive the rollback.  Snapshots are the one-shard sharded format
(``step-N/shard-r0000.npz``).
"""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import CheckpointCorruptError, ShardedCheckpointRotation
from repro.core.control import CFLController
from repro.core.health import HealthMonitor, UnstableError
from repro.core.supervisor import (
    RunSupervisor,
    SupervisorGivingUp,
    SupervisorPolicy,
)
from repro.instrument import SectionTimers
from repro.serving import REDUCTION_RTOL
from repro.storage import read_npz

from tests.faults import stamp_newer_format

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=13)


def _fresh_dns():
    dns = ChannelDNS(CFG)
    dns.initialize()
    return dns


def _straight_run(nsteps):
    dns = _fresh_dns()
    dns.run(nsteps)
    return dns


def _nan_once_at(step):
    """One-shot fault hook: poison the state the first time ``step`` is hit."""
    fired = []

    def hook(dns):
        if dns.step_count == step and not fired:
            fired.append(step)
            dns.state.v[0, 0, 0] = np.nan

    return hook


def _flip_byte(snap, offset_fraction=0.5):
    """Flip one byte of a serial snapshot's one shard."""
    path = snap / "shard-r0000.npz"
    data = bytearray(path.read_bytes())
    data[int(len(data) * offset_fraction)] ^= 0xFF
    path.write_bytes(bytes(data))


class TestBitForBitRecovery:
    def test_crash_restart_matches_uninterrupted(self, tmp_path):
        """THE acceptance criterion: NaN at step 8, checkpoint every 5 —
        the supervised run rolls back to step 5, retries, and lands at
        step 12 bit-for-bit identical to a run that never crashed."""
        straight = _straight_run(12)

        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=5),
        )
        dns = sup.run(12, callback=_nan_once_at(8))

        assert dns.step_count == 12
        np.testing.assert_array_equal(dns.state.v, straight.state.v)
        np.testing.assert_array_equal(dns.state.omega_y, straight.state.omega_y)
        np.testing.assert_array_equal(dns.state.u00, straight.state.u00)
        assert dns.state.time == straight.state.time

        assert sup.counters.failures == 1
        assert sup.counters.rollbacks == 1
        kinds = [e.kind for e in sup.log]
        assert kinds == ["failure", "rollback"]
        assert sup.log[0].step == 8
        assert sup.log[1].step == 5

    def test_recovery_surfaced_through_instrumentation(self, tmp_path):
        timers = SectionTimers()
        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=5),
            timers=timers,
        )
        sup.run(12, callback=_nan_once_at(8))
        assert timers.calls[SectionTimers.CHECKPOINT] >= 3  # baseline, 5, 10, 12
        assert timers.calls[SectionTimers.RECOVERY] == 1
        rep = sup.report()
        assert "rollbacks=1" in rep and "last_event=rollback" in rep

    def test_checkpoint_time_guard_without_monitor(self, tmp_path):
        """Even with no watchdog, a poisoned state must never enter the
        rotation: the checkpoint-time finiteness guard trips instead."""
        straight = _straight_run(6)
        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=None,
            policy=SupervisorPolicy(checkpoint_every=5),
        )
        dns = sup.run(6, callback=_nan_once_at(5))
        np.testing.assert_array_equal(dns.state.v, straight.state.v)
        for snap in sup.rotation.snapshot_dirs():
            _, arrays = read_npz(snap / "shard-r0000.npz")
            assert all(np.isfinite(a).all() for a in arrays.values())
        assert sup.counters.rollbacks == 1


class TestStreamingRollback:
    def test_rollback_keeps_the_streaming_statistics(self, tmp_path):
        """A rolled-back driver samples on: the replacement restores the
        snapshot's sidecar and takes the remaining samples, so the run
        ends with every step's sample, as an uninterrupted streamed run."""
        cfg = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, init_amplitude=0.5, seed=13)
        straight = ChannelDNS(cfg)
        straight.initialize()
        ref = straight.attach_streaming(every=1)
        straight.run(10)

        dns = ChannelDNS(cfg)
        dns.initialize()
        dns.attach_streaming(every=1)
        sup = RunSupervisor(
            dns,
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=5),
        )
        final = sup.run(10, callback=_nan_once_at(7))

        assert sup.counters.rollbacks == 1 and final is not dns
        assert final.streaming is not None
        assert final.streaming.counters.restores == 1
        assert final.streaming.total_samples == 10
        got, want = final.streaming.result(), ref.result()
        assert got["nsamples"] == want["nsamples"] == 10
        for name in ("U", "uu", "vv", "ww", "uv", "spec_x_u", "spec_z_w"):
            np.testing.assert_allclose(
                got[name], want[name], rtol=REDUCTION_RTOL, atol=1e-14, err_msg=name
            )
        np.testing.assert_array_equal(final.state.v, straight.state.v)


class TestCorruptHeadFallback:
    def test_rollback_skips_corrupt_snapshot(self, tmp_path):
        """Corrupting the newest snapshot on disk must not strand the
        supervisor: rollback falls back to the previous verifiable one
        and the retried trajectory still matches the uninterrupted run."""
        straight = _straight_run(8)
        rotation = ShardedCheckpointRotation(tmp_path)
        sup = RunSupervisor(
            _fresh_dns(),
            rotation,
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=2),
        )

        def hook(dns):
            hook_nan(dns)
            # corrupt the step-6 snapshot just before the crash at step 7
            if dns.step_count == 7 and not getattr(hook, "zapped", False):
                hook.zapped = True
                _flip_byte(rotation.generations.head())

        hook_nan = _nan_once_at(7)
        dns = sup.run(8, callback=hook)

        assert dns.step_count == 8
        np.testing.assert_array_equal(dns.state.v, straight.state.v)
        assert sup.counters.verify_failures >= 1
        rollback = [e for e in sup.log if e.kind == "rollback"][0]
        assert rollback.step == 4  # fell back past the corrupt step-6 head

    def test_all_snapshots_corrupt_gives_up(self, tmp_path):
        rotation = ShardedCheckpointRotation(tmp_path)
        sup = RunSupervisor(
            _fresh_dns(),
            rotation,
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=2),
        )

        def hook(dns):
            if dns.step_count == 3:
                for snap in rotation.snapshot_dirs():
                    _flip_byte(snap)
                dns.state.v[0, 0, 0] = np.nan

        with pytest.raises(SupervisorGivingUp, match="rollback impossible"):
            sup.run(6, callback=hook)


class TestNewerFormatHead:
    def test_newer_format_head_propagates_and_is_kept(self, tmp_path):
        """A head written by a newer build is neither read nor skipped:
        the rollback raises ValueError, nothing is retried, and the
        generation stays on disk for the build that can read it."""
        rotation = ShardedCheckpointRotation(tmp_path)
        sup = RunSupervisor(
            _fresh_dns(),
            rotation,
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=2),
        )
        head = []

        def hook(dns):
            if dns.step_count == 5 and not head:
                head.append(rotation.generations.head())
                stamp_newer_format(head[0])
                dns.state.v[0, 0, 0] = np.nan

        with pytest.raises(ValueError, match="unsupported checkpoint format") as info:
            sup.run(6, callback=hook)
        assert not isinstance(info.value, CheckpointCorruptError)
        assert sup.counters.rollbacks == 0 and sup.counters.verify_failures == 0
        assert [e.kind for e in sup.log] == ["failure"]
        assert rotation.generations.head() == head[0]
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            read_npz(head[0] / "shard-r0000.npz")


class TestRetryAccounting:
    def test_gives_up_after_max_retries_without_progress(self, tmp_path):
        """A fault that re-fires at the same step every attempt makes no
        forward progress; after max_retries the supervisor surrenders."""

        def always_nan_at_3(dns):
            if dns.step_count == 3:
                dns.state.v[0, 0, 0] = np.nan

        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=10, max_retries=2),
        )
        with pytest.raises(SupervisorGivingUp, match="no forward progress"):
            sup.run(6, callback=always_nan_at_3)
        assert sup.counters.failures == 3  # initial + 2 retries
        assert sup.log[-1].kind == "giving_up"

    def test_forward_progress_resets_the_retry_budget(self, tmp_path):
        """Failures at *advancing* steps are distinct incidents, not a
        retry streak: more total failures than max_retries must still
        complete as long as each one is past the previous frontier."""
        straight = _straight_run(8)
        steps = iter([2, 4, 6])
        armed = [next(steps)]

        def hook(dns):
            if armed and dns.step_count == armed[0]:
                armed.pop()
                nxt = next(steps, None)
                if nxt is not None:
                    armed.append(nxt)
                dns.state.v[0, 0, 0] = np.nan

        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(checkpoint_every=1, max_retries=1),
        )
        dns = sup.run(8, callback=hook)
        assert dns.step_count == 8
        assert sup.counters.failures == 3
        np.testing.assert_array_equal(dns.state.v, straight.state.v)

    def test_backoff_grows_and_saturates(self, tmp_path):
        delays = []

        def always_nan_at_1(dns):
            if dns.step_count == 1:
                dns.state.v[0, 0, 0] = np.nan

        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            monitor=HealthMonitor(),
            policy=SupervisorPolicy(
                checkpoint_every=10,
                max_retries=3,
                backoff_base=0.1,
                backoff_factor=2.0,
                backoff_max=0.25,
            ),
            sleep=delays.append,
        )
        with pytest.raises(SupervisorGivingUp):
            sup.run(4, callback=always_nan_at_1)
        assert delays == [0.1, 0.2, 0.25]

    def test_unexpected_exceptions_propagate_raw(self, tmp_path):
        def boom(dns):
            raise KeyError("not a recoverable failure")

        sup = RunSupervisor(_fresh_dns(), ShardedCheckpointRotation(tmp_path))
        with pytest.raises(KeyError):
            sup.run(3, callback=boom)
        assert sup.counters.failures == 0


class TestGracefulDegradation:
    def test_unstable_reduces_dt_and_clamps_controllers(self, tmp_path):
        unstable_once = []

        def hook(dns):
            if dns.step_count == 3 and not unstable_once:
                unstable_once.append(True)
                raise UnstableError("synthetic CFL blow-up", step=3)

        # a wide-open band keeps the controller passive so the test sees
        # only the supervisor's dt change (plus the clamp hook)
        ctrl = CFLController(target=1.0, low=1e-9, high=1e9, max_dt=1.0)
        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            policy=SupervisorPolicy(checkpoint_every=2, dt_factor=0.5),
            controllers=[ctrl],
        )
        dns = sup.run(6, callback=hook)
        assert dns.stepper.dt == pytest.approx(CFG.dt * 0.5)
        assert ctrl.max_dt == pytest.approx(CFG.dt * 0.5)
        assert sup.counters.dt_reductions == 1
        assert [e.kind for e in sup.log] == ["failure", "rollback", "dt_reduction"]

    def test_dt_floor_respected(self, tmp_path):
        def hook(dns):
            if dns.step_count == 1:
                raise UnstableError("synthetic", step=1)

        sup = RunSupervisor(
            _fresh_dns(),
            ShardedCheckpointRotation(tmp_path),
            policy=SupervisorPolicy(
                checkpoint_every=10, max_retries=3, dt_factor=0.5, min_dt=1e-4
            ),
        )
        with pytest.raises(SupervisorGivingUp):
            sup.run(4, callback=hook)
        assert sup.dns.stepper.dt == pytest.approx(1e-4)  # clamped, not 2e-4/8


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": 0},
            {"max_retries": 0},
            {"dt_factor": 0.0},
            {"dt_factor": 1.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)
