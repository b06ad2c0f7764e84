"""The supervision loop: checkpoint, catch, roll back, retry.

The paper's campaign spans months of allocations where node failures
and queue-limit kills are routine; the run harness, not the operator,
absorbs them.  :class:`Supervisor` is that harness, written once.  It
owns the policy: the per-step body (step, controllers, callback,
watchdog, a snapshot on cadence that refuses a non-finite state), the
:data:`RECOVERABLE` set, both retry budgets (``max_retries`` without
forward progress, ``max_restarts`` in total), the bounded exponential
backoff (:func:`backoff_delay`), a dt reduction after
:class:`UnstableError`, re-planning onto the survivors of an elastic
shrink, and the :class:`RecoveryEvent` log mirrored into telemetry.
One job runs per allocation, as in the paper: the loop never grows a
run or yields its ranks to another job.

A *launch* owns only what differs: :class:`InThreadLaunch` steps one
:class:`~repro.core.solver.ChannelDNS` in the caller's thread;
:class:`~repro.pencil.distributed.RanksLaunch` relaunches the per-rank
body under :func:`~repro.mpi.simmpi.run_spmd`.  Both restore the same
way, from the one :class:`~repro.core.checkpoint.ShardedCheckpointRotation`:
build a fresh driver, attach streaming statistics if the run samples
them, and restore it *in place* (``load_latest(dns, reshard=...)``).
:class:`RunSupervisor` and
:func:`~repro.pencil.distributed.run_supervised_spmd` build the loop over
each; it never asks which one it drives.  Restores are bit-exact and RK3
carries no cross-step memory, so a recovered trajectory is bit-for-bit
the uninterrupted one (``tests/core/test_supervisor.py``,
``tests/pencil/test_checkpoint.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.checkpoint import CheckpointCorruptError, ShardedCheckpointRotation
from repro.core.health import DivergedError, HealthCheckError, UnstableError
from repro.core.solver import ChannelDNS
from repro.instrument import RecoveryCounters, SectionTimers
from repro.mpi.simmpi import RankFailure, ShrinkRequired, SimMPIError
from repro.pencil.decomp import choose_grid

#: failure types the supervisor absorbs; anything else propagates raw
RECOVERABLE = (HealthCheckError, SimMPIError, RankFailure, FloatingPointError)


class SupervisorGivingUp(RuntimeError):
    """Retries exhausted without forward progress; the last cause is chained."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervised run loop."""

    #: snapshot cadence in steps (a snapshot is also taken at the target step)
    checkpoint_every: int = 10
    #: consecutive failures tolerated without forward progress
    max_retries: int = 4
    #: first backoff delay in seconds (0 disables sleeping — test default)
    backoff_base: float = 0.0
    #: growth factor of successive delays
    backoff_factor: float = 2.0
    #: delay ceiling in seconds
    backoff_max: float = 60.0
    #: dt multiplier applied after an UnstableError (graceful degradation)
    dt_factor: float = 0.5
    #: dt floor for degradation
    min_dt: float = 1e-8

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if not 0.0 < self.dt_factor < 1.0:
            raise ValueError("dt_factor must lie in (0, 1)")


@dataclass
class RecoveryEvent:
    """One entry of the supervisor's recovery log."""

    step: int
    #: "failure" | "rollback" | "dt_reduction" | "restart" | "shrink" |
    #: "giving_up"
    kind: str
    detail: str
    #: the attempt (launch) the event belongs to, counted from 0
    attempt: int = 0
    #: structured extras — e.g. a shrink records {"ranks", "pa", "pb"}
    info: dict = field(default_factory=dict)


def backoff_delay(retry: int, base: float, factor: float, ceiling: float) -> float:
    """The delay before retry number ``retry`` (from 1):
    ``base * factor^(retry - 1)`` capped at ``ceiling``."""
    return min(ceiling, base * factor ** (retry - 1))


@dataclass(eq=False)
class Supervisor:
    """The supervision loop over one launch (see the module docstring).

    ``launch`` provides ``config``, ``grid`` (``(ranks, pa, pb)``),
    ``where()`` (the step and dt the run stands at), ``attempt(supervisor,
    target, callback)``, ``recover(supervisor, exc, step)`` and
    ``set_dt(dt)``.  ``monitor_factory`` builds each driver's watchdog.
    ``max_restarts`` caps the recoveries of one :meth:`run_to` (None: only
    the per-frontier budget binds).  ``min_ranks`` bounds shrinking.
    ``timers`` receive the job-level ``recovery`` and ``elastic``
    sections; each driver times its own checkpoints.
    """

    launch: Any
    policy: SupervisorPolicy | None = None
    max_restarts: int | None = None
    monitor_factory: Callable[[], Any] | None = None
    controllers: Sequence = ()
    counters: RecoveryCounters | None = None
    timers: SectionTimers | None = None
    sleep: Callable[[float], Any] = time.sleep
    recorder: Any = None
    min_ranks: int = 1
    log: list[RecoveryEvent] = field(default_factory=list, init=False)
    #: attempts launched so far (a rollback, restart or shrink starts the
    #: next one)
    attempt: int = field(default=0, init=False)
    #: recoveries within the current run_to (the ``max_restarts`` budget)
    restarts: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.policy = self.policy or SupervisorPolicy()
        self.controllers = tuple(self.controllers)
        self.counters = self.counters if self.counters is not None else RecoveryCounters()
        self.timers = self.timers if self.timers is not None else SectionTimers()
        if self.recorder is not None:
            self.recorder.add_group("recovery", self.counters)

    def record(self, kind: str, step: int, detail: str, info: dict | None = None) -> None:
        """Append to the recovery log, mirrored into the telemetry stream."""
        info = info or {}
        self.log.append(RecoveryEvent(step, kind, detail, self.attempt, info))
        if self.recorder is not None:
            self.recorder.record_event(
                kind, step=step, detail=detail, attempt=self.attempt, info=info
            )

    # ------------------------------------------------------------------

    def run_to(self, target: int, callback=None):
        """Advance to step ``target``, recovering as needed; returns what
        the launch's successful attempt returns."""
        frontier, consecutive = -1, 0
        self.restarts = 0
        while True:
            try:
                return self.launch.attempt(self, target, callback)
            except RECOVERABLE as exc:
                failed_at, dt = self.launch.where()
                self.counters.failures += 1
                self.restarts += 1
                if failed_at > frontier:
                    frontier, consecutive = failed_at, 1
                else:
                    consecutive += 1
                if self._budget_spent(exc, failed_at, consecutive):
                    raise  # the rank's own failure, type and message intact
                p = self.policy
                delay = backoff_delay(consecutive, p.backoff_base, p.backoff_factor, p.backoff_max)
                if delay > 0:
                    self.sleep(delay)
                self.launch.recover(self, exc, failed_at)
                if isinstance(exc, UnstableError):
                    self._reduce_dt(dt)
            except ShrinkRequired as exc:
                n = len(exc.survivors)
                if n < self.min_ranks:
                    detail = f"{n} survivors < min_ranks={self.min_ranks}"
                    self.record("giving_up", -1, detail, {"ranks": n})
                    raise
                self._replan(exc, n)
                self.counters.shrinks += 1
            self.attempt += 1

    def advance(self, dns, rotation, target: int, callback) -> None:
        """The per-step body on one driver (one rank's, under the ranks
        launch): step until ``target`` or the first failure, snapshotting
        on cadence."""
        monitor = self.monitor_factory() if self.monitor_factory is not None else None
        while dns.step_count < target:
            dns.step()
            for ctrl in self.controllers:
                ctrl(dns)
            if callback is not None:
                callback(dns)
            if monitor is not None:
                monitor(dns)
            if dns.step_count % self.policy.checkpoint_every == 0 or dns.step_count >= target:
                self.checkpoint(dns, rotation)

    def checkpoint(self, dns, rotation) -> None:
        """Snapshot ``dns`` — never a poisoned state, even with the watchdog
        off or on a sparse cadence.  Each driver tests its own block: a
        rank that refuses fails the collective save for all, but only
        once every peer has finished the step, so no shard of that step
        is written, and no extra collective shifts the call counts fault
        plans are placed by."""
        if not dns._require_state().finite():
            rotation.refuse(dns)
            raise DivergedError(
                f"non-finite state at checkpoint (step {dns.step_count})",
                step=dns.step_count,
            )
        with dns.timers.section(SectionTimers.CHECKPOINT):
            rotation.save(dns)

    # ------------------------------------------------------------------

    def _budget_spent(self, exc: BaseException, failed_at: int, consecutive: int) -> bool:
        """Raise :class:`SupervisorGivingUp` past ``max_retries`` without
        progress; True past ``max_restarts``, where the caller re-raises
        ``exc`` itself (re-raised here, its traceback would hold this frame
        and this frame ``exc``: a cycle)."""
        if consecutive > self.policy.max_retries:
            detail = f"{consecutive - 1} consecutive failures at step {failed_at}"
            self.record("giving_up", failed_at, detail)
            raise SupervisorGivingUp(
                f"no forward progress after {consecutive - 1} retries "
                f"(last failure at step {failed_at}: {exc})"
            ) from exc
        if self.max_restarts is not None and self.restarts > self.max_restarts:
            detail = f"restart budget exhausted after {type(exc).__name__}: {exc}"
            info = {"restarts": self.restarts, "max_restarts": self.max_restarts}
            self.record("giving_up", failed_at, detail, info)
            return True
        return False

    def _reduce_dt(self, failed_dt: float) -> None:
        """Graceful degradation: retry at a reduced dt, clamping controllers
        that expose ``clamp_max_dt`` so they cannot undo it at once."""
        new_dt = max(self.policy.min_dt, failed_dt * self.policy.dt_factor)
        self.launch.set_dt(new_dt)
        for ctrl in self.controllers:
            clamp = getattr(ctrl, "clamp_max_dt", None)
            if clamp is not None:
                clamp(new_dt)
        self.counters.dt_reductions += 1
        self.record("dt_reduction", self.launch.where()[0], f"dt -> {new_dt:.3e}")

    def _replan(self, exc: ShrinkRequired, n: int) -> None:
        """Re-plan the process grid for the ``n`` survivors and relaunch on it."""
        cfg = self.launch.config
        with self.timers.section(SectionTimers.ELASTIC):
            pa, pb = choose_grid(n, cfg.nx // 2, cfg.nz - 1, cfg.ny)
        _, old_pa, old_pb = self.launch.grid
        detail = f"{exc}; re-planned {old_pa}x{old_pb} -> {pa}x{pb} on {n} ranks"
        self.record("shrink", -1, detail, {"ranks": n, "pa": pa, "pb": pb})
        self.launch.grid = (n, pa, pb)

    # ------------------------------------------------------------------

    def report(self) -> str:
        """One-line recovery summary (counters + last event)."""
        tail = self.log[-1] if self.log else None
        last = f"  last_event={tail.kind}@{tail.step}" if tail else ""
        return self.counters.report() + last


class InThreadLaunch:
    """Step one driver in the caller's thread; roll back into a fresh one.

    A rollback builds a fresh :class:`~repro.core.solver.ChannelDNS` of
    the run's config, attaches streaming statistics if the failed driver
    sampled them (same ``every``), restores it from the rotation as a
    rank restores, and replaces :attr:`dns` with it; a failure is logged
    as ``failure`` and its rollback as ``rollback``.  An unreadable
    rotation ends the run (:class:`SupervisorGivingUp`, "rollback
    impossible").
    """

    grid = (1, 1, 1)

    def __init__(self, dns, rotation: ShardedCheckpointRotation) -> None:
        self.dns = dns
        self.rotation = rotation
        self.config = dns.config

    def where(self) -> tuple[int, float]:
        return self.dns.step_count, self.dns.stepper.dt

    def attempt(self, sup: Supervisor, target: int, callback):
        if not self.rotation.snapshot_dirs():
            # baseline: rollback must always have a target
            sup.checkpoint(self.dns, self.rotation)
        sup.advance(self.dns, self.rotation, target, callback)
        return self.dns

    def recover(self, sup: Supervisor, exc: BaseException, step: int) -> None:
        sup.record("failure", step, f"{type(exc).__name__}: {exc}")
        failed = self.dns
        with sup.timers.section(SectionTimers.RECOVERY):
            dns = ChannelDNS(self.config)
            if failed.streaming is not None:
                # attach before the restore so load_latest can hand the
                # accumulator its sidecar (no samples lost on rollback)
                dns.attach_streaming(every=failed._streaming_every)
            try:
                self.rotation.load_latest(dns, reshard=True)
            except CheckpointCorruptError as err:
                raise SupervisorGivingUp(f"rollback impossible: {err}") from err
        self.dns = dns
        sup.counters.rollbacks += 1
        if sup.recorder is not None:
            # the restore built a fresh driver: move the stream (and its
            # delta baselines) over so step records continue seamlessly
            sup.recorder.attach(self.dns)
        sup.record("rollback", self.dns.step_count, f"restored step {self.dns.step_count}")

    def set_dt(self, dt: float) -> None:
        self.dns.set_dt(dt)


class RunSupervisor(Supervisor):
    """Drive a ready :class:`~repro.core.solver.ChannelDNS` in this thread,
    surviving crashes — :class:`Supervisor` over an :class:`InThreadLaunch`.

    A rollback *replaces* the driver: read the final one from
    ``supervisor.dns`` (also returned by :meth:`run`).  The rotation's
    counters are unified with the supervisor's when unset.  Without a
    ``monitor`` (:class:`~repro.core.health.HealthMonitor`) only the
    checkpoint-time finiteness guard and collective failures trigger
    recovery.  ``controllers`` run after every step, before the watchdog.
    ``recorder`` defaults to the one attached to ``dns``; it mirrors the
    recovery log, tracks these counters, and follows every replacement
    driver so the step stream continues across a restore.
    """

    def __init__(
        self,
        dns,
        rotation: ShardedCheckpointRotation,
        *,
        monitor=None,
        policy: SupervisorPolicy | None = None,
        controllers=(),
        timers: SectionTimers | None = None,
        counters: RecoveryCounters | None = None,
        sleep=time.sleep,
        recorder=None,
    ) -> None:
        counters = counters or RecoveryCounters()
        if rotation.counters is None:
            rotation.counters = counters
        super().__init__(
            InThreadLaunch(dns, rotation),
            policy=policy,
            monitor_factory=None if monitor is None else lambda: monitor,
            controllers=controllers,
            counters=counters,
            timers=timers if timers is not None else dns.timers,
            sleep=sleep,
            recorder=recorder if recorder is not None else dns.recorder,
        )

    @property
    def dns(self):
        return self.launch.dns

    @property
    def rotation(self) -> ShardedCheckpointRotation:
        return self.launch.rotation

    def run(self, n_steps: int, callback=None):
        """Advance ``n_steps`` past the current step, recovering as needed.

        ``callback(dns)`` runs after each step's controllers and before
        the watchdog — the slot fault-injection hooks use, so an injected
        blow-up is caught in the same step and never checkpointed.
        Returns the (possibly replaced) driver.
        """
        return self.run_to(self.dns.step_count + n_steps, callback)
