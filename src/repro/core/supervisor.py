"""Watchdog-supervised run loop: checkpoint, catch, roll back, retry.

The paper's campaign spans months of machine allocations where node
failures and queue-limit kills are routine; the run harness, not the
operator, has to absorb them.  :class:`RunSupervisor` drives a
:class:`~repro.core.solver.ChannelDNS` the way a production job script
drives the real code:

1. step, apply controllers, run the watchdog
   (:class:`~repro.core.health.HealthMonitor`),
2. checkpoint every ``checkpoint_every`` steps through a
   :class:`~repro.core.checkpoint.CheckpointRotation` (atomic,
   checksummed, keep-K with verified fallback),
3. on a watchdog or collective failure: record the event, wait out a
   bounded exponential backoff, roll back to the newest *verifiable*
   snapshot, and — when the failure was :class:`UnstableError` — degrade
   gracefully by reducing dt before retrying,
4. give up (:class:`SupervisorGivingUp`) only after ``max_retries``
   consecutive failures without forward progress.

Because checkpoint restore is bit-exact and the RK3 scheme carries no
cross-step memory, a crashed-rolled-back-retried trajectory is
bit-for-bit the uninterrupted one — pinned by
``tests/core/test_supervisor.py``.  Recovery history is surfaced through
:mod:`repro.instrument`: the ``CHECKPOINT``/``RECOVERY`` timer sections,
a :class:`~repro.instrument.RecoveryCounters`, and the typed
:class:`RecoveryEvent` log.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointCorruptError, CheckpointRotation
from repro.core.health import DivergedError, HealthCheckError, UnstableError
from repro.instrument import RecoveryCounters, SectionTimers
from repro.mpi.simmpi import RankFailure, SimMPIError

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
    #: symmetric jitter fraction applied to each (bounded) delay so
    #: co-scheduled jobs don't retry in lockstep; the draw sequence is
    #: deterministic from the run seed.  0 disables (exact schedule).
    backoff_jitter: float = 0.0
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
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must lie in [0, 1)")


@dataclass
class RecoveryEvent:
    """One entry of the supervisor's recovery log."""

    step: int
    kind: str  # "failure" | "rollback" | "dt_reduction" | "restart" | "shrink" | "giving_up"
    detail: str
    attempt: int = 0
    #: structured extras — e.g. a shrink records {"ranks", "pa", "pb"}
    info: dict = field(default_factory=dict)


class RunSupervisor:
    """Drive a DNS to a target step, surviving crashes via rollback/retry.

    Parameters
    ----------
    dns:
        A ready (initialized) :class:`~repro.core.solver.ChannelDNS`.
        After a rollback the supervisor *replaces* it — read the final
        driver from ``supervisor.dns`` (also returned by :meth:`run`).
    rotation:
        The durable snapshot store.  Its counters are unified with the
        supervisor's when unset.
    monitor:
        Optional :class:`~repro.core.health.HealthMonitor`; without one,
        only checkpoint-time finiteness guards and collective failures
        trigger recovery.
    controllers:
        Applied after every step, before the watchdog (e.g.
        :class:`~repro.core.control.CFLController`).  Controllers that
        expose ``clamp_max_dt`` are clamped after a dt degradation so
        they cannot immediately undo it.
    recorder:
        Optional :class:`~repro.telemetry.RunRecorder`; defaults to the
        one already attached to ``dns`` (``ChannelDNS(..., telemetry=...)``).
        Every recovery-log entry is mirrored into its event stream, its
        ``recovery`` counter deltas track this supervisor's counters, and
        after a rollback the recorder is re-attached to the replacement
        driver so the step stream continues across the restore.
    """

    def __init__(
        self,
        dns,
        rotation: CheckpointRotation,
        *,
        monitor=None,
        policy: SupervisorPolicy | None = None,
        controllers=(),
        timers: SectionTimers | None = None,
        counters: RecoveryCounters | None = None,
        sleep=time.sleep,
        recorder=None,
    ) -> None:
        self.dns = dns
        self.rotation = rotation
        self.monitor = monitor
        self.policy = policy or SupervisorPolicy()
        self.controllers = tuple(controllers)
        self.timers = timers if timers is not None else dns.timers
        self.counters = counters or RecoveryCounters()
        if rotation.counters is None:
            rotation.counters = self.counters
        self.log: list[RecoveryEvent] = []
        self._sleep = sleep
        # jitter draws come from the run seed, so a job's retry schedule is
        # reproducible while co-scheduled jobs (different seeds) desynchronize
        self._jitter_rng = (
            random.Random(dns.config.seed)
            if self.policy.backoff_jitter > 0.0
            else None
        )
        self.recorder = recorder if recorder is not None else dns.recorder
        if self.recorder is not None:
            self.recorder.set_recovery_counters(self.counters)

    def _event(self, event: RecoveryEvent) -> None:
        """Append to the recovery log, mirrored into the telemetry stream."""
        self.log.append(event)
        if self.recorder is not None:
            self.recorder.record_event(
                event.kind,
                step=event.step,
                detail=event.detail,
                attempt=event.attempt,
                info=event.info,
            )

    # ------------------------------------------------------------------

    def run(self, n_steps: int, callback=None):
        """Advance ``n_steps`` past the current step, recovering as needed.

        ``callback(dns)`` runs after each step's controllers and before
        the watchdog — the slot fault-injection hooks use, so an injected
        blow-up is caught in the same step and never checkpointed.
        Returns the (possibly replaced) driver.
        """
        target = self.dns.step_count + n_steps
        frontier = self.dns.step_count
        consecutive = 0
        if not self.rotation.snapshots():
            self._checkpoint()  # baseline: rollback must always have a target
        while self.dns.step_count < target:
            try:
                self._segment(target, callback)
            except RECOVERABLE as exc:
                failed_at = self.dns.step_count
                self.counters.failures += 1
                self._event(
                    RecoveryEvent(
                        step=failed_at,
                        kind="failure",
                        detail=f"{type(exc).__name__}: {exc}",
                        attempt=consecutive,
                    )
                )
                if failed_at > frontier:
                    frontier = failed_at
                    consecutive = 1
                else:
                    consecutive += 1
                if consecutive > self.policy.max_retries:
                    self._event(
                        RecoveryEvent(
                            step=failed_at,
                            kind="giving_up",
                            detail=f"{consecutive - 1} consecutive failures at step {failed_at}",
                            attempt=consecutive,
                        )
                    )
                    raise SupervisorGivingUp(
                        f"no forward progress after {consecutive - 1} retries "
                        f"(last failure at step {failed_at}: {exc})"
                    ) from exc
                self._backoff(consecutive)
                self._rollback(degrade=isinstance(exc, UnstableError), attempt=consecutive)
        return self.dns

    # ------------------------------------------------------------------

    def _segment(self, target: int, callback) -> None:
        """Step until the target or the first failure; checkpoint on cadence."""
        dns = self.dns
        while dns.step_count < target:
            dns.step()
            for ctrl in self.controllers:
                ctrl(dns)
            if callback is not None:
                callback(dns)
            if self.monitor is not None:
                self.monitor(dns)
            if dns.step_count % self.policy.checkpoint_every == 0 or dns.step_count >= target:
                self._checkpoint()

    def _checkpoint(self) -> None:
        if not self.dns.state_finite():
            # never let a poisoned state into the rotation, even when the
            # watchdog is off or on a sparse cadence
            raise DivergedError(
                f"non-finite state at checkpoint (step {self.dns.step_count})",
                step=self.dns.step_count,
            )
        with self.timers.section(SectionTimers.CHECKPOINT):
            self.rotation.save(self.dns)

    def _backoff(self, consecutive: int) -> None:
        p = self.policy
        delay = min(p.backoff_max, p.backoff_base * p.backoff_factor ** (consecutive - 1))
        if self._jitter_rng is not None and delay > 0:
            # ± backoff_jitter around the bounded nominal delay
            delay *= 1.0 + p.backoff_jitter * (2.0 * self._jitter_rng.random() - 1.0)
        if delay > 0:
            self._sleep(delay)

    def _rollback(self, degrade: bool, attempt: int) -> None:
        """Restore the newest verifiable snapshot; optionally reduce dt."""
        with self.timers.section(SectionTimers.RECOVERY):
            try:
                self.dns = self.rotation.load_latest(
                    config=self.dns.config, restore_runtime=True
                )
            except CheckpointCorruptError as exc:
                raise SupervisorGivingUp(
                    f"rollback impossible: {exc}"
                ) from exc
        self.counters.rollbacks += 1
        if self.recorder is not None:
            # the restore built a fresh driver: move the stream (and its
            # delta baselines) over so step records continue seamlessly
            self.recorder.attach(self.dns)
        self._event(
            RecoveryEvent(
                step=self.dns.step_count,
                kind="rollback",
                detail=f"restored step {self.dns.step_count}",
                attempt=attempt,
            )
        )
        if degrade:
            new_dt = max(self.policy.min_dt, self.dns.stepper.dt * self.policy.dt_factor)
            self.dns.set_dt(new_dt)
            for ctrl in self.controllers:
                clamp = getattr(ctrl, "clamp_max_dt", None)
                if clamp is not None:
                    clamp(new_dt)
            self.counters.dt_reductions += 1
            self._event(
                RecoveryEvent(
                    step=self.dns.step_count,
                    kind="dt_reduction",
                    detail=f"dt -> {new_dt:.3e}",
                    attempt=attempt,
                )
            )

    # ------------------------------------------------------------------

    def report(self) -> str:
        """One-line recovery summary (counters + last event)."""
        tail = self.log[-1] if self.log else None
        last = f"  last_event={tail.kind}@{tail.step}" if tail else ""
        return self.counters.report() + last
