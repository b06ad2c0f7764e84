"""Fault-isolated multi-job scheduler over a shared rank pool.

A campaign rarely owns one job: the allocation that runs the production
DNS also runs restarted parameter studies, validation sweeps and the
occasional debug rerun.  :class:`JobManager` places queued
:class:`JobSpec`\\ s (config + priority + deadline) onto disjoint
sub-leases of one :class:`~repro.mpi.pool.RankPool` and runs them
*concurrently*, each through the elastic supervised loop
(:func:`~repro.pencil.distributed.run_supervised_spmd`) on its own
thread-backed SimMPI world.  Isolation is structural: leases are
disjoint by construction and every fault domain is per ``run_spmd``
call, so a rank failure inside job A cannot perturb job B — the dead
rank is quarantined in the pool and stays unplaceable for *every* job
until a health probe returns it to service.

Scheduling rules, in order:

* **Placement** — highest priority first (submit order breaks ties); a
  job takes the largest feasible rank count in
  ``[min_ranks, min(ranks, free)]`` (feasibility =
  :func:`~repro.pencil.decomp.choose_grid` accepts the count).  A job
  placed below its request runs *degraded* and grows back through its
  :class:`~repro.mpi.pool.LeaseGrowSource` as ranks free up.
* **Preemption** — when a higher-priority job cannot be placed, the
  lowest-priority running job below it is asked to stop.  Preemption is
  cooperative and lossless: the victim checkpoints at its next boundary,
  raises :class:`~repro.mpi.simmpi.PreemptRequired`, releases its lease
  and is requeued — on re-placement it resumes from the snapshot, so no
  checkpointed step is ever redone from scratch.
* **Retry** — a job that fails outright (restart budget exhausted,
  shrink below ``min_ranks``) is requeued up to ``max_retries`` times
  with exponential backoff whose jitter is deterministic in the job's
  config seed (no sleeping threads: the backoff is a ``not_before``
  timestamp the scheduler honours).
* **Quarantine** — ULFM-failed ranks leave the victim's lease via
  :meth:`~repro.mpi.pool.RankPool.shrink` and return only through a
  probe (the manager's ``prober``); without a prober they never return.

Telemetry nests: the manager writes a schema-v4 ``events.jsonl``
(``rank=-1``, every record tagged ``job=<name>``) plus a
``manifest.json`` carrying the pool census, and each placement of each
job writes its own supervised-run stream under
``<dir>/job-<name>/placement-NN/``.

Outcome classification (checked by the scheduler-level chaos soak),
highest precedence first: ``preempted-resumed`` (was preempted at least
once, then finished), ``grown`` (expanded back toward its request),
``degraded`` (finished below its requested ranks), ``recovered``
(restarts/shrinks/retries happened), ``completed`` (clean), ``failed``.
"""

from __future__ import annotations

import pathlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.supervisor import backoff_delay
from repro.instrument import RecoveryCounters
from repro.mpi.pool import LeaseGrowSource, RankPool
from repro.mpi.simmpi import PreemptRequired
from repro.telemetry import RunRecorder, TelemetryConfig, build_manifest, write_manifest

#: terminal states of a job record
FINISHED_STATES = ("completed", "failed")


@dataclass(frozen=True)
class JobSpec:
    """One queued job: what to run, how big, how urgent."""

    #: unique job name (tags telemetry, leases and checkpoints)
    name: str
    #: solver configuration (:class:`~repro.core.solver.ChannelConfig`)
    config: object
    #: steps to advance
    n_steps: int
    #: requested world size; the elastic loop grows a degraded placement
    #: back toward this
    ranks: int
    #: higher runs first and may preempt lower
    priority: int = 0
    #: wall-clock budget in seconds from first placement; exceeded ->
    #: the job stops at the next checkpoint boundary and fails (None =
    #: no deadline)
    deadline: float | None = None
    #: smallest world size the job accepts (placement floor and elastic
    #: shrink floor)
    min_ranks: int = 1
    #: checkpoint cadence inside the supervised loop
    checkpoint_every: int = 5
    #: per-placement restart budget of the supervised loop
    max_restarts: int = 3
    #: whole-placement retries the manager grants after a hard failure
    max_retries: int = 1
    #: :class:`~repro.mpi.simmpi.FaultPlan` list for the *first*
    #: placement (chaos injection); later placements run clean
    fault_plans: Sequence = ()
    #: earliest placement time, in seconds after submission or after the
    #: manager's first scheduling pass, whichever is later — models a job
    #: *arriving* later (the way a high-priority job shows up mid-run and
    #: preempts) without the test needing timer threads
    start_after: float = 0.0

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError(f"job {self.name!r}: ranks must be >= 1")
        if not 1 <= self.min_ranks <= self.ranks:
            raise ValueError(
                f"job {self.name!r}: need 1 <= min_ranks <= ranks, "
                f"got min_ranks={self.min_ranks}, ranks={self.ranks}"
            )
        if self.n_steps < 1:
            raise ValueError(f"job {self.name!r}: n_steps must be >= 1")


@dataclass
class JobRecord:
    """Mutable scheduler-side state of one submitted job."""

    spec: JobSpec
    #: queued | running | completed | failed
    state: str = "queued"
    #: final classification, set on finish (see module docstring)
    outcome: str | None = None
    #: gathered final state on success
    result: object = None
    #: recovery events of the *successful* placement
    log: list = field(default_factory=list)
    #: recovery counters persisting across placements and retries
    counters: RecoveryCounters = field(default_factory=RecoveryCounters)
    placements: int = 0
    preemptions: int = 0
    retries: int = 0
    #: scheduler honours this monotonic timestamp before re-placing
    not_before: float = 0.0
    #: set to ask the running placement to stop at its next boundary
    stop_reason: str | None = None
    error: BaseException | None = None
    final_ranks: int = 0
    #: monotonic time of first placement (deadline anchor)
    started: float | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def finished(self) -> bool:
        return self.state in FINISHED_STATES


class JobManager:
    """Run submitted jobs concurrently on disjoint leases of one pool.

    Parameters
    ----------
    pool:
        A :class:`~repro.mpi.pool.RankPool` or an integer pool size.
    directory:
        Telemetry root: manager ``events.jsonl`` + ``manifest.json`` at
        the top, per-job streams under ``job-<name>/``.
    prober:
        Health probe ``pool_rank -> bool`` for quarantined ranks.  When
        None, quarantined ranks never return to service (fail-safe).
    backoff_base, backoff_factor, backoff_max, backoff_jitter:
        Retry backoff schedule; jitter is deterministic per job (seeded
        from the job config's seed and name).
    """

    def __init__(
        self,
        pool: RankPool | int,
        *,
        directory,
        prober: Callable[[int], bool] | None = None,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.5,
        backoff_jitter: float = 0.5,
    ) -> None:
        self.pool = pool if isinstance(pool, RankPool) else RankPool(int(pool))
        self.directory = pathlib.Path(directory)
        self.prober = prober
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1), got {backoff_jitter}")
        self.backoff_jitter = float(backoff_jitter)
        self.timed_out = False
        self._cond = threading.Condition()
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._threads: dict[str, threading.Thread] = {}
        self._rng: dict[str, random.Random] = {}
        # the recorder is not thread-safe and job threads emit manager
        # events too, so every record_event goes through _rec_lock
        self._rec_lock = threading.Lock()
        self._recorder = RunRecorder(
            TelemetryConfig(directory=self.directory, trace=False, manifest=False),
            rank=-1,
            nranks=self.pool.size,
        )

    # -- submission ------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue a job; placement happens inside :meth:`run`."""
        with self._cond:
            if spec.name in self._jobs:
                raise ValueError(f"job {spec.name!r} already submitted")
            if spec.min_ranks > self.pool.size:
                raise ValueError(
                    f"job {spec.name!r} needs >= {spec.min_ranks} ranks, "
                    f"pool has {self.pool.size}"
                )
            rec = JobRecord(spec=spec)
            if spec.start_after > 0.0:
                rec.not_before = time.monotonic() + spec.start_after
            self._jobs[spec.name] = rec
            self._order.append(spec.name)
            # deterministic per-job jitter stream: seeded by config seed
            # and name so a rerun reproduces the exact retry schedule
            seed = getattr(spec.config, "seed", 0)
            self._rng[spec.name] = random.Random(f"{seed}:{spec.name}")
            self._cond.notify_all()
        self._event(
            "submitted",
            job=spec.name,
            detail=(
                f"{spec.n_steps} steps on {spec.ranks} ranks "
                f"(priority {spec.priority})"
            ),
            info={
                "ranks": spec.ranks,
                "min_ranks": spec.min_ranks,
                "priority": spec.priority,
                "n_steps": spec.n_steps,
                "deadline_s": spec.deadline,
            },
        )
        return rec

    # -- events ----------------------------------------------------------

    def _event(self, kind: str, *, job: str, detail: str = "", info: dict | None = None) -> None:
        with self._rec_lock:
            self._recorder.record_event(kind, step=-1, detail=detail, info=info, job=job)

    # -- feasibility -----------------------------------------------------

    @staticmethod
    def _feasible(spec: JobSpec, n: int) -> bool:
        from repro.pencil.decomp import choose_grid

        try:
            choose_grid(n, spec.config.nx // 2, spec.config.nz - 1, spec.config.ny)
        except ValueError:
            return False
        return True

    def _placement_size(self, spec: JobSpec, free: int) -> int | None:
        """Largest feasible world size in ``[min_ranks, min(ranks, free)]``."""
        for n in range(min(spec.ranks, free), spec.min_ranks - 1, -1):
            if self._feasible(spec, n):
                return n
        return None

    # -- scheduling ------------------------------------------------------

    def run(self, timeout: float | None = None) -> dict[str, JobRecord]:
        """Drive every submitted job to a terminal state; return records.

        ``timeout`` is the manager-level wall-clock guard (the soak's
        zero-hang assertion): when exceeded, every running job is asked
        to stop at its next boundary, still-queued jobs fail, and
        :attr:`timed_out` is set.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        write_manifest(
            self.directory,
            build_manifest(
                None,
                nranks=self.pool.size,
                pool={
                    **self.pool.census(),
                    "jobs": {
                        name: {
                            "ranks": self._jobs[name].spec.ranks,
                            "min_ranks": self._jobs[name].spec.min_ranks,
                            "priority": self._jobs[name].spec.priority,
                            "n_steps": self._jobs[name].spec.n_steps,
                        }
                        for name in self._order
                    },
                },
            ),
        )
        with self._cond:
            # jobs submitted before run() arrive counted from the first
            # scheduling pass: the manifest above runs git subprocesses
            first_pass = time.monotonic()
            for rec in self._jobs.values():
                if rec.placements == 0:
                    rec.not_before = first_pass + rec.spec.start_after
            while not all(r.finished for r in self._jobs.values()):
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    self.timed_out = True
                    for rec in self._jobs.values():
                        if rec.state == "running":
                            rec.stop_reason = "manager timeout"
                    break
                placed = self._schedule_pass(now)
                if placed == 0 and not any(
                    r.state == "running" for r in self._jobs.values()
                ):
                    # nothing running, nothing placeable: fail jobs that
                    # are eligible *now* (a not_before in the future is a
                    # legitimate wait, not a stall)
                    stuck = [
                        r
                        for r in self._jobs.values()
                        if r.state == "queued" and now >= r.not_before
                    ]
                    if stuck:
                        for rec in stuck:
                            self._finish_failed(
                                rec,
                                RuntimeError(
                                    f"unplaceable: needs >= {rec.spec.min_ranks} "
                                    f"ranks, {self.pool.free_count()} free, "
                                    f"{len(self.pool.quarantined_ranks())} quarantined"
                                ),
                            )
                        continue
                self._cond.wait(timeout=self._next_wake(deadline))
        # outside the lock: let preempted/finishing threads drain
        for t in list(self._threads.values()):
            t.join(timeout=120.0)
        with self._cond:
            for rec in self._jobs.values():
                if not rec.finished:
                    self._finish_failed(
                        rec, TimeoutError("manager timeout before completion")
                    )
        with self._rec_lock:
            self._recorder.close()
        return dict(self._jobs)

    def _next_wake(self, deadline: float | None) -> float | None:
        now = time.monotonic()
        waits = []
        if deadline is not None:
            waits.append(deadline - now)
        for rec in self._jobs.values():
            if rec.state == "queued" and rec.not_before > now:
                waits.append(rec.not_before - now)
        return max(0.0, min(waits)) if waits else None

    def _schedule_pass(self, now: float) -> int:
        """Place eligible queued jobs; signal preemptions.  Returns the
        number of placements made.  Caller holds the condition lock."""
        placed = 0
        queued = [
            r
            for r in self._jobs.values()
            if r.state == "queued" and now >= r.not_before
        ]
        queued.sort(key=lambda r: (-r.spec.priority, self._order.index(r.name)))
        for rec in queued:
            n = self._placement_size(rec.spec, self.pool.free_count())
            if n is None and self.prober is not None and self.pool.quarantined_ranks():
                # quarantined capacity may be all that is missing: probe
                # it back before declaring the job unplaceable
                for pr in self.pool.probe(self.prober):
                    self._event(
                        "probe",
                        job=rec.name,
                        detail=f"pool rank {pr} probed healthy",
                        info={"pool_rank": pr},
                    )
                n = self._placement_size(rec.spec, self.pool.free_count())
            if n is not None:
                self._place(rec, n)
                placed += 1
                continue
            victim = self._pick_victim(rec)
            if victim is not None:
                victim.stop_reason = f"preempted by {rec.name}"
                self._event(
                    "requeued",
                    job=victim.name,
                    detail=(
                        f"preemption requested by higher-priority job "
                        f"{rec.name!r} (will checkpoint and requeue)"
                    ),
                    info={"by": rec.name, "phase": "requested"},
                )
        return placed

    def _pick_victim(self, rec: JobRecord) -> JobRecord | None:
        """Lowest-priority running job strictly below ``rec`` whose lease
        would make ``rec`` placeable."""
        candidates = [
            r
            for r in self._jobs.values()
            if r.state == "running"
            and r.spec.priority < rec.spec.priority
            and r.stop_reason is None
        ]
        candidates.sort(key=lambda r: (r.spec.priority, -self._order.index(r.name)))
        for victim in candidates:
            lease = self.pool.lease(victim.name)
            freed = lease.size if lease is not None else 0
            if self._placement_size(rec.spec, self.pool.free_count() + freed) is not None:
                return victim
        return None

    def _place(self, rec: JobRecord, n: int) -> None:
        from repro.pencil.decomp import choose_grid

        spec = rec.spec
        lease = self.pool.acquire(rec.name, n)
        pa, pb = choose_grid(n, spec.config.nx // 2, spec.config.nz - 1, spec.config.ny)
        rec.state = "running"
        rec.placements += 1
        rec.stop_reason = None
        if rec.started is None:
            rec.started = time.monotonic()
        self._event(
            "placed",
            job=rec.name,
            detail=(
                f"placement {rec.placements - 1}: {n} ranks ({pa}x{pb})"
                + (" [degraded]" if n < spec.ranks else "")
            ),
            info={
                "ranks": n,
                "pa": pa,
                "pb": pb,
                "degraded": n < spec.ranks,
                "pool_ranks": list(lease.ranks),
            },
        )
        t = threading.Thread(
            target=self._run_job,
            args=(rec, n, pa, pb),
            name=f"job-{rec.name}",
            daemon=True,
        )
        self._threads[rec.name] = t
        t.start()

    # -- the per-job thread ---------------------------------------------

    def _run_job(self, rec: JobRecord, n: int, pa: int, pb: int) -> None:
        from repro.pencil.distributed import run_supervised_spmd

        spec = rec.spec
        job_dir = self.directory / f"job-{rec.name}"
        telemetry = TelemetryConfig(
            directory=job_dir / f"placement-{rec.placements - 1:02d}", trace=False
        )

        def _should_stop():
            if rec.stop_reason:
                return rec.stop_reason
            if (
                spec.deadline is not None
                and rec.started is not None
                and time.monotonic() - rec.started >= spec.deadline
            ):
                return "deadline exceeded"
            return None

        def _on_shrink(dead, survivors):
            self.pool.shrink(rec.name, dead)
            self._event(
                "quarantine",
                job=rec.name,
                detail=(
                    f"{len(dead)} rank(s) of {rec.name} quarantined after failure"
                ),
                info={
                    "dead_world": [int(d) for d in dead],
                    "quarantined_pool": list(self.pool.quarantined_ranks()),
                },
            )

        try:
            final, log = run_supervised_spmd(
                n,
                spec.config,
                pa,
                pb,
                spec.n_steps,
                job_dir / "checkpoints",
                checkpoint_every=spec.checkpoint_every,
                max_restarts=spec.max_restarts,
                fault_plans=spec.fault_plans if rec.placements == 1 else (),
                elastic=True,
                integrity=True,
                min_ranks=spec.min_ranks,
                counters=rec.counters,
                telemetry=telemetry,
                grow_source=LeaseGrowSource(
                    self.pool, rec.name, prober=self._probing(rec.name)
                ),
                max_ranks=spec.ranks,
                should_stop=_should_stop,
                on_shrink=_on_shrink,
            )
        except PreemptRequired as exc:
            self.pool.release(rec.name)
            with self._cond:
                if exc.reason in ("deadline exceeded", "manager timeout"):
                    self._finish_failed(rec, exc)
                else:
                    rec.state = "queued"
                    rec.preemptions += 1
                    rec.stop_reason = None
                    rec.not_before = 0.0
                    self._event(
                        "requeued",
                        job=rec.name,
                        detail=(
                            f"preempted at step {exc.step} "
                            f"({exc.reason}); checkpointed, requeued"
                        ),
                        info={"step": exc.step, "reason": exc.reason, "phase": "done"},
                    )
                self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - every failure goes to retry
            self.pool.release(rec.name)
            with self._cond:
                rec.retries += 1
                if rec.retries <= spec.max_retries and not self.timed_out:
                    delay = self._backoff(rec)
                    rec.state = "queued"
                    rec.stop_reason = None
                    rec.not_before = time.monotonic() + delay
                    self._event(
                        "requeued",
                        job=rec.name,
                        detail=(
                            f"retry {rec.retries}/{spec.max_retries} in "
                            f"{delay:.3f}s after {type(exc).__name__}: {exc}"
                        ),
                        info={
                            "retry": rec.retries,
                            "max_retries": spec.max_retries,
                            "delay_s": delay,
                        },
                    )
                else:
                    self._finish_failed(rec, exc)
                self._cond.notify_all()
        else:
            lease = self.pool.lease(rec.name)
            rec.final_ranks = lease.size if lease is not None else n
            self.pool.release(rec.name)
            with self._cond:
                rec.result = final
                rec.log = list(log)
                rec.state = "completed"
                rec.outcome = self._classify(rec)
                self._event(
                    "completed",
                    job=rec.name,
                    detail=f"outcome {rec.outcome} on {rec.final_ranks} ranks",
                    info={
                        "outcome": rec.outcome,
                        "ranks": rec.final_ranks,
                        "shrinks": rec.counters.shrinks,
                        "grows": rec.counters.grows,
                        "restarts": rec.counters.restarts,
                        "preemptions": rec.preemptions,
                        "retries": rec.retries,
                        "placements": rec.placements,
                    },
                )
                self._cond.notify_all()

    def _probing(self, name: str) -> Callable[[int], bool] | None:
        """Wrap the manager prober so probes show up in the event stream."""
        if self.prober is None:
            return None

        def probe(pool_rank: int) -> bool:
            healthy = bool(self.prober(pool_rank))
            if healthy:
                self._event(
                    "probe",
                    job=name,
                    detail=f"pool rank {pool_rank} probed healthy",
                    info={"pool_rank": pool_rank},
                )
            return healthy

        return probe

    def _backoff(self, rec: JobRecord) -> float:
        return backoff_delay(
            rec.retries, self.backoff_base, self.backoff_factor, self.backoff_max,
            self.backoff_jitter, self._rng[rec.name],
        )

    def _finish_failed(self, rec: JobRecord, exc: BaseException) -> None:
        """Caller holds the condition lock."""
        rec.state = "failed"
        rec.outcome = "failed"
        rec.error = exc
        self._event(
            "failed",
            job=rec.name,
            detail=f"{type(exc).__name__}: {exc}",
            info={"retries": rec.retries, "placements": rec.placements},
        )

    @staticmethod
    def _classify(rec: JobRecord) -> str:
        c = rec.counters
        if rec.preemptions > 0:
            return "preempted-resumed"
        if c.grows > 0:
            return "grown"
        if rec.final_ranks < rec.spec.ranks:
            return "degraded"
        if c.shrinks + c.restarts > 0 or rec.retries > 0:
            return "recovered"
        return "completed"
