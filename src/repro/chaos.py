"""Chaos soak harness: randomized fault schedules against the elastic stack.

The paper's production campaigns run in a regime where the machine *will*
fail mid-run — the honest test of a recovery stack is not one
hand-placed fault but a stream of randomized ones.  This module provides

* :func:`random_fault_plan` — a seeded generator of
  :class:`~repro.mpi.simmpi.FaultPlan` schedules (kill / corrupt / drop /
  delay at random collectives on random ranks, deterministic per seed),
* :func:`alltoalls_per_step` — a dry run counting rank 1's exchange
  calls per step (the operation
  :func:`~repro.pencil.transpose.exchange_op` names), so a hand-placed
  kill lands inside the step it names,
* :func:`run_chaos_soak` — a driver that runs N schedules through the
  elastic supervisor (:func:`~repro.pencil.distributed.run_supervised_spmd`
  with ``elastic=True, integrity=True``), one job at a time, and
  classifies every run.

Classification is strict about the two failure modes a recovery stack
must never exhibit:

* ``hung`` — the run exceeded its join timeout (a deadlock); the SimMPI
  abort path is designed to make this impossible.
* ``diverged`` — the run *completed* but its final state does not match
  the uninterrupted serial trajectory (silent corruption); the integrity
  envelopes are designed to turn this into a detected, restartable
  failure instead.

Healthy outcomes are ``completed`` (no fault fired or faults were
harmless), ``recovered`` (one or more same-size restarts from the
sharded rotation), and ``degraded`` (a rank died and the run shrank onto
the survivors via the resharding reader).  ``failed`` covers residual
typed errors — visible, never silent.

The oracle is the serial :class:`~repro.core.solver.ChannelDNS`
trajectory: the distributed solver matches it to round-off at any
process grid, checkpoint restore is bit-exact, and a shrink only changes
the grid — so every correctly-recovering run must land on the serial
answer within a tight tolerance, whatever faults were injected.
"""

from __future__ import annotations

import pathlib
import shutil
from dataclasses import dataclass

import numpy as np

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.instrument import RecoveryCounters
from repro.mpi.simmpi import FaultEvent, FaultPlan
from repro.pencil.transpose import DEFAULT_STAGES, exchange_op

#: collectives the distributed DNS actually exercises every step; ``None``
#: is the wildcard (matches whatever operation the victim reaches next)
SOAK_OPS = ("alltoall", "allreduce", "barrier", "bcast", None)

#: the four injectable fault actions, weighted toward the interesting ones
SOAK_ACTIONS = ("kill", "corrupt", "drop", "delay")


@dataclass
class SoakResult:
    """Outcome of one seeded chaos run."""

    seed: int
    classification: str  # completed | recovered | degraded | hung | diverged | failed
    restarts: int = 0
    shrinks: int = 0
    final_ranks: int = 0
    events_planned: int = 0
    events_fired: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Graceful outcome: correct trajectory, visibly recovered or degraded."""
        return self.classification in ("completed", "recovered", "degraded")


def random_fault_plan(
    seed: int,
    nranks: int,
    *,
    max_events: int = 3,
    max_call: int = 60,
    delay: float = 0.02,
    ops: tuple[str | None, ...] = SOAK_OPS,
) -> FaultPlan:
    """Seeded random fault schedule: deterministic per ``(seed, nranks)``.

    Draws 1..``max_events`` events over ``ops`` (default
    :data:`SOAK_OPS`) x :data:`SOAK_ACTIONS` with call indices in
    ``[0, max_call)``.  Kills are capped at ``nranks - 1`` per plan so
    one epoch can never lose every rank at once (the stack still
    tolerates a lone rank dying — that surfaces as a restart, not a
    shrink).  Passing a different ``ops`` tuple retargets the sweep —
    e.g. at the nonblocking ``ialltoall``/``isend`` path — without
    perturbing the default schedules existing seeds pin down.
    """
    rng = np.random.default_rng(seed)
    n_events = int(rng.integers(1, max_events + 1))
    events: list[FaultEvent] = []
    kills = 0
    for _ in range(n_events):
        action = SOAK_ACTIONS[int(rng.integers(0, len(SOAK_ACTIONS)))]
        if action == "kill" and kills >= nranks - 1:
            action = "delay"
        if action == "kill":
            kills += 1
        events.append(
            FaultEvent(
                action=action,
                rank=int(rng.integers(0, nranks)),
                op=ops[int(rng.integers(0, len(ops)))],
                call=int(rng.integers(0, max_call)),
                delay=delay,
            )
        )
    return FaultPlan(events, seed=seed)


def alltoalls_per_step(
    config: ChannelConfig, pa: int, pb: int, method=None, stages: int = DEFAULT_STAGES
) -> int:
    """Fault-free dry run: the exchange calls rank 1 makes in one step.

    A :class:`~repro.mpi.simmpi.FaultEvent` names its victim's n-th
    matching call, so this count places a kill inside a chosen step
    without assuming how many transposes a step makes.  The calls are
    counted by the matcher a kill goes through: a plan whose one event
    never fires.  ``method`` and ``stages`` are the run's transport; the
    counted operation is theirs, :func:`~repro.pencil.transpose.exchange_op`
    (``alltoall``, ``send`` or ``ialltoallv``).  Raises if the step
    makes no such call: a kill placed by it would never fire.
    """
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.distributed import DistributedChannelDNS

    op = exchange_op(method, stages)
    plan = FaultPlan([FaultEvent("delay", rank=1, op=op, call=2**62, delay=0.0)])

    def program(comm):
        dns = DistributedChannelDNS(comm, config, pa, pb, method=method, stages=stages)
        dns.initialize()
        before = plan.seen()
        dns.step()
        return plan.seen() - before

    count = run_spmd(pa * pb, program, fault_plan=plan)[1]
    if count == 0:
        raise RuntimeError(
            f"rank 1 made no {op!r} call in a step of the {pa}x{pb} run "
            f"(method={method}, stages={stages})"
        )
    return count


def _serial_reference(config: ChannelConfig, n_steps: int):
    """The uninterrupted serial trajectory — the soak's correctness oracle."""
    dns = ChannelDNS(config)
    dns.initialize()
    dns.run(n_steps)
    return dns.state


def _matches(full, ref, atol: float) -> bool:
    if full is None:
        return False
    for a, b in ((full.v, ref.v), (full.omega_y, ref.omega_y),
                 (full.u00, ref.u00), (full.w00, ref.w00)):
        if not np.allclose(a, b, rtol=0.0, atol=atol):
            return False
    return True


def run_chaos_soak(
    seeds,
    workdir,
    *,
    config: ChannelConfig | None = None,
    nranks: int = 4,
    pa: int | None = None,
    pb: int | None = None,
    n_steps: int = 6,
    checkpoint_every: int = 2,
    max_events: int = 3,
    atol: float = 1e-11,
    timeout: float | None = None,
    verbose: bool = False,
    telemetry=None,
    method=None,
    wire_precision: str = "full",
    stages: int = DEFAULT_STAGES,
) -> list[SoakResult]:
    """Run one elastic supervised job per seed and classify every outcome.

    Each seed gets a fresh checkpoint directory under ``workdir`` and a
    :func:`random_fault_plan`; the (stateful) plan is re-attached to every
    restart attempt, so events that did not fire before a failure can
    still fire afterwards.  ``max_restarts`` is sized from the event
    count, which bounds every run: each failed attempt consumes at least
    one planned event, so the job always terminates.

    ``telemetry`` (a directory or
    :class:`~repro.telemetry.TelemetryConfig`) records the soak: a
    top-level ``events.jsonl`` gets one ``soak_result`` event per seed
    plus a final ``soak_summary``, and each seed's supervised job writes
    its full per-attempt streams under ``<dir>/soak-NNNNN/``.

    ``method`` (a :class:`~repro.pencil.transpose.TransposeMethod`) pins
    the transpose implementation of every attempt — e.g. ``PIPELINED``
    to soak the nonblocking/overlap path under faults, in ``stages``
    slabs per exchange.  ``method=None`` is the driver default,
    ``ALLTOALL``.

    ``wire_precision="mixed"`` soaks the reduced-precision wire: pass an
    ``atol`` sized to the single-precision tolerance (DESIGN.md §6h),
    since the oracle check is then a float32-accuracy match, not the
    full-precision 1e-11 identity.
    """
    from repro.pencil.decomp import choose_grid
    from repro.pencil.distributed import run_supervised_spmd

    config = config or ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
    if pa is None or pb is None:
        pa, pb = choose_grid(nranks, config.nx // 2, config.nz - 1, config.ny)
    workdir = pathlib.Path(workdir)
    soak_rec = None
    tel_cfg = None
    if telemetry is not None:
        from dataclasses import replace as _replace

        from repro.telemetry import RunRecorder, TelemetryConfig

        tel_cfg = TelemetryConfig.coerce(telemetry)
        soak_rec = RunRecorder(tel_cfg, rank=-1, nranks=nranks)
    ref = _serial_reference(config, n_steps)
    results: list[SoakResult] = []
    try:
        for seed in seeds:
            plan = random_fault_plan(seed, nranks, max_events=max_events)
            ckpt = workdir / f"soak-{seed:05d}"
            shutil.rmtree(ckpt, ignore_errors=True)
            counters = RecoveryCounters()
            res = SoakResult(
                seed=seed, classification="failed", final_ranks=nranks,
                events_planned=len(plan.events),
            )
            max_restarts = len(plan.events) + 2
            seed_tel = None
            if tel_cfg is not None:
                seed_tel = _replace(
                    tel_cfg,
                    directory=pathlib.Path(tel_cfg.directory) / f"soak-{seed:05d}",
                )
            try:
                full, log = run_supervised_spmd(
                    nranks, config, pa, pb, n_steps, ckpt,
                    checkpoint_every=checkpoint_every,
                    max_restarts=max_restarts,
                    # same stateful plan on every attempt: unfired events persist
                    fault_plans=[plan] * (max_restarts + 1),
                    timeout=timeout,
                    counters=counters,
                    elastic=True,
                    integrity=True,
                    telemetry=seed_tel,
                    method=method,
                    wire_precision=wire_precision,
                    stages=stages,
                )
            except Exception as exc:  # noqa: BLE001 - classified, not propagated
                hung = "timed out" in str(exc)
                res.classification = "hung" if hung else "failed"
                res.detail = f"{type(exc).__name__}: {exc}"
            else:
                shrinks = [e for e in log if e.kind == "shrink"]
                if shrinks:
                    res.final_ranks = int(shrinks[-1].info["ranks"])
                if not _matches(full, ref, atol):
                    res.classification = "diverged"
                    res.detail = "final state does not match the serial oracle"
                elif counters.shrinks:
                    res.classification = "degraded"
                elif counters.restarts:
                    res.classification = "recovered"
                else:
                    res.classification = "completed"
            res.restarts = counters.restarts
            res.shrinks = counters.shrinks
            res.events_fired = len(plan.triggered)
            results.append(res)
            if soak_rec is not None:
                from dataclasses import asdict

                soak_rec.record_event(
                    "soak_result",
                    step=-1,
                    detail=f"seed {seed}: {res.classification}",
                    info=asdict(res),
                )
            if verbose:
                print(
                    f"seed {seed:5d}: {res.classification:<10} "
                    f"fired={res.events_fired}/{res.events_planned} "
                    f"restarts={res.restarts} shrinks={res.shrinks} "
                    f"ranks={nranks}->{res.final_ranks} {res.detail}"
                )
            shutil.rmtree(ckpt, ignore_errors=True)
        if soak_rec is not None:
            soak_rec.record_event(
                "soak_summary",
                step=-1,
                detail=f"{len(results)} seeded runs",
                info=soak_summary(results),
            )
    finally:
        if soak_rec is not None:
            soak_rec.close()
    return results


def soak_summary(results) -> dict:
    """Histogram of classifications plus aggregate recovery counts."""
    hist: dict[str, int] = {}
    for r in results:
        hist[r.classification] = hist.get(r.classification, 0) + 1
    return {
        "runs": len(results),
        "classifications": hist,
        "all_graceful": all(r.ok for r in results),
        "restarts": sum(r.restarts for r in results),
        "shrinks": sum(r.shrinks for r in results),
        "events_fired": sum(r.events_fired for r in results),
    }
