"""Section timers and transform counters for the per-timestep breakdown.

The benchmarks of Tables 9-10 report elapsed time split into
``Transpose`` / ``FFT`` / ``N-S time advance`` (plus Total).  Both the
serial and the distributed drivers instrument themselves with a
:class:`SectionTimers` so the same breakdown can be printed for any run.
The paper used ``MPI_wtime``; we use :func:`time.perf_counter`.

:class:`TransformCounters` is the cheap bookkeeping attached to the
planned transform pipeline (:mod:`repro.fft.pipeline`): workspace bytes
allocated, transforms executed and per-stage wall time.  The workspace
counters are how the zero-allocation property of the hot path is
asserted — after warm-up, repeated substeps must not grow them.

:class:`OverlapCounters` is the communication/compute overlap
bookkeeping of the pipelined transposes
(:class:`repro.pencil.transpose.PipelinedTranspose`): bytes posted
through nonblocking exchanges, bytes already delivered when the wait
first checked (fully hidden communication), time blocked in waits and
compute seconds executed while an exchange was in flight.  The matching
``OVERLAP`` timer section is *nested* — it measures FFT time hidden
inside the transpose section, not additional time.

:class:`PrecisionCounters` is the mixed-precision wire bookkeeping of
the global transposes: bytes staged at reduced precision versus the
full-precision payload they carry, so the "≤ 55% of the float64 wire
bytes" claim is a counter assertion.

:class:`SolveCounters` is the same discipline for the batched banded
solve engine (:mod:`repro.linalg.engine`): engine-owned workspace is
counted once at construction and must stay frozen across steady-state
solves, while the execution counters (solves, sweeps, columns) keep
moving.

:class:`RecoveryCounters` is the fault-tolerance bookkeeping shared by
the checkpoint rotations (:mod:`repro.core.checkpoint`) and the one
supervision loop (:mod:`repro.core.supervisor`, in-thread or over SimMPI
ranks): snapshots saved/pruned, verification failures, watchdog trips,
rollbacks (in-thread), restarts (ranks), dt reductions — and, from the
elastic layer, ``shrinks`` (agreed survivor-set reductions after a rank
death), ``grows`` (re-expansions of a degraded run onto returned ranks)
and ``reshard_restores`` (snapshots reassembled onto a different process
grid).  Together with the ``CHECKPOINT``/``RECOVERY``/``ELASTIC`` timer
sections this is how a campaign's recovery history is surfaced.

:class:`TelemetryCounters` is the same discipline for the structured
run recorder (:mod:`repro.telemetry`): records and bytes emitted keep
moving while the recorder-owned scratch (``workspace_allocs``) freezes
after the first record — the recorder must not allocate on the hot
path.  ``overhead_seconds`` accumulates the recorder's own wall time so
its <1%-of-step budget is checkable from the stream itself.

Every timer additionally accepts an optional ``tracer`` (a
:class:`repro.telemetry.trace.TraceWriter`): when set, each timed
section is also emitted as a Chrome ``trace_event`` span, giving the
per-rank Transpose/FFT/N-S-advance/solve nesting in Perfetto without
touching any driver code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class SectionTimers:
    """Named cumulative wall-clock timers.

    Sections listed in :attr:`NESTED` are timed *inside* another section
    (``solve`` runs within ``ns_advance``) and are therefore excluded
    from :meth:`total`, which otherwise sums disjoint sections.
    """

    #: canonical section names used by the drivers
    TRANSPOSE = "transpose"
    FFT = "fft"
    ADVANCE = "ns_advance"
    NONLINEAR = "nonlinear_products"
    REORDER = "reorder"
    SOLVE = "solve"
    #: fault-tolerance sections: checkpoint writes and rollback/restart
    #: work of the run supervisor (disjoint from the per-step sections)
    CHECKPOINT = "checkpoint"
    RECOVERY = "recovery"
    #: elastic-recovery section: survivor re-planning and reshard restores
    #: after a shrink (disjoint, like CHECKPOINT/RECOVERY)
    ELASTIC = "elastic"
    #: streaming-statistics section: accumulator sampling inside the step
    #: loop (disjoint — it runs after the RK3 advance returned)
    STATS = "stats"
    #: compute executed while a nonblocking exchange was in flight (the
    #: pipelined transposes run FFT slabs inside the transpose section,
    #: so this is nested — it measures hidden time, not extra time)
    OVERLAP = "overlap"

    #: sections nested inside another section (not added to the total)
    NESTED = frozenset({SOLVE, OVERLAP})

    def __init__(self) -> None:
        self.elapsed: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: optional span sink (``repro.telemetry.trace.TraceWriter``); when
        #: set, every timed section is also emitted as a trace span
        self.tracer = None

    @contextmanager
    def section(self, name: str):
        """Time a ``with``-block under ``name`` (cumulative)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.elapsed[name] += dt
            self.calls[name] += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.add_complete(name, t0, dt)

    def total(self) -> float:
        return sum(v for k, v in self.elapsed.items() if k not in self.NESTED)

    def reset(self) -> None:
        self.elapsed.clear()
        self.calls.clear()

    def report(self) -> str:
        """Table-9-style one-liner: per-section seconds plus total."""
        parts = [f"{k}={v:.4f}s" for k, v in sorted(self.elapsed.items())]
        parts.append(f"total={self.total():.4f}s")
        return "  ".join(parts)

    def merge(self, other: "SectionTimers") -> None:
        for k, v in other.elapsed.items():
            self.elapsed[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v


class TransformCounters:
    """Allocation / execution / timing counters of a transform pipeline.

    ``workspace_bytes`` and ``workspace_allocs`` count only pipeline-owned
    scratch (pad buffers, transpose staging); transform *outputs* are
    caller-owned fresh arrays and are not workspace.  A warmed-up pipeline
    holds both constant across calls — the zero-allocation invariant.
    """

    def __init__(self) -> None:
        self.workspace_bytes = 0
        self.workspace_allocs = 0
        self.transforms = 0
        self.fields_forward = 0
        self.fields_backward = 0
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.stage_calls: dict[str, int] = defaultdict(int)

    def count_workspace(self, arr) -> None:
        """Record a newly allocated workspace array."""
        self.workspace_bytes += int(arr.nbytes)
        self.workspace_allocs += 1

    @contextmanager
    def stage(self, name: str):
        """Time one pipeline stage (cumulative per stage name)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] += time.perf_counter() - t0
            self.stage_calls[name] += 1

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "workspace_bytes": self.workspace_bytes,
            "workspace_allocs": self.workspace_allocs,
            "transforms": self.transforms,
            "fields_forward": self.fields_forward,
            "fields_backward": self.fields_backward,
            "stage_seconds": dict(self.stage_seconds),
            "stage_calls": dict(self.stage_calls),
        }

    def report(self) -> str:
        parts = [
            f"workspace={self.workspace_bytes}B/{self.workspace_allocs} allocs",
            f"transforms={self.transforms}",
            f"fields={self.fields_forward}fwd/{self.fields_backward}bwd",
        ]
        parts += [f"{k}={v:.4f}s" for k, v in sorted(self.stage_seconds.items())]
        return "  ".join(parts)


class OverlapCounters:
    """Communication/compute overlap accounting of the pipelined transposes.

    ``bytes_posted`` counts off-rank payload posted through nonblocking
    exchanges, ``bytes_completed`` the portion whose requests finished,
    and ``bytes_overlapped`` the portion already delivered when the wait
    first checked — communication fully hidden behind the FFT compute
    that ran between post and wait.  ``wait_seconds`` is time blocked in
    ``Request.wait`` (exposed comm), ``overlap_seconds`` compute executed
    while an exchange was in flight (hidden comm window).  ``posts`` and
    ``waits`` count the staged exchanges.
    """

    def __init__(self) -> None:
        self.posts = 0
        self.waits = 0
        self.bytes_posted = 0
        self.bytes_completed = 0
        self.bytes_overlapped = 0
        self.wait_seconds = 0.0
        self.overlap_seconds = 0.0

    def hidden_fraction(self) -> float:
        """Fraction of completed exchange bytes fully hidden behind compute."""
        if not self.bytes_completed:
            return 0.0
        return self.bytes_overlapped / self.bytes_completed

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "posts": self.posts,
            "waits": self.waits,
            "bytes_posted": self.bytes_posted,
            "bytes_completed": self.bytes_completed,
            "bytes_overlapped": self.bytes_overlapped,
            "wait_seconds": self.wait_seconds,
            "overlap_seconds": self.overlap_seconds,
        }

    def report(self) -> str:
        return (
            f"posts={self.posts}  waits={self.waits}  "
            f"bytes={self.bytes_posted} posted/{self.bytes_overlapped} overlapped "
            f"({self.hidden_fraction():.0%} hidden)  "
            f"wait={self.wait_seconds:.4f}s  overlap={self.overlap_seconds:.4f}s"
        )


class PrecisionCounters:
    """Mixed-precision wire accounting of the global transposes.

    When a :class:`~repro.pencil.transpose.GlobalTranspose` runs in
    ``wire="mixed"`` mode, float64/complex128 payloads are staged down to
    float32/complex64 before the exchange and accumulated back at full
    precision on assembly.  ``bytes_full`` counts what the full-precision
    payload would have moved, ``bytes_wire`` what was actually staged —
    their ratio is the counter-asserted wire saving (≤ 0.55 of the
    float64 bytes for pure float payloads; the tiny excess over 0.5 in a
    mixed stream comes from exchanges too narrow to down-cast).
    ``casts`` counts exchanges that actually narrowed, ``exchanges`` all
    staged exchanges.
    """

    def __init__(self) -> None:
        self.exchanges = 0
        self.casts = 0
        self.bytes_wire = 0
        self.bytes_full = 0

    def wire_fraction(self) -> float:
        """bytes_wire / bytes_full (1.0 before any exchange)."""
        if not self.bytes_full:
            return 1.0
        return self.bytes_wire / self.bytes_full

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        return {
            "exchanges": self.exchanges,
            "casts": self.casts,
            "bytes_wire": self.bytes_wire,
            "bytes_full": self.bytes_full,
        }

    def report(self) -> str:
        return (
            f"exchanges={self.exchanges} ({self.casts} down-cast)  "
            f"wire={self.bytes_wire}B of {self.bytes_full}B full "
            f"({self.wire_fraction():.0%} on the wire)"
        )


class SolveCounters:
    """Workspace / execution counters of a batched banded solve engine.

    ``workspace_bytes``/``workspace_allocs`` count only engine-owned
    scratch (the pair/group right-hand-side panels); solve *outputs* are
    caller-owned fresh arrays and are not workspace.  A built engine
    holds both frozen across steady-state solves — the zero-allocation
    invariant asserted by the tests.  ``sweeps`` counts blocked
    forward+backward passes, ``columns`` the real RHS columns swept
    (a complex right-hand side is two columns).
    """

    def __init__(self) -> None:
        self.workspace_bytes = 0
        self.workspace_allocs = 0
        self.solves = 0
        self.sweeps = 0
        self.columns = 0

    def count_workspace(self, arr) -> None:
        """Record a newly allocated engine workspace array."""
        self.workspace_bytes += int(arr.nbytes)
        self.workspace_allocs += 1

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "workspace_bytes": self.workspace_bytes,
            "workspace_allocs": self.workspace_allocs,
            "solves": self.solves,
            "sweeps": self.sweeps,
            "columns": self.columns,
        }

    def report(self) -> str:
        return (
            f"workspace={self.workspace_bytes}B/{self.workspace_allocs} allocs  "
            f"solves={self.solves}  sweeps={self.sweeps}  columns={self.columns}"
        )


class RecoveryCounters:
    """Checkpoint / recovery bookkeeping of the fault-tolerant harness.

    ``checkpoints_saved``/``checkpoints_pruned`` move with the rotation,
    ``verify_failures`` counts snapshots rejected by checksum or manifest
    verification, ``failures`` counts watchdog/collective trips the
    supervisor caught, ``rollbacks`` successful restores, ``restarts``
    job-level relaunches of an SPMD program, and ``dt_reductions`` the
    graceful-degradation steps taken after instability.  The elastic
    path adds ``shrinks`` (agreed survivor-set reductions after a rank
    death), ``grows`` (re-expansions of a degraded run back onto a
    larger grid once ranks return) and ``reshard_restores`` (snapshots
    reassembled onto a decomposition different from the one that wrote
    them).
    """

    def __init__(self) -> None:
        self.checkpoints_saved = 0
        self.checkpoints_pruned = 0
        self.verify_failures = 0
        self.failures = 0
        self.rollbacks = 0
        self.restarts = 0
        self.dt_reductions = 0
        self.shrinks = 0
        self.grows = 0
        self.reshard_restores = 0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "checkpoints_saved": self.checkpoints_saved,
            "checkpoints_pruned": self.checkpoints_pruned,
            "verify_failures": self.verify_failures,
            "failures": self.failures,
            "rollbacks": self.rollbacks,
            "restarts": self.restarts,
            "dt_reductions": self.dt_reductions,
            "shrinks": self.shrinks,
            "grows": self.grows,
            "reshard_restores": self.reshard_restores,
        }

    def report(self) -> str:
        return (
            f"checkpoints={self.checkpoints_saved} saved/{self.checkpoints_pruned} pruned  "
            f"verify_failures={self.verify_failures}  failures={self.failures}  "
            f"rollbacks={self.rollbacks}  restarts={self.restarts}  "
            f"dt_reductions={self.dt_reductions}  shrinks={self.shrinks}  "
            f"grows={self.grows}  reshard_restores={self.reshard_restores}"
        )


class StatsCounters:
    """Bookkeeping of a streaming-statistics accumulator
    (:class:`repro.serving.StreamingStatistics`).

    ``samples`` counts states folded into the running sums, ``merges``
    the collective partial-sum reductions performed (one ``allreduce``
    per merge, regardless of how many profiles/spectra it carries),
    ``publishes`` results pushed into a results store, and ``restores``
    accumulator sidecars loaded back after a checkpoint restart or
    reshard.  ``sample_seconds`` accumulates the accumulator's own wall
    time — the numerator of the same <1%-of-step-time budget the
    telemetry recorder enforces on itself, checkable from the ``stats``
    telemetry group and asserted by ``scripts/stats_service_smoke.py``.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.merges = 0
        self.publishes = 0
        self.restores = 0
        self.sample_seconds = 0.0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "samples": self.samples,
            "merges": self.merges,
            "publishes": self.publishes,
            "restores": self.restores,
            "sample_seconds": self.sample_seconds,
        }

    def report(self) -> str:
        return (
            f"samples={self.samples}  merges={self.merges}  "
            f"publishes={self.publishes}  restores={self.restores}  "
            f"sample_time={self.sample_seconds:.4f}s"
        )


class TelemetryCounters:
    """Emission / workspace counters of a :class:`repro.telemetry.RunRecorder`.

    ``records``/``events``/``bytes_written``/``flushes`` move with the
    stream; ``overhead_seconds`` accumulates the recorder's own wall
    time (the numerator of the <1%-per-step overhead budget).
    ``workspace_allocs`` counts recorder-owned scratch entries (the
    reused record dict, per-section delta slots, counter-delta slots)
    and must freeze after the first record of a warmed-up run — the
    same zero-allocation discipline :class:`TransformCounters` enforces
    on the transform pipeline.
    """

    def __init__(self) -> None:
        self.records = 0
        self.events = 0
        self.bytes_written = 0
        self.flushes = 0
        self.overhead_seconds = 0.0
        self.workspace_allocs = 0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "records": self.records,
            "events": self.events,
            "bytes_written": self.bytes_written,
            "flushes": self.flushes,
            "overhead_seconds": self.overhead_seconds,
            "workspace_allocs": self.workspace_allocs,
        }

    def report(self) -> str:
        return (
            f"records={self.records}  events={self.events}  "
            f"bytes={self.bytes_written}  flushes={self.flushes}  "
            f"overhead={self.overhead_seconds:.4f}s  "
            f"workspace_allocs={self.workspace_allocs}"
        )
