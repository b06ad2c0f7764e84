"""Section timers and the one counters mechanism of the per-step breakdown.

The benchmarks of Tables 9-10 report elapsed time split into
``Transpose`` / ``FFT`` / ``N-S time advance`` (plus Total).  Both the
serial and the distributed drivers instrument themselves with a
:class:`SectionTimers` so the same breakdown can be printed for any run;
its sections are exclusive, so they add up to the step.
The paper used ``MPI_wtime``; we use :func:`time.perf_counter`.

Every timer additionally accepts an optional ``tracer`` (a
:class:`repro.telemetry.trace.TraceWriter`): when set, each timed
section is also emitted as a Chrome ``trace_event`` span, giving the
per-rank Transpose/FFT/N-S-advance/solve nesting in Perfetto without
touching any driver code.

Every counter set is a :class:`Counters` subclass that only *declares*
its counters — annotated class attributes with zero defaults, in record
order — and inherits ``__init__``, ``reset``, ``snapshot`` and
``report`` from the base.  The counters stay plain instance attributes,
so ``c.solves += 1`` is an ordinary attribute increment on the hot path.
:data:`GROUPS` maps each counter group of a telemetry ``step`` record to
its class: the recorder (:mod:`repro.telemetry.recorder`) emits, and the
schema (:mod:`repro.telemetry.schema`) documents and validates, exactly
the declared fields.  The ``workspace_*`` counters of the transforms,
the solve engines and the recorder assert the zero-allocation
property of the hot path: after warm-up they must not grow.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from contextlib import nullcontext


class SectionTimers:
    """Named cumulative wall-clock timers of *exclusive* (self) time.

    A section opened inside another is subtracted from its parent
    (``solve`` in ``ns_advance``, ``fft``/``transpose`` in
    ``nonlinear_products``), so the sections add up: :meth:`total` is
    the step wall less the residual no section covers.  Trace spans stay
    inclusive.  One thread uses an instance at a time.
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

    #: every canonical name, in the order the operator's guide lists them
    NAMES = (
        TRANSPOSE, FFT, ADVANCE, NONLINEAR, SOLVE,
        REORDER, CHECKPOINT, RECOVERY, ELASTIC, STATS,
    )

    def __init__(self) -> None:
        self.elapsed: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: optional span sink (``repro.telemetry.trace.TraceWriter``); when
        #: set, every timed section is also emitted as a trace span
        self.tracer = None
        #: inclusive time of the sections nested in each open section
        self._inner: list[float] = []

    def section(self, name: str) -> "_Section":
        """Time a ``with``-block under ``name`` (cumulative, exclusive of
        the sections opened inside it)."""
        return _Section(self, name)

    def total(self) -> float:
        """Wall time inside any section: the sum of the exclusive times."""
        return sum(self.elapsed.values())

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


class _Section:
    """One timed ``with``-block of :meth:`SectionTimers.section`."""

    __slots__ = ("timers", "name", "t0")

    def __init__(self, timers: SectionTimers, name: str) -> None:
        self.timers, self.name = timers, name

    def __enter__(self) -> None:
        self.timers._inner.append(0.0)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self.t0
        t = self.timers
        inner = t._inner
        t.elapsed[self.name] += dt - inner.pop()
        t.calls[self.name] += 1
        if inner:
            inner[-1] += dt
        if t.tracer is not None:
            t.tracer.add_complete(self.name, self.t0, dt)


class Counters:
    """Base of every counter set: a subclass only declares its counters.

    Each counter is an annotated class attribute with a zero default
    (``solves: int = 0``); :attr:`FIELDS` lists them in declaration
    order, a subclass's after its base's.  An instance holds every
    counter as a plain attribute, so incrementing one is an ordinary
    ``+=`` — no hook runs on the hot path.
    """

    #: the declared counter names, in declaration (= record) order
    FIELDS: tuple[str, ...] = ()
    #: give each instance a lock that :meth:`snapshot` holds, for
    #: counters whose writers increment under that same ``_lock``
    LOCKED = False
    _lock = nullcontext()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in inspect.get_annotations(cls) if not name.startswith("_"))
        cls.FIELDS = cls.FIELDS + own
        cls._zeros = {name: getattr(cls, name) for name in cls.FIELDS}

    def __init__(self) -> None:
        if self.LOCKED:
            self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.__dict__.update(self._zeros)

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for before/after deltas)."""
        values = vars(self)
        with self._lock:
            return {name: values[name] for name in self.FIELDS}

    def report(self) -> str:
        """One ``name=value`` line over the declared counters."""
        return "  ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.snapshot().items()
        )


class WorkspaceCounters(Counters):
    """Owned-scratch accounting: a warmed-up owner holds both counters
    constant across calls — the zero-allocation invariant.  Outputs
    handed to the caller are fresh arrays and are not workspace."""

    workspace_bytes: int = 0
    workspace_allocs: int = 0

    def count_workspace(self, arr) -> None:
        """Record a newly allocated workspace array."""
        self.workspace_bytes += int(arr.nbytes)
        self.workspace_allocs += 1


class TransformCounters(WorkspaceCounters):
    """Spectral <-> physical transforms (:mod:`repro.fft.transform`):
    workspace counts pad buffers and transpose staging; ``transforms``
    counts executed 1-D transform stages, ``fields_*`` the fields moved
    each way."""

    transforms: int = 0
    fields_forward: int = 0
    fields_backward: int = 0


class SolveCounters(WorkspaceCounters):
    """Batched banded solve engine (:mod:`repro.linalg.engine`): workspace
    counts the engine's right-hand-side panels; ``sweeps`` counts blocked
    forward+backward passes, ``columns`` the real RHS columns swept (a
    complex right-hand side is two columns)."""

    solves: int = 0
    sweeps: int = 0
    columns: int = 0


class PrecisionCounters(Counters):
    """Mixed-precision wire accounting of the global transposes.

    Under ``wire="mixed"`` float64/complex128 payloads are staged down to
    float32/complex64 for the exchange.  ``bytes_full`` counts what the
    full-precision payload would have moved, ``bytes_wire`` what was
    actually staged — their ratio is the counter-asserted wire saving.
    ``casts`` counts exchanges that actually narrowed, ``exchanges`` all
    staged exchanges.
    """

    exchanges: int = 0
    casts: int = 0
    bytes_wire: int = 0
    bytes_full: int = 0

    def wire_fraction(self) -> float:
        """bytes_wire / bytes_full (1.0 before any exchange)."""
        if not self.bytes_full:
            return 1.0
        return self.bytes_wire / self.bytes_full


class RecoveryCounters(Counters):
    """Fault-tolerance bookkeeping shared by the checkpoint rotations and
    the supervision loop (:mod:`repro.core.supervisor`).

    ``verify_failures`` counts snapshots rejected by checksum or manifest
    verification, ``failures`` watchdog/collective trips the supervisor
    caught, ``rollbacks`` in-thread restores, ``restarts`` relaunches of
    an SPMD program.  The elastic path adds ``shrinks`` (survivor-set
    reductions after a rank death) and ``reshard_restores`` (snapshots
    reassembled onto a different process grid).
    """

    checkpoints_saved: int = 0
    checkpoints_pruned: int = 0
    verify_failures: int = 0
    failures: int = 0
    rollbacks: int = 0
    restarts: int = 0
    dt_reductions: int = 0
    shrinks: int = 0
    reshard_restores: int = 0


class MPICounters(Counters):
    """Message traffic of a communicator (SimMPI's ``MessageStats``)."""

    messages: int = 0
    bytes: int = 0


class StatsCounters(Counters):
    """Streaming-statistics accumulator (:mod:`repro.serving`).

    ``samples`` counts states folded into the running sums, ``merges``
    the collective partial-sum reductions (one ``allreduce`` each),
    ``publishes`` results pushed into a results store, ``restores``
    sidecars loaded back after a restart or reshard.  ``sample_seconds``
    is the accumulator's own wall time, the numerator of its
    <1%-of-step-time budget.
    """

    samples: int = 0
    merges: int = 0
    publishes: int = 0
    restores: int = 0
    sample_seconds: float = 0.0


class TelemetryCounters(Counters):
    """Emission counters of a :class:`repro.telemetry.RunRecorder`.

    ``overhead_seconds`` is the recorder's own wall time (the numerator
    of its <1%-per-step budget); ``workspace_allocs`` counts its scratch
    slots and must freeze after the first record of a warmed-up run.
    """

    records: int = 0
    events: int = 0
    bytes_written: int = 0
    flushes: int = 0
    overhead_seconds: float = 0.0
    workspace_allocs: int = 0


#: counter group of a telemetry ``step`` record -> the class whose
#: declared fields it carries, in the order groups appear in a record
GROUPS: dict[str, type[Counters]] = {
    "transforms": TransformCounters,
    "solve": SolveCounters,
    "recovery": RecoveryCounters,
    "mpi": MPICounters,
    "precision": PrecisionCounters,
    "stats": StatsCounters,
}
