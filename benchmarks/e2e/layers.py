"""Layers, spans and metric tables of the end-to-end benchmark.

Three tables are the single source of truth (``BENCHMARK.json`` at the
repo root mirrors them; ``tests/test_harness.py`` checks the mirror):

* :data:`LAYERS` — span name -> the public callables wrapped under it,
* :data:`END_TO_END` — what a user of the system sees,
* :data:`PER_LAYER` — what one layer does, and which end-to-end metric
  on which workload it is expected to move.

The program under test is not edited: :class:`SpanRecorder` wraps the
listed callables from outside, in the benchmark's own process, and
keeps every span in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import warnings

# span name -> "module:Class.method" targets.  Only class attributes are
# listed: a module function imported by name elsewhere cannot be rebound.
LAYERS: dict[str, tuple[str, ...]] = {
    "setup.grid": ("repro.core.grid:ChannelGrid.__init__",),
    "setup.plan": (
        "repro.core.transforms:SerialTransformBackend.__init__",
        "repro.pencil.parallel_fft:PencilTransforms.__init__",
    ),
    "setup.factor": ("repro.core.timestepper:IMEXStepper.__init__",),
    "core.step": ("repro.core.timestepper:IMEXStepper.step",),
    "core.nonlinear": ("repro.core.nonlinear:NonlinearTerms.compute",),
    "core.influence": (
        "repro.core.influence:InfluenceSolver.advance",
        "repro.core.influence:InfluenceSolver.solve",
    ),
    "core.operators": (
        "repro.core.operators:WallNormalOps.values",
        "repro.core.operators:WallNormalOps.dvalues",
        "repro.core.operators:WallNormalOps.d2values",
        "repro.core.operators:WallNormalOps.coeffs",
        "repro.core.operators:WallNormalOps.laplacian_values",
        "repro.core.operators:WallNormalOps.wall_derivatives",
    ),
    "fft.to_physical": (
        "repro.core.transforms:SerialTransformBackend.to_physical",
        "repro.core.transforms:SerialTransformBackend.to_physical_many",
    ),
    "fft.from_physical": (
        "repro.core.transforms:SerialTransformBackend.from_physical",
        "repro.core.transforms:SerialTransformBackend.from_physical_many",
    ),
    "linalg.solve": (
        "repro.linalg.engine:BandedSolveEngine.solve",
        "repro.linalg.engine:BandedSolveEngine.solve_many",
        "repro.linalg.engine:BandedSolveEngine.solve_stack",
    ),
    "pencil.transpose": (
        "repro.pencil.transpose:GlobalTranspose.execute",
        "repro.pencil.transpose:PipelinedTranspose.execute",
    ),
    # the 1-D FFT stages: PencilTransforms' own time on the blocking path,
    # Planner.execute when the stage runs fused inside a pipelined transpose
    "pencil.fft": (
        "repro.pencil.parallel_fft:PencilTransforms.to_physical",
        "repro.pencil.parallel_fft:PencilTransforms.from_physical",
        "repro.fft.plans:Planner.execute",
    ),
    "mpi.collective": (
        "repro.mpi.simmpi:Communicator.alltoall",
        "repro.mpi.simmpi:Communicator.ialltoall",
        "repro.mpi.simmpi:Communicator.ialltoallv",
        "repro.mpi.simmpi:Communicator.allgather",
        "repro.mpi.simmpi:Communicator.allreduce",
        "repro.mpi.simmpi:Communicator.gather",
        "repro.mpi.simmpi:Communicator.bcast",
        "repro.mpi.simmpi:Communicator.barrier",
        "repro.mpi.simmpi:Request.wait",
    ),
    "checkpoint.save": ("repro.core.checkpoint:ShardedCheckpointRotation.save",),
    "checkpoint.load": ("repro.core.checkpoint:ShardedCheckpointRotation.load_latest",),
    "telemetry.record": (
        "repro.telemetry.recorder:RunRecorder.record_step",
        "repro.telemetry.recorder:RunRecorder.record_event",
    ),
    "serving.sample": ("repro.serving.accumulators:StreamingStatistics.sample",),
    "serving.store.load": ("repro.serving.store:StatsStore.load",),
    "serving.store.publish": ("repro.serving.store:StatsStore.publish",),
    "serving.query": (
        "repro.serving.query:StatisticsService.law_of_wall",
        "repro.serving.query:StatisticsService.variance",
        "repro.serving.query:StatisticsService.spectrum",
    ),
}


def _array_work(args, out) -> tuple[int, int]:
    """(fields, bytes in + out) of one serial transform call, from array sizes."""
    fields = args[1] if isinstance(args[1], (list, tuple)) else (args[1],)
    results = out if isinstance(out, (list, tuple)) else (out,)
    return len(fields), sum(a.nbytes for a in fields) + sum(a.nbytes for a in results)


# span name -> work(args, result), evaluated after the span's clock stops
WORK = {"fft.to_physical": _array_work, "fft.from_physical": _array_work}

WORKLOADS: dict[str, str] = {
    "serial_wide": "Serial 96x25x96: the largest FFT+products share and the heavy set-up and memory case.",
    "serial_tall": "Serial 16x193x16: wall-normal operators dominate, as at the paper's ny=1536; FFT work must not move it.",
    "dist4_sync": "2x2 ranks 32x33x32, blocking alltoall, f64 wire: both transposes block; checked against a serial oracle.",
    "dist4_pipelined_mixed": "Same grid and ranks, pipelined transposes on a float32 wire: the same layers used the other way.",
    "supervised4_fault": "Supervised 4-rank job with checkpoints, telemetry, streaming statistics and one seeded rank kill.",
    "stats_serving": "Query replay over an 8-Re_tau store, working set above both LRUs, publishes beside reads; no DNS layer runs.",
}

# name -> (unit, better, bound).  One operation is a step() of a DNS
# workload (rank 0 when distributed) or one query of stats_serving.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "throughput_ops_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# How a per-layer value is taken from the spans of the measured phase
# (max over ranks, per operation):
SELF = "self"  # summed self time, ms
CALLS = "calls"  # number of spans
SETUP_S = "setup"  # inclusive time of the set-up spans, s
# Exactness of a count between two runs of one commit:
NO = 0
EXACT = 1
FAULT_FREE = 2  # exact except on supervised4_fault, whose killed attempt
#                 is torn down at a point that depends on thread timing

# name -> (unit, better, span name or None, derivation or None, exactness, moves)
PER_LAYER: dict[str, tuple[str, str, str | None, str | None, int, str]] = {
    "core.step.self_ms": ("ms", "lower", "core.step", SELF, NO, "op_ms_p50 on every DNS workload (~4%)"),
    "core.nonlinear.self_ms": ("ms", "lower", "core.nonlinear", SELF, NO, "op_ms_p50 on every DNS workload (6-13%)"),
    "core.influence.self_ms": ("ms", "lower", "core.influence", SELF, NO, "op_ms_p50 on every DNS workload (6-9%)"),
    "core.step_ms_p90": ("ms", "lower", None, None, NO, "tail of op_ms_p50; diagnostic"),
    "core.step_ms_max": ("ms", "lower", None, None, NO, "tail of op_ms_p50; diagnostic"),
    "core.operators.ms": ("ms", "lower", "core.operators", SELF, NO, "op_ms_p50: most on serial_tall, least on serial_wide, none on stats_serving"),
    "core.operators.calls": ("count", "lower", "core.operators", CALLS, FAULT_FREE, "core.operators.ms"),
    "fft.to_physical.ms": ("ms", "lower", "fft.to_physical", SELF, NO, "op_ms_p50 on serial_wide, little on serial_tall, none on dist4_*"),
    "fft.from_physical.ms": ("ms", "lower", "fft.from_physical", SELF, NO, "op_ms_p50 on serial_wide, little on serial_tall, none on dist4_*"),
    "fft.fields": ("count", "lower", "fft.to_physical", None, EXACT, "fft.*.ms (24 fields a step)"),
    "fft.computed_mb": ("MB", "lower", "fft.to_physical", None, EXACT, "fft.*.ms; computed from array sizes, not measured traffic"),
    "linalg.solve.ms": ("ms", "lower", "linalg.solve", SELF, NO, "op_ms_p50 on serial_* (~6%)"),
    "linalg.solve.calls": ("count", "lower", "linalg.solve", CALLS, FAULT_FREE, "linalg.solve.ms"),
    "linalg.solve.columns": ("count", "lower", None, None, EXACT, "linalg.solve.ms"),
    "setup.import_s": ("s", "lower", None, None, NO, "setup_s"),
    "setup.grid_s": ("s", "lower", "setup.grid", SETUP_S, NO, "setup_s"),
    "setup.plan_s": ("s", "lower", "setup.plan", SETUP_S, NO, "setup_s"),
    "setup.factor_s": ("s", "lower", "setup.factor", SETUP_S, NO, "setup_s and peak_rss_mb, chiefly serial_wide"),
    "setup.init_s": ("s", "lower", None, None, NO, "setup_s"),
    "setup.warmup_s": ("s", "lower", None, None, NO, "setup_s"),
    "pencil.transpose.ms": ("ms", "lower", "pencil.transpose", SELF, NO, "op_ms_p50 on dist4_sync and dist4_pipelined_mixed; zero on serial_*"),
    "pencil.transpose.calls": ("count", "lower", "pencil.transpose", CALLS, FAULT_FREE, "pencil.transpose.ms"),
    "pencil.fft.self_ms": ("ms", "lower", "pencil.fft", SELF, NO, "op_ms_p50 on dist4_*"),
    "pencil.wire_mb": ("MB", "lower", None, None, EXACT, "mpi.collective.ms on dist4_*"),
    "pencil.wire_ratio": ("ratio", "lower", None, None, EXACT, "pencil.wire_mb; <= 0.55 on dist4_pipelined_mixed, 1 on dist4_sync"),
    "mpi.collective.ms": ("ms", "lower", "mpi.collective", SELF, NO, "op_ms_p50 on dist4_* and supervised4_fault: transfer plus waiting for peers"),
    "mpi.messages": ("count", "lower", None, None, FAULT_FREE, "mpi.collective.ms"),
    "mpi.bytes": ("B", "lower", None, None, FAULT_FREE, "mpi.collective.ms"),
    "mpi.imbalance": ("ratio", "lower", None, None, NO, "mpi.collective.ms: max/median over ranks of non-mpi self time"),
    "dist.serial_ratio": ("ratio", "lower", None, None, NO, "dist4_* op_ms_p50 over the in-run serial baseline; not a scaling efficiency"),
    "checkpoint.save.ms": ("ms", "lower", "checkpoint.save", SELF, NO, "throughput_ops_s on supervised4_fault only"),
    "checkpoint.load.ms": ("ms", "lower", "checkpoint.load", SELF, NO, "throughput_ops_s on supervised4_fault only"),
    "checkpoint.bytes": ("B", "lower", "checkpoint.save", None, NO, "checkpoint.save.ms"),
    "checkpoint.count": ("count", "lower", "checkpoint.save", None, EXACT, "checkpoint.save.ms"),
    "supervisor.restarts": ("count", "lower", None, None, EXACT, "throughput_ops_s on supervised4_fault only"),
    "supervisor.steps_recomputed": ("count", "lower", None, None, EXACT, "throughput_ops_s on supervised4_fault only"),
    "supervisor.recovery_s": ("s", "lower", None, None, NO, "throughput_ops_s on supervised4_fault only"),
    "telemetry.record.ms": ("ms", "lower", "telemetry.record", SELF, NO, "op_ms_p50 on supervised4_fault only (budget < 1%)"),
    "telemetry.bytes": ("B", "lower", None, None, NO, "telemetry.record.ms"),
    "serving.sample.ms": ("ms", "lower", "serving.sample", SELF, NO, "throughput_ops_s on supervised4_fault"),
    "serving.samples": ("count", "lower", "serving.sample", None, EXACT, "serving.sample.ms"),
    "serving.store.load.us": ("us", "lower", "serving.store.load", None, NO, "serving.query_us_p99 on stats_serving"),
    "serving.store.publish.ms": ("ms", "lower", "serving.store.publish", None, NO, "throughput_ops_s on stats_serving"),
    "serving.query.hit_ratio": ("ratio", "higher", None, None, EXACT, "op_ms_p50 on stats_serving"),
    "serving.query.warm_us": ("us", "lower", "serving.query", None, NO, "op_ms_p50 on stats_serving"),
    "serving.query.miss_us": ("us", "lower", "serving.query", None, NO, "throughput_ops_s on stats_serving"),
    "serving.query_us_p99": ("us", "lower", None, None, NO, "the slow tail of stats_serving: a store load"),
    "trace.unattributed_frac": ("ratio", "lower", None, None, NO, "rank 0's operation time that no layer below core.step claims (core.step's self time and time outside every span); must stay <= 0.10"),
    "trace.overhead_frac": ("ratio", "lower", None, None, NO, "traced over untraced op_ms_p50 of the same run, minus one"),
}


MEASURED = 0  # spans with step >= MEASURED belong to measured operations
SETUP = -1  # set-up and warm-up
ASIDE = -2  # probes, barriers and checks between or after operations


class _ThreadSpans:
    """Spans of one thread: ``[name, start, end, parent, step, work]`` rows,
    ``parent`` an index into the same list (-1 at the top)."""

    def __init__(self, tid: int, step: int) -> None:
        self.tid = tid
        self.rank = 0
        self.step = step
        self.spans: list[list] = []
        self.stack: list[int] = []


class SpanRecorder:
    """In-memory span recorder with per-thread stacks.

    ``on`` gates recording (the wrappers stay installed and pass
    through).  Every span carries its thread's current step id, which
    the workload sets: :data:`SETUP`, :data:`ASIDE`, or the index of the
    measured operation.  A thread starts at ``base_step``.
    """

    def __init__(self) -> None:
        self.on = False
        self.base_step = SETUP
        self.unresolved: list[str] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []
        self._installed: list[tuple[type, str, object]] = []

    def _state(self) -> _ThreadSpans:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._lock:
                st = self._tls.st = _ThreadSpans(len(self.threads), self.base_step)
                self.threads.append(st)
        return st

    def set_rank(self, rank: int) -> None:
        self._state().rank = rank

    def set_step(self, step: int) -> None:
        self._state().step = step

    def wrap(self, fn, name: str, work=None):
        """``fn`` recorded as a span called ``name``; ``work(args, result)``
        runs after the clock stops and its value rides on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            st = self._state()
            span = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.step, None]
            st.stack.append(len(st.spans))
            st.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                st.stack.pop()
            if work is not None:
                span[5] = work(args, out)
            return out

        return wrapper

    def install(self, layers=None) -> None:
        """Wrap every target of ``layers`` (default :data:`LAYERS`).

        A target that does not resolve is skipped with a warning and its
        span name lands in :attr:`unresolved`: the metrics taken from it
        read ``None``, the run goes on.
        """
        layers = LAYERS if layers is None else layers
        for name, targets in layers.items():
            for target in targets:
                try:
                    module, _, dotted = target.partition(":")
                    owner = importlib.import_module(module)
                    *path, attr = dotted.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError) as exc:
                    warnings.warn(f"layer {name}: target {target} does not resolve ({exc!r})")
                    if name not in self.unresolved:
                        self.unresolved.append(name)
                    continue
                setattr(owner, attr, self.wrap(original, name, WORK.get(name)))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self, first: int, last: int | None = None) -> dict[int, dict[str, list]]:
        """``{rank: {name: [self_s, inclusive_s, calls, works]}}`` over the
        spans whose step id lies in ``first..last`` (no upper end if None).

        Inclusive time counts a span only where no span of the same name
        encloses it; the pseudo-name ``""`` holds the inclusive time of
        spans that have no parent at all.  Threads that served the same
        rank (successive attempts of a supervised job) add up.
        """
        out: dict[int, dict[str, list]] = {}
        for st in self.threads:
            per_name = out.setdefault(st.rank, {})
            top = per_name.setdefault("", [0.0, 0.0, 0, []])
            for span, self_s in zip(st.spans, self_times(st.spans)):
                name, t0, t1, parent, step, work = span
                if step < first or (last is not None and step > last):
                    continue
                row = per_name.setdefault(name, [0.0, 0.0, 0, []])
                row[0] += self_s
                if parent < 0:
                    top[1] += t1 - t0
                while parent >= 0 and st.spans[parent][0] != name:
                    parent = st.spans[parent][3]
                if parent < 0:
                    row[1] += t1 - t0
                row[2] += 1
                if work is not None:
                    row[3].append(work)
        return out

    def chrome_events(self, first: int, limit: int) -> list[dict]:
        """Chrome ``trace_event`` complete events, one lane per thread: its
        first ``limit`` set-up spans and first ``limit`` spans of steps
        ``first`` on."""
        events = []
        for st in self.threads:
            room = {True: limit, False: limit}
            for name, t0, t1, parent, step, _work in st.spans:
                setup = step == SETUP
                if not (setup or step >= first) or room[setup] <= 0:
                    continue
                room[setup] -= 1
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": round(t0 * 1e6, 1),
                        "dur": round((t1 - t0) * 1e6, 1),
                        "pid": 0,
                        "tid": st.tid,
                        "args": {
                            "rank": st.rank,
                            "step": step,
                            "parent": st.spans[parent][0] if parent >= 0 else None,
                        },
                    }
                )
        return events


def self_times(spans) -> list[float]:
    """Self time of every span of one thread: its duration minus the part
    its direct children cover (children of one thread never overlap)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def unattributed(per_name: dict[str, list], busy_s: float) -> float:
    """Share of ``busy_s`` that no layer below ``core.step`` claims.

    ``per_name`` is one rank's row of :meth:`SpanRecorder.totals`.
    ``core.step`` wraps the whole of ``IMEXStepper.step``, so its self
    time is the stepper's glue between the layers: it counts as
    unattributed, together with the time outside every span.
    """
    claimed = sum(row[0] for name, row in per_name.items() if name not in ("", "core.step"))
    return 1.0 - claimed / busy_s


def derive(rec: SpanRecorder, measured: dict, n_ops: int) -> dict[str, float | None]:
    """Every table-driven per-layer metric from the recorded spans.

    ``measured`` is ``rec.totals(first)`` for the first measured step.
    Time and call metrics are per operation and the max over ranks;
    metrics with no derivation start at 0 for the workload to fill;
    metrics whose layer did not resolve are ``None``.
    """
    setup = rec.totals(SETUP, SETUP)
    out: dict[str, float | None] = {}
    for metric, (_unit, _better, layer, how, _exact, _moves) in PER_LAYER.items():
        if layer in rec.unresolved:
            out[metric] = None
        elif how == SELF:
            out[metric] = max((r[layer][0] for r in measured.values() if layer in r), default=0.0) * 1e3 / n_ops
        elif how == CALLS:
            out[metric] = max((r[layer][2] for r in measured.values() if layer in r), default=0) / n_ops
        elif how == SETUP_S:
            out[metric] = max((r[layer][1] for r in setup.values() if layer in r), default=0.0)
        else:
            out[metric] = 0.0
    return out
