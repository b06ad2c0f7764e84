"""Span tracing with Chrome ``trace_event`` export.

:class:`TraceWriter` collects *complete* events (``"ph": "X"`` — a name,
a start timestamp and a duration) and writes them in the Chrome Trace
Event JSON-object format, loadable in ``chrome://tracing`` and
https://ui.perfetto.dev.  Timestamps come from
:func:`time.perf_counter` relative to the writer's creation, so they
are monotonic and start near zero; they are exported in microseconds,
the unit the format specifies.

Two producers feed a writer:

* :class:`~repro.instrument.SectionTimers` — setting ``timers.tracer``
  makes every existing timed section (``transpose``, ``fft``,
  ``ns_advance``, nested ``solve``, ``checkpoint``, ``recovery``,
  ``elastic``) emit a span with no driver changes.  Nesting needs no
  explicit parent bookkeeping: Perfetto nests spans of one ``pid``/
  ``tid`` track by time containment, so a timestep renders as the
  Transpose / FFT / N-S-advance bars with the solve bar inside.
* explicit :meth:`TraceWriter.span` / :meth:`TraceWriter.instant`
  calls, for one-off phases (initialization, gather, regrid).

In a distributed run every rank owns a writer with ``pid=rank``
(:class:`~repro.telemetry.RunRecorder` wires this up), producing one
``trace-rankNNN.json`` per rank; :func:`merge_traces` combines them
into a single file whose process lanes are the ranks — the per-rank
SimMPI activity view.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.storage import publish


class TraceWriter:
    """Accumulate spans and export Chrome ``trace_event`` JSON.

    Parameters
    ----------
    pid:
        Process id recorded on every event.  Use the rank in SPMD runs
        so each rank gets its own lane.
    process_name:
        Optional label for the pid lane (a ``process_name`` metadata
        event).
    max_events:
        Hard cap on stored spans; once reached, further spans are
        dropped (counted in :attr:`dropped`) instead of growing memory
        without bound on long runs.
    """

    def __init__(
        self,
        pid: int = 0,
        process_name: str | None = None,
        max_events: int = 200_000,
    ) -> None:
        self.pid = int(pid)
        self.process_name = process_name
        self.max_events = int(max_events)
        self.t0 = time.perf_counter()
        self.dropped = 0
        # (name, cat, t_start_perf, duration_s, tid) tuples; converted to
        # dict events only at write time to keep the hot path cheap
        self._events: list[tuple[str, str, float, float, int]] = []

    # ------------------------------------------------------------------
    # producers
    # ------------------------------------------------------------------

    def add_complete(
        self, name: str, t_start: float, duration: float, tid: int = 0, cat: str = "section"
    ) -> None:
        """Record one finished span (``t_start`` in perf_counter time)."""
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append((name, cat, t_start, duration, tid))

    def span(self, name: str, tid: int = 0, cat: str = "phase"):
        """Context manager tracing a ``with``-block as one span."""
        return _Span(self, name, tid, cat)

    def instant(self, name: str, tid: int = 0, cat: str = "event") -> None:
        """Record a zero-duration marker."""
        self.add_complete(name, time.perf_counter(), 0.0, tid=tid, cat=cat)

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def events(self) -> list[dict]:
        """The trace as a list of Chrome trace-event dicts (ts in µs)."""
        out = []
        if self.process_name is not None:
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": 0,
                    "args": {"name": self.process_name},
                }
            )
        for name, cat, t_start, duration, tid in self._events:
            out.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": (t_start - self.t0) * 1e6,
                    "dur": duration * 1e6,
                    "pid": self.pid,
                    "tid": tid,
                }
            )
        return out

    def write(self, path) -> pathlib.Path:
        """Write the Chrome trace JSON object; safe to call repeatedly
        (each call rewrites the file with everything collected so far)."""
        path = pathlib.Path(path)
        doc = {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.telemetry", "dropped_events": self.dropped},
        }
        return publish(path, json.dumps(doc).encode())


class _Span:
    __slots__ = ("_writer", "_name", "_tid", "_cat", "_t0")

    def __init__(self, writer: TraceWriter, name: str, tid: int, cat: str) -> None:
        self._writer = writer
        self._name = name
        self._tid = tid
        self._cat = cat

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._writer.add_complete(
            self._name, self._t0, time.perf_counter() - self._t0, tid=self._tid, cat=self._cat
        )


def merge_traces(paths, out) -> pathlib.Path:
    """Merge per-rank trace files into one multi-lane trace.

    Each input keeps its own ``pid`` (the rank), so the merged file
    shows one process lane per rank — open it in Perfetto to see the
    whole SPMD program's concurrent activity.  Timestamps are aligned
    by subtracting each file's earliest ``ts``; per-rank clocks are the
    in-process ``perf_counter``, so alignment is approximate at the
    microsecond level (good enough to see transpose waves line up).
    """
    paths = [pathlib.Path(p) for p in paths]
    merged: list[dict] = []
    for p in paths:
        doc = json.loads(p.read_text())
        events = doc["traceEvents"]
        starts = [e["ts"] for e in events if e.get("ph") == "X"]
        base = min(starts) if starts else 0.0
        for e in events:
            if e.get("ph") == "X":
                e = dict(e, ts=e["ts"] - base)
            merged.append(e)
    out = pathlib.Path(out)
    out.write_text(
        json.dumps(
            {
                "traceEvents": merged,
                "displayTimeUnit": "ms",
                "otherData": {"producer": "repro.telemetry.merge_traces", "inputs": len(paths)},
            }
        )
    )
    return out
