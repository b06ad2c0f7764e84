"""Structured per-step run recording (JSON-lines + manifest + trace).

:class:`RunRecorder` is the one observability attachment every driver
shares — serial :class:`~repro.core.solver.ChannelDNS`, per-rank
:class:`~repro.pencil.distributed.DistributedChannelDNS`, and both
launches of the supervision loop (:mod:`repro.core.supervisor`: the
driver's own stream in-thread, a job-level ``events.jsonl`` over
ranks).  Attached to a driver it emits one ``step`` record per timestep
(section-time deltas, counter-group deltas, dt, CFL, divergence, rank
metadata) into an append-only JSON-lines stream, and optionally feeds a
:class:`~repro.telemetry.trace.TraceWriter` so the same run opens in
Perfetto.  A ``manifest.json`` (config fingerprint, git revision,
package versions, machine info) is written beside the stream by
:mod:`repro.telemetry.manifest`.

The counter groups live in one table, group -> snapshot function, built
from the driver's :meth:`~repro.core.solver.ChannelDNS.counter_groups`
at :meth:`RunRecorder.attach` and extended by :meth:`RunRecorder.add_group`
(the supervisor's ``recovery`` counters, an accumulator attached after
telemetry).  Each record walks it in the order of
:data:`repro.instrument.GROUPS`, whose classes declare the fields.

Hot-path discipline: the recorder follows the workspace counters'
zero-allocation rule.  All
scratch — the reused record dict, the per-section delta slots, the
counter-delta slots — is allocated on first use and counted in
``counters.workspace_allocs``; after the first record of a steady-state
run the count must freeze (asserted by
``tests/telemetry/test_recorder.py``), and the recorder's own wall time
accumulates in ``counters.overhead_seconds`` so the <1%-of-step-time
budget is checkable from the stream's ``summary`` record.
"""

from __future__ import annotations

import json
import pathlib
import time
import weakref
from dataclasses import dataclass

import math

from repro.instrument import GROUPS, TelemetryCounters
from repro.telemetry.manifest import build_manifest, write_manifest
from repro.telemetry.schema import SCHEMA_VERSION
from repro.telemetry.trace import TraceWriter


def _finite(x) -> float | None:
    """Diagnostics of a blown-up state serialize as null, not as NaN
    (the stream stays valid JSON and the watchdog still gets to classify)."""
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of a telemetry attachment."""

    #: directory receiving the stream, manifest and trace files
    directory: str | pathlib.Path = "telemetry"
    #: record every k-th step (1 = every step)
    every: int = 1
    #: compute the (expensive) divergence norm of the rank's own block
    #: every k recorded steps; 0 disables it (the field stays null)
    divergence_every: int = 0
    #: flush the stream and rewrite the trace every k records
    flush_every: int = 25
    #: collect and export a Chrome trace of the timer sections
    trace: bool = True
    #: span cap of the trace writer (older runs stop collecting, not crash)
    trace_max_events: int = 200_000
    #: write manifest.json (rank 0 only in SPMD runs)
    manifest: bool = True

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.flush_every < 1:
            raise ValueError("flush_every must be >= 1")

    @classmethod
    def coerce(cls, value) -> "TelemetryConfig":
        """Accept a config, a directory path, or a path string."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, pathlib.Path)):
            return cls(directory=value)
        raise TypeError(f"telemetry must be a TelemetryConfig or a path, got {type(value).__name__}")


class RunRecorder:
    """Emit structured per-step records for one driver (or job) run.

    Parameters
    ----------
    telemetry:
        A :class:`TelemetryConfig` or a directory path.
    rank, nranks:
        Rank metadata stamped on every record.  ``rank=-1`` marks a
        job-level recorder living outside the SPMD program (the elastic
        supervisor's event stream).
    extra:
        Free-form dict merged into the manifest.
    """

    def __init__(self, telemetry, *, rank: int = 0, nranks: int = 1, extra: dict | None = None) -> None:
        self.config = TelemetryConfig.coerce(telemetry)
        self.rank = int(rank)
        self.nranks = int(nranks)
        self.extra = extra
        self.counters = TelemetryCounters()
        self.directory = pathlib.Path(self.config.directory)
        self.trace: TraceWriter | None = None
        self._fh = None
        self._closed = False
        #: weak: the driver owns this recorder (``dns.recorder``); it is
        #: only the default of :meth:`record_step` and :meth:`record_event`
        self._dns: weakref.ref | None = None
        self._timers = None
        #: counter group -> zero-argument snapshot function (see GROUPS)
        self._groups: dict = {}
        self._since_flush = 0
        self._wall_total = 0.0
        self._steps_recorded = 0
        self._last_wall: float | None = None
        # reusable scratch (the zero-allocation workspace) ---------------
        self._rec: dict = {}
        self._sections_out: dict[str, dict] = {}
        self._last_elapsed: dict[str, float] = {}
        self._last_calls: dict[str, int] = {}
        self._last_counts: dict[str, dict[str, float]] = {}
        self._count_out: dict[str, dict] = {}
        self._sections_total: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _stream_name(self) -> str:
        if self.rank < 0:
            return "events.jsonl"
        if self.nranks > 1:
            return f"telemetry-rank{self.rank:03d}.jsonl"
        return "telemetry.jsonl"

    def trace_path(self) -> pathlib.Path:
        if self.nranks > 1:
            return self.directory / f"trace-rank{self.rank:03d}.json"
        return self.directory / "trace.json"

    def stream_path(self) -> pathlib.Path:
        return self.directory / self._stream_name()

    def open(
        self, config=None, grid: tuple[int, int] | None = None, transport: dict | None = None
    ) -> None:
        """Open the stream (idempotent); write the manifest on rank <= 0."""
        if self._fh is not None:
            return
        if self._closed:
            raise RuntimeError("recorder already closed")
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.config.manifest and self.rank <= 0:
            write_manifest(
                self.directory,
                build_manifest(
                    config, nranks=self.nranks, grid=grid, transport=transport, extra=self.extra
                ),
            )
        self._fh = open(self.stream_path(), "a", encoding="utf-8")

    def attach(self, dns) -> "RunRecorder":
        """Wire this recorder into a driver (serial or per-rank distributed).

        Re-attaching (e.g. after a supervisor rollback replaced the
        driver) re-baselines every delta against the new driver's timers
        and counter groups; the stream and scratch are kept.
        """
        self._dns = weakref.ref(dns)
        dns.recorder = self
        self._timers = dns.timers
        if dns.decomp is None:
            grid = transport = None
        else:
            grid, transport = (dns.decomp.pa, dns.decomp.pb), dns.transforms.transport()
        self.open(config=dns.config, grid=grid, transport=transport)
        if self.config.trace and self.trace is None:
            self.trace = TraceWriter(
                pid=max(self.rank, 0),
                process_name=f"rank {max(self.rank, 0)}" if self.nranks > 1 else "dns",
                max_events=self.config.trace_max_events,
            )
        if self.trace is not None:
            self._timers.tracer = self.trace
        self._rebaseline(dns)
        self._last_wall = time.perf_counter()
        return self

    def add_group(self, group: str, counters) -> None:
        """Stream ``counters`` (a :class:`~repro.instrument.Counters`) as
        step-record group ``group``, baselined at their current values —
        how the supervisor's recovery counters, and an accumulator attached
        after telemetry, join the stream."""
        self._groups[group] = counters.snapshot
        self._baseline_counts(group, counters.snapshot())

    def _driver(self):
        """The attached driver while it lives (None before :meth:`attach`)."""
        return None if self._dns is None else self._dns()

    def _rebaseline(self, dns) -> None:
        t = self._timers
        if t is not None:
            # a replacement driver brings fresh (zeroed) timers: reset every
            # known baseline first, or deltas against the old totals go negative
            for k in self._last_elapsed:
                self._last_elapsed[k] = 0.0
                self._last_calls[k] = 0
            for k, v in t.elapsed.items():
                self._last_elapsed[k] = v
                self._last_calls[k] = t.calls.get(k, 0)
        groups = dns.counter_groups()
        for group, snapshot in groups.items():
            self._baseline_counts(group, snapshot())
        # recovery counters are NOT re-baselined: they outlive the driver
        # (the supervisor owns them), and the failure/rollback increments
        # that triggered a re-attach must still show up as deltas
        recovery = self._groups.get("recovery")
        if recovery is not None:
            groups["recovery"] = recovery
        self._groups = groups

    def _baseline_counts(self, group: str, snap: dict) -> None:
        last = self._last_counts.get(group)
        if last is None:
            last = self._last_counts[group] = {}
            self._count_out[group] = {}
            self.counters.workspace_allocs += 1
        out = self._count_out[group]
        for k, v in snap.items():
            if k not in last:
                self.counters.workspace_allocs += 1
                out[k] = 0
            last[k] = v

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_step(self, dns=None, force: bool = False) -> None:
        """Emit one ``step`` record (respecting the ``every`` cadence)."""
        dns = dns if dns is not None else self._driver()
        if dns is None:
            raise RuntimeError("attach() a driver before record_step()")
        step = dns.step_count
        if not force and step % self.config.every:
            return
        if self._closed:
            raise RuntimeError("recorder already closed")
        t_start = time.perf_counter()
        self._steps_recorded += 1
        wall = 0.0 if self._last_wall is None else t_start - self._last_wall
        self._wall_total += wall

        rec = self._rec
        rec["type"] = "step"
        rec["schema"] = SCHEMA_VERSION
        rec["step"] = int(step)
        rec["time"] = float(dns.state.time)
        rec["dt"] = float(dns.stepper.dt)
        rec["wall_s"] = wall
        # this rank's own values: a global max here would be a collective
        # whose waits for peers the recorder books as its own overhead
        stepper = dns.stepper
        rec["cfl"] = _finite(stepper._cfl(stepper.last_cfl_speeds))
        div_every = self.config.divergence_every
        if div_every and self._steps_recorded % div_every == 0:
            rec["divergence"] = _finite(dns._block_divergence())
        else:
            rec["divergence"] = None
        rec["rank"] = self.rank
        rec["nranks"] = self.nranks
        rec["sections"] = self._section_deltas()
        groups = self._groups
        for group in GROUPS:  # the registry fixes the order of a record's groups
            snapshot = groups.get(group)
            if snapshot is not None:
                rec[group] = self._count_deltas(group, snapshot())
        self._write(rec)
        self.counters.records += 1
        t_end = time.perf_counter()
        self.counters.overhead_seconds += t_end - t_start
        self._last_wall = t_end

    def _section_deltas(self) -> dict:
        t = self._timers
        out = self._sections_out
        totals = self._sections_total
        last_e, last_c = self._last_elapsed, self._last_calls
        # zero every known slot first: after a re-attach the new timers may
        # not have touched a section yet, and a stale delta must not repeat
        for cell in out.values():
            cell["s"] = 0.0
            cell["calls"] = 0
        for k, v in t.elapsed.items():
            cell = out.get(k)
            if cell is None:
                cell = out[k] = {"s": 0.0, "calls": 0}
                totals[k] = {"s": 0.0, "calls": 0}
                self.counters.workspace_allocs += 1
                last_e.setdefault(k, 0.0)
                last_c.setdefault(k, 0)
            calls = t.calls.get(k, 0)
            ds = v - last_e[k]
            dc = calls - last_c[k]
            cell["s"] = ds
            cell["calls"] = dc
            tot = totals[k]
            tot["s"] += ds
            tot["calls"] += dc
            last_e[k] = v
            last_c[k] = calls
        return out

    def _count_deltas(self, group: str, snap: dict) -> dict:
        last = self._last_counts.get(group)
        if last is None:
            self._baseline_counts(group, {})
            last = self._last_counts[group]
        out = self._count_out[group]
        for k, v in snap.items():
            prev = last.get(k)
            if prev is None:
                self.counters.workspace_allocs += 1
                prev = 0
            out[k] = v - prev
            last[k] = v
        return out

    def record_event(
        self,
        kind: str,
        *,
        step: int | None = None,
        detail: str = "",
        attempt: int = 0,
        info: dict | None = None,
    ) -> None:
        """Emit one ``event`` record (opens the stream if needed)."""
        self.open()
        if step is None:
            dns = self._driver()
            step = dns.step_count if dns is not None else -1
        rec = {
            "type": "event",
            "schema": SCHEMA_VERSION,
            "t_unix": time.time(),
            "step": int(step),
            "kind": kind,
            "detail": detail,
            "attempt": int(attempt),
            "info": info or {},
            "rank": self.rank,
            "nranks": self.nranks,
        }
        self._write(rec)
        self.counters.events += 1
        self.flush()

    def _write(self, rec: dict) -> None:
        if self._fh is None:
            self.open()
        line = json.dumps(rec, separators=(",", ":"), allow_nan=False)
        self._fh.write(line)
        self._fh.write("\n")
        self.counters.bytes_written += len(line) + 1
        self._since_flush += 1
        if self._since_flush >= self.config.flush_every:
            # cadence flushes push only the stream: rewriting the (growing)
            # trace file here would cost O(events) per flush — the trace is
            # materialized by explicit flush() / close() instead
            self._fh.flush()
            self._since_flush = 0
            self.counters.flushes += 1

    def flush(self) -> None:
        """Flush the stream and rewrite the trace file."""
        if self._fh is not None:
            self._fh.flush()
        if self.trace is not None and len(self.trace):
            self.trace.write(self.trace_path())
        self._since_flush = 0
        self.counters.flushes += 1

    # ------------------------------------------------------------------

    def overhead_fraction(self) -> float | None:
        """Recorder self-time over recorded wall time (None before data)."""
        if self._wall_total <= 0.0:
            return None
        return self.counters.overhead_seconds / self._wall_total

    def close(self) -> None:
        """Write the ``summary`` record, flush everything, close the stream."""
        if self._closed:
            return
        if self._fh is not None:
            self._write(
                {
                    "type": "summary",
                    "schema": SCHEMA_VERSION,
                    "steps": self._steps_recorded,
                    "records": self.counters.records,
                    "events": self.counters.events,
                    "wall_s": self._wall_total,
                    "sections": self._sections_total,
                    "overhead_s": self.counters.overhead_seconds,
                    "overhead_frac": self.overhead_fraction(),
                    "rank": self.rank,
                    "nranks": self.nranks,
                }
            )
            self.flush()
            self._fh.close()
            self._fh = None
        if self._timers is not None and self._timers.tracer is self.trace:
            self._timers.tracer = None
        # a closed recorder reads no driver again: let go of its parts
        self._dns = self._timers = None
        self._groups = {}
        self._closed = True

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
