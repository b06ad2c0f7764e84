"""Unified run observability: structured records, traces, reports.

The paper tells its whole optimisation story through measurements
(Tables 2-4, 7-10); this package turns the repo's in-process
instrumentation (:mod:`repro.instrument`) into durable, machine-readable
artefacts:

* :class:`RunRecorder` / :class:`TelemetryConfig` — per-step JSON-lines
  records (section times, transform/solve/recovery counters, dt, CFL,
  divergence, rank metadata) plus a run manifest, attachable to every
  driver via ``telemetry=...``;
* :mod:`repro.telemetry.trace` — span tracing with Chrome
  ``trace_event`` export, fed automatically by every
  :class:`~repro.instrument.SectionTimers`;
* :mod:`repro.telemetry.report` — Table-9/10-style breakdowns
  regenerated from a recorded stream.

Performance is gated from outside the package, by the end-to-end
benchmark in ``benchmarks/e2e`` (the only gate).  Operator's guide: ``docs/observability.md``.  Design: DESIGN.md §6f.
"""

from repro.telemetry.manifest import build_manifest, read_manifest, write_manifest
from repro.telemetry.recorder import RunRecorder, TelemetryConfig
from repro.telemetry.schema import SCHEMA_VERSION, read_stream, validate_record
from repro.telemetry.trace import TraceWriter, merge_traces

__all__ = [
    "RunRecorder",
    "SCHEMA_VERSION",
    "TelemetryConfig",
    "TraceWriter",
    "build_manifest",
    "merge_traces",
    "read_manifest",
    "read_stream",
    "validate_record",
    "write_manifest",
]
