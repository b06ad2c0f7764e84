"""JSON-lines schema of the run telemetry stream.

One stream file (``telemetry.jsonl`` serial, ``telemetry-rankNNN.jsonl``
per rank in SPMD runs) holds one JSON object per line.  Every record
carries ``type`` and ``schema``; the run manifest is a sibling
``manifest.json`` file, not a stream record, so the stream stays
homogeneous and appendable.

The field-by-field contract lives in :data:`STEP_FIELDS`,
:data:`EVENT_FIELDS` and :data:`SUMMARY_FIELDS` — each maps a field
name to ``(required, description)``.  The descriptions are markdown,
and :func:`markdown_table` renders each dict into the table of
``docs/observability.md`` that documents it; the guide's tables are
that output verbatim (``tests/telemetry/test_schema.py`` pins it, so
regenerate them after an edit here).  The counter groups of a
step record come from :data:`repro.instrument.GROUPS`: their
descriptions list, and :func:`validate_record` enforces, the fields
each group's class declares.  :func:`read_stream` parses a file back
into dicts.  Bump :data:`SCHEMA_VERSION` whenever a field changes
meaning or a required field is added.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterator

from repro.instrument import GROUPS, SectionTimers

#: version stamped into every record and the manifest.
#: v4 added the optional ``job`` event field and the pool/job lifecycle
#: event kinds of a multi-job scheduler.
#: v5 added the optional ``stats`` step group (streaming-statistics
#: accumulator counters, :mod:`repro.serving`) and the ``stats`` entry
#: in the section-timer enumeration.
#: v6 removed the manifest's ``wisdom`` block (plan-wisdom provenance).
#: v7 removed what only that scheduler wrote: the ``job`` event field,
#: the job lifecycle and ``grow``/``preempted`` event kinds, the
#: manifest's ``pool`` block and the ``recovery`` group's ``grows``
#: counter.
#: v8 added the manifest's ``transport`` block (``method``, ``stages``,
#: ``wire`` and ``exchange_op`` of a distributed run's transposes).
#: v9 removed what only the multi-slab pipelined transpose wrote: the
#: ``overlap`` step group, the ``overlap`` section name and the
#: ``transport`` block's ``stages``.
#: v10 made the ``sections`` deltas exclusive (a nested section's time is
#: no longer inside its parent's: ``solve`` is out of ``ns_advance``,
#: ``fft``/``transpose`` out of ``nonlinear_products``), so they add up
#: to ``wall_s`` less a residual; serial runs gained ``fft`` sections and
#: distributed runs the ``transforms`` group.
SCHEMA_VERSION = 10

#: record types a stream may contain
RECORD_TYPES = ("step", "event", "summary")


def _group(group: str, what: str, notes: str) -> tuple[bool, str]:
    """Description of counter group ``group``: its class's declared fields."""
    cls = GROUPS[group]
    fields = ", ".join(f"`{n}`" for n in cls.FIELDS)
    return False, f"`{cls.__name__}` deltas {what} ({fields}); {notes}"


#: parenthetical notes on the section names of the ``sections`` field
_SECTION_NOTES = {
    SectionTimers.SOLVE: "timed inside `ns_advance`, not counted in it",
    SectionTimers.FFT: "FFT stages; in a step, within `nonlinear_products` but not counted in it",
    SectionTimers.TRANSPOSE: "pencil runs: pack, exchange and unpack; in a step, within "
    "`nonlinear_products` but not counted in it",
    SectionTimers.STATS: "the streaming-statistics sampling time",
}
_SECTIONS = ", ".join(
    f"`{n}` ({_SECTION_NOTES[n]})" if n in _SECTION_NOTES else f"`{n}`" for n in SectionTimers.NAMES
)

#: ``type: "step"`` — one per recorded timestep (cadence ``every``)
STEP_FIELDS: dict[str, tuple[bool, str]] = {
    "type": (True, 'constant `"step"`'),
    "schema": (True, "schema version of this record (integer)"),
    "step": (True, "driver step count after this step"),
    "time": (True, "simulation time after this step (channel half-widths / u_tau)"),
    "dt": (True, "timestep used for this step"),
    "wall_s": (True, "wall-clock seconds since the previous record (recorder overhead excluded)"),
    "cfl": (
        True,
        "advective CFL number of the last substep (global max in SPMD runs); `null` when the "
        "state has gone non-finite",
    ),
    "divergence": (
        True,
        "max collocated spectral divergence, on the `divergence_every` cadence; `null` between "
        "samples and when non-finite",
    ),
    "rank": (True, "emitting rank (0 in serial runs)"),
    "nranks": (True, "world size of the run (1 in serial runs)"),
    "sections": (
        True,
        'per-section deltas since the previous record: `{name: {"s": seconds, "calls": n}}` '
        "of exclusive time (a section opened inside another is not counted in its parent, so "
        f"the sections add up to `wall_s` less a residual) over the `SectionTimers` names: "
        f"{_SECTIONS}",
    ),
    "transforms": _group(
        "transforms",
        "of the spectral <-> physical transforms",
        "in pencil runs `workspace_*` counts the transpose staging too",
    ),
    "solve": _group(
        "solve",
        "aggregated over the engines of the omega/phi Helmholtz and mean-mode factor sets",
        "the Poisson v-from-phi sweeps (one per substep) are not counted, so `solves` reads 6 "
        "of the 9 engine solves of a serial step",
    ),
    "recovery": _group(
        "recovery",
        "of the checkpoint rotations and the supervision loop",
        "absent until recovery counters are wired in (supervised runs)",
    ),
    "mpi": _group(
        "mpi",
        "of SimMPI's `MessageStats`",
        "the stats object is shared by the communicator context, so the numbers are world "
        "totals (identical on every rank); absent in serial runs",
    ),
    "precision": _group(
        "precision",
        "of the transpose wire format",
        "`bytes_full` is what float64 payloads would have moved, `bytes_wire` what was "
        'actually staged — equal under `wire="full"`, roughly halved under `wire="mixed"`; '
        "per-rank; absent in serial runs",
    ),
    "stats": _group(
        "stats",
        "of the streaming-statistics accumulator",
        "`sample_seconds` is the accumulator's self-measured wall time — the numerator of its "
        "< 1%-of-step-time budget (see `docs/statistics_service.md`); absent when no "
        "accumulator is attached (`dns.attach_streaming(...)`)",
    ),
}

#: ``type: "event"`` — recovery / lifecycle events, one per occurrence
EVENT_FIELDS: dict[str, tuple[bool, str]] = {
    "type": (True, 'constant `"event"`'),
    "schema": (True, "schema version of this record (integer)"),
    "t_unix": (True, "unix wall-clock timestamp of the event (seconds)"),
    "step": (True, "driver step count when the event fired (`-1` when unknown/job-level)"),
    "kind": (
        True,
        "event kind: `failure` | `rollback` | `dt_reduction` | `restart` | `shrink` | "
        "`giving_up` | `attach` | `complete` | `soak_result` | `soak_summary` | custom kinds",
    ),
    "detail": (True, "human-readable one-liner"),
    "attempt": (True, "retry attempt index the event belongs to (0 outside retry loops)"),
    "info": (True, "structured extras, e.g. a shrink's `{ranks, pa, pb}` (object, may be empty)"),
    "rank": (True, "emitting rank (`-1` for job-level supervisors outside the SPMD program)"),
    "nranks": (True, "world size of the run"),
}

#: ``type: "summary"`` — last record of a cleanly closed stream
SUMMARY_FIELDS: dict[str, tuple[bool, str]] = {
    "type": (True, 'constant `"summary"`'),
    "schema": (True, "schema version of this record (integer)"),
    "steps": (True, "steps recorded into this stream"),
    "records": (True, "step records written"),
    "events": (True, "event records written"),
    "wall_s": (True, "total wall seconds covered by the step records"),
    "sections": (True, 'cumulative per-section totals `{name: {"s": seconds, "calls": n}}`'),
    "overhead_s": (True, "recorder self-time (stream + trace emission)"),
    "overhead_frac": (
        True,
        "`overhead_s / wall_s` — the measured recorder overhead (budget: < 0.01); `null` when "
        "no step was recorded",
    ),
    "rank": (True, "emitting rank"),
    "nranks": (True, "world size of the run"),
}

_FIELDS = {"step": STEP_FIELDS, "event": EVENT_FIELDS, "summary": SUMMARY_FIELDS}


def validate_record(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` conforms to the schema."""
    if not isinstance(rec, dict):
        raise ValueError(f"record must be an object, got {type(rec).__name__}")
    rtype = rec.get("type")
    if rtype not in _FIELDS:
        raise ValueError(f"unknown record type {rtype!r} (expected one of {RECORD_TYPES})")
    fields = _FIELDS[rtype]
    for name, (required, _) in fields.items():
        if required and name not in rec:
            raise ValueError(f"{rtype} record missing required field {name!r}")
    unknown = set(rec) - set(fields)
    if unknown:
        raise ValueError(f"{rtype} record has undocumented fields {sorted(unknown)}")
    if rec["schema"] != SCHEMA_VERSION:
        raise ValueError(f"schema version {rec['schema']} != {SCHEMA_VERSION}")
    if rtype == "step":
        sections = rec["sections"]
        if not isinstance(sections, dict):
            raise ValueError("sections must be an object")
        for name, cell in sections.items():
            if set(cell) != {"s", "calls"}:
                raise ValueError(f"section {name!r} must hold exactly {{s, calls}}")
        for group, cls in GROUPS.items():
            cell = rec.get(group)
            if cell is not None and (not isinstance(cell, dict) or set(cell) != set(cls.FIELDS)):
                raise ValueError(f"{group} must hold exactly the {cls.__name__} fields {cls.FIELDS}")


def markdown_table(fields: dict[str, tuple[bool, str]]) -> str:
    """``fields`` as the markdown table of the operator's guide."""
    rows = ["| field | required | meaning |", "|---|---|---|"]
    for name, (required, text) in fields.items():
        text = text.replace("|", "\\|")
        rows.append(f"| `{name}` | {'yes' if required else 'no'} | {text} |")
    return "\n".join(rows)


def read_stream(path, *, validate: bool = True) -> Iterator[dict]:
    """Yield the records of a JSON-lines telemetry stream."""
    with open(pathlib.Path(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if validate:
                try:
                    validate_record(rec)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield rec
