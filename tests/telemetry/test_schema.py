"""Schema contract: validation, round-trips, and the documented fields."""

import json

import pytest

from repro.telemetry.schema import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    STEP_FIELDS,
    SUMMARY_FIELDS,
    markdown_table,
    read_stream,
    validate_record,
)


def _minimal_step():
    return {
        "type": "step",
        "schema": SCHEMA_VERSION,
        "step": 1,
        "time": 1e-4,
        "dt": 1e-4,
        "wall_s": 0.01,
        "cfl": 0.05,
        "divergence": None,
        "rank": 0,
        "nranks": 1,
        "sections": {"fft": {"s": 0.004, "calls": 24}},
    }


def _minimal_event():
    return {
        "type": "event",
        "schema": SCHEMA_VERSION,
        "t_unix": 1.7e9,
        "step": 5,
        "kind": "failure",
        "detail": "UnstableError: boom",
        "attempt": 1,
        "info": {},
        "rank": 0,
        "nranks": 1,
    }


def _minimal_summary():
    return {
        "type": "summary",
        "schema": SCHEMA_VERSION,
        "steps": 10,
        "records": 10,
        "events": 0,
        "wall_s": 0.5,
        "sections": {},
        "overhead_s": 0.001,
        "overhead_frac": 0.002,
        "rank": 0,
        "nranks": 1,
    }


@pytest.mark.parametrize("make", [_minimal_step, _minimal_event, _minimal_summary])
def test_valid_records_pass(make):
    validate_record(make())


@pytest.mark.parametrize("make", [_minimal_step, _minimal_event, _minimal_summary])
def test_missing_required_field_rejected(make):
    rec = make()
    fields = {"step": STEP_FIELDS, "event": EVENT_FIELDS, "summary": SUMMARY_FIELDS}[rec["type"]]
    for name, (required, _) in fields.items():
        if not required:
            continue
        broken = dict(rec)
        del broken[name]
        with pytest.raises(ValueError, match=name):
            validate_record(broken)


def test_undocumented_field_rejected():
    rec = _minimal_step()
    rec["surprise"] = 1
    with pytest.raises(ValueError, match="undocumented"):
        validate_record(rec)


def test_wrong_schema_version_rejected():
    rec = _minimal_step()
    rec["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema version"):
        validate_record(rec)


def test_bad_section_cell_rejected():
    rec = _minimal_step()
    rec["sections"] = {"fft": {"seconds": 1.0}}
    with pytest.raises(ValueError, match="fft"):
        validate_record(rec)


def test_unknown_type_rejected():
    with pytest.raises(ValueError, match="unknown record type"):
        validate_record({"type": "mystery", "schema": SCHEMA_VERSION})


def test_stream_round_trip(tmp_path):
    records = [_minimal_step(), _minimal_event(), _minimal_summary()]
    path = tmp_path / "stream.jsonl"
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    assert list(read_stream(path)) == records


def test_read_stream_flags_bad_line(tmp_path):
    path = tmp_path / "stream.jsonl"
    path.write_text(json.dumps(_minimal_step()) + "\nnot json\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        list(read_stream(path))


def test_read_stream_flags_invalid_record(tmp_path):
    rec = _minimal_step()
    del rec["dt"]
    path = tmp_path / "stream.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="dt"):
        list(read_stream(path))
    # validation can be switched off for forensic reads
    assert len(list(read_stream(path, validate=False))) == 1


def test_every_documented_field_has_description():
    for fields in (STEP_FIELDS, EVENT_FIELDS, SUMMARY_FIELDS):
        for name, (_, description) in fields.items():
            assert description.strip(), name


def test_operator_guide_renders_every_schema_row():
    """docs/observability.md carries every schema row verbatim."""
    import pathlib

    doc = (
        pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    ).read_text()
    for fields in (STEP_FIELDS, EVENT_FIELDS, SUMMARY_FIELDS):
        for row in markdown_table(fields).splitlines():
            assert row in doc, f"docs/observability.md lacks the schema row {row!r}"


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_counter_group_must_hold_exactly_its_declared_fields(change):
    rec = _minimal_step()
    rec["mpi"] = {"messages": 3, "bytes": 24}
    validate_record(rec)
    if change == "missing":
        del rec["mpi"]["bytes"]
    else:
        rec["mpi"]["stage_seconds"] = {}
    with pytest.raises(ValueError, match="mpi"):
        validate_record(rec)
