"""RunRecorder: stream contents, zero-allocation discipline, lifecycle."""

import json

import pytest

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.telemetry import RunRecorder, TelemetryConfig, read_manifest, read_stream

CFG = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=3, init_amplitude=0.5)


def _run(tmp_path, nsteps=6, **tel_kwargs):
    tel = TelemetryConfig(directory=tmp_path / "tel", **tel_kwargs)
    dns = ChannelDNS(CFG, telemetry=tel)
    dns.initialize()
    dns.run(nsteps)
    dns.finalize_telemetry()
    return dns, tmp_path / "tel"


def test_stream_is_valid_and_complete(tmp_path):
    dns, tel = _run(tmp_path, nsteps=6)
    recs = list(read_stream(tel / "telemetry.jsonl"))  # read_stream validates
    steps = [r for r in recs if r["type"] == "step"]
    assert [r["step"] for r in steps] == [1, 2, 3, 4, 5, 6]
    assert recs[-1]["type"] == "summary"
    first = steps[0]
    assert first["dt"] == CFG.dt
    assert first["rank"] == 0 and first["nranks"] == 1
    assert first["cfl"] is not None and first["cfl"] > 0
    # the serial driver exposes transform and solve counters
    assert first["transforms"]["transforms"] > 0
    assert first["solve"]["solves"] > 0
    # the serial stepper's timed sections (fft/transpose are pencil-only)
    for name in ("nonlinear_products", "ns_advance", "solve"):
        assert first["sections"][name]["calls"] > 0, name


def test_section_deltas_sum_to_timer_totals(tmp_path):
    dns, tel = _run(tmp_path, nsteps=4)
    recs = list(read_stream(tel / "telemetry.jsonl"))
    steps = [r for r in recs if r["type"] == "step"]
    summary = recs[-1]
    timers = dns.stepper.timers
    for name, total in timers.elapsed.items():
        streamed = sum(r["sections"][name]["s"] for r in steps)
        assert streamed == pytest.approx(total, rel=1e-9)
        assert summary["sections"][name]["s"] == pytest.approx(total, rel=1e-9)
        assert sum(r["sections"][name]["calls"] for r in steps) == timers.calls[name]


def test_workspace_allocs_freeze_after_first_record(tmp_path):
    tel = TelemetryConfig(directory=tmp_path / "tel")
    dns = ChannelDNS(CFG, telemetry=tel)
    dns.initialize()
    dns.run(2)  # warm-up: every scratch slot exists after two records
    rec = dns.recorder
    frozen = rec.counters.workspace_allocs
    dns.run(4)
    assert rec.counters.workspace_allocs == frozen
    assert rec.counters.records == 6
    dns.finalize_telemetry()


def test_overhead_is_tracked_and_in_summary(tmp_path):
    dns, tel = _run(tmp_path, nsteps=6)
    rec = dns.recorder
    assert rec.counters.overhead_seconds > 0
    frac = rec.overhead_fraction()
    assert frac is not None and 0 < frac < 1
    summary = list(read_stream(tel / "telemetry.jsonl"))[-1]
    assert summary["overhead_frac"] == pytest.approx(frac)


def test_every_cadence(tmp_path):
    dns, tel = _run(tmp_path, nsteps=6, every=3)
    steps = [r["step"] for r in read_stream(tel / "telemetry.jsonl") if r["type"] == "step"]
    assert steps == [3, 6]


def test_divergence_cadence(tmp_path):
    dns, tel = _run(tmp_path, nsteps=4, divergence_every=2)
    steps = [r for r in read_stream(tel / "telemetry.jsonl") if r["type"] == "step"]
    assert [r["divergence"] is not None for r in steps] == [False, True, False, True]
    sampled = [r["divergence"] for r in steps if r["divergence"] is not None]
    assert all(d < 1e-8 for d in sampled)  # solenoidal scheme


def test_trace_written_and_valid(tmp_path):
    dns, tel = _run(tmp_path, nsteps=3)
    doc = json.loads((tel / "trace.json").read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"ns_advance", "solve", "nonlinear_products"}
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
    # recorder detached the tracer on close
    assert dns.stepper.timers.tracer is None


def test_manifest_written(tmp_path):
    dns, tel = _run(tmp_path, nsteps=2)
    doc = read_manifest(tel)
    assert doc["config"]["nx"] == CFG.nx
    assert doc["nranks"] == 1
    assert doc["config_fingerprint"]
    assert doc["transport"] is None  # no transposes in a serial run


def test_trace_disabled(tmp_path):
    dns, tel = _run(tmp_path, nsteps=2, trace=False)
    assert not (tel / "trace.json").exists()
    assert dns.recorder.trace is None


def test_record_event_and_close_idempotent(tmp_path):
    tel_dir = tmp_path / "tel"
    rec = RunRecorder(tel_dir)
    rec.record_event("custom_kind", step=7, detail="hello", info={"a": 1})
    rec.close()
    rec.close()  # idempotent
    recs = list(read_stream(tel_dir / "telemetry.jsonl"))
    ev = recs[0]
    assert ev["kind"] == "custom_kind" and ev["step"] == 7 and ev["info"] == {"a": 1}
    assert recs[-1]["type"] == "summary"


def test_recorder_accepts_path_and_rejects_junk(tmp_path):
    dns = ChannelDNS(CFG, telemetry=tmp_path / "via_path")
    assert dns.recorder is not None
    dns.initialize()
    dns.run(1)
    dns.finalize_telemetry()
    assert (tmp_path / "via_path" / "telemetry.jsonl").exists()
    with pytest.raises(TypeError):
        TelemetryConfig.coerce(42)


def test_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(every=0)
    with pytest.raises(ValueError):
        TelemetryConfig(flush_every=0)


def test_nan_diagnostics_serialize_as_null(tmp_path):
    dns = ChannelDNS(CFG, telemetry=tmp_path / "tel")
    dns.initialize()
    dns.run(1)
    dns.state.v[:] = float("nan")
    dns.stepper.last_cfl_speeds = (float("nan"),) * 3
    dns.recorder.record_step(dns, force=True)
    dns.finalize_telemetry()
    steps = [r for r in read_stream(tmp_path / "tel" / "telemetry.jsonl") if r["type"] == "step"]
    assert steps[-1]["cfl"] is None  # not NaN — the stream stays valid JSON
