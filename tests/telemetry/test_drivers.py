"""Telemetry attachment across the driver stack: distributed, supervised, soak."""

import json

from repro.core.checkpoint import ShardedCheckpointRotation
from repro.core.health import UnstableError
from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.supervisor import RunSupervisor, SupervisorPolicy
from repro.mpi.simmpi import run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.pencil.transpose import TransposeMethod
from repro.telemetry import TelemetryConfig, merge_traces, read_manifest, read_stream

CFG = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=3, init_amplitude=0.5)


def test_distributed_per_rank_streams(tmp_path):
    tel = tmp_path / "tel"

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2, telemetry=tel)
        dns.initialize()
        dns.run(3)
        dns.finalize_telemetry()
        return dns.recorder.counters.records

    records = run_spmd(4, prog)
    assert records == [3, 3, 3, 3]
    for rank in range(4):
        recs = list(read_stream(tel / f"telemetry-rank{rank:03d}.jsonl"))
        steps = [r for r in recs if r["type"] == "step"]
        assert [r["step"] for r in steps] == [1, 2, 3]
        assert steps[0]["rank"] == rank and steps[0]["nranks"] == 4
        # world-shared message totals and the pencil sections are present
        assert steps[0]["mpi"]["messages"] > 0
        assert steps[0]["sections"]["transpose"]["calls"] > 0
        assert recs[-1]["type"] == "summary"
    # one manifest (rank 0), carrying the process grid
    doc = read_manifest(tel)
    assert doc["nranks"] == 4 and doc["process_grid"] == [2, 2]
    assert doc["transport"] == {
        "method": "ALLTOALL", "wire": "full", "exchange_op": "alltoall",
    }
    merged = merge_traces(
        [tel / f"trace-rank{r:03d}.json" for r in range(4)], tel / "merged.json"
    )
    spans = [e for e in json.loads(merged.read_text())["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in spans} == {0, 1, 2, 3}


def test_record_step_makes_no_communicator_call(tmp_path):
    """``cfl`` and ``divergence`` are the rank's own block values: a
    record makes no collective, so no wait for a peer is booked as
    recorder overhead.  The max over the rank streams is the global
    divergence, and bounds the global CFL from below."""
    tel = TelemetryConfig(directory=tmp_path / "tel", divergence_every=1)

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2, telemetry=tel)
        dns.initialize()
        dns.run(2)
        comm.barrier()
        before = comm.stats.messages
        dns.recorder.record_step(dns, force=True)
        comm.barrier()
        moved = comm.stats.messages - before
        cfl, div = dns.cfl_number(), dns.divergence_norm()
        dns.finalize_telemetry()
        return moved, cfl, div

    out = run_spmd(4, prog)
    assert [moved for moved, _, _ in out] == [0, 0, 0, 0]
    last = [
        [r for r in read_stream(tel.directory / f"telemetry-rank{rank:03d}.jsonl") if r["type"] == "step"][-1]
        for rank in range(4)
    ]
    _, cfl, div = out[0]
    assert max(r["divergence"] for r in last) == div
    assert 0.0 < max(r["cfl"] for r in last) <= cfl


def test_supervisor_mirrors_recovery_log(tmp_path):
    dns = ChannelDNS(CFG, telemetry=tmp_path / "tel")
    dns.initialize()
    sup = RunSupervisor(
        dns,
        ShardedCheckpointRotation(tmp_path / "ckpt", keep=2),
        policy=SupervisorPolicy(checkpoint_every=2, max_retries=2),
    )
    assert sup.recorder is dns.recorder  # picked up from the driver

    fired = []

    def inject(d):
        if d.step_count == 3 and not fired:
            fired.append(True)
            raise UnstableError("injected", step=d.step_count)

    final = sup.run(5, callback=inject)
    final.finalize_telemetry()
    # the rollback replaced the driver; the recorder followed it
    assert final is not dns and final.recorder is sup.recorder

    recs = list(read_stream(tmp_path / "tel" / "telemetry.jsonl"))
    events = [r["kind"] for r in recs if r["type"] == "event"]
    assert events == [e.kind for e in sup.log]
    assert {"failure", "rollback", "dt_reduction"} <= set(events)
    steps = [r["step"] for r in recs if r["type"] == "step"]
    assert steps[-1] == 5
    # rollback rewinds the stream's step sequence, then it recovers
    assert 3 in steps and steps.count(3) == 2
    # recovery counter deltas ride the step records
    post = [r for r in recs if r["type"] == "step"]
    assert sum(r.get("recovery", {}).get("rollbacks", 0) for r in post) == 1


def test_rollback_keeps_the_checkpoint_timings(tmp_path):
    """After a serial rollback the replacement driver's step records still
    carry the checkpoint saves: they are timed into the driver's own
    timers, which its recorder reads."""
    import numpy as np

    from repro.core.health import HealthMonitor

    dns = ChannelDNS(CFG, telemetry=tmp_path / "tel")
    dns.initialize()
    sup = RunSupervisor(
        dns,
        ShardedCheckpointRotation(tmp_path / "ckpt"),
        monitor=HealthMonitor(),
        policy=SupervisorPolicy(checkpoint_every=2),
    )
    fired = []

    def poison(d):
        if d.step_count == 3 and not fired:
            fired.append(True)
            d.state.v[0, 0, 0] = np.nan

    final = sup.run_to(8, callback=poison)
    final.finalize_telemetry()
    assert final is not dns and [e.kind for e in sup.log] == ["failure", "rollback"]

    recs = list(read_stream(tmp_path / "tel" / "telemetry.jsonl"))
    rollback = next(i for i, r in enumerate(recs) if r.get("kind") == "rollback")
    post = [r for r in recs[rollback:] if r["type"] == "step"]
    assert [r["step"] for r in post] == [3, 4, 5, 6, 7, 8]
    # a save after step N lands in step N+1's record: the saves at 4 and 6
    calls = [r["sections"].get("checkpoint", {"calls": 0})["calls"] for r in post]
    assert calls == [0, 0, 1, 0, 1, 0]
    for r in post:
        if r["sections"].get("checkpoint", {"calls": 0})["calls"]:
            assert r["sections"]["checkpoint"]["s"] > 0.0


def test_manifest_names_the_pipelined_transport(tmp_path):
    """A pipelined run's manifest names its method, wire and exchange
    call (``alltoall``), and its step records book one ``fft`` section
    per ``transpose`` section, as the blocking methods do."""
    tel = tmp_path / "tel"

    def prog(comm):
        dns = DistributedChannelDNS(
            comm, CFG, pa=2, pb=2, method=TransposeMethod.PIPELINED,
            wire_precision="mixed", telemetry=tel,
        )
        dns.initialize()
        dns.run(2)
        dns.finalize_telemetry()

    run_spmd(4, prog)
    assert read_manifest(tel)["transport"] == {
        "method": "PIPELINED", "wire": "mixed", "exchange_op": "alltoall",
    }
    steps = [r for r in read_stream(tel / "telemetry-rank000.jsonl") if r["type"] == "step"]
    assert len(steps) == 2
    for rec in steps:
        sections = rec["sections"]
        assert sections["fft"]["calls"] == sections["transpose"]["calls"] == 48


def test_supervised_spmd_attempt_streams_and_job_events(tmp_path):
    from repro.mpi.simmpi import FaultEvent, FaultPlan

    tel = tmp_path / "tel"
    plan = FaultPlan([FaultEvent(action="kill", rank=1, op=None, call=30)])
    full, log = run_supervised_spmd(
        4,
        CFG,
        2,
        2,
        4,
        tmp_path / "ckpt",
        checkpoint_every=2,
        fault_plans=[plan],
        telemetry=tel,
    )
    assert full is not None
    # job-level stream: one restart, one complete
    ev = [r for r in read_stream(tel / "events.jsonl") if r["type"] == "event"]
    kinds = [e["kind"] for e in ev]
    assert kinds.count("restart") == 1 and kinds[-1] == "complete"
    assert all(e["rank"] == -1 for e in ev)
    # both attempts left per-rank streams behind (attempt 0 crashed)
    for attempt in (0, 1):
        sub = tel / f"attempt-{attempt:02d}"
        assert (sub / "telemetry-rank000.jsonl").exists(), attempt
        assert (sub / "manifest.json").exists()
    # the crashed attempt still closed its surviving ranks' streams
    recs = list(read_stream(tel / "attempt-01" / "telemetry-rank000.jsonl"))
    assert recs[-1]["type"] == "summary"


def test_chaos_soak_telemetry(tmp_path):
    from repro.chaos import run_chaos_soak

    results = run_chaos_soak(
        [3], tmp_path / "work", n_steps=4, telemetry=tmp_path / "tel"
    )
    assert len(results) == 1
    ev = [r for r in read_stream(tmp_path / "tel" / "events.jsonl") if r["type"] == "event"]
    kinds = [e["kind"] for e in ev]
    assert kinds == ["soak_result", "soak_summary"]
    assert ev[0]["info"]["seed"] == 3
    assert ev[1]["info"]["runs"] == 1
    # the seed's supervised job recorded full per-attempt streams
    assert (tmp_path / "tel" / "soak-00003" / "attempt-00" / "manifest.json").exists()
