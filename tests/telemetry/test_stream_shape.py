"""The shape of recorded step streams: which counter groups each driver
emits, and that every group carries exactly its declared fields, in
declaration order."""

import pytest

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.pencil.transpose import TransposeMethod
from repro.telemetry import RunRecorder, read_stream

CFG = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=3, init_amplitude=0.5)

#: the fields of every step-record counter group, in record order
SHAPE = {
    "transforms": [
        "workspace_bytes", "workspace_allocs", "transforms", "fields_forward", "fields_backward",
    ],
    "solve": ["workspace_bytes", "workspace_allocs", "solves", "sweeps", "columns"],
    "recovery": [
        "checkpoints_saved", "checkpoints_pruned", "verify_failures", "failures", "rollbacks",
        "restarts", "dt_reductions", "shrinks", "reshard_restores",
    ],
    "mpi": ["messages", "bytes"],
    "overlap": [
        "posts", "waits", "bytes_posted", "bytes_completed", "bytes_overlapped",
        "wait_seconds", "overlap_seconds",
    ],
    "precision": ["exchanges", "casts", "bytes_wire", "bytes_full"],
    "stats": ["samples", "merges", "publishes", "restores", "sample_seconds"],
}


def _serial(tmp_path):
    dns = ChannelDNS(CFG)
    dns.attach_streaming(every=2)  # before the recorder: read at attach
    RunRecorder(tmp_path, rank=0, nranks=1).attach(dns)
    dns.initialize()
    dns.run(4)
    dns.finalize_telemetry()
    return [tmp_path / "telemetry.jsonl"]


def _pipelined_mixed(tmp_path):
    def prog(comm):
        dns = DistributedChannelDNS(
            comm, CFG, pa=2, pb=2, method=TransposeMethod.PIPELINED,
            wire_precision="mixed", telemetry=tmp_path,
        )
        dns.initialize()
        dns.run(3)
        dns.finalize_telemetry()

    run_spmd(4, prog)
    return [tmp_path / f"telemetry-rank{r:03d}.jsonl" for r in range(4)]


def _supervised_kill(tmp_path):
    plan = FaultPlan([FaultEvent(action="kill", rank=1, op=None, call=30)])
    run_supervised_spmd(
        4, CFG, 2, 2, 4, tmp_path / "ckpt", checkpoint_every=2, fault_plans=[plan],
        telemetry=tmp_path / "tel", streaming_every=1,
    )
    assert plan.triggered
    return sorted((tmp_path / "tel").glob("attempt-*/telemetry-rank*.jsonl"))


@pytest.mark.parametrize(
    "record, groups",
    [
        (_serial, {"transforms", "solve", "stats"}),
        (_pipelined_mixed, {"solve", "mpi", "overlap", "precision"}),
        (_supervised_kill, {"solve", "recovery", "mpi", "overlap", "precision", "stats"}),
    ],
    ids=["serial", "pipelined_mixed", "supervised_kill"],
)
def test_step_groups_carry_the_declared_fields_in_order(tmp_path, record, groups):
    paths = record(tmp_path)
    assert paths
    n_steps = 0
    for path in paths:
        for rec in read_stream(path):
            if rec["type"] != "step":
                continue
            n_steps += 1
            present = [k for k in rec if k in SHAPE]
            assert set(present) == groups, path
            assert present == [g for g in SHAPE if g in groups], path  # record order
            for group in present:
                assert list(rec[group]) == SHAPE[group], (path, group)
    assert n_steps


def test_registry_declares_the_pinned_shape():
    from repro.instrument import GROUPS

    assert {group: list(cls.FIELDS) for group, cls in GROUPS.items()} == SHAPE
    assert list(GROUPS) == list(SHAPE)
