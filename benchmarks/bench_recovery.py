"""Recovery path throughput: checkpoint save, restore, and reshard-restore.

The elastic recovery layer earns its keep only if the restart path is
cheap next to the integration it protects.  This bench measures, on a
32x33x32 state:

* **save** — one sharded snapshot write (atomic + fsync + CRC manifest),
* **restore (same shape)** — the fast path: every rank reads its own
  shard, CRC-verified,
* **reshard-restore** — the decomposition-agnostic path across a
  shrinking-allocation cascade ``8 -> 6 -> 4`` ranks (each stage
  reassembles from the previous stage's shards) plus the collapse onto
  a serial driver via ``load_serial``,
* **reshard-up cascade** — the same reader in the other direction: a
  serial run's snapshot (the one shard of a ``1x1`` grid, the format
  every run writes) reassembles onto ``2x2`` and then ``2x4``
  (what a later :func:`~repro.pencil.distributed.run_supervised_spmd`
  call on more ranks pays to resume a shrunken run's checkpoints),
  bit-exact at every stage.

Reported as wall time and effective MB/s over the snapshot's on-disk
bytes; written to ``benchmarks/results/recovery.txt``.
"""

from __future__ import annotations

import pathlib
import shutil
import time

import numpy as np

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import ShardedCheckpointRotation
from repro.mpi import run_spmd
from repro.pencil.decomp import choose_grid
from repro.pencil.distributed import DistributedChannelDNS

from conftest import emit, fmt_row

CFG = ChannelConfig(nx=32, ny=33, nz=32, dt=4e-4, init_amplitude=1.0, seed=11)
MX, MZ = CFG.nx // 2, CFG.nz - 1
REPEATS = 5


def _median_timed(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _snapshot_bytes(directory) -> int:
    snaps = ShardedCheckpointRotation(directory).snapshot_dirs()
    return sum(p.stat().st_size for p in snaps[0].iterdir())


def _write_stage(directory, nranks):
    """Run briefly at ``nranks`` and leave one snapshot; returns save seconds."""
    pa, pb = choose_grid(nranks, MX, MZ, CFG.ny)

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
        dns.initialize()
        dns.run(2)
        rot = ShardedCheckpointRotation(directory, keep=2)
        return _median_timed(lambda: rot.save(dns))

    return run_spmd(nranks, prog)[0]


def _restore_stage(directory, nranks, reshard):
    """Time a restore of ``directory``'s snapshot at ``nranks``; returns
    ``(seconds, full_state)`` gathered on rank 0."""
    pa, pb = choose_grid(nranks, MX, MZ, CFG.ny)

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
        rot = ShardedCheckpointRotation(directory, keep=2)
        restore_s = _median_timed(lambda: rot.load_latest(dns, reshard=reshard))
        full = dns.gather_state()
        return (restore_s, full) if comm.rank == 0 else None

    return run_spmd(nranks, prog)[0]


def test_recovery_throughput(benchmark, tmp_path):
    widths = (26, 8, 10, 10)
    lines = [
        "Recovery throughput — sharded checkpoints on a 32x33x32 state",
        "",
        fmt_row(("operation", "ranks", "ms", "MB/s"), widths),
    ]

    stage_dir = tmp_path / "cascade"
    save_s = _write_stage(stage_dir, 8)
    nbytes = _snapshot_bytes(stage_dir)
    mb = nbytes / 1e6

    def row(op, ranks, seconds):
        lines.append(
            fmt_row((op, ranks, f"{seconds * 1e3:.2f}", f"{mb / seconds:.0f}"), widths)
        )

    row("save", 8, save_s)

    same_s, _ = _restore_stage(stage_dir, 8, reshard=False)
    row("restore (same 2x4)", 8, same_s)

    # the shrinking-allocation cascade: every stage restores the previous
    # stage's snapshot onto a smaller grid, then snapshots at its own
    ref = None
    prev = 8
    for nranks in (6, 4):
        reshard_s, full = _restore_stage(stage_dir, nranks, reshard=True)
        row(f"reshard ({prev}->{nranks})", nranks, reshard_s)
        # re-snapshot at the new layout so the next stage resharding is real
        pa, pb = choose_grid(nranks, MX, MZ, CFG.ny)

        def resnap(comm, pa=pa, pb=pb):
            dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
            rot = ShardedCheckpointRotation(stage_dir, keep=2)
            rot.load_latest(dns, reshard=True)
            rot.save(dns)
            return True

        run_spmd(nranks, resnap)
        if ref is None:
            ref = full
        else:
            np.testing.assert_array_equal(full.v, ref.v)  # cascade stays bit-exact
        prev = nranks

    # collapse onto a serial driver: the representative kernel under pytest-benchmark
    rot = ShardedCheckpointRotation(stage_dir)
    serial_dns = benchmark.pedantic(rot.load_serial, rounds=3, iterations=1)
    serial_s = _median_timed(rot.load_serial)
    row("reshard (4->serial)", 1, serial_s)
    np.testing.assert_array_equal(serial_dns.state.v, ref.v)

    # the reshard-up cascade: a serial run's snapshot reassembles onto
    # 2x2, then 2x4 — the price of resuming a shrunken run's checkpoints
    # on more ranks (same trajectory, so the shrink ref still pins)
    up_dir = tmp_path / "reshard-up"
    seed = ChannelDNS(CFG)
    seed.initialize()
    seed.run(2)
    up_rot = ShardedCheckpointRotation(up_dir, keep=2)
    row("save (serial)", 1, _median_timed(lambda: up_rot.save(seed)))
    prev = 1
    for nranks in (4, 8):
        up_s, full = _restore_stage(up_dir, nranks, reshard=True)
        pa, pb = choose_grid(nranks, MX, MZ, CFG.ny)
        row(f"reshard-up ({prev}->{pa}x{pb})", nranks, up_s)
        np.testing.assert_array_equal(full.v, ref.v)  # reshard-up stays bit-exact

        def resnap(comm, pa=pa, pb=pb):
            dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
            rot = ShardedCheckpointRotation(up_dir, keep=2)
            rot.load_latest(dns, reshard=True)
            rot.save(dns)
            return True

        run_spmd(nranks, resnap)
        prev = nranks

    lines += [
        "",
        f"snapshot size: {nbytes} bytes ({mb:.2f} MB) across the shard files;",
        "the 8->6->4->serial shrink cascade and the serial->2x2->2x4 reshard-up",
        "cascade both reassemble bit-exactly at every stage.",
    ]
    emit("recovery", "\n".join(lines))
    shutil.rmtree(stage_dir, ignore_errors=True)
    shutil.rmtree(up_dir, ignore_errors=True)
