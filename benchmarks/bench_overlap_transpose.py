"""Overlap micro-benchmark — pipelined vs synchronous pencil transposes.

Measures one Table-6-style ``fft_cycle`` (4 transposes + 4 FFT stages)
on simulated ranks, synchronous ``alltoall`` against the staged
``PIPELINED`` path that posts the exchange for slab ``k`` while slab
``k-1`` runs its FFTs.

Two regimes are reported:

* **zero wire latency** — SimMPI moves payloads by reference through
  queues, so exchange "wire time" is near zero and there is nothing to
  hide; the staged path pays its staging/ack overhead and *loses*.
  This is the measured, explained bound for the bare container: on a
  single-core host the rank threads timeshare the CPU, so comm/compute
  overlap cannot manufacture wall-clock time that the latency-free
  exchange never spent.
* **modelled wire latency** — a deterministic :class:`FaultPlan` stalls
  every exchange's completion by a per-volume wire time ``D`` (the
  synchronous path pays ``D`` per full-volume alltoall, the pipelined
  path ``D/stages`` per slab — identical seconds per byte).  The delay
  stalls completion without consuming CPU, exactly like wire time, and
  the pipelined path hides most of it behind the fused FFT stages: the
  asserted win is >= 1.2x on the transpose cycle.

The pipelined runs pin ``STAGES`` slabs (the production default is
one): the delay model charges ``D/STAGES`` per slab, and only a
multi-slab exchange has compute to hide its wire time behind.

The asserted floor is deliberately below the measured ~1.5x so a noisy
shared runner does not flap; the pipelined cycle's absolute cost is
gated by the ``dist4_pipelined_mixed`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.transpose import TransposeMethod

from conftest import emit, fmt_row

NX, NY, NZ = 64, 24, 64
NRANKS, GRID = 4, (2, 2)
ITERS, WARM = 6, 1
STAGES = 4  # pinned slab count of the pipelined runs
#: modelled wire seconds for one full-volume exchange
WIRE_S = 0.030


def _wire_plan(op: str, delay: float, ncalls: int) -> FaultPlan:
    """Stall every one of the first ``ncalls`` ``op`` calls by ``delay``."""
    return FaultPlan(
        [
            FaultEvent("delay", rank=r, op=op, call=c, delay=delay)
            for r in range(NRANKS)
            for c in range(ncalls)
        ]
    )


def _cycle_time(method: TransposeMethod, plan: FaultPlan | None, wire: str = "full"):
    """Max-over-ranks seconds per fft_cycle, plus rank 0's overlap and
    precision counters."""

    def prog(comm):
        cart = comm.cart_create(GRID)
        tr = PencilTransforms(
            cart, NX, NY, NZ, dealias=True, method=method, wire=wire, stages=STAGES
        )
        d = tr.decomp
        rng = np.random.default_rng(comm.rank)
        spec = rng.standard_normal(d.y_pencil_shape) + 1j * rng.standard_normal(
            d.y_pencil_shape
        )
        for _ in range(WARM):
            spec = tr.fft_cycle(spec)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(ITERS):
            spec = tr.fft_cycle(spec)
        comm.barrier()
        per_cycle = (time.perf_counter() - t0) / ITERS
        return per_cycle, tr.overlap_counters.snapshot(), tr.precision_counters.snapshot()

    results = run_spmd(NRANKS, prog, fault_plan=plan)
    return max(r[0] for r in results), results[0][1], results[0][2]


def test_overlap_transpose(benchmark):
    calls_sync = 4 * (ITERS + WARM)  # 4 transposes per cycle
    calls_pipe = 4 * STAGES * (ITERS + WARM)  # ... each in STAGES slabs

    # regime 1: zero wire latency (the bare container bound)
    t_sync0, _, _ = _cycle_time(TransposeMethod.ALLTOALL, None)
    t_pipe0, ov0, pc_full = _cycle_time(TransposeMethod.PIPELINED, None)

    # regime 2: modelled per-volume wire latency, identical seconds/byte
    t_sync, _, _ = _cycle_time(
        TransposeMethod.ALLTOALL, _wire_plan("alltoall", WIRE_S, calls_sync)
    )
    t_pipe, ov, _ = _cycle_time(
        TransposeMethod.PIPELINED,
        _wire_plan("ialltoallv", WIRE_S / STAGES, calls_pipe),
    )

    # mixed-precision wire: same cycle, float32/complex64 payloads
    _, _, pc_mixed = _cycle_time(TransposeMethod.PIPELINED, None, wire="mixed")
    wire_frac = pc_mixed["bytes_wire"] / max(pc_mixed["bytes_full"], 1)

    hidden0 = ov0["bytes_overlapped"] / max(ov0["bytes_completed"], 1)
    hidden = ov["bytes_overlapped"] / max(ov["bytes_completed"], 1)
    widths = (26, 12, 12, 8)
    lines = [
        f"overlap micro-benchmark — {NX}x{NY}x{NZ} fft_cycle on {NRANKS} ranks "
        f"({GRID[0]}x{GRID[1]}), {STAGES} stages",
        "",
        fmt_row(("regime", "sync", "pipelined", "ratio"), widths),
        fmt_row(
            (
                "zero wire latency",
                f"{t_sync0 * 1e3:.2f} ms",
                f"{t_pipe0 * 1e3:.2f} ms",
                f"{t_sync0 / t_pipe0:.2f}x",
            ),
            widths,
        ),
        fmt_row(
            (
                f"wire {WIRE_S * 1e3:.0f} ms/volume",
                f"{t_sync * 1e3:.2f} ms",
                f"{t_pipe * 1e3:.2f} ms",
                f"{t_sync / t_pipe:.2f}x",
            ),
            widths,
        ),
        "",
        f"hidden comm fraction: {hidden0:.0%} (no latency), {hidden:.0%} (with latency)",
        f"exposed wait per cycle: {ov['wait_seconds'] / (ITERS + WARM) * 1e3:.2f} ms",
        "",
        "bytes on the wire per rank (pipelined, zero-latency regime):",
        fmt_row(("wire mode", "full f64", "mixed f32", "ratio"), widths),
        fmt_row(
            (
                "payload bytes",
                f"{pc_full['bytes_wire'] / 1e6:.1f} MB",
                f"{pc_mixed['bytes_wire'] / 1e6:.1f} MB",
                f"{wire_frac:.2f}",
            ),
            widths,
        ),
        "",
        "zero-latency bound: queue exchanges cost ~nothing, so staging/ack",
        "overhead makes the pipelined path slower on a single-core host;",
        "with per-byte wire time the staged exchanges hide behind the fused",
        "FFT stages and the pipelined cycle wins.",
    ]
    emit("overlap_transpose", "\n".join(lines))

    # the latency-hiding win this PR exists for
    assert t_sync / t_pipe >= 1.2, (
        f"pipelined transpose cycle only {t_sync / t_pipe:.2f}x vs synchronous "
        f"under {WIRE_S * 1e3:.0f} ms/volume wire latency (expected >= 1.2x)"
    )
    # the overlap machinery really ran and really hid communication
    assert ov["posts"] == calls_pipe
    assert hidden >= 0.5, f"only {hidden:.0%} of exchange bytes were hidden"
    # the mixed wire really halves the payload (complex128 -> complex64)
    assert wire_frac <= 0.55, (
        f"mixed wire moved {wire_frac:.0%} of the float64 bytes (expected <= 55%)"
    )

    benchmark(lambda: _cycle_time(TransposeMethod.PIPELINED, None))
