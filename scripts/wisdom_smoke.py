#!/usr/bin/env python
"""Cold-vs-warm wisdom smoke: the second run must not re-time anything.

Runs the three self-tuning sites against one wisdom store — the
MEASURE-mode FFT planner (the non-contiguous-axis 1-D stages a 32^3
pencil run plans), the transpose method selection of a 2x2 pencil grid,
and the solve-engine panel-height selection — and records every decision
plus the planner wall time into a state file.

    python scripts/wisdom_smoke.py --wisdom w.json --state s.json --phase cold
    python scripts/wisdom_smoke.py --wisdom w.json --state s.json --phase warm

The cold phase asserts the sites really measured (MEASURE_STATS > 0)
and seeds the store.  The warm phase asserts the acceptance contract of
the wisdom store:

* zero MEASURE timing runs, counted at the sites themselves;
* bit-identical decisions to the cold run;
* planner setup at least 5x faster than cold.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.fft.plans import Planner, PlanFlags
from repro.linalg.custom import FoldedLU
from repro.linalg.structure import BandedSystemSpec, FoldedBanded
from repro.mpi.simmpi import run_spmd
from repro.pencil.parallel_fft import PencilTransforms
from repro.tuning import MEASURE_STATS, WisdomStore

NX, NY, NZ = 32, 16, 32
MIN_WARM_SPEEDUP = 5.0

#: the 1-D stage transforms a 32^3 pencil run plans along non-contiguous
#: axes — the ones MEASURE actually times (last-axis plans have a single
#: candidate and are free either way)
WISDOM_PLAN_SET: tuple[tuple, ...] = (
    ("fft", (32, 16, 33), 0, None),
    ("ifft", (32, 16, 33), 1, None),
    ("rfft", (32, 16, 33), 0, None),
    ("irfft", (17, 16, 33), 0, 32),
)


def _plan_ffts(store: WisdomStore) -> tuple[list[str], float]:
    """Plan the measuring 1-D stages on a fresh Planner; (strategies, seconds)."""
    t0 = time.perf_counter()
    planner = Planner(flags=PlanFlags.MEASURE, wisdom=store)
    plans = [planner.plan(k, s, a, nout=n) for k, s, a, n in WISDOM_PLAN_SET]
    return [p.strategy for p in plans], time.perf_counter() - t0


def _plan_transpose(wisdom_path: pathlib.Path) -> dict[str, str]:
    """Method choice of the 2x2 pencil transposes (store opened per rank)."""

    def prog(comm):
        store = WisdomStore(wisdom_path)
        cart = comm.cart_create((2, 2))
        tr = PencilTransforms(cart, NX, NY, NZ, dealias=False)
        choice = tr.plan(wisdom=store)
        return {k: v.value for k, v in choice.items()}

    return run_spmd(4, prog)[0]


def _plan_block(store: WisdomStore) -> int:
    """Panel height chosen by the measured solve engine."""
    rng = np.random.default_rng(0)
    spec = BandedSystemSpec(n=128, kl=3, ku=3, corner=3)
    data = rng.standard_normal((8, 128, spec.window))
    data[:, np.arange(128), spec.mdiag] += 14.0
    lu = FoldedLU(FoldedBanded(spec, data))
    return lu.engine(block="measure", wisdom=store).block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wisdom", required=True, help="wisdom store path (shared by both phases)")
    ap.add_argument("--state", required=True, help="JSON file carrying decisions cold -> warm")
    ap.add_argument("--phase", required=True, choices=("cold", "warm"))
    args = ap.parse_args(argv)

    wisdom_path = pathlib.Path(args.wisdom)
    state_path = pathlib.Path(args.state)
    store = WisdomStore(wisdom_path)

    MEASURE_STATS.reset()
    strategies, t_plan = _plan_ffts(store)
    transpose = _plan_transpose(wisdom_path)
    block = _plan_block(store)
    stats = MEASURE_STATS.snapshot()

    print(f"[{args.phase}] fft strategies {strategies}  transpose {transpose}  "
          f"block {block}  planner {t_plan * 1e3:.2f} ms")
    print(f"[{args.phase}] timing runs: {stats}")

    if args.phase == "cold":
        for name, count in stats.items():
            assert count > 0, f"cold phase never measured {name}"
        state_path.write_text(json.dumps({
            "strategies": strategies, "transpose": transpose,
            "block": block, "t_plan": t_plan,
        }))
        print(f"cold OK: {MEASURE_STATS.total()} timing runs, "
              f"{len(store)} wisdom entries recorded")
        return 0

    cold = json.loads(state_path.read_text())
    assert MEASURE_STATS.total() == 0, (
        f"warm start re-timed: {stats} (expected zero MEASURE timing runs)"
    )
    assert strategies == cold["strategies"], (strategies, cold["strategies"])
    assert transpose == cold["transpose"], (transpose, cold["transpose"])
    assert block == cold["block"], (block, cold["block"])
    speedup = cold["t_plan"] / max(t_plan, 1e-9)
    print(f"warm planner speedup: {speedup:.1f}x (floor {MIN_WARM_SPEEDUP:.0f}x)")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm planner setup only {speedup:.1f}x faster than cold"
    )
    print("warm OK: zero timing runs, identical decisions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
