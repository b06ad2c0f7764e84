#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py BASE.json NEW.json``.

One row per end-to-end metric and workload: base and new medians, their
ratio with its base, and a verdict against the metric's bound in
``layers.END_TO_END``:

``regressed`` / ``improved``
    the new median is worse / better than the base by more than the bound;
``unresolved``
    neither, but one side's own values spread (max - min over the
    median) wider than the bound, so "unchanged" cannot be claimed;
``unchanged``
    otherwise.

Exact-count per-layer metrics must be equal.  Exit status 1 on any
regression, any count that differs, or a higher share of failed
operations; 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layers  # noqa: E402

FAULT_WORKLOAD = "supervised4_fault"


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[float, float, float, str]:
    """(base median, new median, new/base, verdict) of one metric on one workload."""
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b
    worse_by = ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0
    spread = max((max(v) - min(v)) / statistics.median(v) for v in (base, new))
    if worse_by > bound:
        word = "regressed"
    elif worse_by < -bound:
        word = "improved"
    elif spread > bound:
        word = "unresolved"
    else:
        word = "unchanged"
    return b, n, ratio, word


def compare(base: dict, new: dict, out=sys.stdout) -> int:
    bad = 0
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        wb, wn = base["workloads"][name], new["workloads"][name]
        for metric, (unit, better, bound) in layers.END_TO_END.items():
            b, n, ratio, word = verdict(
                wb["end_to_end"][metric]["values"], wn["end_to_end"][metric]["values"], better, bound
            )
            bad += word == "regressed"
            print(f"{name:24s} {metric:20s} {b:12.5g} -> {n:12.5g} {unit:4s} x{ratio:.3f} of base  {word}", file=out)
        for metric, row in layers.PER_LAYER.items():
            exact = row[4] == layers.EXACT or (row[4] == layers.FAULT_FREE and name != FAULT_WORKLOAD)
            vb, vn = wb["per_layer"][metric]["value"], wn["per_layer"][metric]["value"]
            if exact and vb != vn:
                bad += 1
                print(f"{name:24s} {metric:20s} count differs: {vb} -> {vn}", file=out)
        fb, fn = wb["failed"] / wb["attempted"], wn["failed"] / wn["attempted"]
        if fn > fb:
            bad += 1
            before, after = f"{wb['failed']}/{wb['attempted']}", f"{wn['failed']}/{wn['attempted']}"
            print(f"{name:24s} failed operations rose: {before} -> {after}", file=out)
    print("FAIL" if bad else "ok", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
