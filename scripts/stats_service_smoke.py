#!/usr/bin/env python
"""Statistics-service smoke: stream a run, publish, query, assert budgets.

Exercises the full serving pipeline (docs/statistics_service.md) end to
end on a 32^3 serial DNS and asserts its acceptance surface:

* **identity** — the streaming accumulator's profiles equal the batch
  oracle (``repro.core.statistics.plane_covariance`` summed over the
  same sampled snapshots) bit-for-bit (covariances) / to round-off (U,
  via a different summation route);
* **overhead** — the accumulator's self-measured sampling time stays
  under the same < 1% of run wall-time budget the telemetry recorder
  lives by (``--budget`` to override);
* **serving** — the published result answers law-of-wall, variance and
  spectrum queries, and a warm response cache beats the cold store
  (the full ≥ 10x throughput floor is asserted by
  ``benchmarks/bench_stats_service.py``; the smoke uses a noise-proof
  2x floor).

Exit 0 on success, 1 with a diagnostic on any violation.  CI uploads
the produced directory (store + report + summary.json) as a workflow
artifact alongside the telemetry smoke.

Usage:
    PYTHONPATH=src python scripts/stats_service_smoke.py [--out DIR]
        [--steps N] [--every N] [--budget FRAC]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core import ChannelConfig, ChannelDNS  # noqa: E402
from repro.core.statistics import plane_covariance  # noqa: E402
from repro.serving import StatisticsService, StatsStore  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/stats-smoke",
                    help="artifact directory (default: runs/stats-smoke)")
    ap.add_argument("--steps", type=int, default=40,
                    help="DNS steps to run (default: 40)")
    ap.add_argument("--every", type=int, default=2,
                    help="sampling cadence in steps (default: 2)")
    ap.add_argument("--budget", type=float, default=0.01,
                    help="max sampling overhead fraction of run wall time (default: 0.01)")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    report: list[str] = []

    # ---- streamed run (batch statistics sampled on the same cadence) ----
    cfg = ChannelConfig(nx=32, ny=33, nz=32, dt=2e-4, seed=7, init_amplitude=0.5)
    dns = ChannelDNS(cfg)
    dns.initialize()
    stream = dns.attach_streaming(every=args.every)
    batch = {name: np.zeros(cfg.ny) for name in stream.PROFILES}

    def batch_sample(d) -> None:
        if d.step_count % args.every:
            return
        g, ops, s = d.grid, d.stepper.ops, d.state
        u, v, w = ops.values(s.u), ops.values(s.v), ops.values(s.w)
        batch["U"] += u[0, 0].real
        for name, (f, h) in {"uu": (u, u), "vv": (v, v), "ww": (w, w), "uv": (u, v)}.items():
            batch[name] += plane_covariance(g, f, h)

    t0 = time.perf_counter()
    dns.run(args.steps, callback=batch_sample)
    wall = time.perf_counter() - t0
    result = stream.result()

    expected = args.steps // args.every
    if result["nsamples"] != expected:
        failures.append(f"nsamples {result['nsamples']} != expected {expected}")

    # ---- identity: streamed vs batch over identical sampled states ----
    for name in ("uu", "vv", "ww", "uv"):
        if not np.array_equal(result[name], batch[name] / expected):
            failures.append(f"streamed {name} differs from batch profile (bit-compare)")
    du = np.max(np.abs(result["U"] - batch["U"] / expected))
    if du > 1e-12:
        failures.append(f"streamed U off by {du:.3e} (> 1e-12)")
    report.append(f"identity: covariances bit-exact, max |dU| = {du:.3e}")

    # ---- overhead budget ----
    frac = stream.counters.sample_seconds / wall
    report.append(
        f"overhead: {stream.counters.sample_seconds * 1e3:.1f} ms sampling over "
        f"{wall:.2f} s run = {frac * 100:.3f}% (budget {args.budget * 100:.0f}%, "
        f"every={args.every})"
    )
    if frac > args.budget:
        failures.append(f"sampling overhead {frac:.4f} exceeds budget {args.budget}")

    # ---- publish + query ----
    store = StatsStore(out / "store")
    path = store.publish(result, cfg, step_count=dns.step_count,
                         sim_time=float(dns.state.time))
    report.append(f"published: {path.relative_to(out)}")

    service = StatisticsService(store)
    y_sweep = tuple(float(y) for y in np.geomspace(1.0, 100.0, 8))

    def mix() -> int:
        service.law_of_wall(cfg.re_tau, y_sweep)
        for comp in ("u", "v", "w", "uv"):
            service.variance(cfg.re_tau, comp, y_sweep)
        service.spectrum(cfg.re_tau, "x", "u", 15.0)
        service.spectrum(cfg.re_tau, "z", "u", 15.0)
        return 7

    def qps(batches: int, cold: bool) -> float:
        n = 0
        t = time.perf_counter()
        for _ in range(batches):
            if cold:
                service.clear_caches()
            n += mix()
        return n / (time.perf_counter() - t)

    law = service.law_of_wall(cfg.re_tau, y_sweep)
    if law["re_tau_sources"] != [cfg.re_tau]:
        failures.append(f"query answered from {law['re_tau_sources']}, not {cfg.re_tau}")
    if not all(np.isfinite(law["u_plus"])):
        failures.append("non-finite U+ in the law-of-wall response")

    cold_qps = qps(40, cold=True)
    service.clear_caches()
    mix()  # prime
    warm_qps = qps(40, cold=False)
    speedup = warm_qps / cold_qps
    info = service.cache_info()["responses"]
    report.append(
        f"serving: cold {cold_qps:,.0f} q/s, warm {warm_qps:,.0f} q/s "
        f"({speedup:.1f}x; cache {info['hits']} hits / {info['misses']} misses)"
    )
    if speedup < 2.0:
        failures.append(f"warm cache only {speedup:.2f}x over cold (smoke floor 2x)")

    # ---- artifacts ----
    (out / "report.txt").write_text("\n".join(report) + "\n")
    (out / "summary.json").write_text(json.dumps({
        "steps": args.steps,
        "every": args.every,
        "nsamples": result["nsamples"],
        "u_tau": result["u_tau"],
        "max_dU": float(du),
        "overhead_frac": frac,
        "cold_qps": cold_qps,
        "warm_qps": warm_qps,
        "speedup": speedup,
        "failures": failures,
    }, indent=2) + "\n")

    for line in report:
        print(line)
    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: streaming statistics service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
