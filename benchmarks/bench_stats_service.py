"""Statistics-service load benchmark — queries/sec, cold store vs warm cache.

The serving read path (:mod:`repro.serving`) answers law-of-wall,
variance and spectrum queries from the versioned results store.  This
bench measures its throughput in the two regimes an operator cares
about:

* **cold** — every query hits the disk store (checksummed npz load +
  wall-unit reduction + interpolation); measured by clearing the service
  caches before each query;
* **warm** — every query is an LRU response-cache hit (the steady state
  of a high-QPS deployment where the hot query set fits the cache).

The store content is synthetic (law-of-wall reference curves across
four Re_tau, :mod:`repro.serving.synthetic`) so the bench runs in
milliseconds; the code path — load, verify, interpolate, cache — is
exactly production's.  Regressions of the read path are gated by the
``stats_serving`` workload of ``benchmarks/e2e``; this bench asserts the
``>= 10x`` warm/cold throughput floor from the PR-10 acceptance
criteria.

Run as a script (``python benchmarks/bench_stats_service.py [--report]``)
or under pytest (``pytest benchmarks/bench_stats_service.py``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.serving import StatisticsService
from repro.serving.synthetic import populate_store

sys.path.insert(0, str(Path(__file__).parent))
from conftest import emit, fmt_row  # noqa: E402

RE_TAUS = (180.0, 550.0, 1000.0, 2000.0)
#: acceptance floor: warm-cache throughput over cold-store throughput
SPEEDUP_FLOOR = 10.0


def _query_mix(service: StatisticsService) -> int:
    """One batch of 32 mixed queries (the reference mix); returns
    the query count."""
    y_sweep = tuple(float(y) for y in np.geomspace(1.0, 150.0, 16))
    n = 0
    for re_tau in (180.0, 350.0, 550.0, 1500.0):
        service.law_of_wall(re_tau, y_sweep)
        for comp in ("u", "v", "w", "uv"):
            service.variance(re_tau, comp, y_sweep)
        service.spectrum(re_tau, "x", "u", 15.0)
        service.spectrum(re_tau, "z", "u", 15.0)
        service.spectrum(re_tau, "x", "w", 100.0)
        n += 8
    return n


def _qps(run_batch, *, min_time: float = 0.3) -> float:
    """Queries/sec of ``run_batch`` (returns its query count), autoranged."""
    total_q = 0
    t0 = time.perf_counter()
    while True:
        total_q += run_batch()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            return total_q / elapsed


def measure_serving(store_root) -> dict:
    """Cold vs warm queries/sec against a populated store."""
    store = populate_store(store_root, RE_TAUS)
    service = StatisticsService(store, cache_size=256)

    def cold_batch() -> int:
        service.clear_caches()  # every query pays the disk store
        return _query_mix(service)

    cold_qps = _qps(cold_batch)
    cold_info = service.cache_info()

    service.clear_caches()
    _query_mix(service)  # prime: the next batches are pure cache hits
    warm_qps = _qps(lambda: _query_mix(service))
    warm_info = service.cache_info()

    return {
        "cold_qps": cold_qps,
        "warm_qps": warm_qps,
        "speedup": warm_qps / cold_qps,
        "cold_cache": cold_info,
        "warm_cache": warm_info,
    }


def _report(res: dict) -> str:
    widths = (28, 14)
    lines = [
        "Statistics service throughput — 32-query mix (law-of-wall,",
        f"variances, spectra) across Re_tau {RE_TAUS}",
        "",
        fmt_row(("regime", "queries/sec"), widths),
        fmt_row(("cold (store reads)", f"{res['cold_qps']:,.0f}"), widths),
        fmt_row(("warm (response cache)", f"{res['warm_qps']:,.0f}"), widths),
        "",
        f"warm/cold speedup: {res['speedup']:.1f}x (floor: {SPEEDUP_FLOOR:.0f}x)",
        f"warm cache: {res['warm_cache']['responses']['hits']} hits / "
        f"{res['warm_cache']['responses']['misses']} misses "
        f"({res['warm_cache']['responses']['size']} resident responses)",
    ]
    return "\n".join(lines)


def test_stats_service_throughput(tmp_path, benchmark):
    """Pytest entry: warm-path timing via pytest-benchmark + the floor."""
    store = populate_store(tmp_path / "store", RE_TAUS)
    service = StatisticsService(store, cache_size=256)
    _query_mix(service)  # warm
    benchmark(lambda: _query_mix(service))
    res = measure_serving(tmp_path / "store2")
    emit("stats_service", _report(res))
    assert res["speedup"] >= SPEEDUP_FLOOR, (
        f"warm cache only {res['speedup']:.1f}x over cold store "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the table and exit 0 even below the speedup floor",
    )
    args = parser.parse_args(argv)
    root = Path(tempfile.mkdtemp(prefix="stats-bench-"))
    try:
        res = measure_serving(root / "store")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    emit("stats_service", _report(res))
    if res["speedup"] < SPEEDUP_FLOOR and not args.report:
        print(f"FAIL: speedup {res['speedup']:.1f}x below the {SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
