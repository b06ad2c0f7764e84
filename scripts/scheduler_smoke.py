#!/usr/bin/env python
"""Scheduler smoke: run a small multi-job scenario, validate every
manager artefact, and optionally sweep a short scheduler chaos soak.

Runs two concurrent jobs (one of them losing a rank to an injected
fault) on a shared 5-rank pool through the
:class:`~repro.core.jobs.JobManager`, then checks the acceptance
criteria of the multi-job scheduler end to end:

* the manager-level ``events.jsonl`` parses, every record validates
  against schema v4, and every event carries its ``job`` tag;
* the lifecycle kinds are all present (``submitted`` / ``placed`` /
  ``completed``) plus the fault path (``quarantine`` / ``probe``);
* ``manifest.json`` carries the pool census and the submitted-job table;
* each placement of each job left its own nested supervised-run stream
  under ``job-<name>/placement-NN/``;
* both jobs finish healthy and land bit-for-bit on their own serial
  oracle trajectories (the fault-isolation contract).

With ``--seeds N`` it additionally runs an N-seed
:func:`~repro.chaos.run_scheduler_soak` sweep (2-3 concurrent jobs per
seed, randomized faults, preemptors, probed and sticky quarantines)
under a wall-clock guard and requires zero hangs and zero isolation
breaks.  CI uploads the produced directory, so every run leaves the
manager event streams behind as an inspectable artifact.

Usage:
    PYTHONPATH=src python scripts/scheduler_smoke.py [--out DIR]
        [--seeds N] [--timeout SECONDS]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.chaos import alltoalls_per_step  # noqa: E402
from repro.core import ChannelConfig, ChannelDNS  # noqa: E402
from repro.core.jobs import JobManager, JobSpec  # noqa: E402
from repro.mpi.pool import RankPool  # noqa: E402
from repro.mpi.simmpi import FaultEvent, FaultPlan  # noqa: E402
from repro.telemetry import read_manifest, read_stream  # noqa: E402

CFG_A = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)


def _serial(config, n_steps):
    dns = ChannelDNS(config)
    dns.initialize()
    dns.run(n_steps)
    return dns.state


def _bit_exact(full, ref) -> bool:
    return (
        all(
            np.array_equal(a, b)
            for a, b in (
                (full.v, ref.v),
                (full.omega_y, ref.omega_y),
                (full.u00, ref.u00),
                (full.w00, ref.w00),
            )
        )
        and full.time == ref.time
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/scheduler-smoke",
                    help="manager telemetry directory (default: runs/scheduler-smoke)")
    ap.add_argument("--seeds", type=int, default=0,
                    help="extra scheduler-soak seeds to sweep (default: 0)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="zero-hang wall-clock guard in seconds (default: 300)")
    args = ap.parse_args(argv)

    import dataclasses

    out = pathlib.Path(args.out)
    cfg_b = dataclasses.replace(CFG_A, seed=21)
    pool = RankPool(5)
    mgr = JobManager(pool, directory=out / "manager", prober=lambda _r: True)
    # pool rank 1 dies past three steps' worth of alltoalls (alpha runs 2x2)
    kill_call = 3 * alltoalls_per_step(CFG_A, 2, 2) + 6
    plan = FaultPlan([FaultEvent(action="kill", rank=1, op="alltoall", call=kill_call)])
    mgr.submit(JobSpec("alpha", CFG_A, n_steps=10, ranks=4, min_ranks=2,
                       checkpoint_every=5, fault_plans=[plan]))
    mgr.submit(JobSpec("beta", cfg_b, n_steps=6, ranks=2, min_ranks=2,
                       checkpoint_every=3))
    records = mgr.run(timeout=args.timeout)

    failures: list[str] = []
    if mgr.timed_out:
        failures.append(f"manager hit the {args.timeout}s zero-hang guard")
    if not plan.triggered:
        failures.append("the planned rank kill never fired")

    # -- manager stream: schema v4, job tags, lifecycle + fault kinds ----
    stream = out / "manager" / "events.jsonl"
    stream_records = list(read_stream(stream))  # parses AND validates
    events = [r for r in stream_records if r["type"] == "event"]
    untagged = [e for e in events if e.get("job") not in ("alpha", "beta")]
    if untagged:
        failures.append(f"{len(untagged)} manager events carry no valid job tag")
    kinds = {e["kind"] for e in events}
    for kind in ("submitted", "placed", "completed", "quarantine", "probe"):
        if kind not in kinds:
            failures.append(f"manager stream is missing a {kind!r} event")

    # -- manifest: pool census + job table -------------------------------
    manifest = read_manifest(out / "manager")
    pool_block = manifest.get("pool") or {}
    if pool_block.get("size") != 5:
        failures.append("manifest pool census does not record the pool size")
    if set(pool_block.get("jobs", {})) != {"alpha", "beta"}:
        failures.append("manifest pool block does not list the submitted jobs")

    # -- per-job streams nest under the manager directory ----------------
    for name, rec in records.items():
        for placement in range(rec.placements):
            pdir = out / "manager" / f"job-{name}" / f"placement-{placement:02d}"
            pstream = pdir / "events.jsonl"
            if not pstream.exists():
                failures.append(f"missing per-job stream {pstream}")
                continue
            list(read_stream(pstream))  # validates the nested stream too

    # -- outcomes + the bit-for-bit isolation contract -------------------
    for name, cfg, steps in (("alpha", CFG_A, 10), ("beta", cfg_b, 6)):
        rec = records[name]
        if rec.state != "completed":
            failures.append(f"job {name} ended {rec.state}: {rec.error}")
            continue
        if not _bit_exact(rec.result, _serial(cfg, steps)):
            failures.append(f"job {name} diverged from its serial oracle")
    if records["alpha"].outcome != "grown":
        failures.append(
            f"alpha should shrink then grow back (got {records['alpha'].outcome!r})"
        )

    for name, rec in sorted(records.items()):
        print(f"job {name:<6} {rec.state:<9} outcome={rec.outcome} "
              f"placements={rec.placements} shrinks={rec.counters.shrinks} "
              f"grows={rec.counters.grows} retries={rec.retries}")
    print(f"manager stream: {len(events)} tagged events, kinds={sorted(kinds)}")

    # -- optional short soak sweep ---------------------------------------
    if args.seeds > 0:
        from repro.chaos import run_scheduler_soak, scheduler_soak_summary

        results = run_scheduler_soak(
            range(args.seeds), out / "soak", timeout=args.timeout, verbose=True
        )
        summary = scheduler_soak_summary(results)
        print(f"soak summary: {summary}")
        if summary["hangs"]:
            failures.append(f"{summary['hangs']} soak scenario(s) hung")
        if summary["isolation_breaks"]:
            failures.append(
                f"{summary['isolation_breaks']} soak scenario(s) broke isolation"
            )
        if not summary["all_ok"]:
            bad = [(r.seed, r.outcomes, r.detail) for r in results if not r.ok]
            failures.append(f"unhealthy soak outcomes: {bad}")

    print()
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: scheduler events + manifest + nested streams valid, "
          f"jobs bit-exact on their oracles -> {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
