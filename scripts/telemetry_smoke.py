#!/usr/bin/env python
"""Telemetry smoke: record a small DNS run, validate every artefact,
assert the recorder overhead budget.

Runs a 32^3 serial DNS with ``telemetry=`` attached, then checks the
acceptance criteria of the observability layer end to end:

* the JSON-lines stream parses and every record validates against
  ``repro.telemetry.schema``;
* a short 2x2 SimMPI run (16x17x16) writes four rank streams that
  validate too, so the ``mpi``/``overlap``/``precision`` counter groups
  are checked beside serial's ``transforms``/``solve``;
* the manifest and the Chrome trace exist and are well-formed;
* the self-measured recorder overhead of the serial run stays under the
  1% budget (``--budget`` to override; the 32^3 step is heavy enough
  that the budget holds with margin — on the 16^3 toy grid it would not).

Exit 0 on success, 1 with a diagnostic on any violation.  CI uploads the
produced directory as a workflow artifact, so every run leaves behind an
openable trace and a stream ``python -m repro.telemetry.report`` accepts.

Usage:
    PYTHONPATH=src python scripts/telemetry_smoke.py [--out DIR]
        [--steps N] [--budget FRAC]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core import ChannelConfig, ChannelDNS  # noqa: E402
from repro.mpi.simmpi import run_spmd  # noqa: E402
from repro.pencil.distributed import DistributedChannelDNS  # noqa: E402
from repro.telemetry import read_manifest, read_stream  # noqa: E402
from repro.telemetry.report import breakdown, format_breakdown  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/telemetry-smoke",
                    help="telemetry output directory (default: runs/telemetry-smoke)")
    ap.add_argument("--steps", type=int, default=60,
                    help="DNS steps to run (default: 60)")
    ap.add_argument("--budget", type=float, default=0.01,
                    help="max allowed recorder overhead fraction (default: 0.01)")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    cfg = ChannelConfig(nx=32, ny=33, nz=32, dt=2e-4, seed=7, init_amplitude=0.5)
    dns = ChannelDNS(cfg, telemetry=out)
    dns.initialize()
    dns.run(args.steps)
    dns.finalize_telemetry()

    failures: list[str] = []

    stream = out / "telemetry.jsonl"
    records = list(read_stream(stream))  # parses AND validates every line
    steps = [r for r in records if r["type"] == "step"]
    summaries = [r for r in records if r["type"] == "summary"]
    if len(steps) != args.steps:
        failures.append(f"expected {args.steps} step records, got {len(steps)}")
    if len(summaries) != 1 or records[-1]["type"] != "summary":
        failures.append("stream does not end with exactly one summary record")

    manifest = read_manifest(out)
    if manifest["config"].get("nx") != cfg.nx:
        failures.append("manifest config does not match the run configuration")

    trace = out / "trace.json"
    doc = json.loads(trace.read_text())
    if not doc.get("traceEvents"):
        failures.append("trace.json has no events")

    # the pencil layout's counter groups, on a small 2x2 SimMPI run
    spmd_out, spmd_steps = out / "spmd", 3
    spmd_cfg = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=7, init_amplitude=0.5)

    def program(comm):
        d = DistributedChannelDNS(comm, spmd_cfg, pa=2, pb=2, telemetry=spmd_out)
        d.initialize()
        d.run(spmd_steps)
        d.finalize_telemetry()

    run_spmd(4, program)
    for rank in range(4):
        rank_stream = spmd_out / f"telemetry-rank{rank:03d}.jsonl"
        rank_steps = [r for r in read_stream(rank_stream) if r["type"] == "step"]
        if len(rank_steps) != spmd_steps:
            failures.append(f"{rank_stream}: expected {spmd_steps} step records, got {len(rank_steps)}")
        elif not {"mpi", "overlap", "precision"} <= set(rank_steps[0]):
            failures.append(f"{rank_stream}: step records lack the pencil counter groups")

    overhead = summaries[0]["overhead_frac"] if summaries else None
    if overhead is None:
        failures.append("summary carries no overhead_frac")
    elif overhead >= args.budget:
        failures.append(
            f"recorder overhead {overhead:.2%} exceeds the "
            f"{args.budget:.0%} budget"
        )

    print(format_breakdown(breakdown(stream), title=f"section breakdown ({stream})"))
    print()
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: {len(records)} records, manifest + trace valid, 4 rank streams valid, "
          f"recorder overhead {overhead:.2%} < {args.budget:.0%} budget -> {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
