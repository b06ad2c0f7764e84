#!/usr/bin/env python3
"""End-to-end benchmark of the repro package: one command, six workloads.

Two ways to call it, both from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement of one workload.  ``--trace 0`` reports the
    end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line
    of standard output is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

``python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--out FILE]``
    The suite: every workload (or the one named) measured three times
    untraced and once traced, printed as a table and, with
    ``--out``, written as a result file that ``compare.py`` reads, with
    a Chrome trace beside it.

Each measurement runs in fresh child processes (``workloads.py``) with
the numeric libraries pinned to one thread and the tuning environment
cleared; everything they write lands under ``benchmarks/e2e/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

RUN_SECONDS = 8  # BENCHMARK.json run_seconds
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLEARED = ("REPRO_WISDOM", "REPRO_TRANSPOSE_METHOD", "REPRO_SIMMPI_TIMEOUT")
UNTRACED_REPS = 3  # suite: untraced measurements per workload
SETUP_REPS = 3  # children that set up; setup_s is their median
CHILD_TIMEOUT_S = 150
WORK = HERE / ".work"


def child(workdir: str, workload: str, seed: int, seconds: float, trace: int, extra=()) -> dict:
    """Run one ``workloads.py`` child to its end and return its result."""
    env = dict(os.environ, TMPDIR=workdir, **{name: "1" for name in PINNED})
    for name in CLEARED:
        env.pop(name, None)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir, *extra,
    ]
    # run() kills the child and waits for it when the timeout passes
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload}: child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, extra=()) -> dict:
    """One measurement: a full child, plus set-up-only children when the
    end-to-end metrics are wanted (``setup_s`` is the median over all)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        result = child(workdir, workload, seed, seconds, trace, extra)
        if not trace:
            setups = [result["setup_s"]]
            for _ in range(SETUP_REPS - 1):
                setups.append(child(workdir, workload, seed, seconds, 0, ["--setup-only"])["setup_s"])
            result["setup_s_samples"] = setups
            result["setup_s"] = statistics.median(setups)
    return result


def contract_object(result: dict, trace: int) -> dict:
    if trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": row[0]}
            for name, row in layers.PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": result[name], "unit": row[0]} for name, row in layers.END_TO_END.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_measurement(result: dict, trace: int) -> None:
    name = result["workload"]
    print(f"# {name}  seed={result['seed']}  {result['env']}")
    for check in result["checks"]:
        print(f"#   check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}  {check['detail']}")
    print(f"#   reference: {result['reference'].get('compared')}")
    if trace:
        for metric, value in result["per_layer"].items():
            unit = layers.PER_LAYER[metric][0]
            print(f"{name:24s} {metric:30s} {value if value is None else format(value, '.6g'):>14} {unit}")
        print(f"#   per operation over {result['traced_samples']} traced samples")
    else:
        for metric, (unit, _, _) in layers.END_TO_END.items():
            n = len(result["setup_s_samples"]) if metric == "setup_s" else result["samples"]
            print(f"{name:24s} {metric:30s} {result[metric]:>14.6g} {unit}  (n={n})")


def environment(seed: int, seconds: float, sample: dict) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {name: 1 for name in PINNED},
        "cpu_affinity": sample["affinity"],
        "rank_threads_max": 4,
        "versions": sample["versions"],
        "git_rev": rev,
        "seed": seed,
        "untraced_repetitions": UNTRACED_REPS,
        "traced_repetitions": 1,
        "setup_repetitions": SETUP_REPS,
        "seconds": seconds,
    }


def suite(args, extra: list[str]) -> int:
    names = [args.workload] if args.workload else list(layers.WORKLOADS)
    trace_events: list[dict] = []
    doc: dict = {"schema": "repro-e2e/1", "workloads": {}}
    failed = 0
    for pid, name in enumerate(names):
        runs = [measure(name, args.seed, args.seconds, 0, extra) for _ in range(UNTRACED_REPS)]
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            trace_file = pathlib.Path(tmp) / "trace.json"
            traced = measure(name, args.seed, args.seconds, 1, [*extra, "--trace-out", str(trace_file)])
            events = json.loads(trace_file.read_text())["traceEvents"]
        trace_events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}})
        trace_events += [dict(e, pid=pid) for e in events]
        for result in runs:
            print_measurement(result, 0)
        print_measurement(traced, 1)
        failed += sum(r["failed"] for r in runs) + traced["failed"]
        doc.setdefault("env", environment(args.seed, args.seconds, traced))
        doc["workloads"][name] = {
            "why": layers.WORKLOADS[name],
            "env": traced["env"],
            "end_to_end": {
                metric: {
                    "unit": unit,
                    "values": [r[metric] for r in runs],
                    "median": statistics.median(r[metric] for r in runs),
                    "samples_per_value": [
                        len(r["setup_s_samples"]) if metric == "setup_s" else r["samples"] for r in runs
                    ],
                }
                for metric, (unit, _, _) in layers.END_TO_END.items()
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": {
                metric: {"unit": layers.PER_LAYER[metric][0], "value": value}
                for metric, value in traced["per_layer"].items()
            },
            "traced_samples": traced["traced_samples"],
            "unresolved_layers": traced["unresolved_layers"],
            "checks": runs[-1]["checks"],
            "reference": runs[-1]["reference"],
        }
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        out.with_suffix(".trace.json").write_text(json.dumps({"traceEvents": trace_events}, separators=(",", ":")))
        print(f"# wrote {out} and {out.with_suffix('.trace.json')}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(layers.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="given: one measurement, JSON on the last line")
    parser.add_argument("--out", help="suite: result file (a .trace.json lands beside it)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        help="stretch every operation by this factor (self-test of compare.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the package under test is not in this checkout", file=sys.stderr)
        return 2
    extra = ["--inject-slowdown", str(args.inject_slowdown)] if args.inject_slowdown != 1.0 else []
    if args.trace is None:
        return suite(args, extra)
    if not args.workload:
        parser.error("--trace needs --workload")
    result = measure(args.workload, args.seed, args.seconds, args.trace, extra)
    print_measurement(result, args.trace)
    line = contract_object(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
