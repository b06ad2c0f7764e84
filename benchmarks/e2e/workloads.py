"""Child process of the end-to-end benchmark: one workload, measured once.

``run.py`` starts this file in a fresh interpreter with the numeric
libraries pinned to one thread.  The child pins itself to one CPU, sets
the workload up, measures it for ``--seconds``, checks its outputs and
prints one JSON object as its last line.  With ``--trace 1`` it first
installs the span wrappers of ``layers.py`` and spends the last two
thirds of the run recording.

Every workload is a closed loop with one driver: the next operation
starts when the previous one returned.
"""

import time

T_ENTRY = time.perf_counter()  # set-up time counts from the child's first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import layers  # noqa: E402
from layers import ASIDE  # noqa: E402

DT = 2e-4
AMPLITUDE = 0.5
WARMUP_STEPS = 2
MIN_STEPS = 20  # timed steps of a DNS workload, whatever --seconds says
PROBE_STEP = 12  # step count at which the state is compared with the references
DIVERGENCE_TOL = 1e-12
REFERENCE_RTOL = 1e-8

# supervised4_fault: one job
JOB_STEPS = 40
CHECKPOINT_EVERY = 5
FAULT_AFTER_SNAPSHOT = 20  # the kill lands expected.json's steps_recomputed steps after this snapshot
STREAMING_EVERY = 2

# stats_serving: one pass over the trace
RE_TAUS = (180.0, 395.0, 550.0, 1000.0, 2000.0, 3000.0, 4200.0, 5200.0)
TRACE_QUERIES = 30_000
PUBLISH_EVERY = 5_000
DISTINCT_KEYS = 1_000
RESPONSE_CACHE = 256
DATASET_CACHE = 4
ANSWER_TOL = 1e-12

TRACE_FILE_SPANS = 150  # set-up spans, and measured spans, per thread in a --trace-out file


def pin_to_one_cpu() -> str:
    """Pin this process (and its rank-threads) to one CPU.

    SimMPI ranks are threads that share the interpreter lock; spread
    over two cores their hand-offs made the 4-rank step time wander
    between 130 and 190 ms from one process to the next, against
    90-96 ms on one core.  Pinning trades the little parallelism they
    had for a step time that repeats.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return f"cpu{cpu}"
    except (AttributeError, OSError):
        return "unpinned"


def versions() -> dict:
    import scipy

    out = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    return out


class Run:
    """What one child knows and collects: arguments, recorder, set-up
    phases, checks and the result."""

    def __init__(self, args) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.trace: bool = bool(args.trace)
        self.setup_only: bool = args.setup_only
        self.min_ops: int | None = args.min_ops
        self.slowdown: float = args.inject_slowdown
        self.workdir = pathlib.Path(args.workdir)
        self.rec = layers.SpanRecorder()
        self.phases: dict[str, float] = {}
        self.checks: list[dict] = []
        self.reference: dict = {}
        self.result: dict = {}
        self.expected = json.loads((HERE / "expected.json").read_text())

    @contextlib.contextmanager
    def setup(self, name: str, record: bool = True):
        """Time one set-up phase (``record=False`` on ranks other than 0)."""
        t0 = time.perf_counter()
        yield
        if record:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def setup_done(self) -> bool:
        """Mark the first timed operation; True when the child stops here."""
        self.result["setup_s"] = time.perf_counter() - T_ENTRY
        self.rec.on = False
        return self.setup_only

    def slow(self, seconds: float) -> None:
        """Detector self-test: stretch an operation by ``--inject-slowdown``."""
        if self.slowdown > 1.0:
            time.sleep(seconds * (self.slowdown - 1.0))

    def mark_rss(self) -> None:
        """Peak resident set so far.  The first call wins, and the workloads
        make it after a fixed amount of work (MIN_STEPS steps, one job, one
        pass): a run that gets through more operations in its ``--seconds``
        must not read as one that needs more memory."""
        self.result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_reference(self, values: dict[str, float]) -> None:
        """Compare probe values with ``expected.json`` (seeds 0 and 1 only)."""
        self.reference = values
        expected = self.expected["reference"].get(self.workload, {}).get(str(self.seed))
        if not values or expected is None:
            self.reference["compared"] = "none"
            return
        self.reference["compared"] = "expected.json"
        for key, want in expected.items():
            got = values[key]
            self.check(
                f"{key} matches expected.json",
                abs(got - want) <= REFERENCE_RTOL * abs(want),
                f"got {got!r}, expected {want!r}",
            )

    def finish(self, op_seconds, n_ops: int, wall: float) -> None:
        """End-to-end metrics from the untraced operations, as the wall clock read them."""
        self.result.update(
            op_ms_p50=statistics.median(op_seconds) * 1e3,
            throughput_ops_s=n_ops / wall,
            ops=n_ops,
            samples=len(op_seconds),
        )


class Pace:
    """Rank 0 reads the clock and decides when tracing starts and when the
    loop ends; it publishes each as a step index two ahead.  Peer
    rank-threads read the same object: every step has collectives, so no
    peer finishes step ``i + 1`` before rank 0 has finished step ``i``."""

    def __init__(self, run: Run, min_ops: int) -> None:
        self.seconds = run.seconds
        self.traced = run.trace
        self.min_ops = run.min_ops or min_ops
        self.trace_from: int | None = None
        self.stop_at: int | None = None

    def tick(self, i: int, elapsed: float) -> None:
        if self.traced and self.trace_from is None and elapsed >= self.seconds / 3:
            # not before the probe: its gather would count as a traced step's traffic
            self.trace_from = max(i + 2, PROBE_STEP - WARMUP_STEPS)
        if self.stop_at is None and elapsed >= self.seconds and (not self.traced or self.trace_from):
            self.stop_at = max(i + 2, self.min_ops, (self.trace_from or 0) + 2)


def read_at_rest(run: Run, comm, read):
    """``read()`` on every rank between two barriers (which count no
    message): the communicators' counters are shared by the rank-threads
    and unlocked, so they are read while no rank is inside a step."""
    run.rec.set_step(ASIDE)
    if comm is None:
        return read()
    comm.barrier()
    out = read()
    comm.barrier()
    return out


def step_loop(run: Run, pace: Pace, dns, comm, probe, counters) -> dict:
    """Timed closed loop over ``dns.step()`` (``comm`` is None when serial).

    Returns the untraced and traced step durations and the exact
    counters read before the first traced step and after the last.
    ``probe`` runs once, when the step count reaches PROBE_STEP.
    """
    rec = run.rec
    rank = 0 if comm is None else comm.rank
    out = {"untraced": [], "traced": [], "first": None}
    i = 0
    t_begin = time.perf_counter()
    while pace.stop_at is None or i < pace.stop_at:
        tracing = pace.trace_from is not None and i >= pace.trace_from
        if tracing and out["first"] is None:
            out["first"] = read_at_rest(run, comm, counters)
            rec.on = True
        rec.set_step(i)
        t0 = time.perf_counter()
        dns.step()
        run.slow(time.perf_counter() - t0)
        dt = time.perf_counter() - t0
        out["traced" if tracing else "untraced"].append(dt)
        if rank == 0:
            pace.tick(i, time.perf_counter() - t_begin)
        i += 1
        if rank == 0 and i == MIN_STEPS:
            run.mark_rss()
        if i + WARMUP_STEPS == PROBE_STEP:
            rec.set_step(ASIDE)
            probe()
    out["last"] = read_at_rest(run, comm, counters)
    return out


def state_checks(run: Run, finite: bool, divergence: float) -> None:
    run.check("state finite", finite)
    run.check(f"divergence < {DIVERGENCE_TOL:g}", divergence < DIVERGENCE_TOL, f"{divergence:.3e}")


def step_tails(out: dict, seconds) -> None:
    ordered = sorted(seconds)
    out["core.step_ms_p90"] = ordered[int(0.9 * (len(ordered) - 1))] * 1e3
    out["core.step_ms_max"] = ordered[-1] * 1e3


def publish_layers(run: Run, out: dict, measured: dict, first: int, busy_s: float, untraced, traced) -> None:
    """Finish the per-layer metrics the same way for every workload.

    ``measured`` is ``rec.totals(first)``; ``busy_s`` the time rank 0
    spent in the traced operations; ``untraced`` and ``traced`` are the
    operation durations of the two parts of the run.
    """
    out["trace.unattributed_frac"] = layers.unattributed(measured.get(0, {}), busy_s)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for phase in ("import", "init", "warmup"):
        out[f"setup.{phase}_s"] = run.phases.get(phase, 0.0)
    run.result.update(per_layer=out, traced_samples=len(traced), first_traced=first)


def fft_work(run: Run, out: dict, measured: dict, n_ops: int) -> None:
    """Fields transformed and bytes in and out, from the work riding on the fft spans."""
    totals = measured.get(0, {})
    works = [w for name in ("fft.to_physical", "fft.from_physical") if name in totals for w in totals[name][3]]
    if "fft.to_physical" not in run.rec.unresolved:
        out["fft.fields"] = sum(w[0] for w in works) / n_ops
        out["fft.computed_mb"] = sum(w[1] for w in works) / n_ops / 1e6


# ----------------------------------------------------------------------
# serial_wide, serial_tall
# ----------------------------------------------------------------------


def dns_config(run: Run, nx: int, ny: int, nz: int):
    from repro.core import ChannelConfig

    return ChannelConfig(nx=nx, ny=ny, nz=nz, dt=DT, init_amplitude=AMPLITUDE, seed=run.seed)


def serial(run: Run, nx: int, ny: int, nz: int) -> None:
    with run.setup("import"):
        from repro.core import ChannelDNS
    cfg = dns_config(run, nx, ny, nz)
    with run.setup("construct"):
        dns = ChannelDNS(cfg)
    with run.setup("init"):
        dns.initialize()
    with run.setup("warmup"):
        for _ in range(WARMUP_STEPS):
            dns.step()
    if run.setup_done():
        return
    run.result["env"] = {"grid": [nx, ny, nz], "ranks": 1}

    probed: dict = {}

    def probe() -> None:
        probed.update(kinetic_energy=dns.kinetic_energy(), u_tau=dns.wall_shear_velocity())

    def counters() -> dict:
        return {"columns": dns.stepper.solve_counters()["columns"]}

    pace = Pace(run, MIN_STEPS)
    loop = step_loop(run, pace, dns, None, probe, counters)
    run.rec.on = False
    untraced, traced = loop["untraced"], loop["traced"]
    state_checks(run, dns.state_finite(), dns.divergence_norm())
    run.check_reference(probed)
    run.finish(untraced, len(untraced), sum(untraced))
    if run.trace:
        n = len(traced)
        first = pace.trace_from
        measured = run.rec.totals(first)
        out = layers.derive(run.rec, measured, n)
        step_tails(out, traced)
        fft_work(run, out, measured, n)
        out["linalg.solve.columns"] = (loop["last"]["columns"] - loop["first"]["columns"]) / n
        publish_layers(run, out, measured, first, sum(traced), untraced, traced)


# ----------------------------------------------------------------------
# dist4_sync, dist4_pipelined_mixed
# ----------------------------------------------------------------------


def comm_stats(dns) -> dict:
    """(messages, bytes) of each communicator this rank belongs to."""
    t = dns.transforms
    comms = {"world": dns.comm, "cart": dns.cart, "a": t.comm_a, "b": t.comm_b}
    return {
        f"{kind}{c.world_ranks}": (c.stats.messages, c.stats.bytes) for kind, c in comms.items()
    }


def imbalance(per_rank: dict) -> float:
    """Max over median, across the ranks, of self time outside mpi.collective."""
    busy = [
        sum(row[0] for name, row in spans.items() if name not in ("", "mpi.collective"))
        for rank, spans in per_rank.items()
        if rank >= 0
    ]
    return max(busy) / statistics.median(busy)


def relative_error(got, want) -> float:
    """Largest difference over the prognostic arrays, relative to the
    largest reference magnitude of each."""
    worst = 0.0
    for name in ("v", "omega_y", "u00", "w00"):
        a, b = getattr(got, name), getattr(want, name)
        scale = float(np.abs(b).max()) or 1.0
        worst = max(worst, float(np.abs(a - b).max()) / scale)
    return worst


def serial_oracle(cfg, steps: int):
    """Serial run of the same configuration: the oracle for the
    distributed state and the single-thread baseline for its step time
    (median step in ms)."""
    from repro.core import ChannelDNS

    dns = ChannelDNS(cfg)
    dns.initialize()
    times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        dns.step()
        times.append(time.perf_counter() - t0)
    return dns, statistics.median(times[WARMUP_STEPS:]) * 1e3


def dist4(run: Run, method: str, wire: str, tolerance: float) -> None:
    with run.setup("import"):
        from repro.mpi.simmpi import run_spmd
        from repro.pencil.distributed import DistributedChannelDNS
        from repro.pencil.transpose import TransposeMethod
    nx, ny, nz, pa, pb = 32, 33, 32, 2, 2
    cfg = dns_config(run, nx, ny, nz)
    pace = Pace(run, MIN_STEPS)
    rec = run.rec

    def program(comm):
        rank = comm.rank
        rec.set_rank(rank)
        with run.setup("construct", rank == 0):
            dns = DistributedChannelDNS(
                comm, cfg, pa, pb, method=TransposeMethod[method], wire_precision=wire
            )
        with run.setup("init", rank == 0):
            dns.initialize()
        with run.setup("warmup", rank == 0):
            for _ in range(WARMUP_STEPS):
                dns.step()
            comm.barrier()
        if rank == 0:
            run.setup_done()
        comm.barrier()
        if run.setup_only:
            return None
        probed = []

        def counters() -> dict:
            pc = dns.transforms.precision_counters
            return {
                "columns": dns.stepper.solve_counters()["columns"],
                "wire": pc.bytes_wire,
                "full": pc.bytes_full,
                "comms": comm_stats(dns),
            }

        loop = step_loop(run, pace, dns, comm, lambda: probed.append(dns.gather_state()), counters)
        loop.update(probed=probed, finite=dns.state_finite(), divergence=dns.divergence_norm())
        return loop

    results = run_spmd(pa * pb, program)
    rec.on = False
    if run.setup_only:
        return
    run.result["env"] = {
        "grid": [nx, ny, nz], "ranks": pa * pb, "process_grid": [pa, pb],
        "transpose_method": method, "wire_precision": wire,
    }
    loop = results[0]
    untraced, traced = loop["untraced"], loop["traced"]
    state_checks(run, loop["finite"], loop["divergence"])
    run.finish(untraced, len(untraced), sum(untraced))

    values: dict = {}
    serial_ms = None
    if loop["probed"]:
        oracle, serial_ms = serial_oracle(cfg, PROBE_STEP)
        err = relative_error(loop["probed"][0], oracle.state)
        run.check(f"gathered state == serial oracle to {tolerance:g}", err <= tolerance, f"{err:.3e}")
        oracle.state = loop["probed"][0]
        values = {"kinetic_energy": oracle.kinetic_energy(), "u_tau": oracle.wall_shear_velocity()}
    run.check_reference(values)

    if run.trace:
        n = len(traced)
        first = pace.trace_from
        measured = rec.totals(first)
        out = layers.derive(rec, measured, n)
        step_tails(out, traced)
        out["linalg.solve.columns"] = max(r["last"]["columns"] - r["first"]["columns"] for r in results) / n
        wire_b = max(r["last"]["wire"] - r["first"]["wire"] for r in results)
        full_b = max(r["last"]["full"] - r["first"]["full"] for r in results)
        out["pencil.wire_mb"] = wire_b / n / 1e6
        out["pencil.wire_ratio"] = wire_b / full_b
        before, after = {}, {}
        for r in results:
            before.update(r["first"]["comms"])
            after.update(r["last"]["comms"])
        out["mpi.messages"] = sum(after[k][0] - before[k][0] for k in after) / n
        out["mpi.bytes"] = sum(after[k][1] - before[k][1] for k in after) / n
        out["mpi.imbalance"] = imbalance(measured)
        if serial_ms:
            out["dist.serial_ratio"] = run.result["op_ms_p50"] / serial_ms
        publish_layers(run, out, measured, first, sum(traced), untraced, traced)


# ----------------------------------------------------------------------
# supervised4_fault
# ----------------------------------------------------------------------


def alltoalls_per_step(cfg, pa: int, pb: int, method) -> int:
    """Fault-free dry run: the alltoall calls rank 1 makes in one step.

    A FaultEvent names the victim's n-th matching call, so this count
    places the kill at a chosen step without assuming how many
    transposes a step makes.  The dry run doubles as warm-up."""
    from repro.mpi.simmpi import Communicator, run_spmd
    from repro.pencil.distributed import DistributedChannelDNS

    calls = [0]
    original = Communicator.alltoall

    def counting(self, chunks):
        if self.world_ranks[self.rank] == 1:
            calls[0] += 1
        return original(self, chunks)

    def program(comm):
        dns = DistributedChannelDNS(comm, cfg, pa, pb, method=method)
        dns.initialize()
        comm.barrier()
        before = calls[0]
        for _ in range(WARMUP_STEPS):
            dns.step()
        comm.barrier()
        return calls[0] - before

    Communicator.alltoall = counting
    try:
        total = run_spmd(pa * pb, program)[1]
    finally:
        Communicator.alltoall = original
    if total % WARMUP_STEPS:
        raise RuntimeError(f"{total} alltoall calls in {WARMUP_STEPS} steps: not a whole number per step")
    return total // WARMUP_STEPS


def tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def supervised(run: Run) -> None:
    with run.setup("import"):
        from repro.core import ChannelDNS
        from repro.instrument import RecoveryCounters
        from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
        from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
        from repro.pencil.transpose import TransposeMethod
    nx, ny, nz, pa, pb = 32, 33, 32, 2, 2
    method = TransposeMethod.ALLTOALL
    cfg = dns_config(run, nx, ny, nz)
    job_steps = run.min_ops or JOB_STEPS
    snapshot = min(FAULT_AFTER_SNAPSHOT, (job_steps - 1) // CHECKPOINT_EVERY * CHECKPOINT_EVERY)
    past = min(run.expected["supervised4_fault"]["steps_recomputed"], job_steps - snapshot - 1)
    rec = run.rec
    with run.setup("warmup"):
        per_step = alltoalls_per_step(cfg, pa, pb, method)
    kill_call = per_step * (snapshot + past) + random.Random(run.seed).randrange(per_step)
    if run.setup_done():
        return
    run.result["env"] = {
        "grid": [nx, ny, nz], "ranks": pa * pb, "process_grid": [pa, pb],
        "transpose_method": method.name, "wire_precision": "full", "job_steps": job_steps,
        "checkpoint_every": CHECKPOINT_EVERY, "streaming_every": STREAMING_EVERY,
        "kill": {"rank": 1, "op": "alltoall", "call": kill_call},
    }

    jobs = []
    t_begin = time.perf_counter()
    while True:
        k = len(jobs)
        tracing = run.trace and k >= 1  # job 0 is the untraced reference of the same run
        rec.on, rec.base_step = tracing, k
        rec.set_rank(-1)  # this thread supervises; it is no rank
        rec.set_step(k)
        plan = FaultPlan([FaultEvent("kill", 1, "alltoall", kill_call)], seed=run.seed)
        recovery = RecoveryCounters()
        stamps: list[tuple[int, float]] = []  # rank 0: step count, time
        stats: dict[int, object] = {}

        def monitor_factory():
            def monitor(dns) -> None:
                """Called by every rank after every step: rank 0 stamps it."""
                rank = dns.comm.rank
                rec.set_rank(rank)
                if rank == 0:
                    if stamps and dns.step_count == stamps[-1][0] + 1:
                        run.slow(time.perf_counter() - stamps[-1][1])
                    stamps.append((dns.step_count, time.perf_counter()))
                t = dns.transforms
                for c in (dns.comm, dns.cart, t.comm_a, t.comm_b):
                    stats[id(c.stats)] = c.stats

            return monitor

        job_dir = run.workdir / f"job{k}"
        t0 = time.perf_counter()
        final, log = run_supervised_spmd(
            pa * pb, cfg, pa, pb, n_steps=job_steps, checkpoint_dir=job_dir / "checkpoints",
            checkpoint_every=CHECKPOINT_EVERY, streaming_every=STREAMING_EVERY,
            telemetry=str(job_dir / "telemetry"), method=method, fault_plans=[plan],
            counters=recovery, monitor_factory=monitor_factory,
        )
        wall = time.perf_counter() - t0
        rec.on = False
        rec.set_step(ASIDE)
        run.mark_rss()
        jobs.append(
            {"wall": wall, "stamps": stamps, "final": final, "log": log, "plan": plan,
             "recovery": recovery, "stats": list(stats.values()), "dir": job_dir, "traced": tracing}
        )
        if time.perf_counter() - t_begin >= run.seconds and (tracing or not run.trace):
            break

    # -- checks ---------------------------------------------------------
    def program(comm):
        dns = DistributedChannelDNS(comm, cfg, pa, pb, method=method)
        dns.initialize()
        dns.run(job_steps)
        return dns.gather_state(), dns.state_finite(), dns.divergence_norm()

    straight, finite, divergence = run_spmd(pa * pb, program)[0]
    state_checks(run, finite, divergence)
    n_saved = 0
    for k, job in enumerate(jobs):
        final = job["final"]
        same = all(
            np.array_equal(getattr(final, name), getattr(straight, name))
            for name in ("v", "omega_y", "u00", "w00")
        ) and final.time == straight.time
        run.check(f"job {k}: final state bit-identical to the fault-free run", same)
        run.check(f"job {k}: exactly one fault fired", len(job["plan"].triggered) == 1, str(job["plan"].triggered))
        kinds = [e.kind for e in job["log"]]
        run.check(f"job {k}: exactly one restart", kinds == ["restart"], str(kinds))
        steps = [s[0] for s in job["stamps"]]
        job["recomputed"] = sum(1 for i, s in enumerate(steps) if i and s <= max(steps[:i]))
        run.check(f"job {k}: {past} steps recomputed", job["recomputed"] == past, str(job["recomputed"]))
        n_saved += job["recovery"].checkpoints_saved // (pa * pb)
    holder = ChannelDNS(cfg)
    holder.state = jobs[-1]["final"]
    values = {"kinetic_energy": holder.kinetic_energy(), "u_tau": holder.wall_shear_velocity()}
    run.check_reference(values if job_steps == JOB_STEPS else {})

    def step_intervals(group) -> list[float]:
        """From the monitor call after one step to the call after the next:
        the step and whatever the job does around it."""
        return [
            b[1] - a[1] for j in group for a, b in zip(j["stamps"], j["stamps"][1:]) if b[0] == a[0] + 1
        ]

    plain = [j for j in jobs if not j["traced"]]
    intervals = step_intervals(plain)
    run.finish(intervals, job_steps * len(plain), sum(j["wall"] for j in plain))
    # operations beyond the steps: recomputed steps, snapshots written, restores
    run.result["extra_ops"] = sum(j["recomputed"] for j in jobs) + n_saved + len(jobs)

    if run.trace:
        hot = [j for j in jobs if j["traced"]]
        n = job_steps * len(hot)
        per_rank = rec.totals(1)
        out = layers.derive(rec, per_rank, n)
        hot_intervals = step_intervals(hot)
        step_tails(out, hot_intervals)
        for metric, layer in (("checkpoint.count", "checkpoint.save"), ("serving.samples", "serving.sample")):
            if out[metric] is not None:
                out[metric] = max(r[layer][2] for r in per_rank.values() if layer in r) / len(hot)
        last = hot[-1]
        out["checkpoint.bytes"] = tree_bytes(max((last["dir"] / "checkpoints").glob("step-*")))
        out["telemetry.bytes"] = tree_bytes(last["dir"] / "telemetry")
        out["supervisor.restarts"] = sum(e.kind == "restart" for e in last["log"])
        out["supervisor.steps_recomputed"] = last["recomputed"]
        s = last["stamps"]
        fault = next(i for i in range(1, len(s)) if s[i][0] <= s[i - 1][0])
        regained = next(i for i in range(fault, len(s)) if s[i][0] > s[fault - 1][0])
        out["supervisor.recovery_s"] = s[regained][1] - s[fault - 1][1]
        out["mpi.messages"] = sum(st.messages for j in hot for st in j["stats"]) / n
        out["mpi.bytes"] = sum(st.bytes for j in hot for st in j["stats"]) / n
        out["mpi.imbalance"] = imbalance(per_rank)
        publish_layers(run, out, per_rank, 1, sum(j["wall"] for j in hot), intervals, hot_intervals)


# ----------------------------------------------------------------------
# stats_serving
# ----------------------------------------------------------------------


def query_trace(seed: int, n: int = TRACE_QUERIES) -> list[tuple]:
    """The seeded query trace: ``(endpoint, args)`` rows.

    DISTINCT_KEYS distinct keys — four times the response LRU — asked
    with Zipf popularity.  Nine keys in ten ask for a Re_tau whose
    datasets stay resident; every tenth popularity rank brackets a pair
    that the 4-entry dataset LRU has dropped by then, which costs store
    loads.  The seed picks each key's component and y+ and the order of
    arrival; the Re_tau and the endpoint of a popularity rank are fixed
    (a draw that put the two-dataset bracket on a popular rank moved the
    store loads of a pass by 7%), so that every seed carries the same
    mix of work.
    """
    rng = np.random.default_rng(seed)
    resident = (180.0, 300.0, 550.0, 1000.0)  # 300 brackets 180 and 395
    cold = (3500.0, 4200.0, 5200.0)
    keys = []
    for i in range(DISTINCT_KEYS):
        re_tau = cold[i // 10 % 3] if i % 10 == 7 else resident[i % 4]
        sweep = tuple(float(v) for v in np.round(np.geomspace(1.0, 150.0, 16) * (1.0 + 1e-3 * i), 6))
        component = "uvw"[rng.integers(3)]
        if i % 3 == 0:
            keys.append(("law_of_wall", (re_tau, sweep)))
        elif i % 3 == 1:
            keys.append(("variance", (re_tau, component, sweep)))
        else:
            keys.append(("spectrum", (re_tau, "xz"[rng.integers(2)], component, sweep[rng.integers(16)])))
    # how often each key is asked is fixed (its Zipf share of n, rounded
    # down, the remainder going to the most popular); the seed shuffles
    popularity = 1.0 / np.arange(1, DISTINCT_KEYS + 1) ** 1.1
    counts = np.floor(n * popularity / popularity.sum()).astype(int)
    counts[0] += n - counts.sum()
    picks = rng.permutation(np.repeat(np.arange(DISTINCT_KEYS), counts))
    return [keys[i] for i in picks]


def answer_oracle(store, endpoint: str, args: tuple) -> list[float]:
    """The answer computed straight from ``store.load``, past both caches."""
    re_tau = args[0]
    stored = sorted(store.re_taus())
    lo = max((r for r in stored if r <= re_tau), default=stored[0])
    hi = min((r for r in stored if r >= re_tau), default=stored[-1])
    t = 0.0 if lo == hi else (math.log(re_tau) - math.log(lo)) / (math.log(hi) - math.log(lo))
    sources = [(lo, 1.0)] if lo == hi else [(lo, 1.0 - t), (hi, t)]
    if endpoint == "spectrum":
        sources = [(max(sources, key=lambda s: s[1])[0], 1.0)]
    total = 0.0
    for r, weight in sources:
        manifest, arrays = store.load(r)
        u_tau, nu = float(manifest["u_tau"]), float(manifest["nu"])
        half = arrays["y"] <= 0.0
        y_plus = (1.0 + arrays["y"][half]) * u_tau / nu
        if endpoint == "law_of_wall":
            part = np.interp(args[1], y_plus, arrays["U"][half] / u_tau)
        elif endpoint == "variance":
            name = {"u": "uu", "v": "vv", "w": "ww"}[args[1]]
            part = np.interp(args[2], y_plus, arrays[name][half] / u_tau**2)
        else:
            surface = arrays[f"spec_{args[1]}_{args[2]}"][:, half]
            part = np.array([np.interp(args[3], y_plus, row) for row in surface])
        total = total + weight * part
    return list(total)


def stats_serving(run: Run) -> None:
    with run.setup("import"):
        from repro.serving import StatisticsService, populate_store, synthetic_result
    trace = query_trace(run.seed, run.min_ops or TRACE_QUERIES)
    with run.setup("init"):
        store = populate_store(run.workdir / "store", RE_TAUS)
        service = StatisticsService(store, cache_size=RESPONSE_CACHE, dataset_cache_size=DATASET_CACHE)
        republished = [synthetic_result(r) for r in RE_TAUS]
    calls = [(getattr(service, endpoint), args) for endpoint, args in trace]
    with run.setup("warmup"):
        for fn, args in calls[:100]:
            fn(*args)
        service.clear_caches()
    if run.setup_done():
        return
    run.result["env"] = {
        "re_taus": list(RE_TAUS), "trace_queries": len(trace), "publish_every": PUBLISH_EVERY,
        "distinct_keys": len(set(trace)), "response_cache": RESPONSE_CACHE, "dataset_cache": DATASET_CACHE,
    }
    sampled = set(random.Random(run.seed).sample(range(len(trace)), max(1, len(trace) // 100)))
    rec = run.rec

    def one_pass(k: int, tracing: bool):
        """Replay the whole trace; a publish and a cache flush close every
        PUBLISH_EVERY queries, so each pass starts cold and repeats exactly."""
        latencies = np.empty(len(calls))
        hit = np.zeros(len(calls), dtype=bool)
        answers = {}
        hits = service.cache_info()["responses"]["hits"]
        rec.on = tracing
        rec.set_step(k)
        t0 = time.perf_counter()
        for j, (fn, args) in enumerate(calls):
            a = time.perf_counter()
            resp = fn(*args)
            run.slow(time.perf_counter() - a)
            latencies[j] = time.perf_counter() - a
            if tracing:  # which path it took, for the warm/miss split (outside the latency)
                now = service.cache_info()["responses"]["hits"]
                hit[j], hits = now > hits, now
            if j in sampled:
                answers[j] = resp
            if (j + 1) % PUBLISH_EVERY == 0:
                result, config = republished[(j // PUBLISH_EVERY) % len(republished)]
                store.publish(result, config, step_count=j + 1)
                service.clear_caches()
        wall = time.perf_counter() - t0
        rec.on = False
        rec.set_step(ASIDE)
        return latencies, wall, hit, answers

    passes = []
    info0 = service.cache_info()
    t_begin = time.perf_counter()
    while True:
        k = len(passes)
        tracing = run.trace and k >= 1  # pass 0 is the untraced reference of the same run
        if tracing:
            info0 = service.cache_info()
        passes.append(one_pass(k, tracing))
        run.mark_rss()
        if time.perf_counter() - t_begin >= run.seconds and (tracing or not run.trace):
            break
    info1 = service.cache_info()

    bad = 0
    for j, resp in passes[-1][3].items():
        endpoint, args = trace[j]
        got = resp.get("u_plus") or resp.get("value_plus") or resp["energy"]
        want = answer_oracle(store, endpoint, args)
        bad += not np.allclose(got, want, rtol=ANSWER_TOL, atol=ANSWER_TOL)
    run.check(f"{len(sampled)} sampled answers == store oracle to {ANSWER_TOL:g}", bad == 0, f"{bad} differ")
    run.check_reference({})

    plain = [p for i, p in enumerate(passes) if not (run.trace and i >= 1)]
    latencies = np.concatenate([p[0] for p in plain])
    run.finish(latencies, len(latencies), sum(p[1] for p in plain))
    ordered = np.sort(latencies)
    if run.trace:
        hot = passes[1:]
        n = len(calls) * len(hot)
        measured = rec.totals(1)
        out = layers.derive(rec, measured, n)
        hot_lat = np.concatenate([p[0] for p in hot])
        hot_hit = np.concatenate([p[2] for p in hot])
        totals = measured.get(0, {})
        for metric, layer, scale in (("serving.store.load.us", "serving.store.load", 1e6),
                                     ("serving.store.publish.ms", "serving.store.publish", 1e3)):
            if out[metric] is not None and layer in totals:
                out[metric] = totals[layer][1] / totals[layer][2] * scale
        r0, r1 = info0["responses"], info1["responses"]
        out["serving.query.hit_ratio"] = (r1["hits"] - r0["hits"]) / n
        if out["serving.query.warm_us"] is not None:
            for metric, part in (("warm_us", hot_lat[hot_hit]), ("miss_us", hot_lat[~hot_hit])):
                out[f"serving.query.{metric}"] = float(np.median(part)) * 1e6 if part.size else 0.0
        # beyond p99 lie 1% of the samples: 300 of a 30 000-query pass
        out["serving.query_us_p99"] = float(ordered[int(0.99 * (len(ordered) - 1))]) * 1e6
        publish_layers(run, out, measured, 1, sum(p[1] for p in hot), latencies, hot_lat)
        run.result["tail_samples"] = int(len(ordered) - int(0.99 * (len(ordered) - 1)) - 1)


# ----------------------------------------------------------------------

RUNNERS = {
    "serial_wide": lambda run: serial(run, 96, 25, 96),
    "serial_tall": lambda run: serial(run, 16, 193, 16),
    "dist4_sync": lambda run: dist4(run, "ALLTOALL", "full", 1e-10),
    "dist4_pipelined_mixed": lambda run: dist4(run, "PIPELINED", "mixed", 1e-5),
    "supervised4_fault": supervised,
    "stats_serving": stats_serving,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--min-ops", type=int, default=None, help="smoke tests: shrink the measured work")
    parser.add_argument("--inject-slowdown", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    affinity = pin_to_one_cpu()
    run = Run(args)
    run.phases["import"] = time.perf_counter() - T_ENTRY
    if run.trace:
        run.rec.install()
        run.rec.on = True  # set-up spans; the workload switches it off for its untraced part
    RUNNERS[run.workload](run)
    run.rec.on = False

    result = run.result
    result.update(workload=run.workload, seed=run.seed, phases=run.phases, affinity=affinity, versions=versions())
    if not run.setup_only:
        run.mark_rss()
        result["checks"] = run.checks
        result["reference"] = run.reference
        result["attempted"] = result["ops"] + result.pop("extra_ops", 0) + len(run.checks)
        result["failed"] = sum(not c["ok"] for c in run.checks)
        result["unresolved_layers"] = run.rec.unresolved
        if args.trace_out:
            events = run.rec.chrome_events(result.get("first_traced", 0), TRACE_FILE_SPANS)
            pathlib.Path(args.trace_out).write_text(json.dumps({"traceEvents": events}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
