#!/usr/bin/env python
"""Supervision smoke: kill, restart and verify through both launches.

Drives the one supervision loop (:mod:`repro.core.supervisor`) end to
end over each of its launches on a 16x24x16 channel:

* **in-thread** (:class:`~repro.core.supervisor.RunSupervisor`): a NaN
  "crash" at step 7, a watchdog trip, a rollback to the step-5 snapshot
  and a retry — the step-10 state must be bit-for-bit an uninterrupted
  serial run's;
* **SimMPI ranks** (:func:`~repro.pencil.distributed.run_supervised_spmd`):
  once per exchange path — ``ALLTOALL``, ``PAIRWISE`` and
  ``PIPELINED`` transposes — rank 1 is killed at the exchange
  call its transport makes (``alltoall``, ``send``, ``alltoall``) past
  three steps, and the 2x2 job relaunched from its sharded snapshot —
  the step-10 state must be bit-for-bit an uninterrupted 2x2 run's.
  Each job runs with the cyclic garbage collector off, and the relaunch
  must hold one generation of rank drivers: when attempt 1 starts
  stepping, no driver of the killed attempt 0 may be alive.

Usage:
    PYTHONPATH=src python scripts/supervision_smoke.py [--out DIR]
"""

from __future__ import annotations

import argparse
import gc
import itertools
import pathlib
import sys
import tempfile
import weakref

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.chaos import alltoalls_per_step  # noqa: E402
from repro.core import (  # noqa: E402
    ChannelConfig,
    ChannelDNS,
    HealthMonitor,
    RunSupervisor,
    SupervisorPolicy,
)
from repro.core.checkpoint import CheckpointRotation  # noqa: E402
from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd  # noqa: E402
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd  # noqa: E402
from repro.pencil.transpose import TransposeMethod, exchange_op  # noqa: E402

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
FIELDS = ("v", "omega_y", "u00", "w00")


def in_thread(workdir: pathlib.Path) -> list[str]:
    """NaN at step 7, checkpoint every 5: one rollback, identical bits."""
    straight = ChannelDNS(CFG)
    straight.initialize()
    straight.run(10)

    dns = ChannelDNS(CFG)
    dns.initialize()
    sup = RunSupervisor(
        dns,
        CheckpointRotation(workdir / "serial", keep=3),
        monitor=HealthMonitor(),
        policy=SupervisorPolicy(checkpoint_every=5),
    )
    crashed = []

    def crash_once(d):
        if d.step_count == 7 and not crashed:
            crashed.append(7)
            d.state.v[0, 0, 0] = np.nan

    final = sup.run(10, callback=crash_once)
    failures = []
    if not crashed:
        failures.append("in-thread: the injected crash never fired")
    if sup.counters.rollbacks != 1:
        failures.append(f"in-thread: expected one rollback, got {sup.report()}")
    failures += [
        f"in-thread: {name} diverged after the supervised recovery"
        for name in FIELDS
        if not np.array_equal(getattr(final.state, name), getattr(straight.state, name))
    ]
    print(f"in-thread: {sup.report()}")
    return failures


def ranks(workdir: pathlib.Path) -> list[str]:
    """Rank 1 killed in step 4 of a 2x2 job on each blocking exchange
    path: one restart each, identical bits."""

    def straight(comm):
        d = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
        d.initialize()
        d.run(10)
        return d.gather_state()

    ref = run_spmd(4, straight)[0]
    failures = []
    for method in (TransposeMethod.ALLTOALL, TransposeMethod.PAIRWISE, TransposeMethod.PIPELINED):
        failures += _killed_job(workdir / method.name.lower(), method, ref)
    return failures


def _killed_job(workdir: pathlib.Path, method: TransposeMethod, ref) -> list[str]:
    name = f"ranks {method.name.lower()}"
    op = exchange_op(method)
    # past three steps' worth of rank 1's exchange calls, counted by a dry run
    kill_call = 3 * alltoalls_per_step(CFG, 2, 2, method) + 6
    plan = FaultPlan([FaultEvent(action="kill", rank=1, op=op, call=kill_call)])

    calls = itertools.count()
    drivers: dict[int, dict[int, weakref.ref]] = {}  # attempt -> rank -> its driver
    alive_at_relaunch: list[int] = []

    def monitor_factory():
        # the loop calls this once per rank per attempt, before the first step
        attempt, nth = divmod(next(calls), 4)
        if attempt == 1 and nth == 0:
            alive_at_relaunch.append(sum(r() is not None for r in drivers[0].values()))

        def monitor(dns):
            drivers.setdefault(attempt, {}).setdefault(dns.comm.rank, weakref.ref(dns))

        return monitor

    # with the cyclic collector off, only reference counts free a driver
    gc.collect()
    gc.disable()
    try:
        full, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10, checkpoint_dir=workdir / "sharded",
            checkpoint_every=5, fault_plans=[plan], monitor_factory=monitor_factory,
            method=method,
        )
    finally:
        gc.enable()
    failures = []
    if [t["op"] for t in plan.triggered] != [op]:
        failures.append(f"{name}: the planned kill at {op!r} call {kill_call} never fired")
    if len(drivers.get(0, {})) != 4 or not alive_at_relaunch:
        failures.append(f"{name}: expected 4 attempt-0 drivers and a relaunch, got {drivers}")
    elif alive_at_relaunch != [0]:
        failures.append(
            f"{name}: {alive_at_relaunch[0]} of 4 attempt-0 drivers alive at the relaunch"
        )
    if [e.kind for e in log] != ["restart"]:
        failures.append(f"{name}: expected one restart, got {log}")
    failures += [
        f"{name}: {field} diverged after the restart"
        for field in FIELDS
        if not np.array_equal(getattr(full, field), getattr(ref, field))
    ]
    if log:
        print(f"{name}: 1 restart at {op!r} call {kill_call} "
              f"({log[0].detail.split('(')[0].strip()})")
    if alive_at_relaunch:
        print(f"{name}: {alive_at_relaunch[0]} attempt-0 drivers alive at the relaunch")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None,
                    help="checkpoint directory (default: a fresh temporary one)")
    args = ap.parse_args(argv)
    workdir = pathlib.Path(args.out or tempfile.mkdtemp(prefix="repro_supervision_"))

    failures = in_thread(workdir) + ranks(workdir)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: kill-restart-verify through both launches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
