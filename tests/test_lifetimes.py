"""Driver lifetimes: everything a driver owns is freed with its last reference.

Nothing a driver owns refers back to it (DESIGN.md §6a), so dropping a
:class:`~repro.core.solver.ChannelDNS` or a rank's
:class:`~repro.pencil.distributed.DistributedChannelDNS` returns its
factor sets, transposes and buffers at once, with the cyclic collector
off.  A relaunch therefore holds one generation of rank drivers: the
failed attempt's drivers are gone before the next attempt builds its own.
"""

from __future__ import annotations

import collections
import gc
import traceback
import weakref

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.mpi.simmpi import FaultEvent, FaultPlan, RankFailure, run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.telemetry import read_stream

from tests.faults import rank1_kill_plan

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)


def _serial_run(directory):
    """A serial driver with telemetry and streaming statistics attached."""
    dns = ChannelDNS(CFG, telemetry=directory)
    stats = dns.attach_streaming(every=1)
    dns.initialize()
    dns.run(2)
    dns.finalize_telemetry()
    return dns, stats


def _spmd_run(refs):
    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
        refs.append(weakref.ref(dns))
        dns.initialize()
        dns.run(2)
        return dns.gather_state()

    return run_spmd(4, prog)[0]


def _supervised_run(directory, plan):
    """A 2x2 job whose rank 1 is killed in step 4: one restart."""
    return run_supervised_spmd(
        4, CFG, pa=2, pb=2, n_steps=6, checkpoint_dir=directory / "checkpoints",
        checkpoint_every=3, fault_plans=[plan],
        telemetry=directory / "telemetry", streaming_every=2,
    )


class TestFreedOnLastReference:
    def test_serial_driver_with_telemetry_and_streaming(self, tmp_path, no_cyclic_gc):
        dns, stats = _serial_run(tmp_path)
        recorder = dns.recorder
        refs = [weakref.ref(o) for o in (dns, dns.stepper, dns.transforms)]
        del dns
        assert [r() for r in refs] == [None] * 3
        # the recorder and the accumulator outlive the driver they served
        assert stats.result()["nsamples"] == 2
        assert recorder.counters.records == 2

    def test_every_rank_driver_of_an_spmd_program(self, no_cyclic_gc):
        refs = []
        full = _spmd_run(refs)
        assert full is not None and len(refs) == 4
        assert [r() for r in refs] == [None] * 4

    def test_relaunch_builds_after_the_failed_attempt_is_gone(
        self, tmp_path, no_cyclic_gc, driver_census
    ):
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        first = len(driver_census.sizes)  # the plan's dry run built drivers too
        full, log = _supervised_run(tmp_path, plan)
        assert [e.kind for e in log] == ["restart"]
        assert driver_census.sizes[first:] == [4] * 8
        attempt0 = set(range(first, first + 4))
        for i in range(first + 4, first + 8):
            assert not attempt0 & set(driver_census.alive_at_build[i]), i
        assert driver_census.alive() == []


class TestFailuresStayVisible:
    def test_rank_failure_keeps_type_message_and_traceback_text(self, no_cyclic_gc):
        """The caller gets the rank's own exception, with its traceback
        text, while the rank frames it passed through no longer hold the
        drivers."""
        refs = []

        def explode(dns):
            raise ValueError(f"rank {dns.comm.rank} exploded")

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            refs.append(weakref.ref(dns))
            if comm.rank == 2:
                explode(dns)
            comm.barrier()

        with pytest.raises(ValueError, match="^rank 2 exploded$") as info:
            run_spmd(4, prog)
        text = "".join(traceback.format_exception(info.value))
        assert "in explode" in text and "in prog" in text
        assert [r() for r in refs] == [None] * 4


    def test_exhausted_budget_raises_the_rank_failure_itself(
        self, tmp_path, no_cyclic_gc, driver_census
    ):
        """Past ``max_restarts`` the caller gets the rank's RankFailure,
        with the message the restart event recorded, and holding it
        keeps no driver alive."""
        plans = [FaultPlan([FaultEvent("kill", 0, "alltoall", 0)]) for _ in range(2)]
        with pytest.raises(RankFailure) as info:
            run_supervised_spmd(
                4, CFG, pa=2, pb=2, n_steps=4, checkpoint_dir=tmp_path / "checkpoints",
                checkpoint_every=2, max_restarts=1, fault_plans=plans,
                telemetry=tmp_path / "telemetry",
            )
        detail = f"RankFailure: {info.value}"
        assert "killed by fault plan" in detail
        events = [
            (e["kind"], e["detail"]) for e in read_stream(tmp_path / "telemetry" / "events.jsonl")
            if e["type"] == "event"
        ]
        assert events == [
            ("restart", detail), ("giving_up", f"restart budget exhausted after {detail}")
        ]
        assert driver_census.alive() == []


def test_no_repro_object_is_left_in_a_reference_cycle(tmp_path):
    """A serial run, a 2x2 run and a faulted supervised run leave nothing
    of this package for the cyclic collector."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _serial_run(tmp_path / "serial")
        _spmd_run([])
        full, _ = _supervised_run(tmp_path / "supervised", rank1_kill_plan(CFG, 4, 2, 2))
        assert np.isfinite(full.v).all()
        gc.collect()
        cyclic = collections.Counter(
            type(o).__qualname__ for o in gc.garbage
            if type(o).__module__.partition(".")[0] == "repro"
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not cyclic, cyclic.most_common(10)
