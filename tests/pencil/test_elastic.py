"""Elastic recovery tests: grid re-planning, resharding restore, shrink identity.

The distributed acceptance property: a run killed at rank ``r`` mid-step
shrinks to ``P-1`` survivors, restores from the sharded snapshot via the
resharding reader, and lands bit-for-bit on a fresh ``P-1`` run started
from that snapshot — pinned for a ``2x2 -> 1x3`` shrink and for the
shrink to serial ``1x1``.  A later run at the full width resumes the
shrunken run's snapshots and lands on the uninterrupted bits.
"""

import shutil

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import ShardedCheckpointRotation
from repro.instrument import RecoveryCounters, SectionTimers
from repro.mpi.simmpi import ShrinkRequired, run_spmd
from repro.mpi.topology import factor_pairs
from repro.pencil.decomp import choose_grid
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd

from tests.faults import rank1_kill_plan

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
MX, MZ = CFG.nx // 2, CFG.nz - 1  # 8 spectral-x, 15 spectral-z modes


class TestChooseGrid:
    def test_factor_pairs_enumerates_all(self):
        assert factor_pairs(12) == [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]
        assert factor_pairs(1) == [(1, 1)]
        with pytest.raises(ValueError, match="cannot factor"):
            factor_pairs(0)

    def test_most_square_grid_wins(self):
        assert choose_grid(4, MX, MZ, CFG.ny) == (2, 2)
        assert choose_grid(1, MX, MZ, CFG.ny) == (1, 1)

    def test_tie_prefers_larger_pb(self):
        # 6 = 2x3 or 3x2, equally square; CommB node-locality (Table 5)
        # prefers the larger inner communicator
        assert choose_grid(6, MX, MZ, CFG.ny) == (2, 3)

    def test_extent_constraints_filter_candidates(self):
        # mx=2 caps pa at 2, so the most-square 3x4/4x3 grids are invalid
        assert choose_grid(12, 2, 12, 12, nzq=12) == (2, 6)

    def test_no_valid_grid_raises(self):
        with pytest.raises(ValueError, match="no valid"):
            choose_grid(7, 3, 3, 3)


def _write_snapshot(tmp_path, pa, pb, steps=3):
    """Write one sharded snapshot at the given grid; return the full state."""

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
        dns.initialize()
        dns.run(steps)
        ShardedCheckpointRotation(tmp_path).save(dns)
        return dns.gather_state()

    return run_spmd(pa * pb, prog)[0]


class TestReshardRestore:
    @pytest.mark.parametrize(
        "old,new",
        [((2, 2), (1, 3)), ((2, 2), (4, 1)), ((1, 3), (2, 2)), ((2, 2), (1, 1))],
    )
    def test_reshard_roundtrip_is_bit_exact(self, tmp_path, old, new):
        ref = _write_snapshot(tmp_path, *old)

        counters = RecoveryCounters()

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=new[0], pb=new[1])
            rot = ShardedCheckpointRotation(tmp_path, counters=counters)
            rot.load_latest(dns, reshard=True)
            assert dns.step_count == 3
            return dns.gather_state()

        full = run_spmd(new[0] * new[1], prog)[0]
        assert counters.reshard_restores == new[0] * new[1]
        np.testing.assert_array_equal(full.v, ref.v)
        np.testing.assert_array_equal(full.omega_y, ref.omega_y)
        np.testing.assert_array_equal(full.u00, ref.u00)
        np.testing.assert_array_equal(full.w00, ref.w00)
        assert full.time == ref.time

    def test_same_layout_with_reshard_flag_stays_fast_path(self, tmp_path):
        ref = _write_snapshot(tmp_path, 2, 2)
        counters = RecoveryCounters()

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            rot = ShardedCheckpointRotation(tmp_path, counters=counters)
            rot.load_latest(dns, reshard=True)
            return dns.gather_state()

        full = run_spmd(4, prog)[0]
        assert counters.reshard_restores == 0  # same layout: no reshard counted
        np.testing.assert_array_equal(full.v, ref.v)

    def test_load_serial_reassembles_full_state(self, tmp_path):
        ref = _write_snapshot(tmp_path, 2, 2)
        dns = ShardedCheckpointRotation(tmp_path).load_serial()
        assert dns.step_count == 3
        np.testing.assert_array_equal(dns.state.v, ref.v)
        np.testing.assert_array_equal(dns.state.omega_y, ref.omega_y)
        np.testing.assert_array_equal(dns.state.u00, ref.u00)
        np.testing.assert_array_equal(dns.state.w00, ref.w00)
        # and it keeps integrating: the serial continuation matches the
        # distributed one to round-off
        def cont(comm):
            d = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            ShardedCheckpointRotation(tmp_path).load_latest(d)
            d.run(2)
            return d.gather_state()

        dist = run_spmd(4, cont)[0]
        dns.run(2)
        np.testing.assert_allclose(dns.state.v, dist.v, rtol=0, atol=1e-12)


def _run_6(tmp_path, pa, pb, restore: bool):
    """Six steps on ``pa x pb`` (``0 x 0``: a serial driver) — or, with
    ``restore``, the snapshot under ``tmp_path`` plus three steps.  A
    writer snapshots at step 3.  Returns the full state and step."""

    def body(dns):
        rot = ShardedCheckpointRotation(tmp_path)
        if restore:
            rot.load_latest(dns, reshard=True)
        else:
            dns.initialize()
            dns.run(3)
            rot.save(dns)
        dns.run(3)
        return dns.step_count

    if pa == 0:
        dns = ChannelDNS(CFG)
        step = body(dns)
        return dns.state, step

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
        step = body(dns)
        return dns.gather_state(), step

    return run_spmd(pa * pb, prog)[0]


@pytest.mark.parametrize(
    "writer, reader", [((0, 0), (2, 2)), ((2, 2), (0, 0))], ids=["serial->2x2", "2x2->serial"]
)
def test_snapshot_restores_bit_for_bit_across_layouts(tmp_path, writer, reader):
    """One snapshot format: a serial snapshot restores onto a 2x2 run and
    a 2x2 snapshot onto a serial run, and three steps later both sides
    hold identical bits."""
    written, step_w = _run_6(tmp_path, *writer, restore=False)
    restored, step_r = _run_6(tmp_path, *reader, restore=True)
    assert step_w == step_r == 6
    for name in ("v", "omega_y", "u00", "w00"):
        assert np.array_equal(getattr(restored, name), getattr(written, name)), name


class TestElasticShrinkIdentity:
    """THE elastic acceptance criterion, for two (A,B) -> (A',B') transitions."""

    @pytest.mark.parametrize(
        "nranks,pa,pb",
        [(4, 2, 2), (2, 2, 1)],  # 2x2 -> 1x3, and 2x1 -> serial 1x1
    )
    def test_degraded_run_matches_fresh_run_at_survivor_count(
        self, tmp_path, nranks, pa, pb
    ):
        """Kill rank 1 inside a pencil-transpose alltoall mid-run: the
        elastic supervisor shrinks to the agreed survivors, re-plans the
        grid, reshard-restores, and the final state is bit-for-bit a
        fresh run at the survivor count started from the same snapshot."""
        plan = rank1_kill_plan(CFG, nranks, pa, pb)
        counters = RecoveryCounters()
        timers = SectionTimers()
        final, log = run_supervised_spmd(
            nranks,
            CFG,
            pa=pa,
            pb=pb,
            n_steps=10,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            fault_plans=[plan],
            counters=counters,
            elastic=True,
            integrity=True,
            timers=timers,
        )

        assert plan.triggered  # the kill really fired
        assert counters.shrinks == 1 and counters.restarts == 0
        assert counters.reshard_restores >= 1
        assert timers.elapsed[SectionTimers.ELASTIC] > 0
        shrink = [e for e in log if e.kind == "shrink"][0]
        nsurv = shrink.info["ranks"]
        assert nsurv == nranks - 1
        new_pa, new_pb = shrink.info["pa"], shrink.info["pb"]
        assert (new_pa, new_pb) == choose_grid(nsurv, MX, MZ, CFG.ny)

        # rewind the rotation to the step-5 snapshot and launch a *fresh*
        # run at the survivor grid from it — must land on the same bits
        shutil.rmtree(tmp_path / "step-000000010")
        (tmp_path / "latest").write_text("step-000000005")

        def fresh(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=new_pa, pb=new_pb)
            ShardedCheckpointRotation(tmp_path).load_latest(dns, reshard=True)
            assert dns.step_count == 5
            while dns.step_count < 10:
                dns.step()
            return dns.gather_state()

        fresh_full = run_spmd(nsurv, fresh)[0]
        np.testing.assert_array_equal(final.v, fresh_full.v)
        np.testing.assert_array_equal(final.omega_y, fresh_full.omega_y)
        np.testing.assert_array_equal(final.u00, fresh_full.u00)
        np.testing.assert_array_equal(final.w00, fresh_full.w00)
        assert final.time == fresh_full.time

    def test_min_ranks_bounds_degradation(self, tmp_path):
        """A shrink below min_ranks propagates the ShrinkRequired."""
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        with pytest.raises(ShrinkRequired):
            run_supervised_spmd(
                4,
                CFG,
                pa=2,
                pb=2,
                n_steps=10,
                checkpoint_dir=tmp_path,
                checkpoint_every=5,
                fault_plans=[plan],
                elastic=True,
                min_ranks=4,
            )

    def test_non_elastic_supervisor_unchanged(self, tmp_path):
        """Without elastic=True the same kill takes the classic
        same-size restart path (PR-3 behavior preserved)."""
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        counters = RecoveryCounters()
        final, log = run_supervised_spmd(
            4,
            CFG,
            pa=2,
            pb=2,
            n_steps=10,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            fault_plans=[plan],
            counters=counters,
        )
        assert [e.kind for e in log] == ["restart"]
        assert counters.restarts == 1 and counters.shrinks == 0
        assert np.all(np.isfinite(final.v))

    def test_pre_shrink_drivers_are_gone_when_survivors_build(
        self, tmp_path, no_cyclic_gc, driver_census
    ):
        """With the cyclic collector off, no 2x2 driver is alive when the
        first 1x3 survivor driver is built: the shrunken grid holds one
        generation of drivers, not two."""
        plan = rank1_kill_plan(CFG, 4, 2, 2)
        first = len(driver_census.sizes)  # the plan's dry run built drivers too
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10, checkpoint_dir=tmp_path, checkpoint_every=5,
            fault_plans=[plan], elastic=True,
        )
        assert [e.kind for e in log] == ["shrink"]
        sizes = driver_census.sizes
        assert sizes[first:] == [4] * 4 + [3] * 3
        for i in range(first + 4, first + 7):
            assert set(driver_census.alive_at_build[i]).isdisjoint(range(first, first + 4)), i
        assert driver_census.alive() == []


def _uninterrupted(nranks, pa, pb, n_steps):
    """Full state of a fresh, fault-free run at the given grid."""

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
        dns.initialize()
        dns.run(n_steps)
        return dns.gather_state()

    return run_spmd(nranks, prog)[0]


class TestElasticGrowIdentity:
    """A degraded run is brought back to its original rank count by a
    later launch at that size: the second job resumes the shrunken run's
    checkpoint directory through the resharding reader and is
    bit-identical to an uninterrupted run."""

    @pytest.mark.parametrize(
        "nranks,pa,pb",
        [(4, 2, 2), (2, 2, 1)],  # 4 -> 3 -> 4, and 2 -> serial 1 -> 2
    )
    def test_collapse_then_expansion_is_bit_identical(self, tmp_path, nranks, pa, pb):
        """Kill rank 1 mid-run: the run shrinks to ``nranks - 1`` and
        finishes step 10; a second ``nranks`` job resumes that directory
        and lands on the uninterrupted run's exact bits at step 15."""
        plan = rank1_kill_plan(CFG, nranks, pa, pb)
        counters = RecoveryCounters()
        _, log = run_supervised_spmd(
            nranks, CFG, pa, pb, n_steps=10, checkpoint_dir=tmp_path,
            checkpoint_every=5, fault_plans=[plan], counters=counters,
            elastic=True, integrity=True,
        )
        assert plan.triggered
        assert [e.kind for e in log] == ["shrink"]
        assert log[0].info["ranks"] == nranks - 1
        assert counters.shrinks == 1 and counters.restarts == 0
        assert (tmp_path / "latest").read_text().strip() == "step-000000010"

        counters = RecoveryCounters()
        final, log = run_supervised_spmd(
            nranks, CFG, pa, pb, n_steps=15, checkpoint_dir=tmp_path,
            checkpoint_every=5, counters=counters, elastic=True,
        )
        assert log == [] and counters.reshard_restores == nranks

        ref = _uninterrupted(nranks, pa, pb, 15)
        np.testing.assert_array_equal(final.v, ref.v)
        np.testing.assert_array_equal(final.omega_y, ref.omega_y)
        np.testing.assert_array_equal(final.u00, ref.u00)
        np.testing.assert_array_equal(final.w00, ref.w00)
        assert final.time == ref.time

    def test_growth_capped_at_original_request(self, tmp_path):
        """Elasticity only ever shrinks: a healthy elastic run stays at
        its requested world size, logs no event, and is bit-identical to
        the uninterrupted run at that size."""
        counters = RecoveryCounters()
        final, log = run_supervised_spmd(
            2, CFG, pa=2, pb=1, n_steps=10, checkpoint_dir=tmp_path,
            checkpoint_every=5, counters=counters, elastic=True,
        )
        assert log == []
        assert counters.shrinks == 0 and counters.reshard_restores == 0
        ref = _uninterrupted(2, 2, 1, 10)
        np.testing.assert_array_equal(final.v, ref.v)
        assert final.time == ref.time
