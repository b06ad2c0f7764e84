"""Chaos soak tests: schedule generator properties, a short tier-1 soak,
and the full 25-seed sweep behind the ``soak`` marker."""

import pytest

import repro.chaos
from repro.chaos import alltoalls_per_step, random_fault_plan, run_chaos_soak, soak_summary
from repro.core import ChannelConfig
from repro.pencil.transpose import TransposeMethod

HEALTHY = {"completed", "recovered", "degraded"}

#: the blocking methods a soak sweep is run under, each named explicitly
#: so two sweeps of one method run the same code
SOAK_METHODS = pytest.mark.parametrize(
    "method", [TransposeMethod.ALLTOALL, TransposeMethod.PAIRWISE], ids=lambda m: m.name
)


class TestScheduleGenerator:
    def test_deterministic_per_seed(self):
        def sig(plan):
            return [(e.action, e.rank, e.op, e.call) for e in plan.events]

        assert sig(random_fault_plan(3, 4)) == sig(random_fault_plan(3, 4))

    def test_seeds_vary_the_schedule(self):
        sigs = {
            tuple((e.action, e.rank, e.op, e.call) for e in random_fault_plan(s, 4).events)
            for s in range(10)
        }
        assert len(sigs) > 1

    def test_kills_capped_below_world_size(self):
        for seed in range(50):
            plan = random_fault_plan(seed, 4, max_events=6)
            kills = sum(1 for e in plan.events if e.action == "kill")
            assert kills <= 3


class TestExchangeCount:
    """The dry run that places hand-placed kills counts the call each
    transport's exchanges make."""

    CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)

    @pytest.mark.parametrize(
        "method, per_step",
        [
            (TransposeMethod.ALLTOALL, 48),
            (TransposeMethod.PAIRWISE, 48),  # one send per peer: one peer on 2x2
            (TransposeMethod.PIPELINED, 48),  # one alltoall, as ALLTOALL
        ],
        ids=["alltoall", "pairwise", "pipelined"],
    )
    def test_counts_the_exchange_op(self, method, per_step):
        assert alltoalls_per_step(self.CFG, 2, 2, method) == per_step

    def test_no_exchange_call_is_an_error(self, monkeypatch):
        """A count of zero would place a kill that never fires."""
        monkeypatch.setattr(repro.chaos, "exchange_op", lambda method: "isend")
        with pytest.raises(RuntimeError, match="no 'isend' call"):
            alltoalls_per_step(self.CFG, 2, 2)


class TestShortSoak:
    @SOAK_METHODS
    def test_short_sweep_all_graceful(self, tmp_path, method):
        results = run_chaos_soak(range(3), tmp_path, method=method)
        summary = soak_summary(results)
        assert summary["all_graceful"], [
            (r.seed, r.classification, r.detail) for r in results
        ]
        assert set(summary["classifications"]) <= HEALTHY

    def test_short_sweep_mixed_wire(self, tmp_path):
        """Mixed-precision payloads compose with fault injection and
        elastic shrink: graceful classifications against the serial
        oracle at the documented single-precision tolerance."""
        results = run_chaos_soak(
            range(2), tmp_path, method=TransposeMethod.PIPELINED,
            wire_precision="mixed", atol=2e-5,
        )
        summary = soak_summary(results)
        assert summary["all_graceful"], [
            (r.seed, r.classification, r.detail) for r in results
        ]
        assert set(summary["classifications"]) <= HEALTHY
        # the sweep really exercised the fault machinery under mixed wire
        assert summary["events_fired"] > 0


@pytest.mark.soak
class TestFullSoak:
    @SOAK_METHODS
    def test_25_seed_sweep_never_hangs_or_diverges(self, tmp_path, method):
        """THE chaos acceptance criterion: >= 25 seeded random fault
        schedules, zero deadlocks, every run classified completed /
        recovered / degraded — never hung, never silently diverged."""
        results = run_chaos_soak(range(25), tmp_path, verbose=True, method=method)
        summary = soak_summary(results)
        bad = [(r.seed, r.classification, r.detail) for r in results if not r.ok]
        assert summary["all_graceful"], bad
        assert set(summary["classifications"]) <= HEALTHY
        assert "hung" not in summary["classifications"]
        assert "diverged" not in summary["classifications"]
        # the sweep must actually have exercised the fault machinery
        assert summary["events_fired"] > 0
        assert summary["shrinks"] + summary["restarts"] > 0
