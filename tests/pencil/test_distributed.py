"""Distributed DNS integration tests: parity with the serial solver."""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.mpi.simmpi import run_spmd
from repro.pencil.distributed import DistributedChannelDNS
from repro.pencil.transpose import TransposeMethod

ALLTOALL, PAIRWISE, PIPELINED = (
    TransposeMethod.ALLTOALL, TransposeMethod.PAIRWISE, TransposeMethod.PIPELINED
)
CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)
#: blocks of unequal size: 19 spanwise modes and 21 wall-normal points over 2 or 3 ranks
UNEVEN = ChannelConfig(nx=24, ny=21, nz=20, dt=2e-4, init_amplitude=0.5, seed=8)


@pytest.fixture(scope="module")
def serial_after_3():
    states = {}  # id of a module-level config -> its serial state

    def state(config):
        if id(config) not in states:
            dns = ChannelDNS(config)
            dns.initialize()
            dns.run(3)
            states[id(config)] = dns.state
        return states[id(config)]

    return state


def _after_3(config, pa, pb, method=None, stages=1):
    def prog(comm):
        dns = DistributedChannelDNS(comm, config, pa=pa, pb=pb, method=method, stages=stages)
        dns.initialize()
        dns.run(3)
        return dns.gather_state()

    return run_spmd(pa * pb, prog)[0]


def _assert_same_bits(full, serial):
    for name in ("v", "omega_y", "u00", "w00"):
        assert np.array_equal(getattr(full, name), getattr(serial, name)), name
    assert full.time == serial.time


class TestParity:
    """Bit for bit, not to round-off: each rank runs the serial
    arithmetic on its own block, and the transposes only move data."""

    @pytest.mark.parametrize("pa,pb", [(2, 2), (4, 1), (1, 4)])
    def test_trajectory_matches_serial(self, serial_after_3, pa, pb):
        _assert_same_bits(_after_3(CFG, pa, pb), serial_after_3(CFG))

    @pytest.mark.parametrize(
        "config,pa,pb,method,stages",
        [
            (CFG, 2, 2, PIPELINED, 1),
            (CFG, 4, 1, PIPELINED, 1),
            (CFG, 1, 4, PIPELINED, 1),
            (UNEVEN, 3, 2, ALLTOALL, 1),
            (UNEVEN, 3, 2, PIPELINED, 1),
            (UNEVEN, 2, 3, ALLTOALL, 1),
            (UNEVEN, 2, 3, PIPELINED, 1),
            (CFG, 2, 2, PAIRWISE, 1),
            (UNEVEN, 3, 2, PAIRWISE, 1),
            (CFG, 2, 2, PIPELINED, 2),
            (UNEVEN, 2, 3, PIPELINED, 4),
        ],
        ids=[
            "even-2x2-pipelined", "even-4x1-pipelined", "even-1x4-pipelined",
            "uneven-3x2-alltoall", "uneven-3x2-pipelined",
            "uneven-2x3-alltoall", "uneven-2x3-pipelined",
            "even-2x2-pairwise", "uneven-3x2-pairwise",
            "even-2x2-pipelined-2slabs", "uneven-2x3-pipelined-4slabs",
        ],
    )
    def test_each_method_matches_serial(self, serial_after_3, config, pa, pb, method, stages):
        _assert_same_bits(_after_3(config, pa, pb, method, stages), serial_after_3(config))

    def test_divergence_free(self):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(2)
            return dns.divergence_norm()

        for div in run_spmd(4, prog):
            assert div < 1e-10

    def test_cfl_is_global(self):
        """Every rank reports the same (global) CFL number."""

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            return dns.cfl_number()

        cfls = run_spmd(4, prog)
        assert len(set(cfls)) == 1
        assert 0 < cfls[0] < 1


class TestConstruction:
    def test_bad_process_grid(self):
        def prog(comm):
            with pytest.raises(ValueError):
                DistributedChannelDNS(comm, CFG, pa=3, pb=2)
            comm.barrier()
            return True

        assert all(run_spmd(4, prog))

    def test_step_before_initialize(self):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=1)
            with pytest.raises(RuntimeError):
                dns.step()
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))

    def test_only_one_rank_owns_mean(self):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            return dns.modes.owns_mean

        owners = run_spmd(4, prog)
        assert sum(owners) == 1

    def test_timers_record_sections(self):
        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2)
            dns.initialize()
            dns.run(1)
            return dict(dns.timers.elapsed)

        for elapsed in run_spmd(4, prog):
            assert elapsed["transpose"] > 0
            assert elapsed["fft"] > 0
            assert elapsed["ns_advance"] > 0
