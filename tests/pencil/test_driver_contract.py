"""One driver, every layout: the same body on serial, 1x1, 2x2 and 1x4.

``ChannelDNS`` owns the step loop and the diagnostics; a layout only
decides where the transforms run and whether ``_reduce`` has a
communicator.  So one function drives every layout through the whole
public loop, and every diagnostic — on every rank — must equal the
serial value.
"""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS, HealthMonitor
from repro.mpi import run_spmd
from repro.pencil.distributed import DistributedChannelDNS
from repro.serving import REDUCTION_RTOL

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=21)
SCALARS = ("kinetic_energy", "wall_shear_velocity", "divergence_norm", "cfl_number")


def drive(dns) -> dict:
    """The contract body: identical calls whatever the layout."""
    monitor = HealthMonitor()
    dns.initialize()
    stats = dns.attach_streaming(every=2)
    dns.run(6, controllers=[monitor])
    dns.set_dt(CFG.dt / 2)
    dns.step()
    out = {name: getattr(dns, name)() for name in SCALARS}
    out.update(
        finite=dns.state_finite(),
        step_count=dns.step_count,
        time=dns.state.time,
        checks=monitor.checks,
        samples=stats.total_samples,
        profiles={name: stats.profile(name) for name in stats.PROFILES},
        stats_calls=dns.timers.calls[dns.timers.STATS],
        one_timers=dns.timers is dns.stepper.timers,
    )
    return out


def multiplicities(dns) -> tuple[tuple[int, int], ...]:
    """(stored factor rows, modes sharing each) for every class."""
    return tuple((r1 - r0, m) for r0, r1, m, _ in dns.stepper._poisson_lu.rows.classes)


@pytest.fixture(scope="module")
def serial():
    dns = ChannelDNS(CFG)
    out = drive(dns)
    out.update(state=dns.state, multiplicities=multiplicities(dns))
    return out


def drive_distributed(comm, pa, pb) -> dict:
    dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
    out = drive(dns)
    out.update(state=dns.gather_state(), multiplicities=multiplicities(dns))
    return out


def test_serial_body(serial):
    assert serial["finite"] and serial["one_timers"]
    assert serial["step_count"] == 7 and serial["checks"] == 6
    assert serial["samples"] == 3 and serial["stats_calls"] == 3
    assert serial["time"] == pytest.approx(6.5 * CFG.dt)
    assert serial["divergence_norm"] < 1e-12


@pytest.mark.parametrize("pa,pb", [(1, 1), (2, 2), (1, 4)])
def test_layout_matches_serial_on_every_rank(serial, pa, pb):
    results = run_spmd(pa * pb, lambda comm: drive_distributed(comm, pa, pb))
    # the state itself is bit for bit the serial one, although each rank
    # block shares its factor rows among its own modes differently (the
    # set_dt in the body refactors every Helmholtz set on the way)
    state = results[0]["state"]
    for name in ("v", "omega_y", "u00", "w00"):
        assert np.array_equal(getattr(state, name), getattr(serial["state"], name)), name
    if pa * pb > 1:
        assert all(got["multiplicities"] != serial["multiplicities"] for got in results)
        assert len({got["multiplicities"] for got in results}) > 1
    for got in results:
        for name in ("kinetic_energy", "wall_shear_velocity", "cfl_number"):
            assert got[name] == pytest.approx(serial[name], rel=1e-12, abs=0), name
        assert got["divergence_norm"] == pytest.approx(serial["divergence_norm"], abs=1e-12)
        for name in ("finite", "step_count", "time", "checks", "samples", "stats_calls", "one_timers"):
            assert got[name] == serial[name], name
        for name, want in serial["profiles"].items():
            np.testing.assert_allclose(
                got["profiles"][name], want, rtol=REDUCTION_RTOL, atol=1e-14, err_msg=name
            )
