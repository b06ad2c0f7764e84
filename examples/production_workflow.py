"""A production-style DNS workflow: grid sequencing, control, checkpoints,
supervised recovery, and run telemetry.

Mirrors how campaigns like the paper's Re_tau = 5200 run are actually
operated (at laptop scale):

1. develop turbulence on a coarse grid with an adaptive time step,
2. spectrally regrid the state onto a finer production grid,
3. continue with checkpointing and a mass-flux hold,
4. interrupt-and-restart from the snapshot alone (its config included),
   verifying exact continuation,
5. survive a mid-run blow-up under the watchdog-supervised harness —
   the health monitor detects the NaN, the supervisor rolls back to the
   last verified snapshot and retries, and the recovered trajectory is
   bit-exact; the whole episode (failure, rollback, dt policy) lands in
   a telemetry stream alongside per-step timings (docs/observability.md),
6. estimate what the *paper's* campaign costs through the machine model.

Run:  python examples/production_workflow.py
"""

import tempfile
import pathlib

import numpy as np

from repro import ChannelConfig, ChannelDNS
from repro.core.checkpoint import ShardedCheckpointRotation
from repro.core.control import CFLController, MassFluxController, current_bulk_velocity
from repro.core.health import HealthMonitor
from repro.core.supervisor import RunSupervisor, SupervisorPolicy
from repro.core.regrid import regrid_state
from repro.perfmodel.production import (
    PAPER_CORE_HOURS,
    plan_campaign,
)
from repro.telemetry import read_stream


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_campaign_"))

    # -- stage 1: coarse development run with adaptive dt ----------------
    coarse_cfg = ChannelConfig(
        nx=16, ny=25, nz=16, re_tau=180.0, dt=1e-4,
        init_amplitude=1.5, init_modes=5, seed=11,
    )
    coarse = ChannelDNS(coarse_cfg)
    coarse.initialize()
    cfl = CFLController(target=0.6, low=0.35, high=0.9)
    print("stage 1: coarse development (adaptive dt)")
    coarse.run(60, controllers=[cfl])
    print(f"  dt settled at {coarse.stepper.dt:.2e} "
          f"(CFL = {coarse.cfl_number():.2f}, {cfl.adjustments} adjustments)")
    print(f"  KE = {coarse.kinetic_energy():.2f}, div = {coarse.divergence_norm():.1e}\n")

    # -- stage 2: spectral regrid to the production grid -----------------
    prod_cfg = ChannelConfig(nx=32, ny=33, nz=32, re_tau=180.0, dt=coarse.stepper.dt)
    prod = ChannelDNS(prod_cfg)
    prod.initialize(regrid_state(coarse.state, coarse.grid, prod.grid))
    print("stage 2: regrid 16x25x16 -> 32x33x32 (exact on shared modes)")
    print(f"  post-regrid divergence: {prod.divergence_norm():.1e}\n")

    # -- stage 3: production segment with mass-flux hold + checkpoints ---
    q_target = current_bulk_velocity(prod)
    flux = MassFluxController(target=q_target, gain=5.0)
    # one snapshot format for every layout: a serial run writes the one
    # shard of a 1 x 1 grid, as each rank of a decomposed run writes its own
    segments = ShardedCheckpointRotation(workdir / "segments", keep=3)
    print("stage 3: production segment (mass flux held, checkpoint at the end)")
    prod.run(20, controllers=[flux])
    snap = segments.save(prod)
    print(f"  bulk velocity {current_bulk_velocity(prod):.3f} "
          f"(target {q_target:.3f}); checkpoint -> {snap.name}/\n")

    # -- stage 4: interrupt and restart -----------------------------------
    print("stage 4: restart from the checkpoint alone and verify exact continuation")
    straight = ChannelDNS(prod_cfg)
    straight.initialize(prod.state.copy())
    # the flux controller drifted the forcing away from the config value;
    # the checkpoint carries it, so the comparison run must too
    straight.stepper.forcing = prod.stepper.forcing
    straight.run(5)

    resumed = segments.load_serial()  # config, state, dt and forcing from disk
    resumed.run(5)
    err = float(np.abs(resumed.state.v - straight.state.v).max())
    print(f"  |restarted - uninterrupted| = {err:.2e} (bit-exact)\n")

    # -- stage 5: survive a blow-up under supervision ---------------------
    print("stage 5: supervised recovery from an injected mid-run blow-up")
    reference = ChannelDNS(prod_cfg)
    reference.initialize(resumed.state.copy())
    reference.run(12)

    supervised = ChannelDNS(prod_cfg, telemetry=workdir / "telemetry")
    supervised.initialize(resumed.state.copy())
    sup = RunSupervisor(
        supervised,
        ShardedCheckpointRotation(workdir / "rotation", keep=3),
        monitor=HealthMonitor(),
        policy=SupervisorPolicy(checkpoint_every=5),
    )

    crashed = []

    def cosmic_ray(dns):  # a one-shot NaN, as a node fault would leave
        if dns.step_count == supervised_start + 8 and not crashed:
            crashed.append(dns.step_count)
            dns.state.v[0, 0, 0] = np.nan

    supervised_start = supervised.step_count
    final = sup.run(12, callback=cosmic_ray)
    final.finalize_telemetry()
    err = float(np.abs(final.state.v - reference.state.v).max())
    print(f"  injected NaN at step +8; {sup.report()}")
    print(f"  |recovered - uninterrupted| = {err:.2e} (bit-exact)")
    events = [r["kind"] for r in read_stream(workdir / "telemetry" / "telemetry.jsonl")
              if r["type"] == "event"]
    print(f"  telemetry stream recorded the episode: {events}")
    print(f"  (breakdown: python -m repro.telemetry.report {workdir}/telemetry/telemetry.jsonl)\n")

    # -- stage 6: price the real campaign ---------------------------------
    print("stage 6: the paper's production campaign through the machine model")
    est = plan_campaign()
    print(f"  grid 10240 x 1536 x 7680 on 524,288 Mira cores (hybrid)")
    print(f"  modelled {est.seconds_per_step:.2f} s/step x {est.total_steps:,} steps")
    print(f"  -> {est.core_hours / 1e6:.0f} M core-hours over {est.wall_days:.0f} days")
    print(f"     (paper: ~{PAPER_CORE_HOURS / 1e6:.0f} M core-hours)")


if __name__ == "__main__":
    main()
