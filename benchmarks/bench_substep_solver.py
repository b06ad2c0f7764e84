"""Solve share of a DNS timestep — before/after the blocked solve engine.

The tentpole claim of the solve-engine PR is end-to-end, not kernel-deep:
the implicit wall-normal solves (three-plus batched banded solves per RK
substep) must stop dominating the ``ns_advance`` section.  This bench
runs the same small turbulent channel three ways,

* **before** — row-at-a-time sweeps (``FoldedLU.solve_reference``
  monkeypatched over ``solve``) with separate per-variable solves,
* **unfused** — blocked engine, separate omega_y and phi/v solves
  composed from public calls (``helm_lu.solve`` plus
  ``InfluenceSolver.solve``, patched over ``InfluenceSolver.advance``),
* **fused**  — blocked engine with the shared-factor omega+phi sweep
  (the production path; the mean profiles ride the (0,0) omega member),

and reports the per-step wall-clock of each, the time spent under the
``SOLVE`` timer section, and the solve share of a step.  Fused and
unfused trajectories must agree bit-for-bit; the fused engine path must
cut the solve time of the "before" configuration at least in half.
"""

from __future__ import annotations

import numpy as np

from repro.core import ChannelConfig, ChannelDNS
from repro.core.influence import InfluenceSolver
from repro.linalg.custom import FoldedLU

from conftest import emit, fmt_row

NSTEPS = 12


def make_dns() -> ChannelDNS:
    cfg = ChannelConfig(nx=24, ny=49, nz=24, re_tau=180.0, dt=2e-4,
                        init_amplitude=0.5, seed=11)
    dns = ChannelDNS(cfg)
    dns.initialize()
    return dns


def unfused_advance(self, rhs_phi, rhs_omega):
    """The substep's solves one variable at a time: omega_y (with the
    mean pair in its (0,0) member) alone, then phi/v alone."""
    ro = rhs_omega.reshape(self.nmodes, self.ny).copy()
    ro[:, 0] = 0.0
    ro[:, -1] = 0.0
    a_omega = self.helm_lu.solve(ro)
    return self.solve(rhs_phi), a_omega.reshape(rhs_omega.shape)


def run_timed(fused: bool = True) -> dict:
    fused_advance = InfluenceSolver.advance
    if not fused:
        InfluenceSolver.advance = unfused_advance
    try:
        dns = make_dns()
        dns.run(2)  # warm transforms, engines and BLAS paths
        dns.stepper.timers.reset()
        dns.run(NSTEPS)
    finally:
        InfluenceSolver.advance = fused_advance
    t = dns.stepper.timers
    return {
        "step": t.total() / NSTEPS,
        "solve": t.elapsed[t.SOLVE] / NSTEPS,
        "advance": t.elapsed[t.ADVANCE] / NSTEPS,
        "state": dns.state,
    }


def test_substep_solver(benchmark):
    before_solve = FoldedLU.solve
    try:
        # "before": the pre-engine interpreted row sweeps on every solve
        FoldedLU.solve = FoldedLU.solve_reference
        res_before = run_timed(fused=False)
    finally:
        FoldedLU.solve = before_solve
    res_unfused = run_timed(fused=False)
    res_fused = run_timed()

    # correctness first: engine paths must agree with each other exactly
    # and with the row-sweep trajectory to solver tolerance
    for name in ("v", "omega_y", "u00", "w00"):
        a = getattr(res_fused["state"], name)
        b = getattr(res_unfused["state"], name)
        assert np.array_equal(a, b), f"fused/unfused trajectories split on {name}"
        c = getattr(res_before["state"], name)
        np.testing.assert_allclose(a, c, rtol=1e-8, atol=1e-10)

    widths = (10, 11, 11, 11, 12)
    lines = [
        f"Solve share of a timestep — 24x49x24 channel, {NSTEPS} steps,",
        "per-step seconds (SOLVE is timed inside ns_advance):",
        fmt_row(("config", "step", "ns_advance", "solve", "solve/step"), widths),
    ]
    for label, res in (("before", res_before), ("unfused", res_unfused),
                       ("fused", res_fused)):
        lines.append(
            fmt_row(
                (label, f"{res['step']:.4f}s", f"{res['advance']:.4f}s",
                 f"{res['solve']:.4f}s", f"{res['solve'] / res['step']:.1%}"),
                widths,
            )
        )
    speedup = res_before["solve"] / res_fused["solve"]
    lines += [
        f"engine solve speedup vs row sweeps: {speedup:.2f}x "
        "(fused engine vs solve_reference, same trajectory)",
    ]
    emit("substep_solver", "\n".join(lines))

    assert speedup >= 2.0, f"solve-engine speedup collapsed: {speedup:.2f}x"
    assert res_fused["solve"] <= res_unfused["solve"] * 1.25, (
        "fusing the omega/phi sweep should not slow the solve section down"
    )

    # benchmark one full production step (fused engine path)
    dns = make_dns()
    dns.run(2)
    benchmark(dns.step)
