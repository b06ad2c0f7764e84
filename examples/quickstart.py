"""Quickstart: a small turbulent channel DNS in a few lines.

Runs a laptop-scale version of the paper's production simulation —
same equations (Kim–Moin–Moser), same discretization (Fourier x/z,
7th-degree B-spline collocation in y), same RK3 IMEX time advance —
on a 32 x 33 x 32 grid at Re_tau = 180, and prints the solver's
built-in diagnostics.

Run:  python examples/quickstart.py
"""

import time

from repro import ChannelConfig, ChannelDNS


def main() -> None:
    config = ChannelConfig(
        nx=32,
        ny=33,
        nz=32,
        re_tau=180.0,
        dt=2e-4,
        init_amplitude=0.4,
        seed=1,
    )
    dns = ChannelDNS(config)
    dns.initialize()

    print(f"grid: {dns.grid}")
    print(f"nu = {config.nu:.5f} (Re_tau = {config.re_tau})")
    print(f"initial divergence: {dns.divergence_norm():.3e}")
    print(f"initial kinetic energy: {dns.kinetic_energy():.4f}\n")

    nsteps = 50
    stats = dns.attach_streaming(every=2)  # sampled inside the step loop
    t0 = time.perf_counter()
    for chunk in range(5):
        dns.run(nsteps // 5)
        print(
            f"step {dns.step_count:4d}  t = {dns.state.time:.4f}  "
            f"KE = {dns.kinetic_energy():8.4f}  CFL = {dns.cfl_number():.3f}  "
            f"u_tau = {dns.wall_shear_velocity():.4f}  "
            f"div = {dns.divergence_norm():.2e}"
        )
    elapsed = time.perf_counter() - t0
    print(f"\n{nsteps} steps in {elapsed:.2f} s ({elapsed / nsteps * 1e3:.1f} ms/step)")

    print(f"\nstatistics from {stats.nsamples} samples:")
    print(f"  bulk velocity      : {stats.bulk_velocity():.3f}")
    print(f"  friction velocity  : {stats.friction_velocity():.3f}")
    yplus, uplus = stats.wall_units()
    print("  mean profile (wall units):")
    for i in range(0, len(yplus), max(1, len(yplus) // 8)):
        print(f"    y+ = {yplus[i]:7.2f}   U+ = {uplus[i]:6.2f}")


if __name__ == "__main__":
    main()
