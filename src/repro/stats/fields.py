"""Instantaneous-field extraction and rendering (Figs. 7-8).

Fig. 7 shows the streamwise velocity over a full (x, y) plane; Fig. 8
the spanwise vorticity ``omega_z = dv/dx - du/dy`` in an (x, z) plane
near the wall.  Both come straight out of a DNS state here, along with a
text-mode contour renderer so the "figures" are reproducible without a
plotting stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the DNS is the caller's; importing it here would load every layer
    from repro.core.solver import ChannelDNS


def streamwise_velocity_plane(dns: ChannelDNS, z_index: int = 0) -> np.ndarray:
    """u(x, y) at one spanwise quadrature location (Fig. 7).

    Returns the ``(nxq, ny)`` slice of the dealiased physical velocity;
    ``z_index`` indexes the quadrature grid (``nzq`` points), not the
    coarse collocation grid.
    """
    u, _, _ = dns.physical_velocity()
    return u[:, z_index, :]


def spanwise_vorticity_plane(dns: ChannelDNS, yplus: float = 15.0) -> np.ndarray:
    """``omega_z(x, z) = dv/dx - du/dy`` at a near-wall plane (Fig. 8).

    ``yplus`` is the wall distance in viscous units; it is converted
    with the run's viscosity in ``u_tau = 1`` units
    (``y = -1 + yplus * nu``) and snapped to the nearest collocation
    plane of the *lower* wall.  Returns the ``(nxq, nzq)`` physical
    vorticity slice on the dealiased quadrature grid.
    """
    from repro.core.transforms import to_quadrature_grid

    g = dns.grid
    s = dns.stepper
    state = dns.state
    if state is None:
        raise RuntimeError("initialize and run the DNS first")
    ops = s.ops
    # dv/dx: multiply v by i kx; du/dy: first-derivative collocation values
    dvdx = g.modes.ikx * ops.values(state.v)
    dudy = ops.dvalues(state.u)
    omega_z = to_quadrature_grid(dvdx - dudy, g)

    y_target = -1.0 + yplus * dns.config.nu  # u_tau = 1 units
    iy = int(np.argmin(np.abs(g.y - y_target)))
    return omega_z[:, :, iy]


def ascii_contour(
    field: np.ndarray,
    width: int = 72,
    height: int = 20,
    levels: str = " .:-=+*#%@",
) -> str:
    """Text-mode filled contour of a 2-D field.

    The field's first axis runs left-to-right across a row, the second
    axis bottom-to-top down the rows (so a ``(x, y)`` plane renders with
    the wall at the bottom); values map linearly onto ``levels``.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim != 2:
        raise ValueError("need a 2-D field")
    # resample by block averaging onto (width, height)
    xi = np.linspace(0, f.shape[0], width + 1).astype(int)
    yi = np.linspace(0, f.shape[1], height + 1).astype(int)
    out = np.empty((height, width))
    for j in range(height):
        for i in range(width):
            block = f[xi[i] : max(xi[i + 1], xi[i] + 1), yi[j] : max(yi[j + 1], yi[j] + 1)]
            out[j, i] = block.mean()
    lo, hi = out.min(), out.max()
    scale = (len(levels) - 1) / (hi - lo) if hi > lo else 0.0
    rows = []
    for j in range(height - 1, -1, -1):  # y increasing upward
        rows.append("".join(levels[int((v - lo) * scale)] for v in out[j]))
    return "\n".join(rows)


def multiscale_zoom(field: np.ndarray, factor: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Full field plus a zoomed corner — Fig. 7's "zooming in ... highlights
    the multi-scale nature of the turbulence"."""
    f = np.asarray(field)
    nx, ny = f.shape
    return f, f[: max(nx // factor, 2), : max(ny // factor, 2)]
