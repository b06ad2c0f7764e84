"""Plane-averaged statistics of one snapshot (paper §6, Figs. 5-6).

The channel is statistically stationary and homogeneous in x and z, so
statistics are averages over horizontal planes accumulated in time.  In
spectral space a plane average of a quadratic quantity is a weighted sum
over modes (Parseval): with the x reality condition, modes with
``kx > 0`` count twice.

These are the *batch* helpers over a full serial-layout snapshot — the
oracle of :mod:`repro.core.budget` and the tests.  Time averages inside
a run come from :class:`repro.serving.StreamingStatistics`
(``dns.attach_streaming()``), which applies the same weighting block by
block.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import ChannelGrid


def mode_weights(grid: ChannelGrid) -> np.ndarray:
    """Parseval weights over the (mx, mz) mode grid (2 for kx > 0)."""
    w = np.full((grid.mx, grid.mz), 2.0)
    w[0, :] = 1.0
    return w


def plane_covariance(
    grid: ChannelGrid, f_vals: np.ndarray, g_vals: np.ndarray
) -> np.ndarray:
    """Plane-averaged ``<f' g'>`` profile from collocated spectral values.

    Fluctuations exclude the (0,0) mean mode.
    """
    w = mode_weights(grid)[..., None].copy()
    prod = np.real(f_vals * np.conj(g_vals)) * w
    prod[0, 0] = 0.0
    return prod.sum(axis=(0, 1))
