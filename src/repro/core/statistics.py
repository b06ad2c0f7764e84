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


def covariance_profile(f_vals, g_vals, weights_x, mean, out=None):
    """``(<f' g'>(y), per-kx sums over kz)`` of collocated spectral values.

    ``Re f Re g`` and ``Im f Im g`` of every mode are formed as one float
    ``(mx, mz, 2 ny)`` array (into ``out``, which may be ``f``'s own
    float view), the mean mode ``mean`` — its ``(i, j)``, None where a
    block does not hold it — is zeroed, the rest summed over kz (the
    returned ``(mx, 2 ny)`` sums) and over kx with the Parseval
    ``weights_x``, and each plane's two products added.  The streaming
    accumulator and :func:`plane_covariance` both sum through here,
    which keeps their covariances bit-identical.
    """
    fv = np.ascontiguousarray(f_vals).view(float)
    prod = np.multiply(fv, np.ascontiguousarray(g_vals).view(float), out=out)
    if mean is not None:
        prod[mean] = 0.0
    per_kx = np.ones(prod.shape[1]) @ prod
    total = weights_x @ per_kx
    return total[0::2] + total[1::2], per_kx


def plane_covariance(
    grid: ChannelGrid, f_vals: np.ndarray, g_vals: np.ndarray
) -> np.ndarray:
    """Plane-averaged ``<f' g'>`` profile from collocated spectral values.

    Fluctuations exclude the (0,0) mean mode.
    """
    return covariance_profile(f_vals, g_vals, mode_weights(grid)[:, 0], (0, 0))[0]
