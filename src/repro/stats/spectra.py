"""One-dimensional energy spectra — the spectral-DNS resolution diagnostic.

The paper's case for Fourier methods (§2) rests on resolution per mode;
the standard check that a DNS is resolved is that the 1-D energy spectra
fall by several decades before the grid cutoff.  These helpers compute
plane-averaged streamwise/spanwise spectra at a given wall distance from
velocity coefficient arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: the caller brings the grid and operators
    from repro.core.grid import ChannelGrid
    from repro.core.operators import WallNormalOps


def energy_spectrum_x(
    grid: ChannelGrid, ops: WallNormalOps, field: np.ndarray, y_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """(kx, E(kx)): streamwise 1-D spectrum at one y plane, summed over kz.

    ``field`` is a spectral coefficient array ``(mx, mz, ny)``.  For
    each retained streamwise wavenumber, ``E(kx)`` sums ``|f(kx, kz)|^2``
    over every signed spanwise mode; the ``kx > 0`` rows are then doubled
    (reality condition: the stored half-spectrum represents +/-kx), so
    Parseval holds: ``sum_kx E(kx)`` is the plane's total energy in this
    field.  The streaming accumulator
    (:class:`repro.serving.StreamingStatistics`) reproduces this
    quantity per plane; identity is pinned by
    ``tests/serving/test_accumulators.py``.
    """
    vals = ops.values(field)[:, :, y_index]  # (mx, mz)
    e = (np.abs(vals) ** 2).sum(axis=1)
    e[1:] *= 2.0  # reality condition: kx > 0 counts twice
    return grid.kx.copy(), e


def energy_spectrum_z(
    grid: ChannelGrid, ops: WallNormalOps, field: np.ndarray, y_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """(kz >= 0, E(kz)): spanwise 1-D spectrum at one y plane, summed over kx.

    The sum over streamwise modes applies the reality weight first
    (``kx > 0`` counts twice, matching :func:`energy_spectrum_x`), then
    the signed spanwise spectrum is folded onto ``kz >= 0`` by adding
    the ``-kz`` column into its ``+kz`` partner — so here too
    ``sum_kz E(kz)`` is the plane's total energy.
    """
    vals = ops.values(field)[:, :, y_index]  # (mx, mz)
    w = np.full(grid.mx, 2.0)
    w[0] = 1.0
    e_signed = (np.abs(vals) ** 2 * w[:, None]).sum(axis=0)  # over kx
    half = grid.nz // 2
    kz = grid.kz[:half]
    e = np.empty(half)
    e[0] = e_signed[0]
    for j in range(1, half):
        e[j] = e_signed[j] + e_signed[grid.mz - j]  # fold ±kz
    return kz.copy(), e


def spectral_decay(e: np.ndarray) -> float:
    """Decades of roll-off: log10(peak / tail) of a spectrum (resolution check)."""
    e = np.asarray(e, dtype=float)
    peak = e.max()
    tail = max(e[-1], np.finfo(float).tiny)
    return float(np.log10(peak / tail))
