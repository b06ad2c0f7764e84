"""Wall-normal (spline) operators on batched spectral state arrays.

State arrays are spline *coefficients* shaped ``(mx, mz, ny)`` (y last).
This module provides the collocated-value views and y-derivatives used
throughout the core, plus the spectral Laplacian of the KMM equations.

The collocation matrices are banded (8 non-zeros per row at degree 7)
and are applied as such: ``values``/``dvalues``/``d2values`` run the
column-panel GEMMs of :class:`~repro.linalg.panels.PanelApply`, and
``coeffs`` the factor-once interpolation solve of the basis.  The dense
``B``/``D1``/``D2`` stay as attributes for the oracles of
:mod:`repro.linalg.reference` and for analysis; no step multiplies by them.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import ChannelGrid
from repro.linalg.panels import PanelApply


class WallNormalOps:
    """Cached collocation operators bound to a grid (shared by solver parts)."""

    def __init__(self, grid: ChannelGrid) -> None:
        self.grid = grid
        self.basis = grid.basis
        self.B = self.basis.colloc_matrix(0)
        self.D1 = self.basis.colloc_matrix(1)
        self.D2 = self.basis.colloc_matrix(2)
        kl, ku = self.basis.bandwidths
        self._apply = [PanelApply(mat, kl, ku) for mat in (self.B, self.D1, self.D2)]
        # the wall rows of D1 reach ku + 1 / kl + 1 coefficients
        self._wall_lower = self.D1[0, : ku + 1].copy()
        self._wall_upper = self.D1[-1, -(kl + 1) :].copy()

    # -- coefficient-space operations (batched over leading axes) -------

    def values(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Collocated values of spline coefficients (``out=`` reuses a buffer)."""
        return self._apply[0](coeffs, out)

    def dvalues(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Collocated first-derivative values (``out=`` reuses a buffer)."""
        return self._apply[1](coeffs, out)

    def d2values(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Collocated second-derivative values (``out=`` reuses a buffer)."""
        return self._apply[2](coeffs, out)

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Spline coefficients interpolating collocated values."""
        return self.basis.interpolate(values)

    def laplacian_values(self, coeffs: np.ndarray, ksq: np.ndarray) -> np.ndarray:
        """Collocated ``(d²/dy² - k²)`` of a spectral coefficient array.

        ``ksq`` broadcasts over the leading axes (``grid.ksq`` shaped
        ``(mx, mz)`` against state ``(mx, mz, ny)``).
        """
        return self.d2values(coeffs) - np.asarray(ksq)[..., None] * self.values(coeffs)

    def wall_derivatives(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First-derivative values at (y=-1, y=+1), batched."""
        lower = coeffs[..., : self._wall_lower.size] @ self._wall_lower
        upper = coeffs[..., -self._wall_upper.size :] @ self._wall_upper
        return lower, upper
