"""Wavenumber mode sets — full (serial) or a rank's pencil block (parallel).

The KMM equations are diagonal in the horizontal wavenumbers, so every
piece of the time advance (Helmholtz solves, velocity recovery, source
assembly) only ever needs *its own* block of modes.  A :class:`ModeSet`
carries the wavenumber arrays for whichever block a worker owns; the
serial solver uses the full set, each SimMPI rank a slice of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ModeSet:
    """A rectangular block of (kx, kz) modes.

    ``kx``/``kz`` are the wavenumber values of the block; ``mean_index``
    is the local index of the (0,0) mode if this block owns it, else None.
    """

    kx: np.ndarray
    kz: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.kx.size, self.kz.size)

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.kx[:, None] ** 2 + self.kz[None, :] ** 2

    @cached_property
    def ikx(self) -> np.ndarray:
        """``i kx`` broadcastable over ``(mx, mz, ny)`` state arrays."""
        return (1j * self.kx)[:, None, None]

    @cached_property
    def ikz(self) -> np.ndarray:
        """``i kz`` broadcastable over ``(mx, mz, ny)`` state arrays."""
        return (1j * self.kz)[None, :, None]

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Plane-average weights of this block, broadcastable over state
        arrays: with the x reality condition ``kx > 0`` counts twice."""
        w = np.full(self.shape, 2.0)
        w[self.kx == 0.0, :] = 1.0
        return w[..., None]

    @cached_property
    def mean_index(self) -> tuple[int, int] | None:
        """Local (i, j) of the kx = kz = 0 mode, or None if not owned."""
        ix = np.nonzero(self.kx == 0.0)[0]
        iz = np.nonzero(self.kz == 0.0)[0]
        if ix.size and iz.size:
            return (int(ix[0]), int(iz[0]))
        return None

    @property
    def owns_mean(self) -> bool:
        return self.mean_index is not None

    def state_shape(self, ny: int) -> tuple[int, int, int]:
        return self.shape + (ny,)

    def slab(self, xs: slice, zs: slice) -> "ModeSet":
        """Sub-block of this mode set (used to build per-rank sets)."""
        return ModeSet(kx=self.kx[xs], kz=self.kz[zs])
