"""Kernel-level operation counts for the DNS timestep (model side).

Counts mirror the real implementation in :mod:`repro.core` /
:mod:`repro.pencil`:

* one RK3 timestep = 3 substeps;
* each substep moves 3 velocity fields spectral -> physical and 5
  product fields back (8 field-passes), each pass being one CommB
  transpose + one z FFT + one CommA transpose + one x FFT;
* the Navier-Stokes advance solves three banded systems per wavenumber
  per substep (paper §2.1) — factor + solve of bandwidth-15 collocation
  pencils, ~2k flops per spectral point.

FFT flop counts use the standard ``5 N log2 N`` (complex) and
``2.5 N log2 N`` (real) line costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

#: banded factor+solve work per spectral point per substep (3 systems of
#: bandwidth 15: LU ~2W² + sweeps ~6W flops each) — fitted to the paper's
#: Table 9 Mira advance column through the measured 1.16 GF/core rate.
ADVANCE_FLOPS_PER_POINT = 2030.0

#: RK substeps per timestep and field-passes per substep
SUBSTEPS = 3
FORWARD_FIELDS = 3
BACKWARD_FIELDS = 5
PASSES_PER_SUBSTEP = FORWARD_FIELDS + BACKWARD_FIELDS

BYTES_PER_COMPLEX = 16


@dataclass(frozen=True)
class GridCounts:
    """Operation/volume bookkeeping for one DNS grid (with 3/2 dealiasing)."""

    nx: int
    ny: int
    nz: int
    dealias: bool = True

    @property
    def mx(self) -> int:
        return self.nx // 2

    @property
    def mz(self) -> int:
        return self.nz - 1

    @property
    def nxq(self) -> int:
        return (3 * self.nx) // 2 if self.dealias else self.nx

    @property
    def nzq(self) -> int:
        return (3 * self.nz) // 2 if self.dealias else self.nz

    @cached_property
    def mode_points(self) -> int:
        """Spectral points of one field (what the advance solves over)."""
        return self.mx * self.mz * self.ny

    # ------------------------------------------------------------------
    # FFT flop counts, one field, one direction pass
    # ------------------------------------------------------------------

    def z_fft_flops(self) -> float:
        """Complex transforms over z: ``mx * ny`` lines of ``nzq``."""
        lines = self.mx * self.ny
        return 5.0 * self.nzq * math.log2(self.nzq) * lines

    def x_fft_flops(self) -> float:
        """Real transforms over x: ``nzq * ny`` lines of ``nxq``."""
        lines = self.nzq * self.ny
        return 2.5 * self.nxq * math.log2(self.nxq) * lines

    # ------------------------------------------------------------------
    # transpose volumes, one field (bytes, global)
    # ------------------------------------------------------------------

    def yz_bytes(self) -> float:
        """y <-> z transpose: the spectral field (pre-pad)."""
        return self.mode_points * BYTES_PER_COMPLEX

    def zx_bytes(self) -> float:
        """z <-> x transpose: the z-padded field."""
        return self.mx * self.nzq * self.ny * BYTES_PER_COMPLEX

    # ------------------------------------------------------------------
    # per-timestep totals
    # ------------------------------------------------------------------

    def advance_flops_per_step(self) -> float:
        return ADVANCE_FLOPS_PER_POINT * self.mode_points * SUBSTEPS

    def fft_flops_per_step(self) -> tuple[float, float]:
        """(z part, x part) flop totals over a full timestep."""
        passes = SUBSTEPS * PASSES_PER_SUBSTEP
        return passes * self.z_fft_flops(), passes * self.x_fft_flops()
