"""Block decomposition of the spectral and physical grids (paper §2.2, Fig. 2).

The three-dimensional data is decomposed over a ``PA x PB`` process grid.
Each process owns a *pencil* — full extent in one direction, blocks of
the other two:

=========  ================  =====================
pencil     local axes        distributed axes
=========  ================  =====================
y-pencil   y (wall-normal)   x over PA, z over PB
z-pencil   z (spanwise)      x over PA, y over PB
x-pencil   x (streamwise)    z over PA, y over PB
=========  ================  =====================

Transposing y <-> z pencils exchanges data within **CommB** (ranks that
share an A coordinate); z <-> x within **CommA**.  Block sizes follow the
standard "remainder to the first ranks" rule so any extent works on any
process count.  A serial run is the ``1 x 1`` grid: every block is the
whole extent.  This module imports nothing of the parallel layers, so
the serial transforms and snapshots use it too;
:mod:`repro.pencil.decomp` re-exports it beside the process-grid
planner.
"""

from __future__ import annotations

from dataclasses import dataclass


def block_range(n: int, p: int, i: int) -> tuple[int, int]:
    """Half-open index range of block ``i`` of ``n`` items over ``p`` parts."""
    if not 0 <= i < p:
        raise ValueError(f"block index {i} outside [0, {p})")
    base, rem = divmod(n, p)
    start = i * base + min(i, rem)
    size = base + (1 if i < rem else 0)
    return start, start + size


def block_slices(n: int, p: int) -> list[slice]:
    """All block slices of ``n`` items over ``p`` parts."""
    return [slice(*block_range(n, p, i)) for i in range(p)]


def block_size(n: int, p: int, i: int) -> int:
    start, stop = block_range(n, p, i)
    return stop - start


def block_sizes(n: int, p: int) -> list[int]:
    """All block sizes of ``n`` items over ``p`` parts."""
    return [block_size(n, p, i) for i in range(p)]


@dataclass(frozen=True)
class PencilDecomp:
    """Local-shape arithmetic for one rank of the process grid.

    Extents refer to the *spectral* representation (``mx``, ``mz``, ``ny``)
    plus the physical quadrature extents (``nxq``, ``nzq``) reached after
    padding.  Arrays are indexed ``(x, z, y)`` throughout.
    """

    mx: int
    mz: int
    ny: int
    nxq: int
    nzq: int
    pa: int
    pb: int
    a: int  # this rank's A coordinate
    b: int  # this rank's B coordinate

    # ------------------------------------------------------------------
    # local slices
    # ------------------------------------------------------------------

    @property
    def x_slice(self) -> slice:
        """Local spectral-x block (distributed over PA in y/z pencils)."""
        return slice(*block_range(self.mx, self.pa, self.a))

    @property
    def z_spec_slice(self) -> slice:
        """Local spectral-z block (distributed over PB in y pencils)."""
        return slice(*block_range(self.mz, self.pb, self.b))

    @property
    def y_slice(self) -> slice:
        """Local y block (distributed over PB in z/x pencils)."""
        return slice(*block_range(self.ny, self.pb, self.b))

    @property
    def zq_slice(self) -> slice:
        """Local quadrature-z block (distributed over PA in x pencils)."""
        return slice(*block_range(self.nzq, self.pa, self.a))

    # ------------------------------------------------------------------
    # local shapes
    # ------------------------------------------------------------------

    def _len(self, s: slice) -> int:
        return s.stop - s.start

    @property
    def y_pencil_shape(self) -> tuple[int, int, int]:
        """(x-block, z-spec-block, full y): the spectral state layout."""
        return (self._len(self.x_slice), self._len(self.z_spec_slice), self.ny)

    @property
    def z_pencil_shape_spec(self) -> tuple[int, int, int]:
        """(x-block, full spectral z, y-block): before the dealiasing pad."""
        return (self._len(self.x_slice), self.mz, self._len(self.y_slice))

    @property
    def z_pencil_shape_phys(self) -> tuple[int, int, int]:
        """(x-block, full quadrature z, y-block): after pad + inverse FFT."""
        return (self._len(self.x_slice), self.nzq, self._len(self.y_slice))

    @property
    def x_pencil_shape_spec(self) -> tuple[int, int, int]:
        """(full spectral x, quadrature-z block, y-block)."""
        return (self.mx, self._len(self.zq_slice), self._len(self.y_slice))

    @property
    def x_pencil_shape_phys(self) -> tuple[int, int, int]:
        """(full quadrature x, quadrature-z block, y-block): physical space."""
        return (self.nxq, self._len(self.zq_slice), self._len(self.y_slice))

    # ------------------------------------------------------------------

    @classmethod
    def for_rank(
        cls, mx: int, mz: int, ny: int, nxq: int, nzq: int, pa: int, pb: int, rank: int
    ) -> "PencilDecomp":
        """Decomposition seen by cartesian rank ``rank`` (row-major (a, b))."""
        a, b = divmod(rank, pb)
        return cls(mx=mx, mz=mz, ny=ny, nxq=nxq, nzq=nzq, pa=pa, pb=pb, a=a, b=b)

    def validate(self) -> None:
        """Sanity-check that every rank gets non-empty pencils."""
        for n, p, what in (
            (self.mx, self.pa, "x modes over PA"),
            (self.mz, self.pb, "z modes over PB"),
            (self.ny, self.pb, "y points over PB"),
            (self.nzq, self.pa, "z quadrature over PA"),
        ):
            if n < p:
                raise ValueError(f"cannot split {n} {what} over {p} processes")
