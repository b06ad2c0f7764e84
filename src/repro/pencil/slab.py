"""Slab (planar / 1-D) decomposition — the alternative the paper rejects.

§2.2: "This pencil decomposition is used rather than the alternative
planar decomposition because it provides far greater flexibility with
respect to possible MPI communicator topologies and node counts."

A slab decomposition splits exactly one axis across all ranks:

* spectral state: x-modes split over P, z and y local,
* physical state: z split over P, x and y local,

with a *single* global transpose (over the world communicator) between
them.  Its two structural limits, demonstrated by tests and benches:

1. **rank-count ceiling** — P cannot exceed ``min(mx, nzq)``; the
   paper's production grid caps a slab code at ~5,120 ranks where the
   pencil code runs on 524,288 cores;
2. **monolithic all-to-all** — the one transpose spans all P ranks, so
   there is no node-local sub-communicator to exploit (the Table 5
   optimisation is unavailable).
"""

from __future__ import annotations

import numpy as np

from repro.fft.fourier import quadrature_points
from repro.instrument import SectionTimers
from repro.mpi.simmpi import Communicator
from repro.pencil.decomp import block_range
from repro.pencil.transpose import TransposeMethod, transpose_class


def max_slab_ranks(nx: int, nz: int, dealias: bool = True) -> int:
    """The slab decomposition's hard rank-count ceiling for a grid."""
    mx = nx // 2
    nzq = quadrature_points(nz) if dealias else nz
    return min(mx, nzq)


class SlabTransforms:
    """Distributed spectral <-> physical transforms on a slab decomposition.

    Same mathematics as :class:`~repro.pencil.parallel_fft.PencilTransforms`
    (Nyquist-free, 3/2 dealiasing) with one world-communicator transpose.
    """

    def __init__(
        self,
        comm: Communicator,
        nx: int,
        ny: int,
        nz: int,
        dealias: bool = True,
        method: TransposeMethod | None = None,
        timers: SectionTimers | None = None,
    ) -> None:
        self.comm = comm
        self.nx, self.ny, self.nz = nx, ny, nz
        self.dealias = dealias
        self.timers = timers or SectionTimers()

        self.mx = nx // 2
        self.mz = nz - 1
        self.nxq = quadrature_points(nx) if dealias else nx
        self.nzq = quadrature_points(nz) if dealias else nz

        p = comm.size
        if p > max_slab_ranks(nx, nz, dealias):
            raise ValueError(
                f"slab decomposition cannot use {p} ranks on this grid "
                f"(ceiling: {max_slab_ranks(nx, nz, dealias)}) — "
                "the inflexibility the paper's pencil decomposition avoids"
            )
        self.x_slice = slice(*block_range(self.mx, p, comm.rank))
        self.zq_slice = slice(*block_range(self.nzq, p, comm.rank))
        make = transpose_class(method)
        # one transpose: x-block spectral <-> z-block physical
        self.t_fwd = make(comm, split_axis=1, concat_axis=0, method=method)
        self.t_bwd = make(comm, split_axis=0, concat_axis=1, method=method)

    # ------------------------------------------------------------------

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """(local x modes, all z modes, all y)."""
        return (self.x_slice.stop - self.x_slice.start, self.mz, self.ny)

    @property
    def physical_shape(self) -> tuple[int, int, int]:
        """(all x points, local z points, all y)."""
        return (self.nxq, self.zq_slice.stop - self.zq_slice.start, self.ny)

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Spectral slab -> physical slab: z-FFT local, one transpose, x-FFT."""
        from repro.fft.fourier import _insert_modes_c

        t = self.timers
        if spec.shape != self.spectral_shape:
            raise ValueError(f"expected {self.spectral_shape}, got {spec.shape}")
        with t.section(t.FFT):
            zfull = _insert_modes_c(spec, self.nzq, axis=1)
            zphys = np.fft.ifft(zfull * self.nzq, axis=1)  # (mx_loc, nzq, ny)
        with t.section(t.TRANSPOSE):
            xp = self.t_fwd.execute(zphys)  # (mx, nzq_loc, ny)
        with t.section(t.FFT):
            shape = list(xp.shape)
            shape[0] = self.nxq // 2 + 1
            xfull = np.zeros(shape, dtype=complex)
            xfull[: self.mx] = xp
            phys = np.fft.irfft(xfull * self.nxq, n=self.nxq, axis=0)
        return phys

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        from repro.fft.fourier import truncate_from_quadrature_c

        t = self.timers
        if phys.shape != self.physical_shape:
            raise ValueError(f"expected {self.physical_shape}, got {phys.shape}")
        with t.section(t.FFT):
            xh = np.fft.rfft(phys, axis=0) / self.nxq
            xh = np.ascontiguousarray(xh[: self.mx])
        with t.section(t.TRANSPOSE):
            zp = self.t_bwd.execute(xh)  # (mx_loc, nzq, ny)
        with t.section(t.FFT):
            zh = np.fft.fft(zp, axis=1) / self.nzq
            spec = truncate_from_quadrature_c(zh, self.nz, axis=1)
        return np.ascontiguousarray(spec)

    def fft_cycle(self, spec: np.ndarray) -> np.ndarray:
        return self.from_physical(self.to_physical(spec))
