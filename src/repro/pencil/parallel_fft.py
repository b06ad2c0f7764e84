"""The customized parallel FFT kernel (paper §4.4).

Implements the full spectral <-> physical pipeline of the simulation loop
(paper §2.3 steps (a)-(f) and their reverses) on the pencil
decomposition:

    y-pencil spectral
      --(a) transpose CommB-->   z-pencil
      --(b) pad z-->  --(c) inverse FFT z-->
      --(d) transpose CommA-->   x-pencil
      --(e) pad x-->  --(f) inverse real FFT x-->   physical

The kernel embodies the two §4.4 distinctions from P3DFFT:

* **Nyquist dropping** — the stored x spectrum has ``nx/2`` modes and the
  z spectrum ``nz - 1``; the dropped modes never enter a transpose.
* **1x work buffer** — every stage consumes its input and hands over one
  intermediate of (at most) the padded size; no 3x staging buffers.

When a transpose's method is ``PIPELINED``, the adjacent FFT stage is
*fused into* the transpose: the exchange for slab ``k`` is posted
nonblocking while slab ``k-1`` (``to_physical``: pad + inverse FFT after
assembly) or ``k+1`` (``from_physical``: forward FFT + truncate before
posting) runs its transforms, hiding wire time behind compute.  The 1-D
FFTs are independent per pencil, so the fused path is bit-for-bit
identical to the synchronous one at any slab count; its hidden compute
is timed under the nested ``overlap`` section and accounted in
:attr:`overlap_counters`.  Every slab is one more exchange, so the slab
count defaults to one (``stages``): more only pays where there is wire
latency to hide.  One slab hides nothing, so it runs the FFT stage
around one blocking ``alltoall`` and posts nothing.  The receive
extents of every exchange come from the decomposition, so a pipelined
execute runs no collective besides its exchange calls.

Construction is collective over the cartesian communicator.
"""

from __future__ import annotations

import numpy as np

from repro.fft.fourier import quadrature_points
from repro.fft.plans import Planner, default_planner
from repro.instrument import OverlapCounters, PrecisionCounters, SectionTimers
from repro.mpi.simmpi import CartesianCommunicator
from repro.pencil.decomp import PencilDecomp, block_sizes
from repro.pencil.transpose import (
    DEFAULT_STAGES,
    GlobalTranspose,
    TransposeMethod,
    exchange_op,
)


def _insert_fft_modes(uh: np.ndarray, npoints: int, axis: int) -> np.ndarray:
    """Zero-pad Nyquist-free FFT-ordered modes to a length-``npoints`` spectrum."""
    from repro.fft.fourier import _insert_modes_c

    return _insert_modes_c(uh, npoints, axis)


def _extract_fft_modes(uh_full: np.ndarray, nz: int, axis: int) -> np.ndarray:
    """Keep the ``nz - 1`` Nyquist-free modes from a full FFT spectrum."""
    from repro.fft.fourier import truncate_from_quadrature_c

    return truncate_from_quadrature_c(uh_full, nz, axis=axis)


class PencilTransforms:
    """Distributed spectral <-> physical transforms on a PA x PB grid.

    Parameters
    ----------
    cart:
        Cartesian communicator with ``dims = (pa, pb)``.
    nx, ny, nz:
        Global physical grid extents (x and z even).
    dealias:
        Pad to the 3/2 quadrature grid (production DNS) or transform on
        the bare grid (the Table 6 benchmark configuration, matching
        P3DFFT's feature set).
    method:
        Transpose method of both exchanges; None means ``ALLTOALL``.
    timers:
        Optional :class:`SectionTimers` receiving transpose/fft sections.
    planner:
        :class:`~repro.fft.plans.Planner` supplying the per-pencil 1-D
        FFT plans; defaults to the process-wide shared cache, so the
        serial pipeline and every rank reuse each other's plans.
    wire:
        ``"full"`` (default) or ``"mixed"`` — mixed precision stages
        float64/complex128 transpose payloads as float32/complex64 on
        the wire with full-precision accumulation on assembly (see
        :mod:`repro.pencil.transpose`); byte savings are accounted in
        :attr:`precision_counters`.
    stages:
        Slab count of the pipelined transposes (default one: one
        blocking ``alltoall`` per transpose, nothing overlapped; more
        post one ``ialltoallv`` per slab).
    """

    drop_nyquist = True

    def __init__(
        self,
        cart: CartesianCommunicator,
        nx: int,
        ny: int,
        nz: int,
        dealias: bool = True,
        method: TransposeMethod | None = None,
        timers: SectionTimers | None = None,
        planner: Planner | None = None,
        wire: str = "full",
        stages: int = DEFAULT_STAGES,
    ) -> None:
        if len(cart.dims) != 2:
            raise ValueError("need a 2-D cartesian communicator (pa, pb)")
        self.cart = cart
        self.pa, self.pb = cart.dims
        self.nx, self.ny, self.nz = nx, ny, nz
        self.dealias = dealias
        self.timers = timers or SectionTimers()
        self.planner = planner if planner is not None else default_planner()

        self.mx = nx // 2 if self.drop_nyquist else nx // 2 + 1
        self.mz = nz - 1 if self.drop_nyquist else nz
        self.nxq = quadrature_points(nx) if dealias else nx
        self.nzq = quadrature_points(nz) if dealias else nz

        self.decomp = PencilDecomp.for_rank(
            self.mx, self.mz, ny, self.nxq, self.nzq, self.pa, self.pb, cart.rank
        )
        self.decomp.validate()

        # CommA: ranks sharing the B coordinate (dim 0 varies).
        self.comm_a = cart.cart_sub([True, False])
        # CommB: ranks sharing the A coordinate (dim 1 varies).
        self.comm_b = cart.cart_sub([False, True])

        #: communication/compute overlap accounting, shared by the four
        #: transposes (populated only by pipelined transposes in more
        #: than one slab)
        self.overlap_counters = OverlapCounters()
        #: mixed-precision wire accounting, shared by the four transposes
        self.precision_counters = PrecisionCounters()
        self.wire = wire

        kw = {"method": method} if method is not None else {}
        kw.update(
            stages=stages,
            timers=self.timers,
            overlap=self.overlap_counters,
            wire=wire,
            precision=self.precision_counters,
        )
        # concat_sizes: every source's block along the axis a transpose
        # gathers — the receive extents, known here without a collective
        self.t_yz = GlobalTranspose(
            self.comm_b, split_axis=2, concat_axis=1,
            concat_sizes=block_sizes(self.mz, self.pb), **kw,
        )
        self.t_zy = GlobalTranspose(
            self.comm_b, split_axis=1, concat_axis=2,
            concat_sizes=block_sizes(ny, self.pb), **kw,
        )
        self.t_zx = GlobalTranspose(
            self.comm_a, split_axis=1, concat_axis=0,
            concat_sizes=block_sizes(self.mx, self.pa), **kw,
        )
        self.t_xz = GlobalTranspose(
            self.comm_a, split_axis=0, concat_axis=1,
            concat_sizes=block_sizes(self.nzq, self.pa), **kw,
        )

    def transport(self) -> dict:
        """How the four transposes move data — ``method``, ``stages``,
        ``wire`` and ``exchange_op``, the SimMPI operation their
        exchanges call — as the run manifest records it."""
        t = self.t_yz
        return {
            "method": t.method.name,
            "stages": t.pipelined.stages,
            "wire": self.wire,
            "exchange_op": exchange_op(t.method, t.pipelined.stages),
        }

    def counter_groups(self) -> dict:
        """Step-record counter groups: the transposes' ``overlap`` and
        ``precision`` accounting."""
        return {
            "overlap": self.overlap_counters.snapshot,
            "precision": self.precision_counters.snapshot,
        }

    # ------------------------------------------------------------------
    # forward: spectral (y-pencil) -> physical (x-pencil)
    # ------------------------------------------------------------------

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Steps (a)-(f): y-pencil spectral block -> x-pencil physical block."""
        d, t = self.decomp, self.timers
        if spec.shape != d.y_pencil_shape:
            raise ValueError(f"expected {d.y_pencil_shape}, got {spec.shape}")
        if self.t_yz.method is TransposeMethod.PIPELINED:
            # transpose-then-compute fusion: assembled slab k runs its z
            # (then x) FFT stage while the exchange for slab k+1 flies
            with t.section(t.TRANSPOSE):
                zphys = self.t_yz.pipelined.execute(
                    np.ascontiguousarray(spec), post=self._z_stage_to_physical
                )
        else:
            with t.section(t.TRANSPOSE):
                zp = self.t_yz.execute(np.ascontiguousarray(spec))  # (mxa, mz, nyb)
            with t.section(t.FFT):
                zphys = self._z_stage_to_physical(zp, 0)  # (mxa, nzq, nyb)
        if self.t_zx.method is TransposeMethod.PIPELINED:
            with t.section(t.TRANSPOSE):
                phys = self.t_zx.pipelined.execute(zphys, post=self._x_stage_to_physical)
        else:
            with t.section(t.TRANSPOSE):
                xp = self.t_zx.execute(zphys)  # (mx, nzqa, nyb)
            with t.section(t.FFT):
                phys = self._x_stage_to_physical(xp, 0)
        return phys

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        """Reverse of :meth:`to_physical` (the Galerkin projection of step h)."""
        d, t = self.decomp, self.timers
        if phys.shape != d.x_pencil_shape_phys:
            raise ValueError(f"expected {d.x_pencil_shape_phys}, got {phys.shape}")
        if self.t_xz.method is TransposeMethod.PIPELINED:
            # compute-then-post fusion: slab k+1 runs its x FFT stage
            # while the exchange for slab k is still in flight
            with t.section(t.TRANSPOSE):
                zp = self.t_xz.pipelined.execute(phys, pre=self._x_stage_to_spectral)
        else:
            with t.section(t.FFT):
                xh = self._x_stage_to_spectral(phys, 0)
            with t.section(t.TRANSPOSE):
                zp = self.t_xz.execute(xh)  # (mxa, nzq, nyb)
        if self.t_zy.method is TransposeMethod.PIPELINED:
            with t.section(t.TRANSPOSE):
                spec = self.t_zy.pipelined.execute(zp, pre=self._z_stage_to_spectral)
        else:
            with t.section(t.FFT):
                zh = self._z_stage_to_spectral(zp, 0)
            with t.section(t.TRANSPOSE):
                spec = self.t_zy.execute(np.ascontiguousarray(zh))  # (mxa, mzb, ny)
        return spec

    # ------------------------------------------------------------------
    # per-slab FFT stages (slab-independent along the transpose stage
    # axis, so fused slabs reproduce the full-array results bitwise)
    # ------------------------------------------------------------------

    def _z_stage_to_physical(self, zp: np.ndarray, k: int) -> np.ndarray:
        """Pad the z spectrum and inverse-transform it (steps b-c)."""
        if self.drop_nyquist:
            zfull = _insert_fft_modes(zp, self.nzq, axis=1)
        else:
            # may alias zp (unpadded Nyquist-keeping case): scaling in
            # place is safe — zp is either the fresh transpose output or
            # the pipelined slab scratch, dead after this stage
            zfull = self._pad_full_spectrum(zp, self.nzq, axis=1)
        zfull *= self.nzq
        return self.planner.execute("ifft", zfull, axis=1)

    def _x_stage_to_physical(self, xp: np.ndarray, k: int) -> np.ndarray:
        """Pad the x spectrum and inverse-real-transform it (steps e-f)."""
        shape = list(xp.shape)
        shape[0] = self.nxq // 2 + 1
        xfull = np.zeros(shape, dtype=complex)
        xfull[: xp.shape[0]] = xp
        xfull *= self.nxq
        return self.planner.execute("irfft", xfull, axis=0, nout=self.nxq)

    def _x_stage_to_spectral(self, phys: np.ndarray, k: int) -> np.ndarray:
        """Forward x transform, truncated to the stored modes."""
        xh = self.planner.execute("rfft", phys, axis=0)
        xh = xh[: self.mx]  # truncate pad (+ Nyquist); stays contiguous
        xh /= self.nxq
        return xh

    def _z_stage_to_spectral(self, zp: np.ndarray, k: int) -> np.ndarray:
        """Forward z transform, truncated to the Nyquist-free modes."""
        zh = self.planner.execute("fft", zp, axis=1)
        zh /= self.nzq
        if self.drop_nyquist:
            zh = _extract_fft_modes(zh, self.nz, axis=1)
        else:
            zh = self._truncate_full_spectrum(zh, axis=1)
        return zh

    # ------------------------------------------------------------------
    # helpers for the Nyquist-keeping variant (P3DFFT layout)
    # ------------------------------------------------------------------

    def _pad_full_spectrum(self, zp: np.ndarray, npoints: int, axis: int) -> np.ndarray:
        if npoints == self.nz:
            return zp
        raise NotImplementedError("dealiasing requires the Nyquist-free layout")

    def _truncate_full_spectrum(self, zh: np.ndarray, axis: int) -> np.ndarray:
        return zh

    # ------------------------------------------------------------------
    # benchmark entry point (Table 6)
    # ------------------------------------------------------------------

    def fft_cycle(self, spec: np.ndarray) -> np.ndarray:
        """One parallel-FFT benchmark cycle: 4 transposes + 4 FFT stages.

        Matches the paper's Table 6 protocol: the data is transformed in
        two directions only (no y transform) and comes back spectral.
        """
        return self.from_physical(self.to_physical(spec))

    # ------------------------------------------------------------------
    # accounting (the §4.4 memory claim)
    # ------------------------------------------------------------------

    def work_buffer_elements(self) -> int:
        """Peak intermediate size: one padded z-pencil block (~1x input)."""
        return int(np.prod(self.decomp.z_pencil_shape_phys))

    def input_elements(self) -> int:
        return int(np.prod(self.decomp.y_pencil_shape))
