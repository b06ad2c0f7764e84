"""The one spectral <-> physical transform (paper §2.3, §4.2-4.4).

:class:`PencilFFT` runs steps (a)-(f) of the simulation loop and their
reverse (the Galerkin projection of step (h)) on one block of a
``PA x PB`` pencil decomposition: transpose y->z, pad and inverse-FFT z,
transpose z->x, pad and inverse-real-FFT x.  A serial run is the
``1 x 1`` grid with no communicator
(:class:`~repro.core.transforms.SerialTransformBackend`); a pencil run
injects the four exchanges of
:class:`~repro.pencil.parallel_fft.PencilTransforms`.  Every layout makes
the same numpy calls on its blocks, so the distributed trajectory is
the serial one bit for bit.  This is the paper's customized kernel
(§4.4):

* **Nyquist dropping** — ``nx/2`` x modes and ``nz - 1`` z modes are
  stored; the dropped modes never enter a transpose.
* **Transform-major workspaces** — every FFT runs along the contiguous
  last axis of a persistent workspace, ``(x, y, z)`` for the z stages
  and ``(z, y, x)`` for the x stages; both pads are zeroed once, at
  allocation, and only their retained-mode slots are ever written.
* **The reorder is the pack and the unpack** (§4.2) — forward, the
  exchange ships the input as it is and the unpack writes scaled
  (``* nzq``, ``* nxq``), permuted modes straight into the next pad;
  backward, the pack writes scaled (``/ nxq``, ``/ nzq``), truncated,
  permuted modes, so dropped modes never travel, and the unpack is a
  copy.  With no communicator the forward "unpack" reads the input and
  the backward "pack" writes the next workspace or the output.
* **1x buffers** — after construction only the caller-owned outputs are
  allocated; :class:`~repro.instrument.TransformCounters` counts every
  workspace and staging buffer.

Forward outputs are ``(nxq, nzq, ny)`` views of ``(z, y, x)`` storage,
a layout that products of them keep, so the backward x transform stays
on the contiguous path.  The FFTs are booked under the ``fft`` section,
each pack-exchange-unpack under ``transpose`` (``fft`` with no exchange).
"""

from __future__ import annotations

import numpy as np

from repro.fft.fourier import quadrature_points
from repro.fft.plans import Planner, default_planner
from repro.instrument import SectionTimers, TransformCounters
from repro.layout import PencilDecomp, block_range, block_sizes, block_slices


class PencilFFT:
    """Transform-major spectral <-> physical transforms of one pencil block.

    Subclasses own the layout and the public entry points; this class
    owns the stages.  ``pa, pb, rank`` place the block (``1, 1, 0``
    serial); ``transposes`` are the ``(yz, zx, xz, zy)`` exchanges (yz
    and zy over CommB, zx and xz over CommA), None for no communicator;
    ``dealias=False`` transforms on the bare grid (Table 6);
    ``backend``/``workers`` override the planner's defaults; ``timers``,
    ``planner`` (default: the process-wide one) and ``counters`` are
    fresh when None.
    """

    drop_nyquist = True

    def __init__(
        self,
        nx: int,
        ny: int,
        nz: int,
        *,
        pa: int = 1,
        pb: int = 1,
        rank: int = 0,
        dealias: bool = True,
        transposes=None,
        timers: SectionTimers | None = None,
        planner: Planner | None = None,
        counters: TransformCounters | None = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        self.pa, self.pb = pa, pb
        self.nx, self.ny, self.nz = nx, ny, nz
        self.dealias = dealias
        self.timers = timers if timers is not None else SectionTimers()
        self.planner = planner if planner is not None else default_planner()
        self.counters = counters if counters is not None else TransformCounters()

        self.mx = nx // 2 if self.drop_nyquist else nx // 2 + 1
        self.mz = nz - 1 if self.drop_nyquist else nz
        self.nxq = quadrature_points(nx) if dealias else nx
        self.nzq = quadrature_points(nz) if dealias else nz
        self.decomp = d = PencilDecomp.for_rank(
            self.mx, self.mz, ny, self.nxq, self.nzq, pa, pb, rank
        )
        d.validate()
        self._spec_shape, self._phys_shape = d.y_pencil_shape, d.x_pencil_shape_phys
        mxa, mzb, _ = self._spec_shape
        _, nzqa, nyb = self._phys_shape
        mxq = self.nxq // 2 + 1  # half-spectrum length at quadrature size

        # the blocks of each exchange's ranks: x modes and quadrature z
        # over CommA, spectral z modes and y over CommB
        self._x_blocks = block_slices(self.mx, pa)
        self._zq_blocks = block_slices(self.nzq, pa)
        self._y_blocks = block_slices(ny, pb)
        self._z_pieces = [self._pad_pieces(*block_range(self.mz, pb, j)) for j in range(pb)]

        # plan-once: the four 1-D stages, each on the contiguous last axis
        kw = dict(backend=backend, workers=workers)
        zshape, xshape = (mxa, nyb, self.nzq), (nzqa, nyb, mxq)
        self._plan_ifft_z = self.planner.plan("ifft", zshape, 2, **kw)
        self._plan_irfft_x = self.planner.plan("irfft", xshape, 2, nout=self.nxq, **kw)
        self._plan_rfft_x = self.planner.plan("rfft", (nzqa, nyb, self.nxq), 2, **kw)
        self._plan_fft_z = self.planner.plan("fft", zshape, 2, **kw)

        # persistent workspaces; destination hints only where honoured
        hints = self._plan_ifft_z.backend == "numpy"
        self._zpad = self._workspace(np.zeros(zshape, dtype=complex))
        self._zphys = self._workspace(np.empty(zshape, dtype=complex)) if hints else None
        self._xpad = self._workspace(np.zeros(xshape, dtype=complex))
        self._xspec = self._workspace(np.empty(xshape, dtype=complex)) if hints else None
        self._zwork = self._workspace(np.empty(zshape, dtype=complex))

        #: the exchanges, or None each with no communicator
        self.t_yz, self.t_zx, self.t_xz, self.t_zy = transposes or (None,) * 4
        self._reorder = SectionTimers.FFT if transposes is None else SectionTimers.TRANSPOSE
        if transposes is not None:  # chunk j of each goes to rank j
            staging = (
                [(mxa, mzb, n) for n in block_sizes(ny, pb)],
                [(mxa, nyb, n) for n in block_sizes(self.nzq, pa)],
                [(n, nyb, nzqa) for n in block_sizes(self.mx, pa)],
                [(mxa, n, nyb) for n in block_sizes(self.mz, pb)],
            )
            for t, shapes in zip(transposes, staging):
                for buf in t.allocate(shapes):
                    self._workspace(buf)

    def _workspace(self, buf: np.ndarray) -> np.ndarray:
        self.counters.count_workspace(buf)
        return buf

    def _pad_pieces(self, z0: int, z1: int) -> list[tuple[slice, slice]]:
        """``(block slots, padded slots)`` of spectral z modes ``z0:z1``:
        non-negative modes keep their index, negative ones move to the
        top of the padded line (the gap is the dealiasing band)."""
        half, shift = self.nz // 2, self.nzq - self.mz
        pieces = []
        if z0 < half:
            top = min(z1, half)
            pieces.append((slice(0, top - z0), slice(z0, top)))
        if z1 > half:
            lo = max(z0, half)
            pieces.append((slice(lo - z0, z1 - z0), slice(lo + shift, z1 + shift)))
        return pieces

    def counter_groups(self) -> dict:
        """Step-record counter groups: ``transforms``."""
        return {"transforms": self.counters.snapshot}

    # ------------------------------------------------------------------
    # forward: spectral (y-pencil) -> physical (x-pencil), steps (a)-(f)
    # ------------------------------------------------------------------

    def _to_physical(self, spec: np.ndarray) -> np.ndarray:
        c, t = self.counters, self.timers
        if spec.shape != self._spec_shape:
            raise ValueError(f"expected {self._spec_shape}, got {spec.shape}")
        nzq, nxq, zpad, xpad = self.nzq, self.nxq, self._zpad, self._xpad
        with t.section(self._reorder):
            # (a)-(b): scaled mode slots into the z pad, permuting
            # (x, z, y) -> (x, y, z); widened to full precision first
            blocks = self._send(self.t_yz, spec, self._y_blocks)
            for block, pieces in zip(blocks, self._z_pieces):
                for src, dst in pieces:
                    np.multiply(
                        block[:, src, :].transpose(0, 2, 1), nzq, out=zpad[:, :, dst], dtype=complex
                    )
        with t.section(t.FFT):
            # (c), out of place so the pad's zero band survives
            zphys = self._plan_ifft_z.execute(zpad, out=self._zphys)
        c.transforms += 1
        with t.section(self._reorder):
            # (d)-(e): scaled half-spectrum into the x pad, permuting
            # (x, y, z) -> (z, y, x); columns past mx stay zero
            blocks = self._send(self.t_zx, zphys, self._zq_blocks)
            for block, xs in zip(blocks, self._x_blocks):
                np.multiply(block.transpose(2, 1, 0), nxq, out=xpad[:, :, xs], dtype=complex)
        with t.section(t.FFT):
            physT = self._plan_irfft_x.execute(xpad)  # (f), fresh output
        c.transforms += 1
        c.fields_forward += 1
        return physT.transpose(2, 0, 1)  # (nxq, nzq, ny) view, caller-owned

    @staticmethod
    def _send(t, a: np.ndarray, blocks: list[slice]):
        """The blocks every rank sent of ``a`` cut along its last axis
        (packed as is, rounded on a mixed wire); ``a`` with no exchange."""
        if t is None:
            return (a,)
        chunks = t.send_chunks()
        for chunk, s in zip(chunks, blocks):
            np.copyto(chunk, a[:, :, s])
        return t.execute(chunks)

    # ------------------------------------------------------------------
    # backward: physical (x-pencil) -> spectral (y-pencil), step (h)
    # ------------------------------------------------------------------

    def _from_physical(self, phys: np.ndarray) -> np.ndarray:
        c, t = self.counters, self.timers
        if phys.shape != self._phys_shape:
            raise ValueError(f"expected {self._phys_shape}, got {phys.shape}")
        nzq, nxq, zwork = self.nzq, self.nxq, self._zwork
        with t.section(t.FFT):
            # (z, y, x) lines: contiguous when phys descends from forward
            # outputs, still correct for any strides
            xh = self._plan_rfft_x.execute(phys.transpose(1, 2, 0), out=self._xspec)
        c.transforms += 1
        with t.section(self._reorder):
            # keep the stored x modes, fusing the x normalization and the
            # (z, y, x) -> (x, y, z) permutation into the pack
            targets = (zwork,) if self.t_xz is None else self.t_xz.send_chunks()
            for target, xs in zip(targets, self._x_blocks):
                np.divide(xh[:, :, xs].transpose(2, 1, 0), nxq, out=target)
            if self.t_xz is not None:
                for block, zs in zip(self.t_xz.execute(targets), self._zq_blocks):
                    np.copyto(zwork[:, :, zs], block)
        with t.section(t.FFT):
            zh = self._plan_fft_z.execute(zwork, overwrite=True)  # in place
        c.transforms += 1
        # fuse the z normalization with the truncation writes back to the
        # (x, z, y) spectral layout
        out = np.empty(self._spec_shape, dtype=complex)
        with t.section(self._reorder):
            targets = (out,) if self.t_zy is None else self.t_zy.send_chunks()
            for target, pieces in zip(targets, self._z_pieces):
                for src, dst in pieces:
                    np.divide(zh[:, :, dst].transpose(0, 2, 1), nzq, out=target[:, src, :])
            if self.t_zy is not None:
                for block, ys in zip(self.t_zy.execute(targets), self._y_blocks):
                    np.copyto(out[:, :, ys], block)
        c.fields_backward += 1
        return out

    # ------------------------------------------------------------------
    # accounting (the §4.4 memory claim)
    # ------------------------------------------------------------------

    def work_buffer_elements(self) -> int:
        """Peak intermediate size: one padded z-pencil block (~1x input)."""
        return int(np.prod(self.decomp.z_pencil_shape_phys))

    def input_elements(self) -> int:
        return int(np.prod(self.decomp.y_pencil_shape))
