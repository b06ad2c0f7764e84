"""Planned, buffer-reusing serial transform pipeline (steps (b)-(f)/(h)).

This is the serial analogue of the paper's planned FFT machinery: FFTW
3.3 plans built once and executed many times (§4.3), threaded FFTs
(Table 3) and the 1x-buffer discipline of the custom parallel FFT (§4.4).  The naive
reference in :mod:`repro.core.transforms` allocates two zero-filled pad
arrays, two scaling temporaries and two truncation copies per field per
direction, and runs every FFT along a strided axis of a C-ordered
``(x, z, y)`` array; at three velocity fields forward and five quadratic
products backward per RK substep that traffic dominates the Python-level
cost of the nonlinear term.  :class:`TransformPipeline` removes it:

* **Transform-major workspaces** — the padded spectra live in
  pipeline-owned buffers laid out so the transform axis is always the
  *contiguous last axis* (``(x, y, z)`` for the z stages, ``(z, y, x)``
  for the x stages).  pocketfft is 2-3x faster on contiguous lines, and
  the axis permutation is folded into the pad/truncate writes the naive
  path performs anyway — no separate transpose pass exists.
* **Persistent pad buffers** — both pads are allocated once; each call
  writes only the retained-mode slots (fused with the normalization
  scaling via ``np.multiply(..., out=...)``).  The dealiasing bands are
  zeroed at allocation and never rewritten: the forward z transform runs
  out of place, so nothing ever dirties its pad.
* **In-place / destination-hinted execution** — the backward complex z
  transform runs with ``overwrite=True`` (numpy's ``out=``, scipy's
  ``overwrite_x``) and transforms its scratch buffer in place; the other
  interior stages pass persistent destination hints, which the numpy
  backend honours via pocketfft's ``out=``.  After warm-up the hot
  loop's only fresh allocations are the caller-owned output arrays.
* **Planned transforms** — every FFT goes through a
  :class:`~repro.fft.plans.FFTPlan` drawn from a shared
  :class:`~repro.fft.plans.Planner` cache, so backend threading follows
  the FFTW plan-once/execute-many contract.
  The pencil-decomposed parallel FFT draws from the same cache.
* **Stack entry points** — :meth:`to_physical_many` /
  :meth:`from_physical_many` take a list of fields for callers that
  hold a whole stack (benchmarks); they loop over the single-field
  calls, because pocketfft over a stacked 4-D axis is slower than
  per-field 3-D transforms here (the per-field working set stays
  cache-resident).  The nonlinear term does not use them: it streams
  one product at a time through a single buffer, so five products never
  coexist on the quadrature grid.
* **Counters** — a :class:`~repro.instrument.TransformCounters` records
  workspace bytes/allocations and transforms executed.  After warm-up
  the workspace counters are constant: the hot path performs zero new
  workspace allocations.

Numerics: the pipeline is bit-for-bit identical to the naive reference
on every backend — pocketfft results do not depend on input strides or
in-place execution, the fused scaling writes the exact same scaled
values into the same padded mode slots the reference builds, and the
truncation divide applies the same elementwise operation to the same
values.  Forward outputs are fresh arrays returned as ``(x, z, y)``
views of ``(z, y, x)``-contiguous storage; elementwise products of such
views, and buffers made by ``np.empty_like`` of one, keep that layout,
which is what keeps the backward transform on the fast contiguous path
through the whole nonlinear chain.
"""

from __future__ import annotations

import numpy as np

from repro.fft.plans import FFTPlan, Planner, default_planner, resolve_backend
from repro.instrument import TransformCounters


class TransformPipeline:
    """Planned spectral <-> quadrature-grid transforms for one grid.

    Parameters
    ----------
    grid:
        The :class:`~repro.core.grid.ChannelGrid` fixing all shapes.
    backend:
        ``"numpy"`` (default), ``"scipy"`` (pocketfft with in-place
        execution and a thread pool), or ``"auto"``.
    workers:
        Thread count for the scipy backend (the paper's OpenMP-threaded
        FFTs, Table 3); ignored by the numpy backend.
    planner:
        Plan cache to draw from; defaults to the process-wide
        :func:`~repro.fft.plans.default_planner`.
    counters:
        Optional shared :class:`~repro.instrument.TransformCounters`.
    """

    def __init__(
        self,
        grid,
        backend: str = "numpy",
        workers: int | None = None,
        planner: Planner | None = None,
        counters: TransformCounters | None = None,
    ) -> None:
        self.grid = grid
        self.planner = planner if planner is not None else default_planner()
        self.backend = backend
        self.workers = workers
        self.counters = counters if counters is not None else TransformCounters()

        g = grid
        self._mx, self._mz, self._ny = g.spectral_shape
        self._nxq, self._nzq = g.nxq, g.nzq
        self._half = g.nz // 2  # stored non-negative z modes
        self._nneg = self._mz - self._half  # stored negative z modes
        self._mxq = self._nxq // 2 + 1  # half-spectrum length at quadrature size
        self._ws: dict[str, np.ndarray] = {}
        # destination hints only pay off on the backend that honours them
        self._use_hints = resolve_backend(backend) == "numpy"

        # plan-once: the four 1-D stages of the (b)-(f)/(h) chain, each on
        # the contiguous last axis of its transform-major workspace layout
        kw = dict(backend=backend, workers=workers)
        zshape = (self._mx, self._ny, self._nzq)  # (x, y, z)
        self._plan_ifft_z = self.planner.plan("ifft", zshape, 2, **kw)
        self._plan_irfft_x = self.planner.plan(
            "irfft", (self._nzq, self._ny, self._mxq), 2, nout=self._nxq, **kw
        )
        self._plan_rfft_x = self.planner.plan(
            "rfft", (self._nzq, self._ny, self._nxq), 2, **kw
        )
        self._plan_fft_z = self.planner.plan("fft", zshape, 2, **kw)

    # ------------------------------------------------------------------
    # workspace management
    # ------------------------------------------------------------------

    def _workspace(self, name: str, shape: tuple[int, ...], zero: bool) -> np.ndarray:
        """Persistent named scratch; allocated (and counted) at most once."""
        buf = self._ws.get(name)
        if buf is None:
            buf = np.zeros(shape, dtype=complex) if zero else np.empty(shape, dtype=complex)
            self._ws[name] = buf
            self.counters.count_workspace(buf)
        return buf

    def workspace_bytes(self) -> int:
        """Current footprint of the pipeline-owned workspaces."""
        return sum(int(b.nbytes) for b in self._ws.values())

    def plans(self) -> tuple[FFTPlan, FFTPlan, FFTPlan, FFTPlan]:
        """The four stage plans (ifft-z, irfft-x, rfft-x, fft-z)."""
        return (self._plan_ifft_z, self._plan_irfft_x, self._plan_rfft_x, self._plan_fft_z)

    def _hint(self, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """Persistent destination hint, or ``None`` where hints are moot."""
        if not self._use_hints:
            return None
        return self._workspace(name, shape, zero=False)

    # ------------------------------------------------------------------
    # forward: spectral -> quadrature grid (steps (b)-(f))
    # ------------------------------------------------------------------

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Spectral ``(mx, mz, ny)`` -> physical ``(nxq, nzq, ny)`` (real)."""
        g = self.grid
        if spec.shape != g.spectral_shape:
            raise ValueError(f"expected {g.spectral_shape}, got {spec.shape}")
        c = self.counters
        half, nneg, nzq, nxq, mx = self._half, self._nneg, self._nzq, self._nxq, self._mx

        # step (b): scaled mode slots into the forward z pad,
        # permuting (x, z, y) -> (x, y, z) in the same write.  The
        # dealiasing band was zeroed at allocation and stays zero —
        # the z transform below never runs in place on this buffer.
        zbuf = self._workspace("zpad", (self._mx, self._ny, self._nzq), zero=True)
        np.multiply(spec[:, :half, :].transpose(0, 2, 1), nzq, out=zbuf[:, :, :half])
        np.multiply(spec[:, half:, :].transpose(0, 2, 1), nzq, out=zbuf[:, :, nzq - nneg :])
        # step (c), out of place so the pad's zero band survives; the
        # numpy backend lands the result in a persistent hint buffer
        zphys = self._plan_ifft_z.execute(zbuf, out=self._hint("zphys", zbuf.shape))
        c.transforms += 1
        # step (e): scaled half-spectrum into the persistent x pad,
        # permuting (x, y, z) -> (z, y, x); the x-dealiasing columns
        # beyond mx were zeroed at allocation and are never touched.
        xbuf = self._workspace("xpad", (nzq, self._ny, self._mxq), zero=True)
        np.multiply(zphys.transpose(2, 1, 0), nxq, out=xbuf[:, :, :mx])
        physT = self._plan_irfft_x.execute(xbuf)  # step (f), fresh output
        c.transforms += 1
        c.fields_forward += 1
        return physT.transpose(2, 0, 1)  # (nxq, nzq, ny) view, caller-owned

    # ------------------------------------------------------------------
    # backward: quadrature grid -> spectral (step (h))
    # ------------------------------------------------------------------

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        """Physical ``(nxq, nzq, ny)`` (real) -> spectral ``(mx, mz, ny)``."""
        g = self.grid
        if phys.shape != g.quadrature_shape:
            raise ValueError(f"expected {g.quadrature_shape}, got {phys.shape}")
        c = self.counters
        half, nneg, nzq, nxq, mx = self._half, self._nneg, self._nzq, self._nxq, self._mx

        # (z, y, x) lines; contiguous (and fast) when phys descends
        # from pipeline outputs, still correct for any strides.
        xh = self._plan_rfft_x.execute(
            phys.transpose(1, 2, 0),
            out=self._hint("xspec", (self._nzq, self._ny, self._mxq)),
        )
        c.transforms += 1
        # keep the Nyquist-free modes, fusing the x normalization and
        # the (z, y, x) -> (x, y, z) permutation into one write; the
        # divide overwrites every element, so no zeroing is needed.
        zbuf = self._workspace("zwork", (mx, self._ny, nzq), zero=False)
        np.divide(xh[:, :, :mx].transpose(2, 1, 0), nxq, out=zbuf)
        zh = self._plan_fft_z.execute(zbuf, overwrite=True)  # in place
        c.transforms += 1
        # fuse z normalization with the truncation writes back to the
        # C-ordered (x, z, y) spectral layout
        out = np.empty(g.spectral_shape, dtype=complex)
        np.divide(zh[:, :, :half].transpose(0, 2, 1), nzq, out=out[:, :half, :])
        np.divide(zh[:, :, nzq - nneg :].transpose(0, 2, 1), nzq, out=out[:, half:, :])
        c.fields_backward += 1
        return out

    # ------------------------------------------------------------------
    # batched stacks (one entry per RK substep)
    # ------------------------------------------------------------------

    def to_physical_many(self, specs) -> list[np.ndarray]:
        """Transform a stack of spectral fields (the 3 velocities)."""
        return [self.to_physical(s) for s in specs]

    def from_physical_many(self, physes) -> list[np.ndarray]:
        """Project a stack of quadrature-grid fields (the 5 products)."""
        return [self.from_physical(p) for p in physes]
