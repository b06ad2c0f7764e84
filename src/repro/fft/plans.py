"""Plan-once/execute-many 1-D FFTs for the transform kernels.

The paper leans on FFTW 3.3's planner for the 1-D transforms (§4.3).
NumPy's pocketfft has no planner and takes strided axes directly, and
every stage of the spectral <-> physical transform runs along the
contiguous last axis of its workspace, so a plan here is the decision
already made: the kind, shape, axis and backend a transform is bound
to.  :class:`Planner`
keeps the FFTW contract — build a plan once, execute it many times.
The paper's measured planning itself is modelled by
:mod:`repro.perfmodel.fftbench`.

Two execution backends are supported, mirroring the paper's serial vs
OpenMP-threaded FFTs (Table 3):

* ``"numpy"`` — :mod:`numpy.fft` (always available, single-threaded);
* ``"scipy"`` — :mod:`scipy.fft` pocketfft with a ``workers=`` thread
  knob.  It is optional: the package works without scipy, and
  :mod:`scipy.fft` is imported by the first plan that selects it, so a
  numpy-backend process never loads it.

``backend="auto"`` resolves to scipy when installed, else numpy.  The
module-level :func:`default_planner` is the process-wide plan cache
the serial transforms draw from.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field

import numpy as np

#: whether the optional threaded backend (pocketfft with a workers pool)
#: is installed; answered without importing it
_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def available_backends() -> tuple[str, ...]:
    """Execution backends usable in this environment."""
    return ("numpy", "scipy") if _HAVE_SCIPY else ("numpy",)


def resolve_backend(backend: str) -> str:
    """Map ``"auto"`` to the preferred available backend; validate names."""
    if backend == "auto":
        return "scipy" if _HAVE_SCIPY else "numpy"
    if backend not in ("numpy", "scipy"):
        raise ValueError(f"unknown FFT backend {backend!r}")
    if backend == "scipy" and not _HAVE_SCIPY:
        raise ValueError("scipy backend requested but scipy is not installed")
    return backend


class FFTPlan:
    """An executable 1-D FFT plan bound to an array shape, dtype and axis.

    ``kind`` is one of ``"fft"``, ``"ifft"``, ``"rfft"``, ``"irfft"``.
    For inverse kinds, ``nout`` gives the physical line length.

    Outputs are freshly allocated unless the caller grants the input or
    a destination buffer (see :meth:`execute`).
    """

    def __init__(
        self,
        kind: str,
        shape: tuple[int, ...],
        axis: int,
        nout: int | None = None,
        backend: str = "numpy",
        workers: int | None = None,
    ) -> None:
        if kind not in ("fft", "ifft", "rfft", "irfft"):
            raise ValueError(f"unknown transform kind {kind!r}")
        self.kind = kind
        self.shape = tuple(shape)
        self.axis = axis if axis >= 0 else len(shape) + axis
        self.nout = nout
        self.backend = resolve_backend(backend)
        # imported here, by the first plan that selects the scipy backend
        self._scipy_fft = importlib.import_module("scipy.fft") if self.backend == "scipy" else None
        self.workers = workers

    def execute(
        self, a: np.ndarray, overwrite: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Run the planned transform on an array of the planned shape.

        ``overwrite=True`` grants the backend permission to destroy (and,
        for same-size complex transforms, reuse) the input buffer — pass
        it only for arrays the caller owns, e.g. transform workspaces.
        ``out`` is a *destination hint*: a preallocated result buffer the
        backend may write into (numpy's pocketfft honours it; scipy has
        no such parameter and allocates).  Callers must always use the
        returned array, which may or may not alias ``a``/``out``.
        Bit-wise results are identical either way.
        """
        if a.shape != self.shape:
            raise ValueError(f"plan built for shape {self.shape}, got {a.shape}")
        if self.backend == "scipy":
            # scipy.fft has no ``out=``; ``overwrite_x`` covers the
            # in-place case (same-size complex transforms reuse the input
            # buffer), other destination hints are simply not taken.
            kw = {} if self.workers is None else {"workers": self.workers}
            if overwrite:
                kw["overwrite_x"] = True
            if self.kind == "fft":
                return self._scipy_fft.fft(a, axis=self.axis, **kw)
            if self.kind == "ifft":
                return self._scipy_fft.ifft(a, axis=self.axis, **kw)
            if self.kind == "rfft":
                return self._scipy_fft.rfft(a, axis=self.axis, **kw)
            return self._scipy_fft.irfft(a, n=self.nout, axis=self.axis, **kw)
        if out is None and overwrite and self.kind in ("fft", "ifft") and a.dtype.kind == "c":
            out = a  # same-size c2c: transform the buffer in place
        if self.kind == "fft":
            return np.fft.fft(a, axis=self.axis, out=out)
        if self.kind == "ifft":
            return np.fft.ifft(a, axis=self.axis, out=out)
        if self.kind == "rfft":
            return np.fft.rfft(a, axis=self.axis, out=out)
        return np.fft.irfft(a, n=self.nout, axis=self.axis, out=out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FFTPlan({self.kind}, shape={self.shape}, axis={self.axis}, "
            f"backend={self.backend!r})"
        )


@dataclass
class Planner:
    """Plan cache, keyed by (kind, shape, axis, nout, backend, workers).

    ``backend``/``workers`` set the defaults for plans created through
    this planner; per-call overrides key separate cache entries, so one
    cache can serve mixed numpy/scipy users.
    """

    backend: str = "numpy"
    workers: int | None = None
    _cache: dict = field(default_factory=dict)

    def plan(
        self,
        kind: str,
        shape: tuple[int, ...],
        axis: int,
        nout: int | None = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> FFTPlan:
        backend = resolve_backend(self.backend if backend is None else backend)
        workers = self.workers if workers is None else workers
        key = (kind, tuple(shape), axis, nout, backend, workers)
        if key not in self._cache:
            self._cache[key] = FFTPlan(
                kind, shape, axis, nout=nout, backend=backend, workers=workers
            )
        return self._cache[key]

    def execute(
        self, kind: str, a: np.ndarray, axis: int, nout: int | None = None, **kw
    ) -> np.ndarray:
        return self.plan(kind, a.shape, axis, nout, **kw).execute(a)

    def __len__(self) -> int:
        return len(self._cache)


_DEFAULT_PLANNER: Planner | None = None


def default_planner() -> Planner:
    """The process-wide shared plan cache.

    The serial :class:`~repro.core.transforms.SerialTransformBackend`
    and any :class:`~repro.pencil.parallel_fft.PencilTransforms` built
    without a planner draw their plans from here, so a shape planned
    once is reused everywhere.
    """
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        _DEFAULT_PLANNER = Planner()
    return _DEFAULT_PLANNER
