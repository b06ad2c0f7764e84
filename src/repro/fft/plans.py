"""FFTW-style planning for the transform kernels.

The paper leans on FFTW 3.3's planner twice: for the 1-D transforms and
for the global transposes ("multiple implementations ... are tested.  In
this planning stage, the implementation with the best performance on
simple tests is selected and used for production", §4.3).  NumPy's
pocketfft has no planner, but the *strategy* choice it hides still
exists: transforming along a strided axis directly versus copying the
axis contiguous first can differ by large factors.  :class:`Planner`
reproduces the FFTW contract — build a plan once (optionally measuring),
execute it many times.

Two execution backends are supported, mirroring the paper's serial vs
OpenMP-threaded FFTs (Table 3):

* ``"numpy"`` — :mod:`numpy.fft` (always available, single-threaded);
* ``"scipy"`` — :mod:`scipy.fft` pocketfft with a ``workers=`` thread
  knob.  It is optional: the package works without scipy, and
  :mod:`scipy.fft` is imported by the first plan that selects it, so a
  numpy-backend process never loads it.

``backend="auto"`` resolves to scipy when installed, else numpy.  The
module-level :func:`default_planner` is the process-wide plan cache (the
FFTW "wisdom" analogue) shared by the serial transform pipeline and the
pencil-decomposed parallel FFT.

MEASURE outcomes persist across processes through the
:class:`~repro.tuning.WisdomStore` (FFTW's on-disk wisdom contract): a
plan keyed identically in the store skips candidate timing entirely and
adopts the recorded strategy — bit-identical to what a cold run would
pick, since the strategy *is* the decision.  Every timed candidate run
is counted in :data:`repro.tuning.MEASURE_STATS`, which is how warm
starts assert they measured nothing.
"""

from __future__ import annotations

import enum
import importlib.util
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: whether the optional threaded backend (pocketfft with a workers pool)
#: is installed; answered without importing it
_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None

#: timed runs per candidate under MEASURE; the best (minimum) is kept so
#: a single noisy sample cannot decide the plan.
MEASURE_RUNS = 3


class PlanFlags(enum.Enum):
    """Planning rigor, mirroring FFTW's FFTW_ESTIMATE / FFTW_MEASURE."""

    ESTIMATE = "estimate"
    MEASURE = "measure"


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


@dataclass
class _Candidate:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]


class FFTPlan:
    """An executable 1-D FFT plan bound to an array shape, dtype and axis.

    ``kind`` is one of ``"fft"``, ``"ifft"``, ``"rfft"``, ``"irfft"``.
    For inverse kinds, ``nout`` gives the physical line length.

    Like an FFTW plan, the plan owns its scratch: the copy-contiguous
    strategy keeps a persistent transpose buffer, so repeated execution
    performs no new workspace allocations.  Outputs are always freshly
    allocated, C-contiguous arrays in the input's axis order (callers may
    keep them across executions).
    """

    def __init__(
        self,
        kind: str,
        shape: tuple[int, ...],
        axis: int,
        nout: int | None = None,
        flags: PlanFlags = PlanFlags.ESTIMATE,
        backend: str = "numpy",
        workers: int | None = None,
        wisdom=None,
    ) -> None:
        if kind not in ("fft", "ifft", "rfft", "irfft"):
            raise ValueError(f"unknown transform kind {kind!r}")
        self.kind = kind
        self.shape = tuple(shape)
        self.axis = axis if axis >= 0 else len(shape) + axis
        self.nout = nout
        self.flags = flags
        self.backend = resolve_backend(backend)
        # imported here, by the first plan that selects the scipy backend
        self._scipy_fft = importlib.import_module("scipy.fft") if self.backend == "scipy" else None
        self.workers = workers
        #: True when the strategy was loaded from a wisdom store instead
        #: of measured in this process
        self.from_wisdom = False
        # copy-contiguous workspace; thread-local because cached plans are
        # shared across SimMPI rank threads in the pencil path
        self._tlocal = threading.local()
        self.strategy, self.measured = self._plan(wisdom)

    # ------------------------------------------------------------------

    def _base(
        self,
        a: np.ndarray,
        axis: int,
        overwrite: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.backend == "scipy":
            # scipy.fft has no ``out=``; ``overwrite_x`` covers the
            # in-place case (same-size complex transforms reuse the input
            # buffer), other destination hints are simply not taken.
            kw = {} if self.workers is None else {"workers": self.workers}
            if overwrite:
                kw["overwrite_x"] = True
            if self.kind == "fft":
                return self._scipy_fft.fft(a, axis=axis, **kw)
            if self.kind == "ifft":
                return self._scipy_fft.ifft(a, axis=axis, **kw)
            if self.kind == "rfft":
                return self._scipy_fft.rfft(a, axis=axis, **kw)
            return self._scipy_fft.irfft(a, n=self.nout, axis=axis, **kw)
        if out is None and overwrite and self.kind in ("fft", "ifft") and a.dtype.kind == "c":
            out = a  # same-size c2c: transform the buffer in place
        if self.kind == "fft":
            return np.fft.fft(a, axis=axis, out=out)
        if self.kind == "ifft":
            return np.fft.ifft(a, axis=axis, out=out)
        if self.kind == "rfft":
            return np.fft.rfft(a, axis=axis, out=out)
        return np.fft.irfft(a, n=self.nout, axis=axis, out=out)

    def _direct(
        self, a: np.ndarray, overwrite: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self._base(a, self.axis, overwrite, out)

    def _copy_contiguous(self, a: np.ndarray) -> np.ndarray:
        moved = np.moveaxis(a, self.axis, -1)
        tbuf = getattr(self._tlocal, "buf", None)
        if tbuf is None or tbuf.shape != moved.shape or tbuf.dtype != a.dtype:
            tbuf = self._tlocal.buf = np.empty(moved.shape, dtype=a.dtype)
        np.copyto(tbuf, moved)
        out = self._base(tbuf, -1, overwrite=True)  # tbuf is plan scratch
        # hand back the natural axis order, materialized: downstream
        # stages (and the MEASURE timings) then see a contiguous array.
        return np.ascontiguousarray(np.moveaxis(out, -1, self.axis))

    def _candidates(self) -> list[_Candidate]:
        cands = [_Candidate("direct", self._direct)]
        if self.axis != len(self.shape) - 1:
            cands.append(_Candidate("copy-contiguous", self._copy_contiguous))
        return cands

    def _wisdom_key(self) -> list:
        return [self.kind, list(self.shape), self.axis, self.nout, self.backend, self.workers]

    def _plan(self, wisdom=None) -> tuple[str, dict[str, float]]:
        cands = self._candidates()
        if self.flags is PlanFlags.ESTIMATE or len(cands) == 1:
            # Heuristic: pocketfft handles strided input well enough that
            # direct is the default guess, like FFTW_ESTIMATE's cost model.
            return cands[0].name, {}
        from repro.tuning import MEASURE_STATS, default_store

        wisdom = wisdom if wisdom is not None else default_store()
        names = [c.name for c in cands]
        if wisdom is not None:
            hit = wisdom.lookup("fft", self._wisdom_key())
            if hit is not None and hit.get("strategy") in names:
                self.from_wisdom = True
                return hit["strategy"], dict(hit.get("timings") or {})
        dtype = complex if self.kind in ("fft", "ifft") else float
        probe = np.zeros(self.shape, dtype=dtype)
        timings: dict[str, float] = {}
        for cand in cands:
            cand.fn(probe)  # warm-up
            best = np.inf
            for _ in range(MEASURE_RUNS):
                t0 = time.perf_counter()
                cand.fn(probe)
                best = min(best, time.perf_counter() - t0)
                MEASURE_STATS.fft_candidates_timed += 1
            timings[cand.name] = best
        best = min(timings, key=timings.get)
        if wisdom is not None:
            wisdom.record(
                "fft", self._wisdom_key(), {"strategy": best, "timings": timings}, timings
            )
        return best, timings

    # ------------------------------------------------------------------

    def execute(
        self, a: np.ndarray, overwrite: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Run the planned transform on an array of the planned shape.

        ``overwrite=True`` grants the backend permission to destroy (and,
        for same-size complex transforms, reuse) the input buffer — pass
        it only for arrays the caller owns, e.g. pipeline workspaces.
        ``out`` is a *destination hint*: a preallocated result buffer the
        backend may write into (numpy's pocketfft honours it; scipy has
        no such parameter and allocates).  Callers must always use the
        returned array, which may or may not alias ``a``/``out``.
        Bit-wise results are identical either way.
        """
        if a.shape != self.shape:
            raise ValueError(f"plan built for shape {self.shape}, got {a.shape}")
        if self.strategy == "direct":
            return self._direct(a, overwrite, out)
        return self._copy_contiguous(a)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FFTPlan({self.kind}, shape={self.shape}, axis={self.axis}, "
            f"backend={self.backend!r}, strategy={self.strategy!r})"
        )


@dataclass
class Planner:
    """Plan cache, keyed by (kind, shape, axis, nout, backend, workers) —
    the FFTW wisdom analogue.

    ``backend``/``workers`` set the defaults for plans created through
    this planner; per-call overrides key separate cache entries, so one
    cache can serve mixed numpy/scipy users.

    ``wisdom`` is the persistent :class:`~repro.tuning.WisdomStore`
    consulted (and fed) by MEASURE-mode plans; ``None`` defers to the
    process-wide ``REPRO_WISDOM``-selected store.
    """

    flags: PlanFlags = PlanFlags.ESTIMATE
    backend: str = "numpy"
    workers: int | None = None
    wisdom: object | None = None
    _cache: dict = field(default_factory=dict)

    def plan(
        self,
        kind: str,
        shape: tuple[int, ...],
        axis: int,
        nout: int | None = None,
        backend: str | None = None,
        workers: int | None = None,
        flags: PlanFlags | None = None,
        wisdom=None,
    ) -> FFTPlan:
        backend = resolve_backend(self.backend if backend is None else backend)
        workers = self.workers if workers is None else workers
        flags = self.flags if flags is None else flags
        wisdom = self.wisdom if wisdom is None else wisdom
        key = (kind, tuple(shape), axis, nout, backend, workers, flags)
        if key not in self._cache:
            self._cache[key] = FFTPlan(
                kind, shape, axis, nout=nout, flags=flags, backend=backend,
                workers=workers, wisdom=wisdom,
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

    Both the serial :class:`~repro.fft.pipeline.TransformPipeline` and
    the pencil :class:`~repro.pencil.parallel_fft.PencilTransforms` draw
    their plans from here by default, so a shape planned once (e.g. by a
    per-pencil 1-D stage) is reused everywhere.
    """
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        _DEFAULT_PLANNER = Planner()
    return _DEFAULT_PLANNER
