"""Serial spectral <-> physical transforms with 3/2 dealiasing.

Simulation steps (a)-(f) and their reverses (paper §2.3): pad in z,
inverse transform in z, pad in x, inverse transform in x — producing
values on the dealiased quadrature grid — and the reverse (transform,
truncate) on the way back.

:class:`SerialTransformBackend` is the serial solver's backend: the one
transform of every layout (:class:`~repro.fft.transform.PencilFFT`) on
the ``1 x 1`` grid with no communicator.  The distributed solver runs
the same stages with global transposes between them
(:class:`~repro.pencil.parallel_fft.PencilTransforms`), so the two agree
bit for bit.  :func:`to_quadrature_grid` / :func:`from_quadrature_grid`
and :class:`NaiveTransformBackend` are the unplanned reference the
tests and benchmarks compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import ChannelGrid
from repro.fft.fourier import (
    pad_for_quadrature_c,
    pad_for_quadrature_r,
    truncate_from_quadrature_c,
    truncate_from_quadrature_r,
)
from repro.fft.transform import PencilFFT


def to_quadrature_grid(spec: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Spectral ``(mx, mz, ny)`` -> physical ``(nxq, nzq, ny)`` (real).

    Steps (b)-(f): pad z, inverse FFT z, pad x, inverse real FFT x.
    """
    if spec.shape != grid.spectral_shape:
        raise ValueError(f"expected {grid.spectral_shape}, got {spec.shape}")
    # z: pad to the quadrature length and invert (complex line)
    zpad = pad_for_quadrature_c(spec, grid.nz, axis=1)
    zphys = np.fft.ifft(zpad * grid.nzq, axis=1)
    # x: pad the half-spectrum and invert (real line)
    xpad = pad_for_quadrature_r(zphys, grid.nx, axis=0)
    return np.fft.irfft(xpad * grid.nxq, n=grid.nxq, axis=0)


class SerialTransformBackend(PencilFFT):
    """The serial layout of the one transform
    (:class:`~repro.fft.transform.PencilFFT`, which holds every stage):
    the ``1 x 1`` grid with no communicator.

    The interface :class:`repro.core.nonlinear.NonlinearTerms` expects,
    plus ``*_many`` stack entry points; all are defined in this class
    body, not inherited, because the end-to-end benchmark's span table
    wraps them here.  With ``backend="numpy"`` (default) the results are
    those of :func:`to_quadrature_grid` / :func:`from_quadrature_grid` bit
    for bit; ``backend="scipy"`` adds a ``workers`` thread knob and agrees
    to roundoff.
    """

    def __init__(
        self,
        grid: ChannelGrid,
        backend: str = "numpy",
        workers: int | None = None,
        planner=None,
        counters=None,
    ) -> None:
        self.grid = grid
        super().__init__(
            grid.nx, grid.ny, grid.nz,
            planner=planner, counters=counters, backend=backend, workers=workers,
        )

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Spectral ``(mx, mz, ny)`` -> physical ``(nxq, nzq, ny)`` (real)."""
        return self._to_physical(spec)

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        """Physical ``(nxq, nzq, ny)`` (real) -> spectral ``(mx, mz, ny)``."""
        return self._from_physical(phys)

    def to_physical_many(self, specs) -> list[np.ndarray]:
        """Transform a stack of spectral fields, one at a time."""
        return [self._to_physical(s) for s in specs]

    def from_physical_many(self, physes) -> list[np.ndarray]:
        """Project a stack of quadrature-grid fields, one at a time."""
        return [self._from_physical(p) for p in physes]


class NaiveTransformBackend:
    """The seed's unplanned per-call transform path, kept as a reference.

    Allocates fresh pad/scratch arrays at every stage — the behaviour
    :class:`SerialTransformBackend` replaced.  Used by equivalence tests
    and as the baseline of ``benchmarks/bench_transform_pipeline.py``.
    """

    def __init__(self, grid: ChannelGrid) -> None:
        self.grid = grid

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        return to_quadrature_grid(spec, self.grid)

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        return from_quadrature_grid(phys, self.grid)


def from_quadrature_grid(phys: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Physical ``(nxq, nzq, ny)`` (real) -> spectral ``(mx, mz, ny)``.

    The reverse of :func:`to_quadrature_grid`: forward transform in x,
    truncate, forward transform in z, truncate — the Galerkin projection
    of step (h).
    """
    if phys.shape != grid.quadrature_shape:
        raise ValueError(f"expected {grid.quadrature_shape}, got {phys.shape}")
    xh = np.fft.rfft(phys, axis=0) / grid.nxq
    xt = truncate_from_quadrature_r(xh, grid.nx, axis=0)
    zh = np.fft.fft(xt, axis=1) / grid.nzq
    return truncate_from_quadrature_c(zh, grid.nz, axis=1)
