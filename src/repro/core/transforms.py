"""Serial spectral <-> physical transforms with 3/2 dealiasing.

These are the serial reference implementation of simulation steps
(a)-(f) and their reverses (paper §2.3): pad in z, inverse transform in
z, pad in x, inverse transform in x — producing values on the dealiased
quadrature grid — and the reverse (transform, truncate) on the way back.
The distributed version in :mod:`repro.pencil` performs the same
sequence with global transposes between the stages; tests pin the two
paths to each other.
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


class SerialTransformBackend:
    """Transform backend used by the serial solver.

    Exposes the interface :class:`repro.core.nonlinear.NonlinearTerms`
    expects — ``to_physical`` / ``from_physical`` over full spectral
    arrays, plus ``*_many`` stack entry points for callers holding a
    list of fields — backed by the planned, buffer-reusing
    :class:`~repro.fft.pipeline.TransformPipeline`.  The distributed
    solver substitutes the pencil pipeline.

    With the default ``backend="numpy"`` the results are bit-for-bit
    identical to :func:`to_quadrature_grid` / :func:`from_quadrature_grid`;
    ``backend="scipy"`` adds a ``workers`` thread knob and agrees with
    the reference to roundoff.
    """

    def __init__(
        self,
        grid: ChannelGrid,
        backend: str = "numpy",
        workers: int | None = None,
        planner=None,
        counters=None,
    ) -> None:
        from repro.fft.pipeline import TransformPipeline

        self.grid = grid
        self.pipeline = TransformPipeline(
            grid,
            backend=backend,
            workers=workers,
            planner=planner,
            counters=counters,
        )

    @property
    def counters(self):
        """The pipeline's :class:`~repro.instrument.TransformCounters`."""
        return self.pipeline.counters

    def counter_groups(self) -> dict:
        """Step-record counter groups: the pipeline's ``transforms``."""
        return {"transforms": self.pipeline.counters.snapshot}

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        return self.pipeline.to_physical(spec)

    def from_physical(self, phys: np.ndarray) -> np.ndarray:
        return self.pipeline.from_physical(phys)

    def to_physical_many(self, specs) -> list[np.ndarray]:
        return self.pipeline.to_physical_many(specs)

    def from_physical_many(self, physes) -> list[np.ndarray]:
        return self.pipeline.from_physical_many(physes)


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
