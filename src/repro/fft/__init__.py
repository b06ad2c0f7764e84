"""FFT substrate: Nyquist-free real/complex transforms and 3/2 dealiasing.

Two properties of the paper's customized FFT kernel (§4.4) are implemented
here:

* **Nyquist dropping** — "our parallel FFT library, unlike P3DFFT,
  recognizes that the Nyquist mode is not necessary and does not store it
  or include it in transposes."  The transforms in
  :mod:`repro.fft.fourier` keep ``N/2`` complex modes for a length-``N``
  real line (x direction) and ``N-1`` modes for a complex line
  (z direction), reinstating a zero Nyquist coefficient on the way back.
* **3/2-rule dealiasing** (§2.1) — Galerkin quadratures of the quadratic
  nonlinearity are done on a grid 3/2 finer in each periodic direction;
  :func:`pad_for_quadrature`/:func:`truncate_from_quadrature` implement
  the zero-padding of steps (b)/(e) of the simulation loop.

:mod:`repro.fft.plans` provides an FFTW-style plan-once/execute-many API
with numpy and threaded-scipy execution backends, and
:mod:`repro.fft.transform` the one planned, transform-major
spectral <-> physical transform (:class:`~repro.fft.transform.PencilFFT`)
that executes the dealiased (a)-(f)/(h) chain on every layout: the
serial solver's ``1 x 1`` grid and each rank of a pencil decomposition.
"""

from repro.fft.fourier import (
    complex_modes,
    fft_wavenumbers,
    forward_c2c,
    forward_r2c,
    inverse_c2c,
    inverse_c2r,
    pad_for_quadrature_c,
    pad_for_quadrature_r,
    quadrature_points,
    real_modes,
    rfft_wavenumbers,
    truncate_from_quadrature_c,
    truncate_from_quadrature_r,
)
from repro.fft.plans import (
    FFTPlan,
    Planner,
    available_backends,
    default_planner,
    resolve_backend,
)
from repro.fft.transform import PencilFFT

__all__ = [
    "FFTPlan",
    "PencilFFT",
    "Planner",
    "available_backends",
    "default_planner",
    "resolve_backend",
    "complex_modes",
    "fft_wavenumbers",
    "forward_c2c",
    "forward_r2c",
    "inverse_c2c",
    "inverse_c2r",
    "pad_for_quadrature_c",
    "pad_for_quadrature_r",
    "quadrature_points",
    "real_modes",
    "rfft_wavenumbers",
    "truncate_from_quadrature_c",
    "truncate_from_quadrature_r",
]
