"""Banded linear algebra substrate.

The paper's single-core optimisation (§4.1.1) replaces general banded
LAPACK solvers with a customized solver for matrices that are "banded with
extra non-zero values in the first and last few rows" (Fig. 3): boundary
condition rows of the B-spline collocation systems.  The custom solver

* stores the matrix in a *folded* row-window layout, moving the corner
  elements into otherwise-empty band slots — halving memory vs. the
  padded general-band layout a LAPACK solver would need;
* factors **in real arithmetic** even when the right-hand side is complex
  (the collocation matrices are real), instead of promoting the matrix to
  complex (ZGBTRF) or splitting the vectors (DGBTRS on re/im);
* is *batched* over the Fourier-wavenumber axis, the Python/NumPy
  equivalent of the paper's hand-unrolled cache-resident loops;
* sweeps through the blocked :mod:`repro.linalg.engine` — one engine per
  factor set, built with its factors — which processes panels of rows
  per Python iteration with pre-inverted diagonal blocks and persistent
  (zero-allocation) workspaces; every entry point streams its columns
  through one load/sweep/store routine at a fixed width of four.

Helmholtz/Poisson collocation assembly lives in
:mod:`repro.linalg.helmholtz`.  The reference solvers mirroring the
LAPACK/MKL/ESSL paths (:mod:`repro.linalg.reference`, built on
:mod:`scipy.linalg`) are oracles for tests and the Table 1 benchmark,
not part of this package's surface: import them from that module, which
is the only place ``scipy.linalg`` is loaded.
"""

from repro.linalg.structure import BandedSystemSpec, FoldedBanded
from repro.linalg.custom import FoldedLU
from repro.linalg.engine import BandedSolveEngine
from repro.linalg.helmholtz import HelmholtzOperator

__all__ = [
    "BandedSolveEngine",
    "BandedSystemSpec",
    "FoldedBanded",
    "FoldedLU",
    "HelmholtzOperator",
]
