"""Assembly of the wall-normal collocation systems (paper eqs. 3-4).

Time advancing the Navier–Stokes equations reduces, per Fourier mode, to
two-point boundary-value problems in y:

* the IMEX viscous step, eq. (3):  ``[I - c (d²/dy² - k² I)] psi = R``
  with ``c = alpha * nu * dt / 2``-style coefficients, and
* the v-from-phi Poisson solve, eq. (4): ``[d²/dy² - k² I] v = phi``.

With B-spline collocation the unknown is the coefficient vector ``a`` and
the operators become banded matrix pencils of the collocation matrices
``B`` (values) and ``D2`` (second derivatives); the first and last rows
are replaced by boundary-condition rows.  Everything is assembled
directly in the folded banded storage and factored by the custom solver,
batched over the wavenumber axis.  Both pencils depend on the mode only
through ``k²``, so only the distinct values are assembled and factored;
a :class:`~repro.linalg.structure.SharedRows` maps every mode back to
its factor row (exact equality: each factor row is bit for bit the one
the mode would have had alone).  A factor set takes one scalar implicit
weight ``c``; the stepper holds one Helmholtz set per RK coefficient,
and the ``k² = 0`` row of each is also the mean profiles' matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.linalg.custom import FoldedLU
from repro.linalg.structure import BandedSystemSpec, FoldedBanded, SharedRows

if TYPE_CHECKING:  # repro.bsplines imports repro.linalg.panels: no cycle at run time
    from repro.bsplines import BSplineBasis


class HelmholtzOperator:
    """Factory for batched Helmholtz/Poisson collocation systems on a basis.

    Caches the folded collocation matrices; each ``factor_*`` call builds
    the batched pencil for an array of ``k²`` values and returns the LU.
    """

    def __init__(self, basis: BSplineBasis) -> None:
        self.basis = basis
        kl, ku = basis.bandwidths
        self.spec = BandedSystemSpec(n=basis.n, kl=kl, ku=ku, corner=0)
        self._fold_cache: dict[int, np.ndarray] = {}

    def folded_colloc(self, deriv: int) -> np.ndarray:
        """Collocation matrix of the ``deriv``-th derivative in folded storage, shape (n, W)."""
        if deriv not in self._fold_cache:
            dense = self.basis.colloc_matrix(deriv)
            self._fold_cache[deriv] = FoldedBanded.from_dense(dense, self.spec).data[0]
        return self._fold_cache[deriv]

    # ------------------------------------------------------------------

    def assemble_helmholtz(self, ksq: np.ndarray, c: float) -> FoldedBanded:
        """Pencil of eq. (3): ``(1 + c k²) B - c D2`` with Dirichlet BC rows,
        batched over ``ksq`` of shape ``(nbatch,)``."""
        ksq = np.atleast_1d(np.asarray(ksq, dtype=float))
        c = float(c)
        B = self.folded_colloc(0)
        D2 = self.folded_colloc(2)
        data = (1.0 + c * ksq)[:, None, None] * B[None] - c * D2[None]
        data[:, 0, :] = B[0]  # Dirichlet rows: the values at either wall
        data[:, -1, :] = B[-1]
        return FoldedBanded(self.spec, data)

    def assemble_poisson(self, ksq: np.ndarray) -> FoldedBanded:
        """Pencil of eq. (4): ``D2 - k² B`` with Dirichlet BC rows."""
        ksq = np.atleast_1d(np.asarray(ksq, dtype=float))
        B = self.folded_colloc(0)
        D2 = self.folded_colloc(2)
        data = D2[None] - ksq[:, None, None] * B[None]
        data[:, 0, :] = B[0]  # Dirichlet rows: the values at either wall
        data[:, -1, :] = B[-1]
        return FoldedBanded(self.spec, data)

    def factor_helmholtz(self, ksq: np.ndarray | SharedRows, c: float) -> FoldedLU:
        """Factored eq.-(3) pencil over the distinct ``k²``; ``ksq`` may be
        a :class:`SharedRows` built from ``k²`` already, so several factor
        sets share one map."""
        rows = _shared(ksq)
        return FoldedLU(self.assemble_helmholtz(rows.keys, c), rows=rows)

    def factor_poisson(self, ksq: np.ndarray | SharedRows) -> FoldedLU:
        """Factored eq.-(4) pencil over the distinct ``k²``."""
        rows = _shared(ksq)
        return FoldedLU(self.assemble_poisson(rows.keys), rows=rows)


def _shared(ksq: np.ndarray | SharedRows) -> SharedRows:
    return ksq if isinstance(ksq, SharedRows) else SharedRows(np.ravel(ksq))
