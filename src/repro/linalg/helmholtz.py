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
the mode would have had alone).
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

    def _bc_row(self, wall: int, deriv: int) -> np.ndarray:
        """Folded boundary-condition row: ``deriv``-th derivative at a wall.

        ``wall`` is 0 (y = -1, first collocation point) or -1 (y = +1).
        """
        row = self.folded_colloc(deriv)[0 if wall == 0 else -1]
        return row

    def assemble_helmholtz(self, ksq: np.ndarray, c: float | np.ndarray) -> FoldedBanded:
        """Pencil of eq. (3): ``(1 + c k²) B - c D2`` with Dirichlet BC rows.

        ``ksq`` has shape ``(nbatch,)``; ``c`` is scalar or ``(nbatch,)``.
        """
        ksq = np.atleast_1d(np.asarray(ksq, dtype=float))
        c = np.broadcast_to(np.asarray(c, dtype=float), ksq.shape)
        B = self.folded_colloc(0)
        D2 = self.folded_colloc(2)
        data = (1.0 + c * ksq)[:, None, None] * B[None] - c[:, None, None] * D2[None]
        data[:, 0, :] = self._bc_row(0, 0)
        data[:, -1, :] = self._bc_row(-1, 0)
        return FoldedBanded(self.spec, data)

    def assemble_poisson(self, ksq: np.ndarray) -> FoldedBanded:
        """Pencil of eq. (4): ``D2 - k² B`` with Dirichlet BC rows."""
        ksq = np.atleast_1d(np.asarray(ksq, dtype=float))
        B = self.folded_colloc(0)
        D2 = self.folded_colloc(2)
        data = D2[None] - ksq[:, None, None] * B[None]
        data[:, 0, :] = self._bc_row(0, 0)
        data[:, -1, :] = self._bc_row(-1, 0)
        return FoldedBanded(self.spec, data)

    def factor_helmholtz(
        self, ksq: np.ndarray | SharedRows, c: float | np.ndarray, block: int | None = None
    ) -> FoldedLU:
        """Factored eq.-(3) pencil; ``block`` fixes the engine panel height.

        Only distinct ``k²`` (distinct ``(k², c)`` pairs when ``c`` varies
        per mode) are factored; ``ksq`` may be a :class:`SharedRows` built
        from ``k²`` already, so several factor sets share one map.
        """
        if not np.ndim(c):
            rows = _shared(ksq)
            return FoldedLU(self.assemble_helmholtz(rows.keys, c), block=block, rows=rows)
        rows = SharedRows(np.stack(np.broadcast_arrays(np.ravel(ksq), np.ravel(c)), axis=-1))
        matrix = self.assemble_helmholtz(rows.keys[:, 0], rows.keys[:, 1])
        return FoldedLU(matrix, block=block, rows=rows)

    def factor_poisson(self, ksq: np.ndarray | SharedRows, block: int | None = None) -> FoldedLU:
        """Factored eq.-(4) pencil over the distinct ``k²``; ``block``
        fixes the engine panel height."""
        rows = _shared(ksq)
        return FoldedLU(self.assemble_poisson(rows.keys), block=block, rows=rows)


def _shared(ksq: np.ndarray | SharedRows) -> SharedRows:
    return ksq if isinstance(ksq, SharedRows) else SharedRows(np.ravel(ksq))


def helmholtz_system(
    basis: BSplineBasis, ksq: np.ndarray, c: float | np.ndarray, block: int | None = None
) -> FoldedLU:
    """One-shot factored Helmholtz pencil (see :class:`HelmholtzOperator`)."""
    return HelmholtzOperator(basis).factor_helmholtz(ksq, c, block=block)


def poisson_system(basis: BSplineBasis, ksq: np.ndarray, block: int | None = None) -> FoldedLU:
    """One-shot factored Poisson pencil (see :class:`HelmholtzOperator`)."""
    return HelmholtzOperator(basis).factor_poisson(ksq, block=block)
