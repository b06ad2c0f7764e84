"""The customized banded solver (paper §4.1.1, Fig. 3 right panel).

No-pivot LU factorization and triangular solves on the folded row-window
storage of :class:`~repro.linalg.structure.FoldedBanded`.  The factor and
both sweeps are *batched* over a leading axis — in the production DNS the
batch axis is the Fourier wavenumber, so one call factors/solves the
Helmholtz systems for every ``(kx, kz)`` at once.  That batching is the
NumPy analogue of the paper's hand-unrolled, cache-resident inner loops:
Python-level loop trip counts depend only on ``n`` and the bandwidth, not
on the batch size.

Solves run on the blocked :class:`~repro.linalg.engine.BandedSolveEngine`
that each factor set builds together with its factors (one engine per
set): panels of rows per Python iteration instead of one row each, and
complex right-hand sides swept as (re, im) column pairs **directly against the real factors** — the optimisation
the paper contrasts with LAPACK's "promote the matrix to complex or
split the vectors" choices.  No dtype promotion happens anywhere on the
solve path; :meth:`FoldedLU.solve` on a complex vector is bit-for-bit
identical to sweeping its stacked re/im columns as a real multi-RHS.
The original one-row-at-a-time sweeps survive as
:meth:`FoldedLU.solve_reference` (the like-for-like baseline of the
Table 1 benchmark and the engine's cross-check oracle).

A factor set stores each *distinct* matrix of its batch once
(:class:`~repro.linalg.structure.SharedRows` says which member uses
which), so factoring, panel building and the panel bytes every sweep
streams scale with the distinct count, not the batch.

No pivoting is performed: B-spline collocation matrices of the
(shifted) Helmholtz operators are strongly diagonally dominant within the
band, the same property the paper's custom solver relies on.  A growth
check is available for diagnostics.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.engine import BandedSolveEngine
from repro.linalg.structure import FoldedBanded, SharedRows


class FoldedLU:
    """Batched no-pivot LU of corner-banded matrices in folded storage.

    Factoring is done once at construction; :meth:`solve` may then be
    called repeatedly (the DNS factors once per RK coefficient and solves
    every substep).  The blocked sweep engine is built together with the
    factors, one per factor set; every solve reuses it with zero
    workspace allocations.

    ``matrix`` holds the *distinct* matrices; ``rows`` says which of them
    each batch member uses (:class:`~repro.linalg.structure.SharedRows`,
    which :class:`~repro.linalg.helmholtz.HelmholtzOperator` derives from
    ``k²``).  Only the distinct matrices are factored; every solve entry
    point takes and returns one row per *member*.  Without ``rows`` each
    matrix is its own member.
    """

    def __init__(
        self,
        matrix: FoldedBanded,
        check: bool = False,
        rows: SharedRows | None = None,
    ) -> None:
        self.spec = matrix.spec
        self.jlo = matrix.spec.jlo
        self.data = matrix.data.copy()
        self.rows = rows if rows is not None else SharedRows(np.arange(matrix.nbatch))
        if self.rows.nrows != matrix.nbatch:
            raise ValueError(
                f"rows name {self.rows.nrows} distinct matrices, the matrix holds {matrix.nbatch}"
            )
        self._factor(check=check)
        #: the blocked sweep engine over these factors, built with them
        self.engine = BandedSolveEngine(self)

    @property
    def nbatch(self) -> int:
        """Batch members solved per call (stored matrices may be fewer)."""
        return self.rows.nbatch

    # ------------------------------------------------------------------

    def _factor(self, check: bool) -> None:
        spec = self.spec
        n, W = spec.n, spec.window
        jlo = self.jlo
        data = self.data
        # Structure-only index arithmetic, computed once up front: the
        # window position of each row's diagonal, and each pivot row's
        # stored tail (slice past the diagonal) with its width.  None of
        # it depends on the values being eliminated, so nothing of it
        # belongs in the elimination loops.
        mdiag = spec.mdiag
        self._mdiag = mdiag
        tail_width = W - mdiag - 1
        tail_slice = [slice(int(d) + 1, W) for d in mdiag]
        if check:
            self._initial_max = np.abs(data).max(axis=(1, 2))

        pivot_checked = np.zeros(n, dtype=bool)
        for i in range(1, n):
            lo_i = jlo[i]
            row = data[:, i]
            for m, j in enumerate(range(lo_i, i)):
                pivot = data[:, j, mdiag[j]]
                if not pivot_checked[j]:
                    if np.any(pivot == 0.0):
                        bad = int(np.argmax(pivot == 0.0))
                        raise ZeroDivisionError(
                            f"zero pivot at row {j} of batch member {bad}; "
                            "the matrix needs pivoting — not a collocation system?"
                        )
                    pivot_checked[j] = True
                ell = row[:, m] / pivot
                row[:, m] = ell
                width = tail_width[j]
                if width:
                    row[:, m + 1 : m + 1 + width] -= ell[:, None] * data[:, j, tail_slice[j]]

        if check:
            growth = np.abs(data).max(axis=(1, 2)) / self._initial_max
            self.growth_factor = growth
        else:
            self.growth_factor = None

    # ------------------------------------------------------------------
    # solving (blocked engine)
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes this factor set holds: the folded factors plus its
        engine's panels and workspace."""
        return self.data.nbytes + self.engine.panel_bytes() + self.engine.workspace_bytes()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for each batch member.

        ``rhs`` has shape ``(nbatch, n)`` (or ``(n,)`` for a batch of one)
        and may be real or complex; complex input is swept directly
        against the real factors as one (re, im) column pair.
        """
        return self.engine.solve(rhs)

    def solve_many(self, cols: np.ndarray) -> np.ndarray:
        """Solve a real multi-RHS stack ``(nbatch, n, k)`` in paired
        blocked sweeps (see :meth:`BandedSolveEngine.solve_many`)."""
        return self.engine.solve_many(cols)

    def solve_reference(self, rhs: np.ndarray) -> np.ndarray:
        """Unblocked row-at-a-time sweeps (the pre-engine arithmetic).

        Kept as the like-for-like interpreted baseline for benchmarks and
        as an independent oracle for engine cross-checks.  Complex input
        is promoted with the factors broadcast against it — the very
        dtype promotion the engine avoids.
        """
        spec = self.spec
        n = spec.n
        jlo = self.jlo
        data = self.data[self.rows.members]
        mdiag = self._mdiag

        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[None, :]
        if rhs.shape != (self.nbatch, n):
            raise ValueError(
                f"rhs shape {rhs.shape} does not match (nbatch={self.nbatch}, n={n})"
            )
        dtype = np.result_type(rhs.dtype, data.dtype)
        x = rhs.astype(dtype, copy=True)

        # Forward sweep (unit lower triangular, row-oriented).
        for i in range(1, n):
            lo = jlo[i]
            m = mdiag[i]
            if m:
                x[:, i] -= np.einsum("bm,bm->b", data[:, i, :m], x[:, lo : lo + m])

        # Backward sweep (upper triangular).
        W = spec.window
        for i in range(n - 1, -1, -1):
            m = mdiag[i]
            hi = jlo[i] + W  # one past last stored column of row i
            ncols = min(hi, n) - (i + 1)
            if ncols > 0:
                x[:, i] -= np.einsum(
                    "bm,bm->b", data[:, i, m + 1 : m + 1 + ncols], x[:, i + 1 : i + 1 + ncols]
                )
            x[:, i] /= data[:, i, m]
        return x[0] if squeeze else x

    # ------------------------------------------------------------------
    # operation accounting (used by the perf model / Table 1 commentary)
    # ------------------------------------------------------------------

    def factor_flops(self) -> int:
        """Multiply-add count of one (non-batched) factorization."""
        spec, jlo = self.spec, self.jlo
        total = 0
        for i in range(1, spec.n):
            for j in range(jlo[i], i):
                width = jlo[j] + spec.window - 1 - j  # updated entries
                total += 2 * (width + 1)
        return total

    def solve_flops(self) -> int:
        """Multiply-add count of one (non-batched, real-RHS) solve."""
        spec, jlo, mdiag = self.spec, self.jlo, self._mdiag
        total = 0
        for i in range(spec.n):
            total += 2 * mdiag[i]  # forward
            hi = min(jlo[i] + spec.window, spec.n)
            total += 2 * max(0, hi - (i + 1)) + 1  # backward + divide
        return int(total)
