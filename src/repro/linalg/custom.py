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
built lazily from the factors: panels of rows per Python iteration
instead of one row each, and complex right-hand sides swept as (re, im)
column pairs **directly against the real factors** — the optimisation
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

from repro.linalg.engine import BandedSolveEngine, default_block
from repro.linalg.structure import BandedSystemSpec, FoldedBanded, SharedRows


class FoldedLU:
    """Batched no-pivot LU of corner-banded matrices in folded storage.

    Factoring is done once at construction; :meth:`solve` may then be
    called repeatedly (the DNS factors once per RK coefficient and solves
    every substep).  The first solve builds the blocked sweep engine
    from the factors; subsequent solves reuse it with zero workspace
    allocations.

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
        block: int | None = None,
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
        self._block = block
        self._engines: dict[int, BandedSolveEngine] = {}
        self._factor(check=check)

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

    def engine(self, block: int | None = None) -> BandedSolveEngine:
        """The blocked sweep engine over these factors (built lazily,
        cached per panel height; ``None`` takes the construction-time
        block, else :func:`~repro.linalg.engine.default_block`)."""
        b = int(block or self._block or default_block(self.spec.n))
        if b not in self._engines:
            self._engines[b] = BandedSolveEngine(self, block=b)
        return self._engines[b]

    def engines(self) -> tuple[BandedSolveEngine, ...]:
        """Every engine built so far (never triggers a build — telemetry
        must be able to read counters without allocating workspace)."""
        return tuple(self._engines.values())

    def nbytes(self) -> int:
        """Bytes this factor set holds: the folded factors plus every
        built engine's panels and workspace."""
        return self.data.nbytes + sum(e.panel_bytes() + e.workspace_bytes() for e in self.engines())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for each batch member.

        ``rhs`` has shape ``(nbatch, n)`` (or ``(n,)`` for a batch of one)
        and may be real or complex; complex input is swept directly
        against the real factors as one (re, im) column pair.
        """
        return self.engine().solve(rhs)

    def solve_many(self, cols: np.ndarray) -> np.ndarray:
        """Solve a real multi-RHS stack ``(nbatch, n, k)`` in paired
        blocked sweeps (see :meth:`BandedSolveEngine.solve_many`)."""
        return self.engine().solve_many(cols)

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


def solve_corner_banded(
    dense: np.ndarray,
    rhs: np.ndarray,
    spec: BandedSystemSpec | None = None,
) -> np.ndarray:
    """Convenience one-shot solve of (batched) dense corner-banded systems.

    Infers a pure-band spec when none is given.  Right-hand-side shapes
    are normalized explicitly:

    * ``dense (n, n)``, ``rhs (n,)`` → ``x (n,)``;
    * ``dense (n, n)``, ``rhs (k, n)`` → ``x (k, n)``, k right-hand
      sides against the one matrix;
    * ``dense (nbatch, n, n)``, ``rhs (n,)`` → ``x (nbatch, n)``, the
      shared rhs solved against every batch member;
    * ``dense (nbatch, n, n)``, ``rhs (nbatch, n)`` → ``x (nbatch, n)``.

    Anything else raises ``ValueError``.
    """
    dense = np.asarray(dense, dtype=float)
    single = dense.ndim == 2
    if single:
        dense = dense[None]
    rhs = np.asarray(rhs)
    if spec is None:
        spec = infer_spec(dense)
    nbatch = dense.shape[0]
    lu = FoldedLU(FoldedBanded.from_dense(dense, spec))

    if rhs.ndim == 1:
        if rhs.shape != (spec.n,):
            raise ValueError(f"rhs shape {rhs.shape} does not match n={spec.n}")
        x = lu.solve(np.ascontiguousarray(np.broadcast_to(rhs, (nbatch, spec.n))))
        return x[0] if single else x
    if rhs.ndim == 2:
        if single and rhs.shape[1] == spec.n:
            # k right-hand sides against the one matrix: one fused stack
            xs = lu.engine().solve_stack([np.ascontiguousarray(r)[None] for r in rhs])
            return np.concatenate(xs, axis=0)
        if rhs.shape != (nbatch, spec.n):
            raise ValueError(
                f"rhs shape {rhs.shape} does not match (nbatch={nbatch}, n={spec.n})"
            )
        return lu.solve(rhs)
    raise ValueError(f"rhs must be 1-D or 2-D, got shape {rhs.shape}")


def infer_spec(dense: np.ndarray) -> BandedSystemSpec:
    """Smallest pure-band + corner structure containing all non-zeros.

    Measures the interior bandwidth from rows away from the boundaries and
    charges whatever sticks out near the boundaries to the corner extent.
    All index arithmetic is vectorized — no per-non-zero Python loop.
    """
    dense = np.asarray(dense)
    if dense.ndim == 2:
        dense = dense[None]
    n = dense.shape[1]
    nz = np.any(dense != 0.0, axis=0)
    i_idx, j_idx = np.nonzero(nz)
    if i_idx.size == 0:
        return BandedSystemSpec(n=n, kl=0, ku=0)
    off = j_idx - i_idx
    # Interior band: offsets of elements at least a window away from ends.
    interior = (i_idx > n // 4) & (i_idx < n - n // 4)
    if np.any(interior):
        kl = int(max(0, -off[interior].min()))
        ku = int(max(0, off[interior].max()))
    else:
        kl = int(max(0, -off.min()))
        ku = int(max(0, off.max()))
    # Elements beyond the band must be absorbed by a corner window.
    over = off - ku
    under = -off - kl
    corner = int(max(0, over.max(initial=0), under.max(initial=0)))
    return BandedSystemSpec(n=n, kl=kl, ku=ku, corner=corner)
