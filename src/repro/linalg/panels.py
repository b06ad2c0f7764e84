"""Panel kernels for one *shared* banded matrix and y-last batches.

The wall-normal collocation matrices ``B``, ``D1``, ``D2`` are the same
for every Fourier mode, banded (``kl``/``ku`` = spline degree) and
constant for the life of a basis.  Both kernels here cut the matrix into
panels of about :data:`PANEL` rows and run one GEMM per panel over the
whole ``(M, n)`` batch, so a call touches ``~(PANEL + kl + ku)``
coefficients per output value instead of ``n``:

* :class:`PanelApply` — ``out[:, i0:i1] = x[:, j0:j1] @ A[i0:i1, j0:j1].T``
  with ``j0:j1`` the columns the band of rows ``i0:i1`` reaches;
* :class:`PanelSolve` — ``A`` factored once as a block-tridiagonal LU
  without pivoting, the Schur complements pre-inverted, and every
  right-hand side swept in two passes over the panels.

With ``n <= 2 * PANEL`` there is a single panel: the apply is the plain
dense product and the solve one multiplication by the dense inverse.
The path is chosen by ``n`` alone.

Every product is a ZGEMM against panels promoted to complex once, at
construction; a real batch is promoted on the way in and its real part
returned.  That costs real input (mean-mode profiles, set-up) twice the
flops and buys the property the serial ≡ distributed identities stand
on: **every output row is the same sequence of dot products whatever the
batch around it**, so a row swept alone, in a rank's block or in the full
mode grid is bit-for-bit the same.  DGEMM does not give that here:
OpenBLAS switches to small-matrix kernels that sum in another order when
the batch is short (measured on 0.3.31/SkylakeX: the ``TN`` kernel for
``b·M <= 1200, K >= 32``), ZGEMM has no such kernels.  numpy hands a
one-row product to GEMV, which also rounds differently, so a single row
is swept as a batch of two.  Instances hold no per-call state and may be
shared between threads.

These are not :class:`~repro.linalg.engine.BandedSolveEngine` clients:
the engine sweeps one *different* matrix per mode over a solve-major
``(nbatch, n, 4)`` stack; here one matrix serves the whole batch, y stays
the last axis, and no transpose is needed on the way in or out.
"""

from __future__ import annotations

import numpy as np

#: Panel height.  Measured in ``benchmarks/bench_wall_normal_ops.py``
#: (``results/wall_normal_ops.txt``): of 16/24/32/48 rows, 24 is the
#: fastest apply at ny = 193 and ny = 1536; the solve would take 32
#: (10-20 % at ny = 193, ~4 % at 1536), but a step makes three applies per
#: solve and the difference is under 1 % of it.  Smaller panels pay Python
#: iterations, larger ones dense flops.
PANEL = 24


def panel_edges(n: int) -> list[tuple[int, int]]:
    """Row ranges of the panels: one when ``n <= 2 * PANEL``, else
    ``ceil(n / PANEL)`` of nearly equal height."""
    if n <= 2 * PANEL:
        return [(0, n)]
    edges = np.linspace(0, n, -(-n // PANEL) + 1).round().astype(int)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _rows(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as the C-ordered complex ``(M, n)`` batch the GEMMs run on
    (a view when it already is one; a single row doubled)."""
    if x.shape[-1] != n:
        raise ValueError(f"last axis has length {x.shape[-1]}, expected {n}")
    rows = np.ascontiguousarray(x, dtype=complex).reshape(-1, n)
    return np.concatenate([rows, rows]) if rows.shape[0] == 1 else rows


def _like(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Swept ``rows`` in the shape of the input ``x``, real if it was real."""
    rows = rows[: x.size // rows.shape[1]]
    return (rows if np.iscomplexobj(x) else rows.real.copy()).reshape(x.shape)


def _promote(mat: np.ndarray) -> np.ndarray:
    """A panel matrix as it multiplies a column vector, promoted once; it
    is used through ``.T`` on the row batch — the operand layout of the
    dense ``x @ A.T`` these kernels replace."""
    return np.ascontiguousarray(mat, dtype=complex)


class PanelApply:
    """``x -> x @ A.T`` for a banded ``(n, n)`` matrix, y on the last axis."""

    def __init__(self, dense: np.ndarray, kl: int, ku: int) -> None:
        self.n = n = dense.shape[0]
        #: ``(i0, i1, j0, j1)`` per panel: output columns and the input columns they read
        self.spans: list[tuple[int, int, int, int]] = []
        for i0, i1 in panel_edges(n):
            # the band window, less the outer columns no row of the panel
            # touches (kl and ku are attained at different rows)
            j0, j1 = max(0, i0 - kl), min(n, i1 + ku)
            used = np.flatnonzero(dense[i0:i1, j0:j1].any(axis=0))
            if used.size:
                j0, j1 = j0 + int(used[0]), j0 + int(used[-1]) + 1
            self.spans.append((i0, i1, j0, j1))
        self._mats = [_promote(dense[i0:i1, j0:j1]) for i0, i1, j0, j1 in self.spans]

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x)
        rows = _rows(x, self.n)
        direct = False
        if out is not None:
            want = rows.dtype if np.iscomplexobj(x) else np.dtype(float)
            if out.shape != x.shape or out.dtype != want or not out.flags.c_contiguous:
                raise ValueError(f"out= must be a C-contiguous {want} array of shape {x.shape}")
            if np.may_share_memory(out, x):
                raise ValueError("out= aliases the input: later panels would read overwritten columns")
            direct = out.dtype == rows.dtype and out.size == rows.size
        res = out.reshape(rows.shape) if direct else np.empty_like(rows)
        for (i0, i1, j0, j1), mat in zip(self.spans, self._mats):
            np.matmul(rows[:, j0:j1], mat.T, out=res[:, i0:i1])
        if direct:
            return out
        if out is None:
            return _like(res, x)
        out[...] = _like(res, x)
        return out


class PanelSolve:
    """``rhs -> x`` with ``A x = rhs`` per row, ``A`` banded and factored once.

    Block-tridiagonal LU over the panels ``p``: with ``S_0 = A_00`` and
    ``S_p = A_pp - A_p,p-1 S_{p-1}^{-1} A_p-1,p``,

        forward    y_p = r_p - L_p y_{p-1},          L_p = A_p,p-1 S_{p-1}^{-1}
        backward   x_p = S_p^{-1} (y_p - A_p,p+1 x_{p+1})

    ``A_p,p-1`` has ``kl`` non-zero rows and ``A_p,p+1`` ``ku`` non-zero
    rows and columns, so a panel costs one ``(M, b) @ (b, b)`` GEMM and
    two couplings of width ``kl`` / ``ku``.  No pivoting between panels:
    the caller guarantees every leading principal block is well
    conditioned (B-spline collocation matrices at Greville points are
    totally positive, and so are their Schur complements).
    """

    def __init__(self, dense: np.ndarray, kl: int, ku: int) -> None:
        self.n = dense.shape[0]
        self.kl, self.ku = kl, ku
        self._panels = panels = panel_edges(self.n)
        if len(panels) > 1 and min(e - s for s, e in panels) < max(kl, ku):
            raise ValueError(f"bandwidths ({kl}, {ku}) exceed the panel height")
        lower: list = [None]  # first kl rows of L_p, shape (kl, b_{p-1})
        upper: list = []  # non-zero corner of A_p,p+1, shape (ku, ku)
        schur: list = []  # S_p^{-1}
        for p, (s, e) in enumerate(panels):
            block = dense[s:e, s:e].copy()
            if p:
                ps = panels[p - 1][0]
                ell = dense[s : s + kl, ps:s] @ schur[-1]
                block[:kl, :ku] -= ell @ dense[ps:s, s : s + ku]
                lower.append(ell)
            schur.append(np.linalg.inv(block))
            upper.append(dense[e - ku : e, e : e + ku].copy() if e < self.n else None)
        self._lower, self._upper, self._schur = (
            [None if m is None else _promote(m) for m in mats] for mats in (lower, upper, schur)
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for every row of ``rhs`` (y last; real input gives a real result)."""
        rhs = np.asarray(rhs)
        w = _rows(rhs, self.n)
        panels, kl, ku = self._panels, self.kl, self.ku
        if len(panels) > 1 and np.may_share_memory(w, rhs):
            w = w.copy()  # the sweeps overwrite the coupling columns
        x = np.empty_like(w)
        for p in range(1, len(panels)):
            ps, s = panels[p - 1]
            w[:, s : s + kl] -= w[:, ps:s] @ self._lower[p].T
        for p in range(len(panels) - 1, -1, -1):
            s, e = panels[p]
            if e < self.n:
                w[:, e - ku : e] -= x[:, e : e + ku] @ self._upper[p].T
            np.matmul(w[:, s:e], self._schur[p].T, out=x[:, s:e])
        return _like(x, rhs)
