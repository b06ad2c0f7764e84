"""Batched blocked-sweep solve engine for folded corner-banded factors.

:class:`FoldedLU` factors in folded row-window storage; its reference
sweeps (``solve_reference``) walk the rows one at a time — 2·n
Python-level iterations per solve, each a tiny ``einsum`` whose
interpreter/dispatch overhead dwarfs its flops.  That is why the pure
NumPy custom solver historically *lost* to compiled LAPACK in wall-clock
despite doing 3-4x fewer flops (see ``benchmarks/results/
table01_banded_solver.txt``).

:class:`BandedSolveEngine` restructures the sweeps into *panels*: the
unit lower factor L and upper factor U are block-bidiagonal when the
rows are grouped into panels of ``block`` rows (:data:`PANEL_ROWS`,
capped at ``n``; every stored element of
row ``i`` lies within ``coupling_width = W - 1`` columns of ``i``, which
is why one coupling block per panel suffices).  At construction the
engine extracts, per panel,

* the dense panel-diagonal blocks of L and U and **pre-inverts** them
  (a one-time batched ``np.linalg.inv``; factors are built once per RK
  coefficient and reused every substep, so this amortizes to nothing),
* the dense coupling block to the trailing (L) / leading (U) ``W - 1``
  already-solved entries, pre-multiplied by the panel inverse and packed
  *next to it*:  ``x[s:e] = [-L⁻¹ Lc | L⁻¹] @ x[s-cw : e]`` is a single
  batched ``matmul`` against a contiguous row slice.

A solve is then ``2·ceil(n/block)`` Python iterations of one batched
``matmul`` per multiplicity class (plus a panel copy-back) each, instead
of ``2·n`` einsum rows.

**Shared factors.**  Panels exist once per *stored* matrix
(:attr:`FoldedLU.rows`: members with equal ``k²`` share one), while the
workspace keeps one row per member, grouped so the sharers of a matrix
are adjacent.  A panel step is one ``matmul`` per multiplicity class
with the class's panels broadcast (stride 0) over its sharers, so each
member still runs its own fixed-shape GEMM and the result is bit for bit
that of a private factor copy.

**Real factors, complex right-hand sides, one fixed sweep width.**
The factors are real; complex right-hand sides are swept as (re, im)
column *pairs* of a real multi-RHS stack — the paper's "sweep complex
vectors against real factors" optimisation, with no dtype promotion.
Every sweep runs at a single fixed matmul width of 4 columns (two
pairs), zero-padding unused slots.  The width is fixed because BLAS
kernels select by GEMM shape: the same column swept at width 2 and
width 4 differs in the last bits, but *at a fixed width* each output
column is an independent dot product — unaffected by the content or
position of its neighbours (asserted across shapes by the test suite).
That single rule makes every entry point agree exactly, bit for bit:
``solve`` on a complex vector, ``solve_many`` on its stacked re/im
columns, and a fused ``solve_stack`` that carries several state
variables through shared sweeps.

**One column stream.**  The entry points — ``solve``, ``solve_many``,
``solve_stack`` and the per-stored-matrix ``solve_rows`` — only
validate and lay out their columns as slots (one real array, or the
real or imaginary view of a complex one, beside the view its solution
lands in); one private routine loads the slots :attr:`WIDTH` at a
time, sweeps the member or row plan and stores the results.  No entry
point calls another, so a span wrapped around each never nests.  Each
:class:`~repro.linalg.custom.FoldedLU` builds its one engine together
with its factors.

**Zero allocations in steady state.**  All sweep scratch (the RHS stack
``X`` and the panel temporary ``T``) is allocated once at engine build
and counted in :class:`~repro.instrument.SolveCounters`; outputs are
caller-owned fresh arrays (the transforms' discipline).  The
counters must not move across warmed-up solves — asserted by
``tests/linalg/test_engine.py``.  Unused sweep columns stay exactly
zero through a sweep (each output column is a dot product against
zeros), so the engine tracks which columns are already clear and skips
re-zeroing them.
"""

from __future__ import annotations

import numpy as np

from repro.instrument import SolveCounters


#: Panel height: 16 rows balances Python iteration count against the
#: O(b·(b + W)) dense panel flops (measured optimum across the Table 1
#: bench point and DNS-sized systems, DESIGN.md §6c); an engine caps it
#: at ``n``.
PANEL_ROWS = 16


class BandedSolveEngine:
    """Blocked batched triangular sweeps over a :class:`FoldedLU`.

    Parameters
    ----------
    lu:
        A factored :class:`~repro.linalg.custom.FoldedLU` (the engine
        reads its ``spec``, ``rows`` and folded factor data while it is
        built and keeps no reference to it: the factor set owns its
        engine, and nothing it owns refers back).
    counters:
        A :class:`~repro.instrument.SolveCounters` to attach (a fresh
        one is created by default).
    """

    def __init__(self, lu, counters: SolveCounters | None = None):
        spec = lu.spec
        self.spec = spec
        self.n = spec.n
        self.rows = lu.rows
        self.nbatch = self.rows.nbatch
        self.block = min(PANEL_ROWS, spec.n)
        self.counters = counters if counters is not None else SolveCounters()
        self._build_panels(lu.data)
        self._alloc_workspace()
        self._plan_sweeps()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_panels(self, data: np.ndarray) -> None:
        """Extract per-panel dense blocks from the folded factors.

        ``data[r, i, m]`` holds L strictly below the diagonal
        (``m < mdiag[i]``) and U on/above it, exactly as
        :meth:`FoldedLU._factor` leaves them — one row ``r`` per
        *stored* matrix, so shared matrices get one panel set.
        """
        spec = self.spec
        n, W, b = spec.n, spec.window, self.block
        jlo = spec.jlo
        cw = spec.coupling_width
        nrows = data.shape[0]

        fwd = []  # (s, e, [-L⁻¹Lc | L⁻¹], s - cwk, e) in sweep order
        bwd = []  # (s, e, [U⁻¹ | -U⁻¹Uc], s, e + cuk) in reverse order
        for s in range(0, n, b):
            e = min(s + b, n)
            bk = e - s
            rows = np.arange(s, e)
            jj = jlo[rows][:, None] + np.arange(W)[None, :]  # global column
            rr = np.broadcast_to(rows[:, None], jj.shape)
            rloc = rr - s
            vals = data[:, s:e, :]
            is_lower = jj < rr  # strict-lower window slots hold L

            ldiag = np.zeros((nrows, bk, bk))
            ldiag[:, np.arange(bk), np.arange(bk)] = 1.0
            sel = is_lower & (jj >= s)
            ldiag[:, rloc[sel], jj[sel] - s] = vals[:, sel]
            cwk = min(cw, s)
            lcouple = np.zeros((nrows, bk, cwk))
            if cwk:
                sel = is_lower & (jj < s)
                lcouple[:, rloc[sel], jj[sel] - (s - cwk)] = vals[:, sel]

            udiag = np.zeros((nrows, bk, bk))
            sel = ~is_lower & (jj < e)
            udiag[:, rloc[sel], jj[sel] - s] = vals[:, sel]
            cuk = min(cw, n - e)
            ucouple = np.zeros((nrows, bk, cuk))
            if cuk:
                sel = ~is_lower & (jj >= e)
                ucouple[:, rloc[sel], jj[sel] - e] = vals[:, sel]

            linv = np.linalg.inv(ldiag)
            uinv = np.linalg.inv(udiag)
            lmat = np.concatenate([-(linv @ lcouple), linv], axis=2) if cwk else linv
            umat = np.concatenate([uinv, -(uinv @ ucouple)], axis=2) if cuk else uinv
            fwd.append((s, e, np.ascontiguousarray(lmat), s - cwk, e))
            bwd.append((s, e, np.ascontiguousarray(umat), s, e + cuk))
        self._panels = fwd + bwd[::-1]

    #: fixed sweep width: two (re, im) pairs per blocked pass
    WIDTH = 4

    def _alloc_workspace(self) -> None:
        """Persistent sweep scratch: the solve-major RHS stack ``X`` and
        the panel temporary ``T``, both at the fixed sweep width and one
        row per *member*, laid out in :attr:`SharedRows.order` (the
        sharers of a stored matrix adjacent)."""
        nbatch, n, b = self.nbatch, self.n, self.block
        self._x = np.zeros((nbatch, n, self.WIDTH))
        self._t = np.empty((nbatch, b, self.WIDTH))
        #: columns of X known to be exactly zero (zeros sweep to zeros,
        #: so clear columns never need re-clearing)
        self._clear = [True] * self.WIDTH
        for arr in (self._x, self._t):
            self.counters.count_workspace(arr)

    def _plan_sweeps(self) -> None:
        """Pre-slice the panel GEMMs of both sweep layouts.

        Each plan step is ``(gemms, dst, src)``: the ``np.matmul(mat,
        x_in, out=t_out)`` calls of one panel, then the copy of the panel
        temporary back into ``X``.  In the *member* layout a panel is one
        matmul per multiplicity class: the class's stored panels, shaped
        ``(K, 1, b, b+cw)``, broadcast with stride 0 over the ``(K, m,
        b+cw, 4)`` rows of its ``m`` sharers — no gather copy, and every
        member runs exactly the ``(b, b+cw) @ (b+cw, 4)`` GEMM it would
        run against a private copy of its panel, so sharing changes no
        bit.  The *row* layout sweeps the first ``nrows`` rows of ``X``
        once per stored matrix (:meth:`solve_rows`).

        Each layout is ``(plan, xrows, load, store)`` for
        :meth:`_stream`.  The mode permutation rides the member layout's
        load/store copies: member b sits at row ``pos[b]`` of X, row p of
        X holds member ``order[p]``; an unpermuted batch keeps plain
        slice copies.
        """
        x, t = self._x, self._t
        n, width, b = self.n, self.WIDTH, t.shape[1]
        nrows = self.rows.nrows
        classes = []
        for r0, r1, m, p0 in self.rows.classes:
            p1 = p0 + (r1 - r0) * m
            xc = x[p0:p1].reshape(r1 - r0, m, n, width)
            tc = t[p0:p1].reshape(r1 - r0, m, b, width)
            classes.append((r0, r1, xc, tc))
        member_plan = [
            (
                [(mat[r0:r1, None], xc[:, :, lo:hi], tc[:, :, : e - s]) for r0, r1, xc, tc in classes],
                x[:, s:e],
                t[:, : e - s],
            )
            for s, e, mat, lo, hi in self._panels
        ]
        row_plan = [
            ([(mat, x[:nrows, lo:hi], t[:nrows, : e - s])], x[:nrows, s:e], t[:nrows, : e - s])
            for s, e, mat, lo, hi in self._panels
        ]
        order = self.rows.order
        if np.array_equal(order, np.arange(self.nbatch)):
            order = pos = slice(None)
        else:
            pos = np.empty_like(order)
            pos[order] = np.arange(self.nbatch)
        self._members = (member_plan, slice(None), pos, order)
        self._stored = (row_plan, slice(0, nrows), slice(0, nrows), slice(None))

    def workspace_bytes(self) -> int:
        """Bytes of engine-owned persistent sweep scratch."""
        return self._x.nbytes + self._t.nbytes

    def panel_bytes(self) -> int:
        """Bytes of the pre-inverted panels (one set per stored matrix)."""
        return sum(mat.nbytes for _, _, mat, _, _ in self._panels)

    # ------------------------------------------------------------------
    # the blocked sweeps
    # ------------------------------------------------------------------

    def _sweep(self, plan) -> None:
        """One forward+backward blocked pass over ``X`` in place, in the
        layout of ``plan`` (member or row, see :meth:`_plan_sweeps`)."""
        self.counters.sweeps += 1
        for gemms, dst, src in plan:
            for mat, x_in, t_out in gemms:
                np.matmul(mat, x_in, out=t_out)
            dst[...] = src

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def _check_rhs(self, rhs: np.ndarray) -> None:
        if rhs.shape != (self.nbatch, self.n):
            raise ValueError(
                f"rhs shape {rhs.shape} does not match (nbatch={self.nbatch}, n={self.n})"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for each batch member.

        ``rhs`` has shape ``(nbatch, n)`` (or ``(n,)`` for a batch of
        one) and may be real or complex; a complex right-hand side is
        swept as one (re, im) pair against the real factors.
        """
        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[None, :]
        self._check_rhs(rhs)
        self.counters.solves += 1
        out = _like(rhs)
        self._stream(_slots(rhs, out), self._members)
        return out[0] if squeeze else out

    def solve_many(self, cols: np.ndarray) -> np.ndarray:
        """Solve a real multi-RHS stack ``cols`` shaped ``(nbatch, n, k)``.

        Columns are swept :attr:`WIDTH` at a time, the trailing group
        zero-padded.  A complex right-hand side entered as its stacked
        re/im columns is bit-identical to :meth:`solve` on the complex
        array (fixed-width sweeps; columns are independent).
        """
        cols = np.asarray(cols)
        if np.iscomplexobj(cols):
            raise TypeError(
                "solve_many sweeps real column stacks; pass complex right-hand "
                "sides to solve()/solve_stack() or stack their re/im columns"
            )
        if cols.ndim != 3 or cols.shape[:2] != (self.nbatch, self.n):
            raise ValueError(
                f"cols shape {cols.shape} does not match (nbatch={self.nbatch}, n={self.n}, k)"
            )
        self.counters.solves += 1
        out = np.empty(cols.shape)
        self._stream(_column_slots(cols, out), self._members)
        return out

    def solve_rows(self, cols: np.ndarray) -> np.ndarray:
        """Solve a real stack ``(nrows, n, k)`` once per *stored* matrix.

        Row ``r`` of the result is bit for bit what every member sharing
        stored matrix ``r`` gets from :meth:`solve_many` on the same
        columns (the same panel GEMMs at the same width).  Set-up work
        that depends only on the matrix — the influence solver's Green's
        functions — runs once per distinct matrix this way.
        """
        cols = np.asarray(cols, dtype=float)
        nrows = self.rows.nrows
        if cols.ndim != 3 or cols.shape[:2] != (nrows, self.n):
            raise ValueError(
                f"cols shape {cols.shape} does not match (nrows={nrows}, n={self.n}, k)"
            )
        self.counters.solves += 1
        out = np.empty(cols.shape)
        self._stream(_column_slots(cols, out), self._stored)
        return out

    def solve_stack(self, parts) -> list[np.ndarray]:
        """Fused solve of several per-mode state variables in one pass.

        ``parts`` is a sequence of ``(nbatch, n)`` arrays, real or
        complex, all against the same factors.  A complex part occupies
        one (re, im) column pair, a real part one column; the column
        stream is swept :attr:`WIDTH` columns per blocked pass (two
        state variables share each sweep).  Each part's result is
        bit-identical to a separate :meth:`solve` call — fusing halves
        the Python-level panel iterations, never the arithmetic.
        Returns a list of fresh arrays matching each part's shape and
        real/complex dtype.
        """
        parts = [np.asarray(p) for p in parts]
        for p in parts:
            self._check_rhs(p)
        self.counters.solves += 1
        outs = [_like(p) for p in parts]
        slots: list = []
        for p, out in zip(parts, outs):
            part = _slots(p, out)
            if len(part) == 2 and len(slots) % 2:
                slots.append(None)  # a complex pair starts at an even column
            slots += part
        self._stream(slots, self._members)
        return outs

    # ------------------------------------------------------------------
    # the one column stream behind every entry point
    # ------------------------------------------------------------------

    def _stream(self, slots: list, layout) -> None:
        """Sweep ``slots`` :attr:`WIDTH` columns per blocked pass.

        A slot is ``(src, dst)``: one real ``(rows, n)`` column (an array,
        or the real or imaginary view of a complex one) to load into
        ``X`` and the real view its solution is stored into; ``None`` is
        a zero pad.  ``layout`` is ``(plan, xrows, load, store)``: the
        sweep plan, the rows of ``X`` it covers, and the index the loads
        scatter through and the stores scatter into — the mode
        permutation in the member layout, nothing in the row layout.
        """
        plan, xrows, load, store = layout
        x, clear, width = self._x, self._clear, self.WIDTH
        for g in range(0, len(slots), width):
            group = slots[g : g + width]
            for c in range(width):
                slot = group[c] if c < len(group) else None
                if slot is not None:
                    x[load, :, c] = slot[0]
                    clear[c] = False
                elif not clear[c]:
                    x[:, :, c] = 0.0
                    clear[c] = True
            self._sweep(plan)
            for c, slot in enumerate(group):
                if slot is not None:
                    # one column at a time: numpy copies a trailing (re, im)
                    # pair of a complex view several times slower than two
                    # strided columns
                    slot[1][store] = x[xrows, :, c]
                    self.counters.columns += 1


def _like(rhs: np.ndarray) -> np.ndarray:
    """A fresh solution array of ``rhs``' shape, complex or real."""
    return np.empty(rhs.shape, dtype=complex if np.iscomplexobj(rhs) else float)


def _slots(rhs: np.ndarray, out: np.ndarray) -> list:
    """Column slots of one right-hand side: its (re, im) pair, or itself."""
    if not np.iscomplexobj(rhs):
        return [(rhs, out)]
    pair = out.view(np.float64).reshape(*out.shape, 2)
    return [(rhs.real, pair[..., 0]), (rhs.imag, pair[..., 1])]


def _column_slots(cols: np.ndarray, out: np.ndarray) -> list:
    """One slot per column of a real ``(rows, n, k)`` stack."""
    return [(cols[:, :, j], out[:, :, j]) for j in range(cols.shape[2])]
