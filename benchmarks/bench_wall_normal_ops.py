"""Wall-normal operators — dense products vs banded panel kernels.

In the mould of Table 1 (exploit the banded structure) and Table 2 (the
advance is bandwidth-bound, so bytes moved is the cost): the collocation
matrices ``B``/``D1``/``D2`` have 8 non-zeros per row, and until the
panel kernels of :mod:`repro.linalg.panels` every wall-normal operation
of a step paid for all ``ny`` of them.  Two pairs are timed on complex
``(M, ny)`` batches at the benchmark's grids and at the paper's
``ny = 1536``:

* **apply** — the dense oracle ``x @ D1.T`` (real matrix promoted to
  complex on every call, as ``core/operators.py`` did) against
  :class:`~repro.linalg.panels.PanelApply`;
* **solve** — the interpolation ``B a = s`` through
  ``scipy.linalg.solve_banded`` (re-factorising the constant matrix on
  every call, y moved to the front, real/imaginary split; the former
  ``BSplineBasis.interpolate``) against the factor-once
  :class:`~repro.linalg.panels.PanelSolve`.

Next to each time stand the flops the kernel executes and the bytes it
moves, **computed** from the array shapes (not measured traffic; cache
misses are not in them).  The two sides of a pair are timed in
alternating bursts of three consecutive calls — a step applies its
operators in runs (three ``values``, three ``dvalues``, ...), so the
first call of a burst inherits the other side's cache and the later ones
their own — and the fastest call is kept, so the host's drift hits both
alike.

The second table is where the panel height is chosen: the same two
kernels with ``PANEL`` patched to 16/24/32/48.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bsplines import BSplineBasis
from repro.linalg import panels
from repro.linalg.panels import PanelApply, PanelSolve, panel_edges
from repro.linalg.reference import apply_dense, interpolate_banded

from conftest import emit, fmt_row

#: (M, ny): serial_wide, dist4_* (one rank), serial_tall, a 64-mode block at the paper's ny
SHAPES = ((4560, 25), (496, 33), (120, 193), (64, 1536))
HEIGHTS = (16, 24, 32, 48)
C16 = 16  # bytes of a complex128
BURST = 3  # consecutive calls of one side before the other runs


def fastest(*fns, seconds: float = 0.8) -> list[float]:
    """Fastest call of each callable, in ms, in alternating bursts of three."""
    for fn in fns:
        fn()
    best = [np.inf] * len(fns)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        for i, fn in enumerate(fns):
            for _ in range(BURST):
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    return [b * 1e3 for b in best]


def apply_work(m: int, ny: int, spans) -> dict:
    """Executed flops (8 per complex multiply-add) and computed bytes."""
    shapes = [(i1 - i0, j1 - j0) for i0, i1, j0, j1 in spans]
    return {
        "dense_flops": 8.0 * m * ny * ny,
        # batch in and out, the matrix read, promoted (written) and read again
        "dense_bytes": C16 * 2.0 * m * ny + (8 + 2 * C16) * ny * ny,
        "band_flops": 8.0 * m * sum(b * k for b, k in shapes),
        "band_bytes": C16 * (m * sum(k for _, k in shapes) + m * ny + sum(b * k for b, k in shapes)),
    }


def solve_work(m: int, ny: int, kl: int, ku: int) -> dict:
    heights = [e - s for s, e in panel_edges(ny)]
    couplings = sum(prev * kl + ku * ku for prev in heights[:-1])
    return {
        # gbsv with partial pivoting: factor, then 2*kl + ku multiply-adds
        # per unknown and real right-hand side, two of those per complex row
        "dense_flops": 2.0 * ny * kl * (kl + ku + 1) * 2 + 2.0 * (2 * kl + ku) * ny * m * 2,
        # moveaxis copy, two split planes in, two solutions out, the merge
        "dense_bytes": C16 * m * ny * 6.0 + 8.0 * (2 * kl + ku + 1) * ny * 2,
        "band_flops": 8.0 * m * (sum(b * b for b in heights) + couplings),
        # the working copy (read + write), every panel read once and written
        # once, the coupling strips read and updated, the factors
        "band_bytes": C16 * (m * ny * 4.0 + m * (len(heights) - 1) * 3.0 * (kl + ku) + sum(b * b for b in heights) + couplings),
    }


def test_wall_normal_ops(benchmark, monkeypatch):
    rng = np.random.default_rng(0)
    rows, ratios = [], {}
    for m, ny in SHAPES:
        basis = BSplineBasis(ny)
        kl, ku = basis.bandwidths
        b0, d1 = basis.colloc_matrix(0), basis.colloc_matrix(1)
        x = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
        apply, solver = PanelApply(d1, kl, ku), PanelSolve(b0, kl, ku)

        # correctness before speed
        want = apply_dense(d1, x)
        assert np.abs(apply(x) - want).max() <= 1e-13 * np.abs(want).max()
        want = interpolate_banded(b0, kl, ku, x)
        assert np.abs(solver.solve(x) - want).max() <= 1e-12 * np.abs(want).max()

        t_dense, t_band = fastest(lambda: apply_dense(d1, x), lambda: apply(x))
        t_gbsv, t_panel = fastest(lambda: interpolate_banded(b0, kl, ku, x), lambda: solver.solve(x))
        ratios[ny] = (t_dense / t_band, t_gbsv / t_panel)
        aw, sw = apply_work(m, ny, apply.spans), solve_work(m, ny, kl, ku)
        for label, slow, fast, work in (("apply", t_dense, t_band, aw), ("solve", t_gbsv, t_panel, sw)):
            rows.append(
                (f"{m}x{ny}", label, f"{slow:.3f}", f"{fast:.3f}", f"{slow / fast:.2f}x",
                 f"{work['dense_flops'] / 1e6:.2f}", f"{work['band_flops'] / 1e6:.2f}",
                 f"{work['dense_bytes'] / 1e6:.2f}", f"{work['band_bytes'] / 1e6:.2f}")
            )

    widths = (10, 6, 10, 10, 8, 11, 11, 10, 10)
    lines = [
        "Wall-normal operators on complex (M, ny) batches, degree 7, 1 BLAS thread:",
        "dense oracle (x @ D1.T; solve_banded interpolation) vs banded panel kernels.",
        "ms = fastest repetition; Mflop = executed per call; MB = computed bytes per call.",
        fmt_row(("M x ny", "kernel", "dense ms", "banded ms", "speedup", "dense Mflop", "band Mflop", "dense MB", "band MB"), widths),
    ]
    lines += [fmt_row(r, widths) for r in rows]
    lines += [
        "ny <= 48 is one panel: the banded apply is the same ZGEMM without the",
        "per-call promotion, the solve one product with the pre-computed inverse.",
        "",
        f"Panel height (production constant PANEL = {panels.PANEL}), banded ms per call:",
    ]

    sweep_widths = (10, 6) + (9,) * len(HEIGHTS)
    lines.append(fmt_row(("M x ny", "kernel") + tuple(f"b={h}" for h in HEIGHTS), sweep_widths))
    for m, ny in SHAPES[2:]:
        basis = BSplineBasis(ny)
        kl, ku = basis.bandwidths
        x = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
        kernels = []
        for height in HEIGHTS:
            monkeypatch.setattr(panels, "PANEL", height)
            kernels.append((PanelApply(basis.colloc_matrix(1), kl, ku), PanelSolve(basis.colloc_matrix(0), kl, ku)))
        monkeypatch.undo()
        t_apply = fastest(*(lambda k=k: k[0](x) for k in kernels))
        t_solve = fastest(*(lambda k=k: k[1].solve(x) for k in kernels))
        lines.append(fmt_row((f"{m}x{ny}", "apply") + tuple(f"{t:.3f}" for t in t_apply), sweep_widths))
        lines.append(fmt_row((f"{m}x{ny}", "solve") + tuple(f"{t:.3f}" for t in t_solve), sweep_widths))
    lines += [
        "Smaller panels pay Python iterations, larger ones dense flops",
        "(b + 7 columns of every row are multiplied for 8 non-zeros).",
    ]
    emit("wall_normal_ops", "\n".join(lines))

    assert ratios[193][0] >= 3.0, f"banded apply at ny=193: {ratios[193][0]:.2f}x"
    assert ratios[193][1] >= 2.0, f"factor-once solve at ny=193: {ratios[193][1]:.2f}x"
    assert min(ratios[25]) >= 0.9, f"single-panel kernels slower than dense at ny=25: {ratios[25]}"

    basis = BSplineBasis(193)
    apply = PanelApply(basis.colloc_matrix(1), *basis.bandwidths)
    x = rng.standard_normal((120, 193)) + 1j * rng.standard_normal((120, 193))
    benchmark(lambda: apply(x))
