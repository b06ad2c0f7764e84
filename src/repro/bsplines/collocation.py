"""Greville collocation points and banded collocation matrices.

The paper's wall-normal discretization is B-spline *collocation*: the PDE
is enforced pointwise at the Greville abscissae.  The resulting matrices
are banded — each row touches only the ``degree+1`` basis functions alive
at its collocation point — with wider rows near the walls, which is
exactly the "banded matrix with extra non-zero values in the first and
last few rows" of the paper's figure 3.
"""

from __future__ import annotations

import numpy as np

from repro.bsplines.basis import all_basis_functions


def greville_points(knots: np.ndarray, degree: int) -> np.ndarray:
    """Greville abscissae: running means of ``degree`` consecutive interior knots.

    These are the canonical collocation points for spline collocation; the
    Schoenberg–Whitney conditions hold for them on a clamped knot vector,
    so the collocation matrix is non-singular.
    """
    n = len(knots) - degree - 1
    pts = np.empty(n)
    for i in range(n):
        pts[i] = knots[i + 1 : i + 1 + degree].sum() / degree
    # Guard against rounding drift at the clamped ends.
    pts[0] = knots[degree]
    pts[-1] = knots[n]
    return pts


def collocation_matrix(
    knots: np.ndarray,
    degree: int,
    points: np.ndarray,
    deriv: int = 0,
) -> np.ndarray:
    """Dense collocation matrix ``C[i, j] = (d/dx)^deriv B_j(points[i])``."""
    return collocation_matrices(knots, degree, points, deriv)[1][deriv]


def collocation_matrices(
    knots: np.ndarray,
    degree: int,
    points: np.ndarray,
    nderiv: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(spans, mats)``: every collocation matrix up to ``nderiv``, from one
    basis evaluation.

    ``mats[k]`` is :func:`collocation_matrix` for ``deriv=k``, bit for
    bit: A2.3's ``k``-th derivative row does not depend on how many rows
    above it are asked for.
    """
    points = np.asarray(points, dtype=float)
    n = len(knots) - degree - 1
    spans, ders = all_basis_functions(knots, degree, points, nderiv=nderiv)
    mats = [np.zeros((points.size, n)) for _ in range(nderiv + 1)]
    for i in range(points.size):
        lo = spans[i] - degree
        for k, mat in enumerate(mats):
            mat[i, lo : lo + degree + 1] = ders[i, k]
    return spans, mats


def collocation_bandwidths(spans: np.ndarray, degree: int) -> tuple[int, int]:
    """(kl, ku) such that row ``i`` touches columns ``[i-kl, i+ku]`` only."""
    idx = np.arange(spans.size)
    lo = spans - degree
    hi = spans
    kl = int(np.max(idx - lo))
    ku = int(np.max(hi - idx))
    return kl, ku

