"""Reference solver paths mirroring the paper's Table 1 competitors.

The paper times four ways of solving the corner-banded collocation
systems, all normalized by Netlib LAPACK:

* **Netlib** (the normalizer): straightforward unblocked banded LU on the
  padded general band, complex arithmetic (ZGBTRF/ZGBTRS).  Reproduced
  here as an unbatched pure-NumPy banded LU working element-row by
  element-row, the closest Python analogue of unblocked Fortran.
* **MKL^C / ESSL** ("C" = complex): vendor banded solver on the padded
  band with the matrix promoted to complex.  Reproduced with
  :func:`scipy.linalg.solve_banded` (which calls LAPACK ``gbsv``) on a
  complex-promoted matrix, looped over the batch.
* **MKL^R** ("R" = real): vendor banded solver kept real, with the
  complex right-hand side rearranged into two sequential real vectors.
  Reproduced with real ``solve_banded`` on stacked re/im columns.

All three must pad the bandwidth by the corner extent to cover the
boundary rows (paper Fig. 3, centre panel) — that padding plus the
complex/real handling is exactly what the custom solver eliminates.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.linalg.structure import BandedSystemSpec


def padded_bandwidths(
    spec: BandedSystemSpec, dense: np.ndarray | None = None
) -> tuple[int, int]:
    """(kl', ku') of the general band that covers the corner elements.

    When the dense matrices are supplied the *minimal* covering band is
    measured from their non-zeros (what a careful LAPACK user would pick);
    otherwise the worst case permitted by the spec is assumed: corner rows
    may reach the full window, so both bandwidths grow to ``window - 1``.
    """
    if dense is not None:
        dense = np.asarray(dense)
        if dense.ndim == 2:
            dense = dense[None]
        nz = np.any(dense != 0.0, axis=0)
        i_idx, j_idx = np.nonzero(nz)
        off = j_idx - i_idx
        return int(max(0, -off.min())), int(max(0, off.max()))
    if spec.corner == 0:
        return spec.kl, spec.ku
    return spec.window - 1, spec.window - 1


def to_diagonal_ordered(dense: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Pack a dense banded matrix into scipy/LAPACK diagonal-ordered form."""
    n = dense.shape[0]
    ab = np.zeros((kl + ku + 1, n), dtype=dense.dtype)
    for offset in range(-kl, ku + 1):
        diag = np.diagonal(dense, offset)
        if offset >= 0:
            ab[ku - offset, offset : offset + diag.size] = diag
        else:
            ab[ku - offset, : diag.size] = diag
    return ab


# ----------------------------------------------------------------------
# Netlib analogue: unblocked banded LU in pure NumPy, no pivoting
# ----------------------------------------------------------------------


def netlib_banded_lu(dense: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Unblocked banded LU (single matrix), returning packed factors.

    Works on diagonal-ordered storage like xGBTRF would, one pivot column
    at a time, in whatever dtype the input carries (complex reproduces
    ZGBTRF).  Returns the diagonal-ordered array holding U in the upper
    rows and the multipliers below the diagonal row.
    """
    n = dense.shape[0]
    ab = to_diagonal_ordered(np.asarray(dense), kl, ku).copy()
    for j in range(n):
        pivot = ab[ku, j]
        if pivot == 0:
            raise ZeroDivisionError(f"zero pivot at column {j}")
        imax = min(n - 1, j + kl)
        for i in range(j + 1, imax + 1):
            ell = ab[ku + i - j, j] / pivot
            ab[ku + i - j, j] = ell
            # update row i over columns j+1 .. j+ku
            cmax = min(n - 1, j + ku)
            for c in range(j + 1, cmax + 1):
                ab[ku + i - c, c] -= ell * ab[ku + j - c, c]
    return ab


def netlib_banded_solve(ab: np.ndarray, kl: int, ku: int, rhs: np.ndarray) -> np.ndarray:
    """Triangular solves against :func:`netlib_banded_lu` factors (xGBTRS)."""
    n = ab.shape[1]
    x = np.asarray(rhs).astype(np.result_type(ab.dtype, np.asarray(rhs).dtype), copy=True)
    for j in range(n):  # forward
        imax = min(n - 1, j + kl)
        for i in range(j + 1, imax + 1):
            x[i] -= ab[ku + i - j, j] * x[j]
    for j in range(n - 1, -1, -1):  # backward
        cmax = min(n - 1, j + ku)
        for c in range(j + 1, cmax + 1):
            x[j] -= ab[ku + j - c, c] * x[c]
        x[j] /= ab[ku, j]
    return x


# ----------------------------------------------------------------------
# Vendor-library analogues (scipy -> LAPACK gbsv)
# ----------------------------------------------------------------------


def solve_padded_complex(
    dense_batch: np.ndarray, rhs: np.ndarray, spec: BandedSystemSpec
) -> np.ndarray:
    """"MKL^C" path: per-system complex banded solve on the padded band."""
    dense_batch = np.asarray(dense_batch)
    rhs = np.asarray(rhs, dtype=complex)
    klp, kup = padded_bandwidths(spec, dense_batch)
    out = np.empty_like(rhs)
    for b in range(dense_batch.shape[0]):
        ab = to_diagonal_ordered(dense_batch[b].astype(complex), klp, kup)
        out[b] = scipy.linalg.solve_banded((klp, kup), ab, rhs[b])
    return out


def solve_padded_split(
    dense_batch: np.ndarray, rhs: np.ndarray, spec: BandedSystemSpec
) -> np.ndarray:
    """"MKL^R" path: real banded solve, complex RHS split into re/im columns."""
    dense_batch = np.asarray(dense_batch, dtype=float)
    rhs = np.asarray(rhs, dtype=complex)
    klp, kup = padded_bandwidths(spec, dense_batch)
    out = np.empty_like(rhs)
    for b in range(dense_batch.shape[0]):
        ab = to_diagonal_ordered(dense_batch[b], klp, kup)
        stacked = np.column_stack([rhs[b].real, rhs[b].imag])
        sol = scipy.linalg.solve_banded((klp, kup), ab, stacked)
        out[b] = sol[:, 0] + 1j * sol[:, 1]
    return out


# ----------------------------------------------------------------------
# Dense wall-normal oracles: what repro.linalg.panels replaced
# ----------------------------------------------------------------------


def apply_dense(dense: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y-last ``x @ A.T`` as one dense product — the oracle of ``PanelApply``."""
    return np.matmul(x, dense.T, out=out)


def interpolate_banded(dense: np.ndarray, kl: int, ku: int, values: np.ndarray) -> np.ndarray:
    """y-last solve of ``A x = values`` through LAPACK ``gbsv`` — the oracle
    of ``PanelSolve``: factors afresh on every call, pivots, moves y to the
    front and splits a complex right-hand side into two real solves."""
    values = np.asarray(values)
    n = dense.shape[0]
    ab = to_diagonal_ordered(dense, kl, ku)
    flat = np.moveaxis(values, -1, 0).reshape(n, -1)
    if np.iscomplexobj(flat):
        re = scipy.linalg.solve_banded((kl, ku), ab, np.ascontiguousarray(flat.real))
        im = scipy.linalg.solve_banded((kl, ku), ab, np.ascontiguousarray(flat.imag))
        sol = re + 1j * im
    else:
        sol = scipy.linalg.solve_banded((kl, ku), ab, flat)
    return np.moveaxis(sol.reshape((n,) + values.shape[:-1]), 0, -1)
