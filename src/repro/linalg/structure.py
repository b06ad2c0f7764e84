"""Storage structure for "banded + boundary corner" matrices (paper Fig. 3).

A :class:`BandedSystemSpec` describes matrices that are banded with lower
bandwidth ``kl`` and upper bandwidth ``ku``, except that the first and
last ``corner_rows`` rows may extend ``corner`` extra columns beyond the
band (boundary-condition rows of collocation systems).

:class:`SharedRows` maps the members of a batch onto the distinct
matrices among them, so a factor set stores each distinct matrix once.

:class:`FoldedBanded` stores such a (batch of) matrices in the *folded
row-window* layout: every row occupies a fixed-width window

    ``W = kl + ku + 1 + corner``

starting at column ``jlo[i] = clip(i - kl, 0, n - W)``.  Near the top the
band would stick out of the matrix, leaving empty slots — the fold reuses
exactly those slots for the corner elements, reproducing the right-hand
panel of the paper's figure 3.  The layout is also what no-pivot Gaussian
elimination preserves: ``jlo`` is non-decreasing, so all fill-in lands
inside the windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BandedSystemSpec:
    """Sparsity structure shared by a batch of corner-banded matrices."""

    n: int
    kl: int
    ku: int
    corner: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.kl < 0 or self.ku < 0 or self.corner < 0:
            raise ValueError("bandwidths must be non-negative")
        if self.window > self.n:
            raise ValueError(
                f"window width {self.window} exceeds matrix dimension {self.n}; "
                "the matrix is effectively dense — use a dense solver"
            )

    @property
    def window(self) -> int:
        """Fixed row-window width of the folded storage."""
        return self.kl + self.ku + 1 + self.corner

    @property
    def jlo(self) -> np.ndarray:
        """First stored column of each row (non-decreasing)."""
        i = np.arange(self.n)
        return np.clip(i - self.kl, 0, self.n - self.window)

    @property
    def mdiag(self) -> np.ndarray:
        """Window position of each row's diagonal: ``data[:, i, mdiag[i]]``."""
        return np.arange(self.n) - self.jlo

    @property
    def coupling_width(self) -> int:
        """Maximum reach of any row beyond its diagonal, in either
        direction (``W - 1``): the number of previously solved entries a
        blocked sweep panel can depend on.  ``jlo`` is non-decreasing and
        clipped, so every stored element of row ``i`` lies in columns
        ``[i - coupling_width, i + coupling_width]``."""
        return self.window - 1

    # ------------------------------------------------------------------
    # memory accounting (for the paper's "memory reduced by half" claim)
    # ------------------------------------------------------------------

    def folded_storage(self) -> int:
        """Matrix elements stored by the folded layout."""
        return self.n * self.window

    def lapack_storage(self) -> int:
        """Elements a general banded LAPACK factorization (xGBTRF) stores.

        Covering the corners requires padding the bandwidths to
        ``kl' = kl + corner``, ``ku' = ku + corner``, and xGBTRF wants
        ``2*kl' + ku' + 1`` rows of workspace for pivoting fill.
        """
        klp = self.kl + self.corner
        kup = self.ku + self.corner
        return self.n * (2 * klp + kup + 1)


class FoldedBanded:
    """(Batch of) corner-banded matrices in folded row-window storage.

    ``data`` has shape ``(nbatch, n, W)``; ``data[b, i, m]`` is element
    ``A_b[i, jlo[i] + m]``.  A single matrix is a batch of one.
    """

    def __init__(self, spec: BandedSystemSpec, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=float)
        if data.ndim == 2:
            data = data[None]
        if data.shape[1:] != (spec.n, spec.window):
            raise ValueError(
                f"data shape {data.shape} does not match spec "
                f"(n={spec.n}, window={spec.window})"
            )
        self.spec = spec
        self.data = data

    # ------------------------------------------------------------------

    @property
    def nbatch(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, spec: BandedSystemSpec, nbatch: int = 1) -> "FoldedBanded":
        return cls(spec, np.zeros((nbatch, spec.n, spec.window)))

    @classmethod
    def from_dense(cls, dense: np.ndarray, spec: BandedSystemSpec) -> "FoldedBanded":
        """Pack dense matrices (batched or single) into folded storage.

        Raises if any non-zero falls outside the declared structure.
        """
        dense = np.asarray(dense, dtype=float)
        if dense.ndim == 2:
            dense = dense[None]
        nbatch, n, n2 = dense.shape
        if n != spec.n or n2 != spec.n:
            raise ValueError(f"dense shape {dense.shape} does not match spec n={spec.n}")
        jlo = spec.jlo
        out = np.zeros((nbatch, n, spec.window))
        for i in range(n):
            lo = jlo[i]
            out[:, i, :] = dense[:, i, lo : lo + spec.window]
            # structure check: everything outside the window must vanish
            outside = np.abs(dense[:, i, :lo]).max(initial=0.0)
            outside = max(outside, np.abs(dense[:, i, lo + spec.window :]).max(initial=0.0))
            if outside > 0.0:
                raise ValueError(
                    f"row {i} has non-zeros outside the declared structure "
                    f"(|value| up to {outside:g}); enlarge kl/ku/corner"
                )
        return cls(spec, out)

    def to_dense(self) -> np.ndarray:
        """Unpack to dense ``(nbatch, n, n)``."""
        spec = self.spec
        jlo = spec.jlo
        out = np.zeros((self.nbatch, spec.n, spec.n))
        for i in range(spec.n):
            lo = jlo[i]
            out[:, i, lo : lo + spec.window] = self.data[:, i, :]
        return out


class SharedRows:
    """Which stored matrix each member of a batch uses.

    Members whose keys are exactly equal (``np.unique`` equality: one
    float per member, or one row of floats) are the same matrix, so they
    share one stored row of a factor set.  The wall-normal pencils are
    keyed by ``k²``; on a 96 x 96 grid 4 560 modes have 1 598 distinct
    values, every one shared by 1 to 12 modes.

    Stored rows are ordered by ascending multiplicity, so each
    multiplicity class is a contiguous run of rows, and :attr:`order`
    lays the members out grouped by stored row: the ``m`` sharers of row
    ``r`` sit next to each other.  :attr:`classes` lists the runs as
    ``(r0, r1, m, p0)``: rows ``r0:r1`` are each shared by ``m``
    members, which occupy positions ``p0 : p0 + (r1 - r0) * m`` of the
    layout.

    Attributes
    ----------
    keys:
        The distinct key of every stored row, in stored order.
    members:
        ``(nbatch,)`` stored row of each member.
    order:
        ``(nbatch,)`` the member at each layout position.
    """

    def __init__(self, keys) -> None:
        keys = np.asarray(keys, dtype=float)
        uniq, inverse, counts = np.unique(
            keys, axis=0 if keys.ndim > 1 else None, return_inverse=True, return_counts=True
        )
        rank = np.argsort(counts, kind="stable")  # stored row -> unique index
        row_of = np.empty_like(rank)
        row_of[rank] = np.arange(rank.size)
        self.keys = uniq[rank]
        self.members = row_of[inverse.ravel()]
        self.order = np.argsort(self.members, kind="stable")
        counts = counts[rank]
        self.classes: list[tuple[int, int, int, int]] = []
        r0 = p0 = 0
        ends = (np.flatnonzero(np.diff(counts)) + 1).tolist() + [counts.size]
        for r1 in ends if counts.size else []:
            m = int(counts[r0])
            self.classes.append((r0, r1, m, p0))
            r0, p0 = r1, p0 + (r1 - r0) * m

    @property
    def nbatch(self) -> int:
        return self.members.size

    @property
    def nrows(self) -> int:
        return len(self.keys)
