"""High-level B-spline basis facade used by the DNS core.

A :class:`BSplineBasis` bundles the knot vector, Greville collocation
points, cached collocation/derivative matrices and their factorizations,
and batched transforms between *physical values at collocation points*
and *spline coefficients*.  Batched operations put y on the **last** axis,
matching the DNS state layout ``(nkx, nkz, ny)``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.bsplines.basis import all_basis_functions
from repro.bsplines.collocation import (
    collocation_bandwidths,
    collocation_matrices,
    collocation_matrix,
    greville_points,
)
from repro.bsplines.knots import channel_breakpoints, clamped_knots, uniform_breakpoints
from repro.bsplines.quadrature import spline_quadrature
from repro.linalg.panels import PanelSolve


class BSplineBasis:
    """Clamped B-spline basis on an interval, collocated at Greville points.

    Parameters
    ----------
    n:
        Number of basis functions (degrees of freedom in y).  The paper's
        production run uses ``n = 1536`` of degree 7.
    degree:
        Polynomial degree (paper: 7).
    stretch:
        tanh wall-clustering strength for the breakpoints; 0 = uniform.
    domain:
        ``(a, b)`` interval; the channel is ``(-1, 1)``.
    """

    def __init__(
        self,
        n: int,
        degree: int = 7,
        stretch: float = 2.0,
        domain: tuple[float, float] = (-1.0, 1.0),
    ) -> None:
        if n < degree + 1:
            raise ValueError(f"need n >= degree+1 = {degree + 1} basis functions, got {n}")
        self.n = int(n)
        self.degree = int(degree)
        self.domain = (float(domain[0]), float(domain[1]))
        nintervals = n - degree  # so that num_basis == n
        if stretch == 0.0:
            self.breakpoints = uniform_breakpoints(nintervals, *self.domain)
        else:
            self.breakpoints = channel_breakpoints(nintervals, stretch, *self.domain)
        self.knots = clamped_knots(self.breakpoints, self.degree)
        assert len(self.knots) - self.degree - 1 == self.n

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @cached_property
    def collocation_points(self) -> np.ndarray:
        """Greville abscissae; ``collocation_points[0]`` / ``[-1]`` are the walls."""
        return greville_points(self.knots, self.degree)

    @cached_property
    def bandwidths(self) -> tuple[int, int]:
        """(kl, ku) of the collocation matrices."""
        return collocation_bandwidths(self._colloc_pass[0], self.degree)

    # ------------------------------------------------------------------
    # matrices
    # ------------------------------------------------------------------

    def colloc_matrix(self, deriv: int = 0) -> np.ndarray:
        """Dense ``(n, n)`` matrix of ``deriv``-th derivatives at collocation points."""
        mats = self._colloc_pass[1]
        if deriv not in mats:  # beyond the second derivative: its own pass
            mats[deriv] = collocation_matrix(self.knots, self.degree, self.collocation_points, deriv)
        return mats[deriv]

    @cached_property
    def _colloc_pass(self) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Knot spans and the value, first- and second-derivative matrices,
        from one basis evaluation at the collocation points."""
        spans, mats = collocation_matrices(self.knots, self.degree, self.collocation_points, 2)
        return spans, dict(enumerate(mats))

    @cached_property
    def _interp_solve(self) -> PanelSolve:
        """The collocation matrix, factored once for :meth:`interpolate`."""
        return PanelSolve(self.colloc_matrix(0), *self.bandwidths)

    # ------------------------------------------------------------------
    # transforms between collocated values and spline coefficients
    # ------------------------------------------------------------------

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """Spline coefficients whose collocated values equal ``values``.

        ``values`` may be batched with y on the last axis; real input
        gives real coefficients, complex input is swept against the same
        real factors (the matrix is real — the structure the paper's
        custom solver exploits).
        """
        return self._interp_solve.solve(values)

    def values_at_collocation(self, coeffs: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Collocated values (or derivative values) of spline coefficients.

        Batched over leading axes; y on the last axis.
        """
        mat = self.colloc_matrix(deriv)
        return np.einsum("ij,...j->...i", mat, coeffs)

    # ------------------------------------------------------------------
    # pointwise evaluation & integration
    # ------------------------------------------------------------------

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Evaluate the spline (batched coefficients, y last) at arbitrary points."""
        coeffs = np.asarray(coeffs)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        spans, ders = all_basis_functions(self.knots, self.degree, x, nderiv=deriv)
        out = np.zeros(coeffs.shape[:-1] + (x.size,), dtype=coeffs.dtype)
        for i in range(x.size):
            lo = spans[i] - self.degree
            out[..., i] = np.einsum(
                "j,...j->...", ders[i, deriv], coeffs[..., lo : lo + self.degree + 1]
            )
        return out

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) integrating splines of this degree exactly."""
        return spline_quadrature(self.breakpoints, self.degree)

    @cached_property
    def basis_integrals(self) -> np.ndarray:
        """``w[j] = integral of B_j`` over the domain (exact)."""
        pts, wts = self.quadrature
        mat = collocation_matrix(self.knots, self.degree, pts, 0)
        return wts @ mat

    def integrate(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact integral of the spline over the domain (batched, y last)."""
        return np.einsum("j,...j->...", self.basis_integrals, np.asarray(coeffs))

    @cached_property
    def collocation_weights(self) -> np.ndarray:
        """Quadrature-like weights for integrating *collocated values*.

        ``w @ f(colloc_points)`` integrates the interpolating spline of
        ``f`` exactly: ``w = basis_integrals @ inv(B)``, i.e. the solution
        of ``B^T w = basis_integrals`` (one dense solve per basis).
        """
        return np.linalg.solve(self.colloc_matrix(0).T, self.basis_integrals)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BSplineBasis(n={self.n}, degree={self.degree}, "
            f"domain={self.domain}, intervals={len(self.breakpoints) - 1})"
        )
