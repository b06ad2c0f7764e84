"""BSplineBasis facade tests: interpolation, differentiation, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsplines import BSplineBasis
from repro.bsplines.basis import all_basis_functions
from repro.bsplines.collocation import collocation_bandwidths, collocation_matrix
from repro.linalg.reference import to_diagonal_ordered


class TestConstruction:
    def test_dof_count(self):
        b = BSplineBasis(33, degree=7)
        assert b.n == 33
        assert len(b.collocation_points) == 33

    def test_walls_are_collocation_points(self):
        b = BSplineBasis(20, degree=7)
        assert b.collocation_points[0] == -1.0
        assert b.collocation_points[-1] == 1.0

    def test_too_few_dof_raises(self):
        with pytest.raises(ValueError):
            BSplineBasis(5, degree=7)

    def test_bandwidths_bounded_by_degree(self):
        b = BSplineBasis(30, degree=7)
        kl, ku = b.bandwidths
        assert kl <= 7 and ku <= 7


class TestPolynomialReproduction:
    """Degree-p splines reproduce polynomials up to degree p exactly."""

    @pytest.mark.parametrize("deg", [0, 1, 3, 5, 7])
    def test_interpolate_evaluate(self, deg):
        b = BSplineBasis(24, degree=7, stretch=1.5)
        coeff = np.arange(1, deg + 2, dtype=float)
        x = b.collocation_points
        f = np.polynomial.polynomial.polyval(x, coeff)
        a = b.interpolate(f)
        xx = np.linspace(-1, 1, 57)
        expected = np.polynomial.polynomial.polyval(xx, coeff)
        np.testing.assert_allclose(b.evaluate(a, xx), expected, atol=1e-11)

    def test_second_derivative_exact_for_polynomials(self):
        b = BSplineBasis(20, degree=7)
        x = b.collocation_points
        a = b.interpolate(x**6)
        np.testing.assert_allclose(
            b.values_at_collocation(a, 2), 30 * x**4, atol=1e-8
        )

    def test_integral_exact(self):
        b = BSplineBasis(18, degree=7)
        a = b.interpolate(b.collocation_points**4)
        assert abs(b.integrate(a) - 2.0 / 5.0) < 1e-12


class TestSpectralAccuracy:
    def test_smooth_function_convergence(self):
        """Error should fall like h^{p+1} = h^8 for a smooth function."""
        errs = []
        for n in (16, 32):
            b = BSplineBasis(n, degree=7, stretch=0.0)
            a = b.interpolate(np.sin(3 * b.collocation_points))
            xx = np.linspace(-1, 1, 201)
            errs.append(np.abs(b.evaluate(a, xx) - np.sin(3 * xx)).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 6.0, f"observed order {order}"


class TestBatchedOperations:
    def test_batched_complex_interpolation(self, rng):
        b = BSplineBasis(16, degree=5)
        vals = rng.standard_normal((3, 4, b.n)) + 1j * rng.standard_normal((3, 4, b.n))
        a = b.interpolate(vals)
        assert a.shape == vals.shape
        np.testing.assert_allclose(b.values_at_collocation(a), vals, atol=1e-12)

    def test_values_derivative_consistent_with_evaluate(self, rng):
        b = BSplineBasis(16, degree=5)
        a = rng.standard_normal(b.n)
        np.testing.assert_allclose(
            b.values_at_collocation(a, 1),
            b.evaluate(a, b.collocation_points, 1),
            atol=1e-10,
        )


class TestCollocationWeights:
    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_integrates_polynomials(self, deg):
        b = BSplineBasis(20, degree=7, stretch=2.0)
        x = b.collocation_points
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(b.collocation_weights @ x**deg - exact) < 1e-10

    @pytest.mark.parametrize("ny", [17, 33, 193])
    def test_matches_banded_lapack_solve(self, ny):
        """The dense numpy solve agrees with LAPACK's banded ``gbsv`` (scipy
        as a test-side oracle) on ``B^T w = basis_integrals``."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        b = BSplineBasis(ny, degree=7)
        kl, ku = b.bandwidths
        bt = to_diagonal_ordered(b.colloc_matrix(0).T, ku, kl)
        want = scipy_linalg.solve_banded((ku, kl), bt, b.basis_integrals)
        got = b.collocation_weights
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestSinglePassMatrices:
    """The value/D1/D2 matrices and the bandwidths come from one basis
    evaluation; each matrix is bit for bit the per-derivative assembly."""

    @pytest.mark.parametrize("ny", [17, 25, 33, 40, 193])
    @pytest.mark.parametrize("degree", [3, 5, 7])
    def test_bit_identical_to_per_derivative_assembly(self, ny, degree):
        b = BSplineBasis(ny, degree=degree)
        for deriv in (0, 1, 2):
            want = collocation_matrix(b.knots, b.degree, b.collocation_points, deriv)
            np.testing.assert_array_equal(b.colloc_matrix(deriv), want)
        spans, _ = all_basis_functions(b.knots, b.degree, b.collocation_points, 0)
        assert b.bandwidths == collocation_bandwidths(spans, b.degree)

    def test_higher_derivatives_still_served(self):
        b = BSplineBasis(20, degree=7)
        want = collocation_matrix(b.knots, b.degree, b.collocation_points, 3)
        np.testing.assert_array_equal(b.colloc_matrix(3), want)
        assert b.colloc_matrix(3) is b.colloc_matrix(3)


class TestGrevilleHelpers:
    def test_greville_monotone(self):
        b = BSplineBasis(25, degree=7, stretch=2.0)
        assert np.all(np.diff(b.collocation_points) > 0)

    def test_scipy_banded_packing_roundtrip(self):
        b = BSplineBasis(14, degree=3)
        dense = b.colloc_matrix(0)
        kl, ku = b.bandwidths
        ab = to_diagonal_ordered(dense, kl, ku)
        # unpack and compare
        n = b.n
        rebuilt = np.zeros_like(dense)
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + ku + 1)):
                rebuilt[i, j] = ab[ku + i - j, j]
        np.testing.assert_array_equal(rebuilt, dense)

    def test_collocation_matrix_row_sums(self):
        """Partition of unity: each row of the value matrix sums to 1."""
        b = BSplineBasis(22, degree=7)
        np.testing.assert_allclose(b.colloc_matrix(0).sum(axis=1), 1.0, atol=1e-12)
