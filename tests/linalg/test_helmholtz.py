"""Helmholtz/Poisson collocation system assembly and solve tests."""

import numpy as np
import pytest

from repro.linalg.helmholtz import HelmholtzOperator


@pytest.fixture
def op(basis):
    return HelmholtzOperator(basis)


def manufactured(basis):
    """A wall-vanishing smooth function and its exact second derivative."""
    y = basis.collocation_points
    psi = (1 - y * y) * np.sin(2 * y)
    d2psi = -2 * np.sin(2 * y) - 8 * y * np.cos(2 * y) - 4 * (1 - y * y) * np.sin(2 * y)
    return psi, d2psi


class TestHelmholtzSolve:
    @pytest.mark.parametrize("ksq", [0.0, 1.0, 25.0, 400.0])
    def test_manufactured_solution(self, basis, op, ksq):
        """[I - c(D² - k²)] psi = R recovers psi from the exact R."""
        c = 0.02
        psi, d2psi = manufactured(basis)
        a_exact = basis.interpolate(psi)
        rhs = psi - c * (d2psi - ksq * psi)
        rhs[0] = rhs[-1] = 0.0
        lu = op.factor_helmholtz(np.array([ksq]), c)
        a = lu.solve(rhs[None])[0]
        vals = basis.values_at_collocation(a)
        # interpolation/collocation consistent to spline accuracy
        np.testing.assert_allclose(vals, psi, atol=5e-6)
        np.testing.assert_allclose(a, a_exact, atol=5e-6)

    def test_batched_over_wavenumbers(self, basis, op):
        ksq = np.array([0.0, 4.0, 100.0])
        c = 0.01
        psi, d2psi = manufactured(basis)
        rhs = np.stack([psi - c * (d2psi - k2 * psi) for k2 in ksq])
        rhs[:, 0] = rhs[:, -1] = 0.0
        sols = op.factor_helmholtz(ksq, c).solve(rhs)
        for s in sols:
            np.testing.assert_allclose(basis.values_at_collocation(s), psi, atol=5e-6)

    def test_per_mode_c_values(self, basis, op):
        """Different RK coefficients: one factor set per c, as the
        stepper holds them."""
        psi, d2psi = manufactured(basis)
        for c in (0.01, 0.05):
            rhs = psi - c * (d2psi - 4.0 * psi)
            rhs[0] = rhs[-1] = 0.0
            s = op.factor_helmholtz(np.array([4.0]), c).solve(rhs[None])[0]
            np.testing.assert_allclose(basis.values_at_collocation(s), psi, atol=5e-6)

    def test_dirichlet_values_enter_via_rhs(self, basis, op):
        """Unit BC data produces a solution equal to 1 at that wall."""
        lu = op.factor_helmholtz(np.array([9.0]), 0.1)
        rhs = np.zeros((1, basis.n))
        rhs[0, -1] = 1.0
        a = lu.solve(rhs)[0]
        vals = basis.values_at_collocation(a)
        assert abs(vals[-1] - 1.0) < 1e-12
        assert abs(vals[0]) < 1e-12


class TestPoissonSolve:
    @pytest.mark.parametrize("ksq", [1.0, 16.0, 256.0])
    def test_manufactured_solution(self, basis, op, ksq):
        psi, d2psi = manufactured(basis)
        rhs = d2psi - ksq * psi
        rhs[0] = rhs[-1] = 0.0
        a = op.factor_poisson(np.array([ksq])).solve(rhs[None])[0]
        np.testing.assert_allclose(basis.values_at_collocation(a), psi, atol=5e-6)

    def test_k0_pure_second_derivative(self, basis, op):
        """k²=0: pure D² with Dirichlet rows — still nonsingular and exact."""
        y = basis.collocation_points
        psi = (1 - y * y)  # psi'' = -2
        rhs = np.full(basis.n, -2.0)
        rhs[0] = rhs[-1] = 0.0
        a = op.factor_poisson(np.array([0.0])).solve(rhs[None])[0]
        np.testing.assert_allclose(basis.values_at_collocation(a), psi, atol=1e-10)
