"""Wall-normal operator layer: exactness independent of any matrix, the
identities the step relies on, and the banded step against the dense one."""

import pathlib
import re

import numpy as np
import pytest

from repro.bsplines import BSplineBasis
from repro.core import ChannelConfig, ChannelDNS
from repro.core.grid import ChannelGrid
from repro.core.operators import WallNormalOps
from repro.linalg.reference import apply_dense, interpolate_banded

EPS = np.finfo(float).eps
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def make_ops(ny, degree=7, stretch=2.0):
    return WallNormalOps(ChannelGrid(4, ny, 4, degree=degree, stretch=stretch))


class TestPolynomialExactness:
    """Splines of degree p reproduce polynomials of degree <= p, so the
    collocated derivatives of the interpolant of ``p(y)`` are ``p'`` and
    ``p''`` up to round-off: ``cond(B) eps |a|`` in the coefficients,
    amplified by ``|D|_inf`` — no collocation matrix enters the reference."""

    @pytest.mark.parametrize("degree", [3, 5, 7])
    @pytest.mark.parametrize("ny", [16, 33, 65, 193])
    @pytest.mark.parametrize("stretch", [0.0, 2.0])
    def test_derivatives_of_random_polynomials(self, degree, ny, stretch, rng):
        ops = make_ops(ny, degree, stretch)
        y = ops.grid.y
        cond = np.linalg.cond(ops.B, np.inf)
        for _ in range(10):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, rng.integers(1, degree + 2)))
            size = np.abs(poly.coef).sum()  # bounds |p| on [-1, 1]
            a = ops.coeffs(poly(y))
            for apply, dense, want in (
                (ops.values, ops.B, poly(y)),
                (ops.dvalues, ops.D1, poly.deriv(1)(y)),
                (ops.d2values, ops.D2, poly.deriv(2)(y)),
            ):
                tol = 8.0 * cond * EPS * np.abs(dense).sum(axis=1).max() * size
                assert np.abs(apply(a) - want).max() <= tol


class TestIdentitiesTheStepUses:
    @pytest.mark.parametrize("ny", [25, 33, 65, 193])
    def test_values_of_coeffs_is_the_identity(self, ny, rng):
        """``coeffs(s)`` interpolates ``s``: NonlinearTerms uses four spectra
        as they come and IMEXStepper builds lap(phi) from ``phi_vals``."""
        ops = make_ops(ny)
        s = rng.standard_normal((6, 5, ny)) + 1j * rng.standard_normal((6, 5, ny))
        back = ops.values(ops.coeffs(s))
        assert np.abs(back - s).max() <= 1e-13 * np.abs(s).max()

    def test_laplacian_is_its_two_terms(self, rng):
        ops = make_ops(65)
        a = rng.standard_normal((3, 4, 65)) + 1j * rng.standard_normal((3, 4, 65))
        ksq = rng.uniform(0.0, 50.0, (3, 4))
        want = ops.d2values(a) - ksq[..., None] * ops.values(a)
        assert np.array_equal(ops.laplacian_values(a, ksq), want)

    @pytest.mark.parametrize("ny", [25, 193])
    def test_wall_derivatives_contract_the_stencil_of_the_full_rows(self, ny, rng):
        ops = make_ops(ny)
        a = rng.standard_normal((7, ny)) + 1j * rng.standard_normal((7, ny))
        lower, upper = ops.wall_derivatives(a)
        np.testing.assert_allclose(lower, a @ ops.D1[0], rtol=1e-13)
        np.testing.assert_allclose(upper, a @ ops.D1[-1], rtol=1e-13)
        assert np.count_nonzero(ops.D1[0]) <= ops._wall_lower.size <= 8
        assert np.count_nonzero(ops.D1[-1]) <= ops._wall_upper.size <= 8


SPANNED = ("values", "dvalues", "d2values", "coeffs", "laplacian_values", "wall_derivatives")


def test_the_six_span_targets_are_plain_class_methods():
    """The benchmark's recorder rebinds class attributes; an instance-level
    binding would hide operator time in the caller's self time."""
    for name in SPANNED:
        assert callable(WallNormalOps.__dict__[name])
    ops = make_ops(25)
    assert not set(SPANNED) & set(vars(ops))


@pytest.mark.parametrize("grid", [(16, 25, 16), (8, 65, 8)])
def test_operator_calls_per_step(grid, monkeypatch):
    """``core.operators.calls`` as the benchmark counts it: 78 a step on every grid."""
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in SPANNED:
        monkeypatch.setattr(WallNormalOps, name, counted(WallNormalOps.__dict__[name]))
    nx, ny, nz = grid
    dns = ChannelDNS(ChannelConfig(nx=nx, ny=ny, nz=nz, dt=2e-4, init_amplitude=0.5, seed=1))
    dns.initialize()
    dns.step()  # the first step also recovers u, w from the initial state
    calls["n"] = 0
    dns.step()
    assert calls["n"] == 78


def test_no_operator_work_outside_the_operator_layer():
    """Dense application of B/D1/D2 and ``solve_banded`` live only in the
    reference module."""
    dense = re.compile(r"@ ops\.(B|D1|D2)\b|ops\.(B|D1|D2)\.T|self\.(B|D1|D2)\.T")
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not dense.search(text), path
        if path.name != "reference.py":
            assert text.count("solve_banded(") == 0, path


def relative_error(got, want) -> float:
    """As ``benchmarks/e2e/workloads.py`` measures a state against its oracle."""
    worst = 0.0
    for name in ("v", "omega_y", "u00", "w00"):
        a, b = getattr(got, name), getattr(want, name)
        worst = max(worst, float(np.abs(a - b).max()) / (float(np.abs(b).max()) or 1.0))
    return worst


def test_banded_trajectory_matches_the_dense_oracle_kernels(monkeypatch):
    """12 steps of 16x65x16 with the dense kernels patched in at class
    level.  Tolerance 1e-11 (DESIGN.md §6k): the two kernels sum the same 8
    products per row in another order, so a substep's right-hand side moves
    by (8 + cond(B)) eps |D2|_inf dt nu alpha ~ 5e-15 relative at ny = 65,
    the implicit solve damps rather than amplifies it, and 36 substeps
    accumulate ~2e-13 (measured 1.7e-13); 1e-11 is 50x that."""

    def run() -> ChannelDNS:
        dns = ChannelDNS(ChannelConfig(nx=16, ny=65, nz=16, dt=2e-4, init_amplitude=0.5, seed=1))
        dns.initialize()
        dns.run(12)
        return dns

    banded = run()
    for name, deriv in (("values", 0), ("dvalues", 1), ("d2values", 2)):
        monkeypatch.setattr(
            WallNormalOps,
            name,
            lambda self, c, out=None, deriv=deriv: apply_dense(self.basis.colloc_matrix(deriv), c, out),
        )
    monkeypatch.setattr(
        BSplineBasis,
        "interpolate",
        lambda self, v: interpolate_banded(self.colloc_matrix(0), *self.bandwidths, v),
    )
    dense = run()
    assert relative_error(banded.state, dense.state) <= 1e-11
    assert banded.kinetic_energy() == pytest.approx(dense.kinetic_energy(), rel=1e-13)
    assert banded.wall_shear_velocity() == pytest.approx(dense.wall_shear_velocity(), rel=1e-13)
