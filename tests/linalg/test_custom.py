"""Custom folded-banded LU solver tests (the paper's §4.1.1 kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.custom import FoldedLU
from repro.linalg.structure import BandedSystemSpec, FoldedBanded

from tests.linalg.test_structure import corner_banded_matrix


class TestFoldedLU:
    def test_matches_dense_solve_real(self, rng):
        a, spec = corner_banded_matrix(rng)
        rhs = rng.standard_normal((a.shape[0], spec.n))
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(a.shape[0])])
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_matches_dense_solve_complex_rhs(self, rng):
        """Real factors applied to a complex RHS — the key custom-path feature."""
        a, spec = corner_banded_matrix(rng)
        rhs = rng.standard_normal((4, spec.n)) + 1j * rng.standard_normal((4, spec.n))
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(4)])
        np.testing.assert_allclose(x, ref, atol=1e-10)
        assert np.iscomplexobj(x)

    def test_pure_banded_no_corner(self, rng):
        a, spec = corner_banded_matrix(rng, corner=0)
        rhs = rng.standard_normal((4, spec.n))
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(4)])
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_single_vector_rhs(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=1)
        rhs = rng.standard_normal(spec.n)
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(a[0], rhs), atol=1e-10)

    def test_reusable_factors(self, rng):
        a, spec = corner_banded_matrix(rng)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec))
        for _ in range(3):
            rhs = rng.standard_normal((4, spec.n))
            x = lu.solve(rhs)
            ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(4)])
            np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_zero_pivot_raises(self):
        spec = BandedSystemSpec(n=6, kl=1, ku=1)
        dense = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)  # zero diagonal
        with pytest.raises(ZeroDivisionError):
            FoldedLU(FoldedBanded.from_dense(dense, spec))

    def test_rhs_shape_mismatch_raises(self, rng):
        a, spec = corner_banded_matrix(rng)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec))
        with pytest.raises(ValueError):
            lu.solve(rng.standard_normal((2, spec.n)))

    def test_growth_check(self, rng):
        a, spec = corner_banded_matrix(rng)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec), check=True)
        assert lu.growth_factor is not None
        assert np.all(lu.growth_factor < 100.0)

    def test_identity_matrix(self):
        spec = BandedSystemSpec(n=8, kl=1, ku=1)
        lu = FoldedLU(FoldedBanded.from_dense(np.eye(8), spec))
        rhs = np.arange(8.0)
        np.testing.assert_allclose(lu.solve(rhs), rhs)

    @given(
        n=st.integers(min_value=8, max_value=40),
        kl=st.integers(min_value=0, max_value=3),
        ku=st.integers(min_value=0, max_value=3),
        corner=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_dense(self, n, kl, ku, corner, seed):
        """Any well-conditioned corner-banded system solves like dense."""
        if kl + ku + 1 + corner > n:
            return
        r = np.random.default_rng(seed)
        a, spec = corner_banded_matrix(r, n=n, kl=kl, ku=ku, corner=corner, nbatch=2)
        rhs = r.standard_normal((2, n))
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(2)])
        np.testing.assert_allclose(x, ref, atol=1e-8)


class TestFlopAccounting:
    def test_flops_positive_and_scale_with_bandwidth(self, rng):
        flops = []
        for kl in (1, 3, 5):
            a, spec = corner_banded_matrix(rng, n=50, kl=kl, ku=kl, corner=0)
            lu = FoldedLU(FoldedBanded.from_dense(a, spec))
            flops.append(lu.factor_flops())
        assert flops[0] < flops[1] < flops[2]

    def test_solve_flops(self, rng):
        a, spec = corner_banded_matrix(rng, n=30)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec))
        assert lu.solve_flops() > 0


class TestReferenceSweeps:
    def test_reference_matches_dense(self, rng):
        a, spec = corner_banded_matrix(rng)
        rhs = rng.standard_normal((a.shape[0], spec.n))
        x = FoldedLU(FoldedBanded.from_dense(a, spec)).solve_reference(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(a.shape[0])])
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_reference_matches_engine(self, rng):
        """The retired row-at-a-time sweeps remain an oracle for the engine."""
        a, spec = corner_banded_matrix(rng)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec))
        rhs = rng.standard_normal((a.shape[0], spec.n)) + 1j * rng.standard_normal(
            (a.shape[0], spec.n)
        )
        np.testing.assert_allclose(lu.solve(rhs), lu.solve_reference(rhs), atol=1e-11)

    def test_complex_solve_is_stacked_real_sweep(self, rng):
        """Docstring contract: no dtype promotion — a complex solve IS the
        stacked re/im real sweep, bit for bit."""
        a, spec = corner_banded_matrix(rng)
        lu = FoldedLU(FoldedBanded.from_dense(a, spec))
        rhs = rng.standard_normal((4, spec.n)) + 1j * rng.standard_normal((4, spec.n))
        xc = lu.solve(rhs)
        xm = lu.solve_many(np.stack([rhs.real, rhs.imag], axis=-1))
        assert np.array_equal(xc.real, xm[:, :, 0])
        assert np.array_equal(xc.imag, xm[:, :, 1])


def lu_of(a, spec):
    return FoldedLU(FoldedBanded.from_dense(a, spec))


class TestConvenience:
    """General corner-banded batches through :class:`FoldedLU` with an
    explicit spec, in every right-hand-side shape the solver takes."""

    def test_solve_corner_banded_single(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=1)
        rhs = rng.standard_normal(spec.n)
        x = lu_of(a[0], spec).solve(rhs)
        assert x.shape == (spec.n,)
        np.testing.assert_allclose(x, np.linalg.solve(a[0], rhs), atol=1e-9)

    def test_shared_rhs_against_batched_dense(self, rng):
        """One right-hand side broadcast (a read-only stride-0 view) to
        every batch member."""
        a, spec = corner_banded_matrix(rng, nbatch=3)
        rhs = rng.standard_normal(spec.n)
        x = lu_of(a, spec).solve(np.broadcast_to(rhs, (3, spec.n)))
        assert x.shape == (3, spec.n)
        for b in range(3):
            np.testing.assert_allclose(x[b], np.linalg.solve(a[b], rhs), atol=1e-9)

    def test_multi_rhs_against_single_dense(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=1)
        rhs = rng.standard_normal((5, spec.n))
        lu = lu_of(a[0], spec)
        x = lu.solve_many(rhs.T[None])[0].T
        assert x.shape == (5, spec.n)
        for k in range(5):
            np.testing.assert_allclose(x[k], np.linalg.solve(a[0], rhs[k]), atol=1e-9)
        outs = lu.engine.solve_stack([r[None] for r in rhs])
        assert np.array_equal(np.concatenate(outs), x)

    def test_batched_rhs_against_batched_dense(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=4)
        rhs = rng.standard_normal((4, spec.n))
        x = lu_of(a, spec).solve(rhs)
        for b in range(4):
            np.testing.assert_allclose(x[b], np.linalg.solve(a[b], rhs[b]), atol=1e-9)

    def test_bad_rhs_shapes_raise(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=3)
        lu = lu_of(a, spec)
        with pytest.raises(ValueError):
            lu.solve(rng.standard_normal(spec.n - 1))
        with pytest.raises(ValueError):
            lu.solve(rng.standard_normal((2, spec.n)))  # 2 != nbatch
        with pytest.raises(ValueError):
            lu.solve(rng.standard_normal((3, spec.n, 2)))
