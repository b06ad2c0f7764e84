"""Blocked solve-engine tests: correctness, bit-for-bit contracts,
scipy cross-checks and the zero-allocation discipline.

The engine's correctness contract has two layers: numerical agreement
with dense/scipy references (tolerance-based), and *exact* agreement
between its own entry points — ``solve`` on a complex vector, ``solve_many``
on the stacked re/im columns, and fused ``solve_stack`` groups must all
produce bit-identical columns (fixed sweep width, independent columns).
"""

import numpy as np
import pytest
import scipy.linalg

from repro.instrument import SolveCounters
from repro.linalg.custom import FoldedLU
from repro.linalg import engine as engine_mod
from repro.linalg.engine import BandedSolveEngine
from repro.linalg.structure import BandedSystemSpec, FoldedBanded, SharedRows

from tests.linalg.test_structure import corner_banded_matrix


def make_lu(rng, n=64, kl=3, ku=3, corner=0, nbatch=4, **kw):
    a, spec = corner_banded_matrix(rng, n=n, kl=kl, ku=ku, corner=corner, nbatch=nbatch)
    return a, spec, FoldedLU(FoldedBanded.from_dense(a, spec), **kw)


class TestAgainstDense:
    @pytest.mark.parametrize("bandwidth", [3, 5, 7, 9, 11, 13, 15])
    @pytest.mark.parametrize("corner", [0, 2])
    def test_bandwidth_sweep(self, rng, bandwidth, corner):
        """Random corner-banded systems at the paper's Table 1 bandwidths."""
        kl = ku = (bandwidth - 1) // 2
        a, spec, lu = make_lu(rng, n=80, kl=kl, ku=ku, corner=corner, nbatch=3)
        rhs = rng.standard_normal((3, 80))
        x = lu.engine.solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(3)])
        np.testing.assert_allclose(x, ref, atol=1e-9)

    def test_complex_rhs(self, rng):
        a, spec, lu = make_lu(rng, corner=3)
        rhs = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        x = lu.engine.solve(rhs)
        ref = np.stack([np.linalg.solve(a[b], rhs[b]) for b in range(4)])
        np.testing.assert_allclose(x, ref, atol=1e-9)
        assert np.iscomplexobj(x)

    def test_matches_solve_reference(self, rng):
        """Engine and row-at-a-time reference sweeps agree to rounding."""
        a, spec, lu = make_lu(rng, n=50, corner=2)
        rhs = rng.standard_normal((4, 50))
        np.testing.assert_allclose(lu.engine.solve(rhs), lu.solve_reference(rhs), atol=1e-11)

    def test_block_size_invariance(self, rng, monkeypatch):
        """Every panel height gives the same answer (to rounding)."""
        a, spec, lu = make_lu(rng, n=70, corner=2)
        rhs = rng.standard_normal((4, 70))
        monkeypatch.setattr(engine_mod, "PANEL_ROWS", 70)
        ref = BandedSolveEngine(lu).solve(rhs)
        for b in (1, 3, 8, 16, 33, 64):
            monkeypatch.setattr(engine_mod, "PANEL_ROWS", b)
            eng = BandedSolveEngine(lu)
            assert eng.block == b
            np.testing.assert_allclose(eng.solve(rhs), ref, atol=1e-11)

    def test_solve_many_matches_columnwise(self, rng):
        a, spec, lu = make_lu(rng, n=40, corner=1, nbatch=2)
        cols = rng.standard_normal((2, 40, 7))
        xs = lu.solve_many(cols)
        for j in range(7):
            ref = np.stack([np.linalg.solve(a[b], cols[b, :, j]) for b in range(2)])
            np.testing.assert_allclose(xs[:, :, j], ref, atol=1e-9)


class TestAgainstScipy:
    @pytest.mark.parametrize("bandwidth", [3, 7, 11, 15])
    @pytest.mark.parametrize("corner", [0, 3])
    def test_solve_banded_crosscheck(self, rng, bandwidth, corner):
        """Independent oracle: LAPACK gbsv on the padded general band."""
        kl = ku = (bandwidth - 1) // 2
        a, spec, lu = make_lu(rng, n=96, kl=kl, ku=ku, corner=corner, nbatch=3)
        rhs = rng.standard_normal((3, 96))
        x = lu.engine.solve(rhs)
        # padded band covering the full-window boundary rows
        klp = kup = spec.window - 1
        for b in range(3):
            ab = np.zeros((klp + kup + 1, 96))
            for off in range(-klp, kup + 1):
                d = np.diagonal(a[b], off)
                ab[kup - off, max(off, 0) : max(off, 0) + d.size] = d
            ref = scipy.linalg.solve_banded((klp, kup), ab, rhs[b])
            np.testing.assert_allclose(x[b], ref, atol=1e-9)


class TestBitForBitContracts:
    def test_complex_equals_stacked_real(self, rng):
        """The real-factor complex sweep is exactly the stacked-real sweep."""
        a, spec, lu = make_lu(rng, n=64, corner=3)
        rhs = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        xc = lu.solve(rhs)
        xm = lu.solve_many(np.stack([rhs.real, rhs.imag], axis=-1))
        assert np.array_equal(xm[:, :, 0], xc.real)
        assert np.array_equal(xm[:, :, 1], xc.imag)

    def test_solve_stack_equals_separate_solves(self, rng):
        """Fused groups reproduce the separate solves bit for bit,
        regardless of each part's position in the column stream."""
        a, spec, lu = make_lu(rng, n=64, corner=2)
        rc1 = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        rr1 = rng.standard_normal((4, 64))
        rc2 = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        rr2 = rng.standard_normal((4, 64))
        outs = lu.engine.solve_stack([rc1, rr1, rc2, rr2])
        assert np.array_equal(outs[0], lu.solve(rc1))
        assert np.array_equal(outs[1], lu.solve(rr1))
        assert np.array_equal(outs[2], lu.solve(rc2))
        assert np.array_equal(outs[3], lu.solve(rr2))

    def test_solve_repeatable(self, rng):
        a, spec, lu = make_lu(rng, n=48)
        rhs = rng.standard_normal((4, 48))
        assert np.array_equal(lu.solve(rhs), lu.solve(rhs))


class TestZeroAllocation:
    def test_steady_state_workspace_frozen(self, rng):
        """After the engine is built, no solve path allocates workspace
        (the transform-pipeline discipline of tests/fft/test_pipeline.py)."""
        a, spec, lu = make_lu(rng, n=64, corner=2)
        counters = SolveCounters()
        eng = BandedSolveEngine(lu, counters=counters)
        assert counters.workspace_allocs == 2  # X, T — build-time only
        assert counters.workspace_bytes == eng.workspace_bytes()

        rhs = rng.standard_normal((4, 64))
        rhc = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        cols = rng.standard_normal((4, 64, 5))
        eng.solve(rhs)  # warm-up
        snap = counters.snapshot()
        for _ in range(4):
            eng.solve(rhs)
            eng.solve(rhc)
            eng.solve_many(cols)
            eng.solve_stack([rhc, rhs])
        after = counters.snapshot()
        assert after["workspace_allocs"] == snap["workspace_allocs"]
        assert after["workspace_bytes"] == snap["workspace_bytes"]
        # execution counters did move
        assert after["solves"] == snap["solves"] + 16
        assert after["sweeps"] > snap["sweeps"]
        assert after["columns"] == snap["columns"] + 4 * (1 + 2 + 5 + 3)

    def test_counters_report(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        eng = lu.engine
        eng.solve(rng.standard_normal((4, 32)))
        rep = eng.counters.report()
        assert "workspace_bytes=" in rep and "solves=" in rep


def shared_lu(rng, mults=range(1, 13), n=40):
    """A factor set of ``len(mults)`` distinct matrices, matrix ``d``
    shared by ``mults[d]`` members in shuffled order, beside the per-member
    oracle: the same matrices copied out one per member, nothing shared."""
    a, spec = corner_banded_matrix(rng, n=n, kl=3, ku=3, corner=2, nbatch=len(mults))
    keys = rng.permutation(np.repeat(np.arange(len(mults)) * 0.5, list(mults)))
    rows = SharedRows(keys)
    distinct = np.rint(rows.keys * 2).astype(int)  # stored row -> matrix
    shared = FoldedLU(FoldedBanded.from_dense(a[distinct], spec), rows=rows)
    per_member = FoldedLU(FoldedBanded.from_dense(a[np.rint(keys * 2).astype(int)], spec))
    return shared, per_member


class TestSharedRows:
    def test_layout_groups_sharers_by_multiplicity(self, rng):
        keys = rng.permutation(np.repeat([3.0, 1.0, 2.0, 7.0], [2, 5, 2, 1]))
        rows = SharedRows(keys)
        assert (rows.nbatch, rows.nrows) == (10, 4)
        np.testing.assert_array_equal(rows.keys[rows.members], keys)
        assert [(r0, r1, m) for r0, r1, m, _ in rows.classes] == [(0, 1, 1), (1, 3, 2), (3, 4, 5)]
        for r0, r1, m, p0 in rows.classes:
            at = rows.members[rows.order[p0 : p0 + (r1 - r0) * m]]
            np.testing.assert_array_equal(at, np.repeat(np.arange(r0, r1), m))

    def test_row_keys_and_exact_equality(self):
        pairs = np.array([[4.0, 0.1], [4.0, 0.2], [4.0, 0.1], [np.nextafter(4.0, 5.0), 0.1]])
        rows = SharedRows(pairs)
        assert rows.nrows == 3
        assert rows.members[0] == rows.members[2] != rows.members[1]

    def test_helmholtz_factors_distinct_ksq_only(self, basis):
        from repro.linalg.helmholtz import HelmholtzOperator

        ksq = np.array([4.0, 1.0, 4.0, 9.0, 1.0, 4.0])
        helm = HelmholtzOperator(basis)
        lu = helm.factor_helmholtz(ksq, 0.01)
        assert lu.nbatch == 6 and lu.data.shape[0] == 3
        assert helm.factor_poisson(lu.rows).rows is lu.rows


class TestSharedFactors:
    """Members sharing a stored matrix get exactly the bits a private
    factor copy gives them: each still runs its own fixed-shape GEMM,
    against a stride-0 broadcast of the shared panel."""

    @pytest.mark.parametrize("block", [None, 7])
    def test_every_entry_point_bit_identical(self, rng, block, monkeypatch):
        if block:
            monkeypatch.setattr(engine_mod, "PANEL_ROWS", block)
        shared, oracle = shared_lu(rng)
        assert shared.engine.block == (block or 16)
        nb, n = oracle.nbatch, oracle.spec.n
        assert len(shared.rows.classes) == 12
        rr = rng.standard_normal((nb, n))
        rc = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
        assert np.array_equal(shared.solve(rr), oracle.solve(rr))
        assert np.array_equal(shared.solve(rc), oracle.solve(rc))
        cols = rng.standard_normal((nb, n, 6))
        assert np.array_equal(shared.solve_many(cols), oracle.solve_many(cols))
        got = shared.engine.solve_stack([rc, rr, rc.conj()])
        want = oracle.engine.solve_stack([rc, rr, rc.conj()])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_single_vector_and_no_sharing_paths(self, rng):
        shared, oracle = shared_lu(rng, mults=[1, 1, 1])
        rhs = rng.standard_normal((3, 40))
        assert np.array_equal(shared.solve(rhs), oracle.solve(rhs))
        one, one_oracle = shared_lu(rng, mults=[2])
        x = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
        assert np.array_equal(one.solve(x), one_oracle.solve(x))

    def test_solve_rows_is_what_every_sharer_gets(self, rng):
        shared, _ = shared_lu(rng)
        rows = shared.rows
        cols = rng.standard_normal((rows.nrows, 40, 3))
        per_row = shared.engine.solve_rows(cols)
        per_member = shared.solve_many(cols[rows.members])
        assert np.array_equal(per_row[rows.members], per_member)

    def test_matches_dense_and_reference(self, rng):
        shared, oracle = shared_lu(rng, mults=[3, 1, 4])
        rhs = rng.standard_normal((8, 40))
        np.testing.assert_allclose(shared.solve(rhs), shared.solve_reference(rhs), atol=1e-11)
        np.testing.assert_array_equal(shared.solve_reference(rhs), oracle.solve_reference(rhs))

    def test_nbatch_counts_members_not_stored_matrices(self, rng):
        shared, oracle = shared_lu(rng)
        assert shared.nbatch == oracle.nbatch == 78
        assert shared.engine.nbatch == 78
        assert shared.data.shape[0] == 12
        with pytest.raises(ValueError):
            shared.solve(rng.standard_normal((12, 40)))

    def test_workspace_frozen_and_factors_shrink(self, rng):
        shared, oracle = shared_lu(rng)
        counters = SolveCounters()
        eng = BandedSolveEngine(shared, counters=counters)
        assert counters.workspace_allocs == 2
        assert eng.workspace_bytes() == oracle.engine.workspace_bytes()  # per member
        assert eng.panel_bytes() * 78 == oracle.engine.panel_bytes() * 12
        snap = counters.snapshot()
        rhc = rng.standard_normal((78, 40)) + 1j * rng.standard_normal((78, 40))
        for _ in range(3):
            eng.solve(rhc)
            eng.solve_many(rng.standard_normal((78, 40, 5)))
            eng.solve_stack([rhc, rhc.real])
            eng.solve_rows(rng.standard_normal((12, 40, 2)))
        after = counters.snapshot()
        assert after["workspace_allocs"] == snap["workspace_allocs"]
        assert after["workspace_bytes"] == snap["workspace_bytes"]

    def test_rows_must_match_the_matrix(self, rng):
        a, spec = corner_banded_matrix(rng, n=20, nbatch=3)
        with pytest.raises(ValueError):
            FoldedLU(FoldedBanded.from_dense(a, spec), rows=SharedRows([1.0, 2.0, 1.0]))


class TestValidation:
    def test_default_block(self, rng):
        """The panel height is the module's 16 rows, capped at ``n``."""
        assert engine_mod.PANEL_ROWS == 16
        for n, block in ((9, 9), (16, 16), (65, 16)):
            a, spec, lu = make_lu(rng, n=n, nbatch=1)
            assert lu.engine.block == block

    def test_rhs_shape_mismatch(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        with pytest.raises(ValueError):
            lu.engine.solve(rng.standard_normal((2, 32)))
        with pytest.raises(ValueError):
            lu.engine.solve_many(rng.standard_normal((4, 32)))

    def test_solve_many_rejects_complex(self, rng):
        a, spec, lu = make_lu(rng, n=32)
        with pytest.raises(TypeError):
            lu.solve_many(rng.standard_normal((4, 32, 2)) + 0j)

    def test_single_vector_squeeze(self, rng):
        a, spec, lu = make_lu(rng, n=32, nbatch=1)
        rhs = rng.standard_normal(32)
        x = lu.engine.solve(rhs)
        assert x.shape == (32,)
        np.testing.assert_allclose(x, np.linalg.solve(a[0], rhs), atol=1e-9)

    def test_one_engine_per_factor_set(self, rng):
        """The factor set builds its one engine with its factors, and
        every solve entry point of the set runs on it."""
        a, spec, lu = make_lu(rng, n=40)
        eng = lu.engine
        assert eng.counters.workspace_allocs == 2 and eng.counters.solves == 0
        assert lu.nbytes() == lu.data.nbytes + eng.panel_bytes() + eng.workspace_bytes()
        lu.solve(rng.standard_normal((4, 40)))
        lu.solve_many(rng.standard_normal((4, 40, 3)))
        assert lu.engine is eng and eng.counters.solves == 2
