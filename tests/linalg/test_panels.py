"""Panel kernels against oracles that are not the kernels.

``PanelApply`` is compared with the dense product and ``PanelSolve`` with
LAPACK's pivoting banded solver (:mod:`repro.linalg.reference`); batch
independence — the property the serial ≡ distributed identities and the
bit-identical fault recovery stand on — is asserted bit for bit.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsplines import BSplineBasis
from repro.linalg.panels import PANEL, PanelApply, PanelSolve, panel_edges
from repro.linalg.reference import apply_dense, interpolate_banded


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def batch(rng, shape, cplx):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if cplx else x


class TestAgainstOracles:
    @given(
        ny=st.integers(8, 200),
        degree=st.sampled_from([3, 5, 7]),
        stretch=st.sampled_from([0.0, 2.0]),
        lead=st.sampled_from([(), (3,), (2, 5)]),
        cplx=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_and_solve_match_dense_and_lapack(self, ny, degree, stretch, lead, cplx, strided, seed):
        basis = BSplineBasis(ny, degree=degree, stretch=stretch)
        kl, ku = basis.bandwidths
        rng = np.random.default_rng(seed)
        if strided:  # unit stride on no axis
            x = batch(rng, lead + (2 * ny,), cplx)[..., ::2]
            assert not x.flags.c_contiguous or x.size == 0 or ny == 1
        else:
            x = batch(rng, lead + (ny,), cplx)
        for deriv in (0, 1, 2):
            dense = basis.colloc_matrix(deriv)
            apply = PanelApply(dense, kl, ku)
            want = apply_dense(dense, x)
            got = apply(x)
            assert got.shape == x.shape and got.dtype == want.dtype
            assert relative_error(got, want) <= 1e-13
            out = np.empty(x.shape, want.dtype)
            assert apply(x, out) is out
            assert np.array_equal(out, got)
        dense = basis.colloc_matrix(0)
        got = PanelSolve(dense, kl, ku).solve(x)
        want = interpolate_banded(dense, kl, ku, x)
        assert got.shape == x.shape and got.dtype == want.dtype
        assert relative_error(got, want) <= 1e-12
        assert np.array_equal(got, basis.interpolate(x))  # the basis is this solve

    @pytest.mark.parametrize("ny", [2 * PANEL, 2 * PANEL + 1])
    def test_both_sides_of_the_single_panel_threshold(self, ny, rng):
        assert len(panel_edges(ny)) == (1 if ny <= 2 * PANEL else 3)
        basis = BSplineBasis(ny)
        x = batch(rng, (6, ny), True)
        dense = basis.colloc_matrix(2)
        assert relative_error(PanelApply(dense, *basis.bandwidths)(x), apply_dense(dense, x)) <= 1e-13
        assert relative_error(
            basis.interpolate(x), interpolate_banded(basis.colloc_matrix(0), *basis.bandwidths, x)
        ) <= 1e-12

    def test_panels_cover_every_row_once(self):
        for n in (8, 48, 49, 97, 193, 1536):
            edges = panel_edges(n)
            assert edges[0][0] == 0 and edges[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
            if len(edges) > 1:
                assert all(PANEL // 2 < e - s <= PANEL for s, e in edges)


class TestContract:
    def test_real_input_stays_real(self, rng):
        basis = BSplineBasis(65)
        u = rng.standard_normal(65)
        assert PanelApply(basis.colloc_matrix(1), *basis.bandwidths)(u).dtype == np.float64
        assert basis.interpolate(u).dtype == np.float64
        assert basis.interpolate(np.arange(65)).dtype == np.float64  # integers promote

    def test_real_input_is_the_real_part_of_the_complex_sweep(self, rng):
        basis = BSplineBasis(65)
        x = rng.standard_normal((5, 65))
        apply = PanelApply(basis.colloc_matrix(2), *basis.bandwidths)
        assert np.array_equal(apply(x), apply(x + 0j).real)
        assert np.array_equal(basis.interpolate(x), basis.interpolate(x + 0j).real)

    def test_solve_leaves_its_input_alone(self, rng):
        basis = BSplineBasis(97)
        x = batch(rng, (4, 97), True)
        keep = x.copy()
        basis.interpolate(x)
        assert np.array_equal(x, keep)

    @pytest.mark.parametrize("ny", [25, 97])  # one panel, several: the same contract
    def test_out_aliasing_the_input_raises(self, ny, rng):
        basis = BSplineBasis(ny)
        apply = PanelApply(basis.colloc_matrix(1), *basis.bandwidths)
        x = batch(rng, (4, ny), True)
        with pytest.raises(ValueError, match="aliases"):
            apply(x, x)
        with pytest.raises(ValueError, match="aliases"):
            apply(x[:2], x.reshape(2, 2, ny)[0])

    def test_out_of_the_wrong_kind_raises(self, rng):
        basis = BSplineBasis(25)
        apply = PanelApply(basis.colloc_matrix(0), *basis.bandwidths)
        x = batch(rng, (4, 25), True)
        for bad in (np.empty((3, 25), complex), np.empty((4, 25)), np.empty((25, 4), complex).T):
            with pytest.raises(ValueError, match="out="):
                apply(x, bad)
        with pytest.raises(ValueError, match="last axis"):
            apply(x[:, :24])

    def test_bandwidth_wider_than_a_panel_is_refused(self):
        dense = np.eye(100) + 0.01 * np.triu(np.tri(100, k=30), 1)
        with pytest.raises(ValueError, match="panel height"):
            PanelSolve(dense, 0, 30)


class TestBatchIndependence:
    """Row ``r`` of a result is the same bits whatever it was swept with."""

    ROWS = 4560

    @pytest.fixture(scope="class", params=[25, 65, 193])
    def case(self, request):
        ny = request.param
        basis = BSplineBasis(ny)
        rng = np.random.default_rng(ny)
        big = batch(rng, (self.ROWS, ny), True)
        return basis, big

    @staticmethod
    def kernels(basis):
        kl, ku = basis.bandwidths
        kernels = [PanelApply(basis.colloc_matrix(d), kl, ku) for d in (0, 1, 2)]
        return kernels + [PanelSolve(basis.colloc_matrix(0), kl, ku).solve]

    def test_row_alone_and_in_batches_of_7_120_4560(self, case):
        basis, big = case
        for part in (big, np.ascontiguousarray(big.real)):
            for kernel in self.kernels(basis):
                full = kernel(part)
                for rows in (1, 7, 120):
                    for start in (0, 1, 1000, self.ROWS - rows):
                        assert np.array_equal(kernel(part[start : start + rows]), full[start : start + rows])
                assert np.array_equal(kernel(part[17]), full[17])  # 1-D, as u00 arrives

    def test_two_fresh_instances_agree(self, case):
        basis, big = case
        again = BSplineBasis(basis.n)
        for first, second in zip(self.kernels(basis), self.kernels(again)):
            assert np.array_equal(first(big[:120]), second(big[:120]))

    @pytest.mark.parametrize("shared", [False, True])
    def test_four_concurrent_threads(self, case, shared):
        """Each rank-thread owns its instance, as in a SimMPI run; the
        kernels keep no per-call state, so sharing one is exact as well."""
        basis, big = case
        common = self.kernels(basis)
        want = [kernel(big[:480]) for kernel in common]
        results: dict[int, list] = {}

        def rank(r: int) -> None:
            mine = common if shared else self.kernels(BSplineBasis(basis.n))
            for _ in range(5):
                results[r] = [kernel(big[120 * r : 120 * (r + 1)]) for kernel in mine]

        threads = [threading.Thread(target=rank, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for r in range(4):
            for got, full in zip(results[r], want):
                assert np.array_equal(got, full[120 * r : 120 * (r + 1)])


def test_panel_height_is_a_module_constant_not_an_argument():
    """One path, no knob: the kernels take the matrix and its bandwidths."""
    import inspect

    for cls in (PanelApply, PanelSolve):
        assert list(inspect.signature(cls).parameters) == ["dense", "kl", "ku"]
