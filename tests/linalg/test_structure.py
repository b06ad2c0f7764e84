"""Folded banded storage structure tests."""

import numpy as np
import pytest

from repro.linalg.structure import BandedSystemSpec, FoldedBanded


def corner_banded_matrix(rng, n=30, kl=3, ku=2, corner=3, nbatch=4):
    """Random diagonally-dominant corner-banded batch + its spec."""
    spec = BandedSystemSpec(n=n, kl=kl, ku=ku, corner=corner)
    a = np.zeros((nbatch, n, n))
    for b in range(nbatch):
        for off in range(-kl, ku + 1):
            a[b] += np.diag(rng.standard_normal(n - abs(off)), off)
        a[b] += np.eye(n) * 10
    w = spec.window
    a[:, 0, :w] = rng.standard_normal((nbatch, w))
    a[:, 0, 0] += 10
    a[:, -1, -w:] = rng.standard_normal((nbatch, w))
    a[:, -1, -1] += 10
    return a, spec


class TestSpec:
    def test_window(self):
        spec = BandedSystemSpec(n=20, kl=3, ku=2, corner=4)
        assert spec.window == 10

    def test_jlo_monotone_and_clipped(self):
        spec = BandedSystemSpec(n=20, kl=3, ku=2, corner=4)
        jlo = spec.jlo
        assert np.all(np.diff(jlo) >= 0)
        assert jlo[0] == 0
        assert jlo[-1] == 20 - spec.window

    def test_memory_halved_vs_lapack(self):
        """The paper's claim: folded storage ~half the general-band layout."""
        spec = BandedSystemSpec(n=1024, kl=7, ku=7, corner=7)
        ratio = spec.folded_storage() / spec.lapack_storage()
        assert ratio < 0.55

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            BandedSystemSpec(n=0, kl=1, ku=1)
        with pytest.raises(ValueError):
            BandedSystemSpec(n=10, kl=-1, ku=0)
        with pytest.raises(ValueError):
            BandedSystemSpec(n=4, kl=3, ku=3)  # window exceeds n

    def test_contains(self):
        """A corner element inside the top window folds; one outside an
        interior row's window is refused."""
        spec = BandedSystemSpec(n=10, kl=1, ku=1, corner=2)
        a = np.eye(10)
        a[0, 3] = 1.0  # corner element within the top window
        np.testing.assert_array_equal(FoldedBanded.from_dense(a, spec).to_dense()[0], a)
        a[5, 9] = 1.0
        with pytest.raises(ValueError, match="outside the declared structure"):
            FoldedBanded.from_dense(a, spec)


class TestFoldedRoundtrip:
    def test_dense_roundtrip(self, rng):
        a, spec = corner_banded_matrix(rng)
        fb = FoldedBanded.from_dense(a, spec)
        np.testing.assert_array_equal(fb.to_dense(), a)

    def test_single_matrix_promoted_to_batch(self, rng):
        a, spec = corner_banded_matrix(rng, nbatch=1)
        fb = FoldedBanded.from_dense(a[0], spec)
        assert fb.nbatch == 1

    def test_structure_violation_raises(self, rng):
        a, spec = corner_banded_matrix(rng)
        a[0, 15, 0] = 1.0  # far outside the band of an interior row
        with pytest.raises(ValueError, match="outside the declared structure"):
            FoldedBanded.from_dense(a, spec)

    def test_zeros_constructor(self):
        spec = BandedSystemSpec(n=12, kl=2, ku=2)
        fb = FoldedBanded.zeros(spec, nbatch=3)
        assert fb.data.shape == (3, 12, 5)

    def test_shape_mismatch_raises(self):
        spec = BandedSystemSpec(n=12, kl=2, ku=2)
        with pytest.raises(ValueError):
            FoldedBanded(spec, np.zeros((3, 12, 7)))
