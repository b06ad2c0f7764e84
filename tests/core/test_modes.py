"""ModeSet (wavenumber block) tests."""

import numpy as np
import pytest

from repro.core.grid import ChannelGrid
from repro.core.modes import ModeSet


class TestFullModeSet:
    def test_grid_modes_shape(self, small_grid):
        m = small_grid.modes
        assert m.shape == (small_grid.mx, small_grid.mz)
        assert m.state_shape(small_grid.ny) == small_grid.spectral_shape

    def test_ksq_matches_grid(self, small_grid):
        np.testing.assert_array_equal(small_grid.modes.ksq, small_grid.ksq)

    def test_owns_mean(self, small_grid):
        assert small_grid.modes.owns_mean
        assert small_grid.modes.mean_index == (0, 0)

    def test_broadcast_shapes(self, small_grid):
        m = small_grid.modes
        assert m.ikx.shape == (m.shape[0], 1, 1)
        assert m.ikz.shape == (1, m.shape[1], 1)
        assert np.all(m.ikx.real == 0.0)


class TestSlabs:
    def test_slab_without_mean(self, small_grid):
        m = small_grid.modes.slab(slice(1, 4), slice(0, 5))
        assert not m.owns_mean
        assert m.mean_index is None
        assert m.shape == (3, 5)

    def test_slab_with_mean(self, small_grid):
        m = small_grid.modes.slab(slice(0, 2), slice(0, 3))
        assert m.owns_mean
        assert m.mean_index == (0, 0)

    def test_slabs_tile_ksq(self, small_grid):
        full = small_grid.modes
        top = full.slab(slice(0, 4), slice(None))
        bottom = full.slab(slice(4, None), slice(None))
        np.testing.assert_array_equal(
            np.concatenate([top.ksq, bottom.ksq], axis=0), full.ksq
        )

    def test_parseval_weights_tile_the_batch_oracle(self, small_grid):
        """Block weights (kx > 0 counts twice) tile ``mode_weights``."""
        from repro.core.statistics import mode_weights

        full = small_grid.modes
        top = full.slab(slice(0, 4), slice(None))
        bottom = full.slab(slice(4, None), slice(None))
        tiled = np.concatenate([top.parseval_weights, bottom.parseval_weights], axis=0)
        np.testing.assert_array_equal(tiled[..., 0], mode_weights(small_grid))
        assert np.all(bottom.parseval_weights == 2.0)

    def test_negative_kz_mean_detection(self):
        """A slab containing kz=0 but kx only > 0 does not own the mean."""
        g = ChannelGrid(nx=16, ny=12, nz=16)
        m = g.modes.slab(slice(1, 3), slice(0, 2))
        assert not m.owns_mean


class TestStandalone:
    def test_custom_modeset(self):
        m = ModeSet(kx=np.array([0.0, 1.0]), kz=np.array([-1.0, 0.0, 1.0]))
        assert m.mean_index == (0, 1)
        np.testing.assert_allclose(m.ksq[1], [2.0, 1.0, 2.0])
