"""Slab (planar) decomposition tests — and why the paper rejects it."""

import numpy as np
import pytest

from repro.core.grid import ChannelGrid
from repro.core.transforms import to_quadrature_grid
from repro.mpi import run_spmd
from repro.pencil.slab import SlabTransforms, max_slab_ranks
from repro.pencil.transpose import TransposeMethod

from tests.pencil.test_parallel_fft import make_spectral

NX, NY, NZ = 16, 12, 16


class TestSlabTransforms:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_serial_reference(self, nranks):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid)
        phys_ref = to_quadrature_grid(spec, grid)

        def prog(comm):
            tr = SlabTransforms(comm, NX, NY, NZ, dealias=True)
            local = np.ascontiguousarray(spec[tr.x_slice, :, :])
            phys = tr.to_physical(local)
            assert np.abs(phys - phys_ref[:, tr.zq_slice, :]).max() < 1e-12
            back = tr.from_physical(phys)
            assert np.abs(back - local).max() < 1e-12
            return True

        assert all(run_spmd(nranks, prog))

    def test_cycle_identity(self):
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=2)

        def prog(comm):
            tr = SlabTransforms(comm, NX, NY, NZ, dealias=False)
            local = np.ascontiguousarray(spec[tr.x_slice, :, :])
            out = tr.fft_cycle(local)
            assert np.abs(out - local).max() < 1e-12
            return True

        assert all(run_spmd(2, prog))

    def test_pipelined_is_bitwise_the_blocking_path(self):
        """The pipelined transposes assemble the uneven x and z blocks of
        3 ranks from the decomposition, bit for bit."""
        grid = ChannelGrid(NX, NY, NZ)
        spec = make_spectral(grid, seed=4)

        def prog(comm):
            sync = SlabTransforms(comm, NX, NY, NZ, method=TransposeMethod.ALLTOALL)
            pipe = SlabTransforms(comm, NX, NY, NZ, method=TransposeMethod.PIPELINED)
            local = np.ascontiguousarray(spec[sync.x_slice, :, :])
            phys = sync.to_physical(local)
            np.testing.assert_array_equal(pipe.to_physical(local), phys)
            np.testing.assert_array_equal(pipe.from_physical(phys), sync.from_physical(phys))
            return True

        assert all(run_spmd(3, prog))

    def test_shape_validation(self):
        def prog(comm):
            tr = SlabTransforms(comm, NX, NY, NZ)
            with pytest.raises(ValueError):
                tr.to_physical(np.zeros((1, 1, 1), complex))
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))


class TestInflexibility:
    """The §2.2 objection, quantified."""

    def test_rank_ceiling(self):
        assert max_slab_ranks(NX, NZ, dealias=True) == min(NX // 2, 3 * NZ // 2)

    def test_too_many_ranks_rejected(self):
        def prog(comm):
            with pytest.raises(ValueError, match="ceiling"):
                SlabTransforms(comm, NX, NY, NZ)
            comm.barrier()
            return True

        # 16 ranks > mx = 8: the slab code simply cannot run
        assert all(run_spmd(16, prog))

    def test_paper_production_grid_ceiling(self):
        """10240 x 1536 x 7680: a slab code caps at 5,120 ranks — two
        orders of magnitude below the paper's 524,288 cores."""
        ceiling = max_slab_ranks(10240, 7680)
        assert ceiling == 5120
        assert 524288 / ceiling > 100

    def test_pencil_has_no_such_ceiling(self):
        """The pencil decomposition reaches P = mx * min(mz, ny) ranks."""
        mx, mz, ny = 10240 // 2, 7680 - 1, 1536
        pencil_ceiling = mx * min(mz, ny)
        assert pencil_ceiling > 524288

    def test_slab_has_single_monolithic_alltoall(self):
        """All ranks share one transpose communicator: the Table 5
        node-locality optimisation does not exist for slabs."""

        def prog(comm):
            tr = SlabTransforms(comm, NX, NY, NZ)
            return tr.t_fwd.comm.size

        sizes = run_spmd(4, prog)
        assert all(s == 4 for s in sizes)  # the whole world, always
