"""Global transpose and on-node reorder tests."""

import numpy as np
import pytest

from repro.mpi.simmpi import run_spmd
from repro.pencil.decomp import block_range
from repro.pencil.reorder import chunked_reorder, reorder
from repro.pencil.transpose import (
    MAX_POOL_ENTRIES,
    GlobalTranspose,
    PipelinedTranspose,
    TransposeMethod,
    transpose_class,
)


class TestReorder:
    def test_default_permutation(self, rng):
        a = rng.standard_normal((3, 4, 5))
        out, nbytes = reorder(a)
        np.testing.assert_array_equal(out, np.transpose(a, (1, 2, 0)))
        assert out.flags.c_contiguous
        assert nbytes == 2 * a.nbytes

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            reorder(np.zeros((2, 2)))

    @pytest.mark.parametrize("nchunks", [1, 2, 4, 16])
    def test_chunked_matches_plain(self, rng, nchunks):
        a = rng.standard_normal((6, 5, 4))
        plain, _ = reorder(a)
        chunked, _ = chunked_reorder(a, nchunks=nchunks)
        np.testing.assert_array_equal(chunked, plain)


def roundtrip_program(method):
    """Forward and back, each direction built as its method's class."""

    def prog(comm):
        rng = np.random.default_rng(comm.rank)
        n_split, n_other = 8, 5
        lo, hi = block_range(12, comm.size, comm.rank)
        a = rng.standard_normal((n_split, n_other, hi - lo))
        make = transpose_class(method)
        fwd = make(comm, split_axis=0, concat_axis=2, method=method)
        bwd = make(comm, split_axis=2, concat_axis=0, method=method)
        moved = fwd.execute(a)
        # moved: axis 0 is now the local block of 8, axis 2 gathered to 12
        s0, e0 = block_range(n_split, comm.size, comm.rank)
        assert moved.shape == (e0 - s0, n_other, 12)
        back = bwd.execute(moved)
        np.testing.assert_allclose(back, a, atol=1e-14)
        return True

    return prog


class TestGlobalTranspose:
    @pytest.mark.parametrize("method", list(TransposeMethod))
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_roundtrip(self, method, nranks):
        assert all(run_spmd(nranks, roundtrip_program(method)))

    def test_methods_agree(self):
        def prog(comm):
            rng = np.random.default_rng(7)
            lo, hi = block_range(9, comm.size, comm.rank)
            a = rng.standard_normal((6, hi - lo)).reshape(6, 1, hi - lo)
            a = a + comm.rank  # distinct per rank
            t1 = GlobalTranspose(comm, 0, 2, method=TransposeMethod.ALLTOALL)
            t2 = GlobalTranspose(comm, 0, 2, method=TransposeMethod.PAIRWISE)
            np.testing.assert_array_equal(t1.execute(a), t2.execute(a))
            return True

        assert all(run_spmd(3, prog))

    def test_explicit_split_sizes(self):
        def prog(comm):
            sizes = [3, 1]  # deliberately unequal
            a = np.arange(4.0 * 2).reshape(4, 1, 2)
            t = GlobalTranspose(comm, 0, 2, split_sizes=sizes)
            out = t.execute(a)
            assert out.shape[0] == sizes[comm.rank]
            return True

        assert all(run_spmd(2, prog))

    def test_bad_split_sizes(self):
        def prog(comm):
            t = GlobalTranspose(comm, 0, 2, split_sizes=[1, 1])
            with pytest.raises(ValueError):
                t.execute(np.zeros((5, 1, 2)))
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))

    def test_pipelined_bitwise_identical_to_alltoall(self):
        """Uneven blocks of 9 over 3 ranks assemble the same bits on
        repeated executes."""

        def prog(comm):
            rng = np.random.default_rng(11)
            lo, hi = block_range(9, comm.size, comm.rank)
            a = rng.standard_normal((6, 7, hi - lo)) + comm.rank
            ref = GlobalTranspose(comm, 0, 2, method=TransposeMethod.ALLTOALL).execute(a)
            pipe = transpose_class(TransposeMethod.PIPELINED)(
                comm, 0, 2, method=TransposeMethod.PIPELINED
            )
            assert type(pipe) is PipelinedTranspose
            for _ in range(3):
                np.testing.assert_array_equal(pipe.execute(a), ref)
            return True

        assert all(run_spmd(3, prog))

    @pytest.mark.parametrize("method", list(TransposeMethod))
    def test_staging_allocations_freeze(self, method):
        """Persistent staging: repeated executes allocate no new workspace."""

        def prog(comm):
            lo, hi = block_range(10, comm.size, comm.rank)
            a = np.arange(8.0 * 3 * (hi - lo)).reshape(8, 3, hi - lo)
            t = transpose_class(method)(comm, 0, 2, method=method)
            first = t.execute(a)
            allocs, byts = t.staging_allocs, t.staging_bytes
            assert allocs > 0
            for _ in range(5):
                np.testing.assert_array_equal(t.execute(a), first)
            assert (t.staging_allocs, t.staging_bytes) == (allocs, byts)
            return True

        assert all(run_spmd(4, prog))

    def test_staging_pool_is_lru_bounded(self):
        """Shape churn beyond the cap evicts oldest entries, keeps live
        bytes bounded, and never corrupts results (allocation discipline)."""

        def prog(comm):
            t = GlobalTranspose(comm, 0, 2)
            nshapes = 2 * MAX_POOL_ENTRIES
            inputs, outputs = [], []
            for i in range(nshapes):
                lo, hi = block_range(4 + i, comm.size, comm.rank)
                a = np.arange(8.0 * (2 + i) * (hi - lo)).reshape(8, 2 + i, hi - lo)
                inputs.append(a)
                outputs.append(t.execute(a))
            assert t.staging_evictions > 0
            assert len(t._staging) <= MAX_POOL_ENTRIES
            # live bytes track the pool, not the cumulative churn
            live = sum(
                v.nbytes for pair in t._staging.values() for views in pair for v in views
            )
            assert t.staging_bytes == live
            assert t.staging_allocs >= nshapes  # cumulative, monotone
            # re-executing every shape (including evicted ones) stays correct
            for a, out in zip(inputs, outputs):
                np.testing.assert_array_equal(t.execute(a), out)
            return True

        assert all(run_spmd(2, prog))

    def test_repeated_shape_never_evicts(self):
        """The steady-state single-shape hot loop keeps its freeze contract."""

        def prog(comm):
            lo, hi = block_range(10, comm.size, comm.rank)
            a = np.arange(8.0 * 3 * (hi - lo)).reshape(8, 3, hi - lo)
            t = GlobalTranspose(comm, 0, 2)
            for _ in range(3 * MAX_POOL_ENTRIES):
                t.execute(a)
            assert t.staging_evictions == 0
            return True

        assert all(run_spmd(2, prog))
