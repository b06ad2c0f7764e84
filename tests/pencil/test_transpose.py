"""Global transpose and on-node reorder tests.

A :class:`GlobalTranspose` only stages and exchanges; the transforms
fuse the split into their pack and the assembly into their unpack.
:func:`move` does both plainly, so a transpose can be checked alone.
"""

import numpy as np
import pytest

from repro.mpi.simmpi import run_spmd
from repro.pencil.decomp import block_range, block_sizes
from repro.pencil.reorder import chunked_reorder, reorder
from repro.pencil.transpose import (
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


def chunk_shapes(shape, split_axis, sizes):
    """The per-destination chunk shapes of a ``shape`` block cut into
    ``sizes`` along ``split_axis``."""
    return [
        tuple(n if ax == split_axis else s for ax, s in enumerate(shape)) for n in sizes
    ]


def staged(t, a, split_axis, sizes=None):
    """``t`` with its staging allocated for ``a`` cut along ``split_axis``
    (near-equal blocks unless ``sizes``)."""
    sizes = sizes or block_sizes(a.shape[split_axis], t.comm.size)
    t.allocate(chunk_shapes(a.shape, split_axis, sizes), a.dtype)
    t.sizes = sizes
    return t


def move(t, a, split_axis, concat_axis):
    """``a`` through the staged transpose ``t``: cut along ``split_axis``,
    exchanged, the received chunks joined along ``concat_axis`` at the
    payload dtype."""
    chunks = t.send_chunks()
    cuts = np.cumsum(t.sizes)[:-1]
    for chunk, piece in zip(chunks, np.split(a, cuts, axis=split_axis)):
        np.copyto(chunk, piece)
    return np.concatenate(t.execute(chunks), axis=concat_axis, dtype=a.dtype)


def roundtrip_program(method):
    """Forward and back, each direction built as its method's class."""

    def prog(comm):
        rng = np.random.default_rng(comm.rank)
        n_split, n_other = 8, 5
        lo, hi = block_range(12, comm.size, comm.rank)
        a = rng.standard_normal((n_split, n_other, hi - lo))
        make = transpose_class(method)
        fwd = staged(make(comm, method=method), a, 0)
        moved = move(fwd, a, 0, 2)
        # moved: axis 0 is now the local block of 8, axis 2 gathered to 12
        s0, e0 = block_range(n_split, comm.size, comm.rank)
        assert moved.shape == (e0 - s0, n_other, 12)
        bwd = staged(make(comm, method=method), moved, 2, block_sizes(12, comm.size))
        back = move(bwd, moved, 2, 0)
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
            t1 = staged(GlobalTranspose(comm, method=TransposeMethod.ALLTOALL), a, 0)
            t2 = staged(GlobalTranspose(comm, method=TransposeMethod.PAIRWISE), a, 0)
            np.testing.assert_array_equal(move(t1, a, 0, 2), move(t2, a, 0, 2))
            return True

        assert all(run_spmd(3, prog))

    def test_explicit_split_sizes(self):
        def prog(comm):
            sizes = [3, 1]  # deliberately unequal
            a = np.arange(4.0 * 2).reshape(4, 1, 2)
            t = staged(GlobalTranspose(comm), a, 0, sizes)
            out = move(t, a, 0, 2)
            assert out.shape == (sizes[comm.rank], 1, 4)
            return True

        assert all(run_spmd(2, prog))

    def test_bad_split_sizes(self):
        def prog(comm):
            t = GlobalTranspose(comm)
            with pytest.raises(ValueError, match="need 2 chunk shapes"):
                t.allocate([(5, 1, 2)])
            comm.barrier()
            return True

        assert all(run_spmd(2, prog))

    def test_pipelined_bitwise_identical_to_alltoall(self):
        """Uneven blocks of 9 over 3 ranks arrive as the same bits on
        repeated executes."""

        def prog(comm):
            rng = np.random.default_rng(11)
            lo, hi = block_range(9, comm.size, comm.rank)
            a = rng.standard_normal((6, 7, hi - lo)) + comm.rank
            sync = staged(GlobalTranspose(comm, method=TransposeMethod.ALLTOALL), a, 0)
            ref = move(sync, a, 0, 2)
            pipe = transpose_class(TransposeMethod.PIPELINED)(
                comm, method=TransposeMethod.PIPELINED
            )
            assert type(pipe) is PipelinedTranspose
            staged(pipe, a, 0)
            for _ in range(3):
                np.testing.assert_array_equal(move(pipe, a, 0, 2), ref)
            return True

        assert all(run_spmd(3, prog))

    @pytest.mark.parametrize("method", list(TransposeMethod))
    def test_staging_allocations_freeze(self, method):
        """Persistent staging: two parities, allocated once, alternate."""

        def prog(comm):
            lo, hi = block_range(10, comm.size, comm.rank)
            a = np.arange(8.0 * 3 * (hi - lo)).reshape(8, 3, hi - lo)
            t = transpose_class(method)(comm, method=method)
            sizes = block_sizes(8, comm.size)
            buffers = t.allocate(chunk_shapes(a.shape, 0, sizes), a.dtype)
            t.sizes = sizes
            assert len(buffers) == 2
            assert all(b.size == a.size and b.dtype == a.dtype for b in buffers)
            first = move(t, a, 0, 2)
            for _ in range(5):
                np.testing.assert_array_equal(move(t, a, 0, 2), first)
            # six packs later the same two parities still alternate
            for i in range(4):
                chunks = t.send_chunks()
                assert all(np.shares_memory(c, buffers[i % 2]) for c in chunks)
            return True

        assert all(run_spmd(4, prog))
