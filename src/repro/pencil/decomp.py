"""Process-grid planning for the pencil decomposition (paper §2.2, Fig. 2).

The block arithmetic and :class:`PencilDecomp` live in :mod:`repro.layout`
(a serial run is its ``1 x 1`` grid and must not load this package);
they are re-exported here beside what only a parallel run needs: the
choice of a ``(pa, pb)`` grid for a rank count, and the slab
decomposition's rank ceiling that §2.2 cites against slabs.
"""

from __future__ import annotations

from repro.fft.fourier import quadrature_points
from repro.layout import PencilDecomp, block_range, block_size, block_sizes, block_slices
from repro.mpi.topology import factor_pairs

__all__ = [
    "PencilDecomp", "block_range", "block_size", "block_sizes", "block_slices",
    "choose_grid", "max_slab_ranks",
]


def choose_grid(
    nranks: int, mx: int, mz: int, ny: int, nzq: int | None = None
) -> tuple[int, int]:
    """Pick a valid ``(pa, pb)`` process grid for ``nranks`` ranks.

    Candidates come from :func:`repro.mpi.topology.factor_pairs`, filtered
    by the pencil-extent constraints (``mx >= pa``, ``mz >= pb``,
    ``ny >= pb``, ``nzq >= pa``).  Among the valid grids the most-square
    one wins; ties prefer the larger ``pb`` — CommB is the inner,
    consecutive-rank communicator the paper keeps node-local (Table 5).
    This is how the elastic supervisor re-plans the factorization after
    shrinking to a survivor count that the original grid cannot express.
    """
    if nzq is None:
        nzq = mz
    valid = [
        (pa, pb)
        for pa, pb in factor_pairs(nranks)
        if mx >= pa and mz >= pb and ny >= pb and nzq >= pa
    ]
    if not valid:
        raise ValueError(
            f"no valid (pa, pb) grid for {nranks} ranks with "
            f"mx={mx}, mz={mz}, ny={ny}, nzq={nzq}"
        )
    return min(valid, key=lambda g: (abs(g[0] - g[1]), -g[1]))


def max_slab_ranks(nx: int, nz: int, dealias: bool = True) -> int:
    """The rank ceiling ``min(mx, nzq)`` of a slab (planar) decomposition,
    which splits x modes, then quadrature z, over all ranks with one
    world-wide transpose: the ``P x 1`` pencil grid.  §2.2 rejects slabs
    for this ceiling (and for the missing node-local CommB of Table 5).
    """
    mx = nx // 2
    nzq = quadrature_points(nz) if dealias else nz
    return min(mx, nzq)
