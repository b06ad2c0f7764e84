"""Hand-placed rank kills that follow the number of alltoalls a step makes."""

from __future__ import annotations

from repro.chaos import alltoalls_per_step
from repro.mpi.simmpi import FaultEvent, FaultPlan
from repro.pencil.decomp import choose_grid
from repro.pencil.transpose import TransposeMethod


def rank1_kill_plan(
    config, nranks: int, pa: int | None = None, pb: int | None = None, method=None
) -> FaultPlan:
    """Rank 1 dies at its exchange number ``3 * per_step + 6``: past three
    steps' worth of exchanges, early in the next one.

    ``per_step`` comes from a dry run on the ``pa x pb`` grid (by default
    the one a job manager or an elastic restart picks for ``nranks``).
    The exchanges are ``alltoall`` calls, or ``ialltoallv`` posts when
    ``method`` is ``PIPELINED``."""
    if pa is None or pb is None:
        pa, pb = choose_grid(nranks, config.nx // 2, config.nz - 1, config.ny)
    call = 3 * alltoalls_per_step(config, pa, pb, method) + 6
    op = "ialltoallv" if method is TransposeMethod.PIPELINED else "alltoall"
    return FaultPlan([FaultEvent(action="kill", rank=1, op=op, call=call)])
