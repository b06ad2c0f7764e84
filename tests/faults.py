"""Hand-placed faults: rank kills that follow the number of exchange
calls a step makes, and snapshots stamped as written by a newer build."""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.chaos import alltoalls_per_step
from repro.mpi.simmpi import FaultEvent, FaultPlan
from repro.pencil.decomp import choose_grid
from repro.pencil.transpose import exchange_op
from repro.storage import FORMAT_VERSION


def rank1_kill_plan(
    config,
    nranks: int,
    pa: int | None = None,
    pb: int | None = None,
    method=None,
) -> FaultPlan:
    """Rank 1 dies at its exchange call number ``3 * per_step + 6``: past
    three steps' worth of exchanges, early in the next one.

    ``per_step`` comes from a dry run on the ``pa x pb`` grid (by default
    the one an elastic restart picks for ``nranks``).  The exchange calls
    are those of the ``method`` transport:
    :func:`~repro.pencil.transpose.exchange_op` names the operation."""
    if pa is None or pb is None:
        pa, pb = choose_grid(nranks, config.nx // 2, config.nz - 1, config.ny)
    call = 3 * alltoalls_per_step(config, pa, pb, method) + 6
    op = exchange_op(method)
    return FaultPlan([FaultEvent(action="kill", rank=1, op=op, call=call)])


def stamp_newer_format(path) -> None:
    """Mark a snapshot as written by a build one format version ahead:
    a serial ``.npz`` file, or every shard and the manifest of a sharded
    ``step-*`` directory (the explicit member outranks the manifest's)."""
    path = pathlib.Path(path)
    newer = FORMAT_VERSION + 1
    if path.is_dir():
        manifest = path / "manifest.json"
        fields = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**fields, "format_version": newer}))
        files = sorted(path.glob("shard-*.npz"))
    else:
        files = [path]
    for f in files:
        with np.load(f, allow_pickle=False) as data:
            members = dict(data)
        members["format_version"] = newer
        with open(f, "wb") as fh:
            np.savez_compressed(fh, **members)
