"""Global pencil transposes over sub-communicators (paper §4.2-4.3).

A global transpose redistributes a 3-D block: the axis that was local
becomes distributed and vice versa.  The paper reorders on-node *inside*
the transpose so that the next transform axis arrives unit stride
(§4.2).  Here the transform that owns the transpose
(:class:`~repro.fft.transform.PencilFFT`) **packs** one chunk per
destination into this transpose's persistent staging
(:meth:`GlobalTranspose.send_chunks`), fusing any scaling, truncation
and permutation into that write; :meth:`GlobalTranspose.execute`
**exchanges** them in one blocking call; the transform **unpacks** each
received chunk straight into its next workspace.  Nothing is
concatenated, and :meth:`GlobalTranspose.allocate` sizes the staging
once, from the decomposition.

The implementation is a static choice, ``method=`` (default
``ALLTOALL``); the methods only move data, so they give bit-identical
results.  Every method is one blocking exchange, as in the paper:
``ALLTOALL`` one collective ``alltoall``, ``PAIRWISE`` MPI_sendrecv
rounds (XOR schedule when P is a power of two, shifted ring otherwise),
and ``PIPELINED`` the same ``alltoall`` run by
:class:`PipelinedTranspose`, a name kept while a benchmark workload
selects it (DESIGN.md §6g).  :func:`exchange_op` names the SimMPI
operation each method calls, which is what a fault plan must name.
Every rank stages and sends all ``P`` chunks, its own included.

The staging is double-buffered.  Two parities suffice because every
exchange is synchronizing: a rank cannot finish exchange ``N+1`` before
every peer has deposited into it, which a peer only does after
unpacking exchange ``N`` — so when parity ``N % 2`` is refilled for
exchange ``N+2``, no peer still reads it.

**Mixed-precision wire** (``wire="mixed"``): float64/complex128 payloads
are staged as float32/complex64, rounded by the pack and widened back by
the unpack, halving the bytes on the wire at a relative error bounded by
the float32 epsilon per pass.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.instrument import PrecisionCounters
from repro.mpi.simmpi import Communicator


class TransposeMethod(enum.Enum):
    ALLTOALL = "alltoall"
    PAIRWISE = "pairwise_sendrecv"
    PIPELINED = "pipelined"


def exchange_op(method: TransposeMethod | None) -> str:
    """The SimMPI operation a transpose's exchanges call: ``send`` (one
    per peer) for ``PAIRWISE``, ``alltoall`` for every other method."""
    if method is TransposeMethod.PAIRWISE:
        return "send"
    return "alltoall"


#: full-precision dtype -> wire dtype of the mixed-precision mode
_WIRE_NARROW = {
    np.dtype(np.float64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.complex64),
}


class GlobalTranspose:
    """One direction of a pencil transpose bound to a sub-communicator:
    its send staging and its blocking exchange.

    Parameters
    ----------
    comm:
        The sub-communicator (CommA or CommB) carrying the exchange.
    method:
        The exchange implementation; None means ``ALLTOALL``.  Build
        through :func:`transpose_class` so ``PIPELINED`` gets its class.
    wire:
        ``"full"`` (default) stages payloads at their own dtype;
        ``"mixed"`` stages float64/complex128 as float32/complex64.
    precision:
        Optional :class:`~repro.instrument.PrecisionCounters` receiving
        the wire-vs-full byte accounting.
    """

    def __init__(
        self,
        comm: Communicator,
        method: TransposeMethod | None = None,
        wire: str = "full",
        precision: PrecisionCounters | None = None,
    ) -> None:
        if wire not in ("full", "mixed"):
            raise ValueError(f"wire must be 'full' or 'mixed', got {wire!r}")
        self.comm = comm
        self.method = method or TransposeMethod.ALLTOALL
        self.wire = wire
        self.precision = precision
        self._staging: list[list[np.ndarray]] = []
        self._parity = 0
        self._bytes_full = 0
        self._narrowed = False

    def allocate(self, shapes, dtype=np.complex128) -> list[np.ndarray]:
        """Allocate both staging parities: chunk ``j`` has ``shapes[j]``
        and goes to rank ``j``, at the wire dtype of a ``dtype`` payload.

        Returns the two flat buffers, for the owner's workspace census.
        """
        if len(shapes) != self.comm.size:
            raise ValueError(f"need {self.comm.size} chunk shapes, got {len(shapes)}")
        full = np.dtype(dtype)
        wire = _WIRE_NARROW.get(full, full) if self.wire == "mixed" else full
        sizes = [math.prod(shape) for shape in shapes]
        self._bytes_full = sum(sizes) * full.itemsize
        self._narrowed = wire != full
        buffers, self._staging = [], []
        for _ in range(2):
            buf = np.empty(sum(sizes), dtype=wire)
            views, offset = [], 0
            for shape, n in zip(shapes, sizes):
                views.append(buf[offset : offset + n].reshape(shape))
                offset += n
            buffers.append(buf)
            self._staging.append(views)
        return buffers

    def send_chunks(self) -> list[np.ndarray]:
        """The next parity's chunks, one per destination rank, to pack."""
        views = self._staging[self._parity]
        self._parity ^= 1
        return views

    # ------------------------------------------------------------------
    # exchange implementations
    # ------------------------------------------------------------------

    def _exchange_pairwise(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Pairwise sendrecv rounds (XOR schedule when P is a power of two,
        shifted ring otherwise)."""
        comm = self.comm
        p, rank = comm.size, comm.rank
        received: list[np.ndarray | None] = [None] * p
        received[rank] = chunks[rank]
        for step in range(1, p):
            if p & (p - 1) == 0:
                dest = source = rank ^ step
            else:
                dest, source = (rank + step) % p, (rank - step) % p
            received[source] = comm.sendrecv(chunks[dest], dest=dest, source=source, tag=step)
        return received  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def execute(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Exchange the packed ``chunks``; returns the chunk every rank sent
        this one, at the wire dtype, valid until the exchange after next."""
        return self._blocking(chunks)

    def _blocking(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """One blocking exchange: ``sendrecv`` rounds under ``PAIRWISE``,
        one ``alltoall`` otherwise."""
        if self.precision is not None:
            self.precision.exchanges += 1
            self.precision.casts += self._narrowed
            self.precision.bytes_full += self._bytes_full
            self.precision.bytes_wire += sum(c.nbytes for c in chunks)
        if self.method is TransposeMethod.PAIRWISE:
            return self._exchange_pairwise(chunks)
        return self.comm.alltoall(chunks)


class PipelinedTranspose(GlobalTranspose):
    """The transpose of ``TransposeMethod.PIPELINED``: one blocking
    ``alltoall``, like ``ALLTOALL`` (its multi-slab exchange is retired,
    DESIGN.md §6g).  It stays while the end-to-end benchmark's
    ``dist4_pipelined_mixed`` workload selects ``PIPELINED`` and wraps
    this ``execute``, defined here rather than delegating to
    ``GlobalTranspose.execute`` (also wrapped: a nested span would count
    one transpose twice).  It goes, with SimMPI's nonblocking family, in
    the benchmark change that retires that workload (ROADMAP item 2(d)).
    """

    def execute(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        return self._blocking(chunks)


def transpose_class(method: TransposeMethod | None) -> type[GlobalTranspose]:
    """The class a transpose of ``method`` is built as."""
    if method is TransposeMethod.PIPELINED:
        return PipelinedTranspose
    return GlobalTranspose
