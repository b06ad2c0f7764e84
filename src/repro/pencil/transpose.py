"""Global pencil transposes over sub-communicators (paper §4.3).

A global transpose redistributes a 3-D block: the axis that was local
becomes distributed and vice versa.  Concretely, each rank

1. splits its local array into ``P`` chunks along the axis that is about
   to become distributed,
2. exchanges chunks all-to-all within the sub-communicator,
3. concatenates the received chunks along the axis that becomes local.

The paper's FFTW 3.3 planner times several transpose implementations
and keeps the fastest (§4.3).  Here the implementation is a static
choice, ``method=`` at construction (default ``ALLTOALL``): the methods
only move data, so they give bit-identical results and differ in speed
alone.  Every method is one blocking exchange, as in the paper:

* ``ALLTOALL`` — one collective ``alltoall``,
* ``PAIRWISE`` — a pairwise MPI_sendrecv loop (XOR schedule when P is a
  power of two, shifted ring otherwise),
* ``PIPELINED`` — the same ``alltoall``, run by :class:`PipelinedTranspose`.
  The multi-slab pipelined exchange it once named is retired
  (DESIGN.md §6g); the name stays while a benchmark workload selects it.

:func:`exchange_op` names the SimMPI operation each method's exchanges
call, which is what a fault plan must name to land on them.

Send chunks are built into persistent, double-buffered contiguous
staging buffers instead of per-call slice copies, so the steady-state
transpose cycle performs zero workspace allocations.  Two parities
suffice because every exchange is synchronizing: a rank cannot finish
exchange ``N+1`` before every peer has deposited into it, which it only
does after consuming (concatenating) exchange ``N`` — so by the time
parity ``N % 2`` is refilled for exchange ``N+2``, no peer still reads
it.

**Mixed-precision wire mode** (``wire="mixed"``): float64/complex128
payloads are staged down to float32/complex64 before the exchange and
accumulated back at full precision during assembly (``np.concatenate``
up-cast on the receive side), halving the bytes on the wire at a
relative error bounded by the float32 epsilon per pass.  The staging
pool is keyed by dtype, so the narrow buffers slot in unchanged; CRC
integrity envelopes checksum whatever payload is sent.

The staging pool is an LRU cache capped at :data:`MAX_POOL_ENTRIES`
distinct (shape, dtype) keys — mixed precision doubles the dtype churn,
and an unbounded pool would leak across shape sweeps.  Evictions only
drop this rank's reference; receivers keep the underlying arrays alive.
"""

from __future__ import annotations

import enum
from collections import OrderedDict

import numpy as np

from repro.instrument import PrecisionCounters
from repro.mpi.simmpi import Communicator


class TransposeMethod(enum.Enum):
    ALLTOALL = "alltoall"
    PAIRWISE = "pairwise_sendrecv"
    PIPELINED = "pipelined"


#: LRU cap on distinct (shape, dtype) keys of the staging pool
MAX_POOL_ENTRIES = 8


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
    """One direction of a pencil transpose bound to a sub-communicator.

    Parameters
    ----------
    comm:
        The sub-communicator (CommA or CommB) carrying the exchange.
    split_axis:
        Axis of the *input* that becomes distributed (chunked for sends).
    concat_axis:
        Axis of the *output* along which received chunks are concatenated
        (the axis that becomes local).
    split_sizes:
        Optional explicit chunk sizes along ``split_axis`` (block sizes of
        the receivers); defaults to near-equal blocks.
    method:
        The exchange implementation; None means ``ALLTOALL``.  Build
        through :func:`transpose_class` so ``PIPELINED`` gets its class.
    wire:
        ``"full"`` (default) stages payloads at their own dtype;
        ``"mixed"`` down-casts float64/complex128 to float32/complex64
        on the wire, with full-precision accumulation on assembly.
    precision:
        Optional :class:`~repro.instrument.PrecisionCounters` receiving
        the wire-vs-full byte accounting.
    """

    def __init__(
        self,
        comm: Communicator,
        split_axis: int,
        concat_axis: int,
        split_sizes: list[int] | None = None,
        method: TransposeMethod | None = None,
        wire: str = "full",
        precision: PrecisionCounters | None = None,
    ) -> None:
        if wire not in ("full", "mixed"):
            raise ValueError(f"wire must be 'full' or 'mixed', got {wire!r}")
        self.comm = comm
        self.split_axis = split_axis
        self.concat_axis = concat_axis
        self.split_sizes = split_sizes
        self.method = method or TransposeMethod.ALLTOALL
        self.wire = wire
        self.precision = precision
        #: staging-allocation census: ``staging_allocs`` counts every
        #: allocation ever made (frozen after warm-up on a fixed shape
        #: set), ``staging_bytes`` the *live* pool footprint (evictions
        #: subtract), ``staging_evictions`` the LRU drops
        self.staging_allocs = 0
        self.staging_bytes = 0
        self.staging_evictions = 0
        self._staging: OrderedDict[tuple, list[list[np.ndarray]]] = OrderedDict()
        self._parity: dict[tuple, int] = {}

    def _wire_dtype(self, dtype) -> np.dtype:
        """The dtype staged on the wire for a payload of ``dtype``."""
        dtype = np.dtype(dtype)
        if self.wire == "mixed":
            return _WIRE_NARROW.get(dtype, dtype)
        return dtype

    # ------------------------------------------------------------------
    # send-side staging
    # ------------------------------------------------------------------

    def _split_extents(self, n: int) -> list[int]:
        p = self.comm.size
        if self.split_sizes is not None:
            if len(self.split_sizes) != p or sum(self.split_sizes) != n:
                raise ValueError(
                    f"split_sizes {self.split_sizes} incompatible with extent {n} over {p}"
                )
            return list(self.split_sizes)
        from repro.pencil.decomp import block_sizes

        return block_sizes(n, p)

    def _alloc_staging(self, shape: tuple[int, ...], dtype) -> list[list[np.ndarray]]:
        """One pair of parity buffers, each pre-cut into per-destination views."""
        extents = self._split_extents(shape[self.split_axis])
        pair: list[list[np.ndarray]] = []
        for _ in range(2):
            total = sum(
                int(np.prod([e if ax == self.split_axis else s
                             for ax, s in enumerate(shape)]))
                for e in extents
            )
            buf = np.empty(total, dtype=dtype)
            self.staging_allocs += 1
            self.staging_bytes += buf.nbytes
            views, offset = [], 0
            for e in extents:
                chunk_shape = tuple(
                    e if ax == self.split_axis else s for ax, s in enumerate(shape)
                )
                n = int(np.prod(chunk_shape))
                views.append(buf[offset : offset + n].reshape(chunk_shape))
                offset += n
            pair.append(views)
        return pair

    def _evict_lru(self) -> None:
        """Drop the least-recently-used staging pair beyond the pool cap.

        Receivers still holding views of an evicted parity buffer keep
        the array alive through their references; eviction only removes
        this rank's pooled handle, so the protocol stays correct.
        """
        while len(self._staging) > MAX_POOL_ENTRIES:
            old_key, old_pair = self._staging.popitem(last=False)
            self._parity.pop(old_key, None)
            self.staging_bytes -= sum(v.nbytes for views in old_pair for v in views)
            self.staging_evictions += 1

    def _chunks(self, a: np.ndarray) -> list[np.ndarray]:
        """Fill the next staging parity with per-destination chunks of ``a``
        (down-casting to the wire dtype in the same write under mixed
        precision)."""
        wire_dtype = self._wire_dtype(a.dtype)
        key = (a.shape, a.dtype)
        pair = self._staging.get(key)
        if pair is None:
            pair = self._alloc_staging(a.shape, wire_dtype)
            self._staging[key] = pair
            self._parity[key] = 0
            self._evict_lru()
        else:
            self._staging.move_to_end(key)
        parity = self._parity[key]
        self._parity[key] = parity ^ 1
        views = pair[parity]
        extents = self._split_extents(a.shape[self.split_axis])
        idx: list[slice] = [slice(None)] * a.ndim
        start = 0
        for view, e in zip(views, extents):
            idx[self.split_axis] = slice(start, start + e)
            np.copyto(view, a[tuple(idx)])
            start += e
        if self.precision is not None:
            self.precision.exchanges += 1
            self.precision.casts += wire_dtype != a.dtype
            self.precision.bytes_full += a.nbytes
            self.precision.bytes_wire += sum(v.nbytes for v in views)
        return views

    # ------------------------------------------------------------------
    # exchange implementations
    # ------------------------------------------------------------------

    def _exchange_alltoall(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        return self.comm.alltoall(chunks)

    def _exchange_pairwise(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Pairwise sendrecv rounds (XOR schedule when P is a power of two,
        shifted ring otherwise)."""
        comm = self.comm
        p = comm.size
        received: list[np.ndarray | None] = [None] * p
        received[comm.rank] = chunks[comm.rank]
        for step in range(1, p):
            if p & (p - 1) == 0:
                peer = comm.rank ^ step
            else:
                peer = (comm.rank + step) % p
            sendpeer = peer if p & (p - 1) == 0 else (comm.rank - step) % p
            if p & (p - 1) == 0:
                received[peer] = comm.sendrecv(chunks[peer], dest=peer, source=peer, tag=step)
            else:
                received[sendpeer] = comm.sendrecv(
                    chunks[peer], dest=peer, source=sendpeer, tag=step
                )
        return received  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def execute(self, a: np.ndarray) -> np.ndarray:
        """Perform the transpose on this rank's block (output is a fresh array)."""
        return self._blocking(a)

    def _blocking(self, a: np.ndarray) -> np.ndarray:
        """Stage, exchange in one blocking call, assemble: ``sendrecv``
        rounds under ``PAIRWISE``, one ``alltoall`` otherwise."""
        chunks = self._chunks(a)
        if self.method is TransposeMethod.PAIRWISE:
            received = self._exchange_pairwise(chunks)
        else:
            received = self._exchange_alltoall(chunks)
        # assembly up-casts back to the payload dtype when the wire ran
        # narrow (full-precision accumulation downstream of the exchange)
        return np.concatenate(received, axis=self.concat_axis, dtype=a.dtype)


class PipelinedTranspose(GlobalTranspose):
    """The transpose of ``TransposeMethod.PIPELINED``: one blocking
    ``alltoall``, like ``ALLTOALL``.

    A vestige.  Its multi-slab ``ialltoallv`` exchange is retired
    (DESIGN.md §6g).  The class stays only because the end-to-end
    benchmark's ``dist4_pipelined_mixed`` workload selects ``PIPELINED``
    and its span table wraps this ``execute``.  It is defined in this
    class body (the table looks it up here) and does not delegate to
    ``GlobalTranspose.execute``, which the table also wraps: a nested
    span of the same name would count one transpose twice.  This
    class, the method name and SimMPI's nonblocking family
    (``ialltoall``, ``ialltoallv``, ``Request``) go with the benchmark
    change that retires that workload (ROADMAP item 2(d)).
    """

    def execute(self, a: np.ndarray) -> np.ndarray:
        return self._blocking(a)


def transpose_class(method: TransposeMethod | None) -> type[GlobalTranspose]:
    """The class a transpose of ``method`` is built as."""
    if method is TransposeMethod.PIPELINED:
        return PipelinedTranspose
    return GlobalTranspose
