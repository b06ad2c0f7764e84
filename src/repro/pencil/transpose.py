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
alone.

* ``ALLTOALL`` — one blocking collective exchange,
* ``PAIRWISE`` — a pairwise MPI_sendrecv loop (XOR schedule when P is a
  power of two, shifted ring otherwise),
* ``PIPELINED`` — a staged :class:`PipelinedTranspose`: the third axis
  (local on both sides of the transpose) is cut into slabs, each slab's
  exchange is posted nonblocking (``ialltoallv``) and the wait for slab
  *k* overlaps the post — and, through the ``pre``/``post`` compute
  hooks, the FFT work — of the neighbouring slabs.  The slab count is
  fixed at construction (``stages``, default :data:`DEFAULT_STAGES`).
  One slab has nothing to overlap, so it runs as the blocking
  ``alltoall`` between its hooks.

:func:`exchange_op` names the SimMPI operation each method's exchanges
call, which is what a fault plan must name to land on them.

Send chunks are built into persistent, double-buffered contiguous
staging buffers instead of per-call slice copies, so the steady-state
transpose cycle performs zero workspace allocations.  Two parities
suffice for the blocking methods because both are synchronizing: a rank
cannot finish exchange ``N+1`` before every peer has deposited into it,
which it only does after consuming (concatenating) exchange ``N`` — so
by the time parity ``N % 2`` is refilled for exchange ``N+2``, no peer
still reads it.  The pipelined method in more than one slab has no such
global synchronization and instead runs the explicit ack credit
protocol of :meth:`repro.mpi.simmpi.Request.wait_acks`; it drains every
ack before it returns, so a later blocking exchange may refill any
parity.

**Mixed-precision wire mode** (``wire="mixed"``): float64/complex128
payloads are staged down to float32/complex64 before the exchange and
accumulated back at full precision during assembly (``np.copyto`` /
``np.concatenate`` up-cast on the receive side), halving the bytes on
the wire at a relative error bounded by the float32 epsilon per pass.
The staging pools were already keyed by dtype, so the narrow buffers
slot in unchanged; CRC integrity envelopes checksum whatever payload is
posted, and the overlap counters see the (halved) wire bytes.

Both staging pools (parity pairs and pipelined slab buffers) are LRU
caches capped at :data:`MAX_POOL_ENTRIES` distinct (shape, dtype) keys —
mixed precision doubles the dtype churn, and an unbounded pool would
leak across shape sweeps.  Evictions only drop this rank's reference;
in-flight receivers keep the underlying arrays alive.
"""

from __future__ import annotations

import enum
import time
import weakref
from collections import OrderedDict

import numpy as np

from repro.instrument import OverlapCounters, PrecisionCounters, SectionTimers
from repro.mpi.simmpi import Communicator


class TransposeMethod(enum.Enum):
    ALLTOALL = "alltoall"
    PAIRWISE = "pairwise_sendrecv"
    PIPELINED = "pipelined"


#: LRU cap on distinct (shape, dtype) keys per staging/slab buffer pool
MAX_POOL_ENTRIES = 8

#: slab count of a pipelined transpose unless a caller pins another: with
#: no wire latency to hide, every extra slab only adds an exchange
#: (DESIGN.md §6g)
DEFAULT_STAGES = 1


def exchange_op(method: TransposeMethod | None, stages: int = DEFAULT_STAGES) -> str:
    """The SimMPI operation a transpose's exchanges call: ``alltoall``
    for ``ALLTOALL`` and one-slab ``PIPELINED``, ``send`` (one per peer)
    for ``PAIRWISE``, ``ialltoallv`` (one per slab) for ``PIPELINED`` in
    more than one slab.  A pipelined transpose whose stage axis is
    shorter than ``stages`` runs fewer slabs, and in one slab calls
    ``alltoall``."""
    if method is TransposeMethod.PAIRWISE:
        return "send"
    if method is TransposeMethod.PIPELINED and stages > 1:
        return "ialltoallv"
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
    concat_sizes:
        Extents along ``concat_axis`` of every source's chunk (block
        sizes of the senders), known to whoever built the
        decomposition.  Required by the pipelined method, which
        assembles each slab in place from them.
    method:
        The exchange implementation; None means ``ALLTOALL``.
    stages:
        Slab count of the pipelined method (bounded by the stage-axis
        extent).  More stages expose more overlap at the cost of one
        exchange per slab; one slab is one blocking ``alltoall``.
    timers:
        Optional :class:`SectionTimers`; the multi-slab pipelined path
        times hidden compute under the nested ``overlap`` section and
        emits comm-lane trace spans through ``timers.tracer``.
    overlap:
        Optional :class:`OverlapCounters` receiving posted / overlapped
        bytes and wait time from the multi-slab pipelined path.
    counters:
        Optional :class:`~repro.instrument.TransformCounters`; staging
        buffers are registered as pipeline workspace so the
        zero-allocation invariant covers them.
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
        concat_sizes: list[int] | None = None,
        method: TransposeMethod | None = None,
        stages: int = DEFAULT_STAGES,
        timers: SectionTimers | None = None,
        overlap: OverlapCounters | None = None,
        counters=None,
        wire: str = "full",
        precision: PrecisionCounters | None = None,
    ) -> None:
        if wire not in ("full", "mixed"):
            raise ValueError(f"wire must be 'full' or 'mixed', got {wire!r}")
        self.comm = comm
        self.split_axis = split_axis
        self.concat_axis = concat_axis
        self.split_sizes = split_sizes
        if concat_sizes is not None and len(concat_sizes) != comm.size:
            raise ValueError(
                f"concat_sizes {concat_sizes} does not name one extent per rank of {comm.size}"
            )
        self.concat_sizes = None if concat_sizes is None else [int(c) for c in concat_sizes]
        self.method = method or TransposeMethod.ALLTOALL
        self.timers = timers
        self.overlap = overlap
        self.counters = counters
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
        self.pipelined = PipelinedTranspose(self, stages=stages)

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
        from repro.pencil.decomp import block_size

        return [block_size(n, p, i) for i in range(p)]

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
            if self.counters is not None:
                self.counters.count_workspace(buf)
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
        if self.method is TransposeMethod.PIPELINED:
            return self.pipelined.execute(a)
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


class PipelinedTranspose:
    """Staged transpose overlapping each slab's exchange with compute.

    The stage axis — ``3 - split_axis - concat_axis``, the axis local on
    both sides of the transpose — is cut into ``stages`` near-equal
    slabs.  Slab ``k``'s exchange is posted (``ialltoallv``) before slab
    ``k-1``'s is waited on, so the wire time of one slab hides behind
    the staging/assembly — and, with the compute hooks, the FFT work —
    of its neighbours:

    * ``pre(slab, k)`` — compute-then-post (the ``from_physical``
      direction): transforms slab ``k`` *before* its chunks are posted,
      running while exchange ``k-1`` is still in flight.
    * ``post(slab, k)`` — transpose-then-compute (the ``to_physical``
      direction): transforms the assembled slab ``k`` while exchange
      ``k+1`` is in flight.

    Every slab costs one exchange, so more slabs only pay where there
    is wire time to hide.  With one slab nothing could run while the
    exchange is in flight, so one slab is the blocking exchange:
    ``pre``, staging, one ``alltoall``, assembly, ``post`` — the same
    chunks, so the same bits, without the nonblocking round trip
    (sequence-tagged queues, consumption acks, per-source wake-ups).
    It posts nothing, so the overlap counters stay 0.

    Receive extents: a source's chunk spans its own block of the concat
    axis.  They come from the owning transpose's ``concat_sizes`` — a
    fact of the decomposition, so no collective runs per execute.

    Buffer ownership: posted chunks live in the owning
    :class:`GlobalTranspose`'s double-buffered staging; a parity buffer
    is refilled for slab ``k+1`` only after ``wait_acks`` confirms every
    receiver consumed slab ``k-1`` (the ack credit protocol — queued
    payloads travel by reference, so consumption must be acknowledged,
    not assumed).  Received chunks are assembled straight into the
    caller-owned output array (or a persistent slab buffer when a
    ``post`` hook reshapes the data), so the steady state allocates
    nothing beyond the returned output.

    Results are bit-for-bit identical to the synchronous methods at any
    slab count: the same chunks travel, assembly only copies, and
    the hooks process exactly the slab the synchronous path would (1-D
    FFTs are independent per pencil, so slab-wise transforms reproduce
    the full-array transforms bitwise).

    ``base`` owns this object (``base.pipelined``), so ``self.base`` is a
    weak proxy: a strong one would close a reference cycle that only the
    cyclic collector frees, keeping every buffer of a dropped driver
    alive until it runs.
    """

    def __init__(self, base: GlobalTranspose, stages: int = DEFAULT_STAGES) -> None:
        self.base = weakref.proxy(base)
        self.stages = max(1, int(stages))
        self._slab_buffers: OrderedDict[tuple, np.ndarray] = OrderedDict()

    # -- geometry --------------------------------------------------------

    @property
    def stage_axis(self) -> int:
        return 3 - self.base.split_axis - self.base.concat_axis

    def _slab_buffer(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Persistent assembly buffer for the transposed slab (post-hook
        path); pooled LRU under the same :data:`MAX_POOL_ENTRIES` cap as
        the parity staging."""
        key = (shape, dtype)
        base = self.base
        buf = self._slab_buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            base.staging_allocs += 1
            base.staging_bytes += buf.nbytes
            if base.counters is not None:
                base.counters.count_workspace(buf)
            self._slab_buffers[key] = buf
            while len(self._slab_buffers) > MAX_POOL_ENTRIES:
                _, old = self._slab_buffers.popitem(last=False)
                base.staging_bytes -= old.nbytes
                base.staging_evictions += 1
        else:
            self._slab_buffers.move_to_end(key)
        return buf

    def _recv_views(self, target: np.ndarray, stage_slice: slice | None) -> list[np.ndarray]:
        """Per-source destination views of ``target`` along the concat axis."""
        base = self.base
        views = []
        start = 0
        for size in base.concat_sizes:
            idx: list[slice] = [slice(None)] * 3
            idx[base.concat_axis] = slice(start, start + size)
            if stage_slice is not None:
                idx[self.stage_axis] = stage_slice
            views.append(target[tuple(idx)])
            start += size
        return views

    # -- hook timing -----------------------------------------------------

    def _run_hook(self, hook, slab: np.ndarray, k: int, in_flight: bool):
        base = self.base
        t0 = time.perf_counter()
        if in_flight and base.timers is not None:
            with base.timers.section(SectionTimers.OVERLAP):
                out = hook(slab, k)
        else:
            out = hook(slab, k)
        if in_flight and base.overlap is not None:
            base.overlap.overlap_seconds += time.perf_counter() - t0
        return out

    # -- the staged exchange ---------------------------------------------

    def execute(self, a: np.ndarray, pre=None, post=None) -> np.ndarray:
        """Transpose ``a`` (optionally fused with per-slab compute hooks)."""
        base = self.base
        comm = base.comm
        if a.ndim != 3:
            raise ValueError("pipelined transpose needs a 3-D block")
        stage_ax = self.stage_axis
        from repro.pencil.decomp import block_slices

        if base.concat_sizes is None:
            raise ValueError("a pipelined transpose needs concat_sizes")
        if base.concat_sizes[comm.rank] != a.shape[base.concat_axis]:
            raise ValueError(
                f"concat_sizes {base.concat_sizes} disagree with this rank's "
                f"extent {a.shape[base.concat_axis]} along axis {base.concat_axis}"
            )
        extent = a.shape[stage_ax]
        nstages = max(1, min(self.stages, extent))
        if nstages == 1:
            if pre is not None:
                a = pre(a, 0)
            out = base._blocking(a)
            return out if post is None else post(out, 0)
        slabs = block_slices(extent, nstages)
        reqs: list = [None] * nstages
        t_posts = [0.0] * nstages

        def post_stage(k: int) -> np.ndarray:
            idx: list[slice] = [slice(None)] * 3
            idx[stage_ax] = slabs[k]
            slab = a[tuple(idx)]
            if pre is not None:
                slab = self._run_hook(pre, slab, k, in_flight=k > 0)
            chunks = base._chunks(slab)
            t_posts[k] = time.perf_counter()
            reqs[k] = comm.ialltoallv(chunks)
            if base.overlap is not None:
                base.overlap.posts += 1
                base.overlap.bytes_posted += reqs[k].posted_bytes
            return slab

        first_slab = post_stage(0)
        dtype = first_slab.dtype  # the payload dtype: assembly up-casts the wire
        recv_shape = list(first_slab.shape)
        recv_shape[base.split_axis] = base._split_extents(
            first_slab.shape[base.split_axis]
        )[comm.rank]
        recv_shape[base.concat_axis] = sum(base.concat_sizes)
        out: np.ndarray | None = None
        if post is None:
            # assemble every slab straight into the final output
            recv_shape[stage_ax] = extent
            out = np.empty(tuple(recv_shape), dtype=dtype)

        for k in range(nstages):
            if k + 1 < nstages:
                if k >= 1:
                    reqs[k - 1].wait_acks()  # free the parity buffer k+1 reuses
                post_stage(k + 1)
            req = reqs[k]
            if post is None:
                req.wait(out=self._recv_views(out, slabs[k]))
            else:
                recv_shape[stage_ax] = slabs[k].stop - slabs[k].start
                block = self._slab_buffer(tuple(recv_shape), dtype)
                req.wait(out=self._recv_views(block, None))
                y = self._run_hook(post, block, k, in_flight=k + 1 < nstages)
                if out is None:
                    out_shape = list(y.shape)
                    out_shape[stage_ax] = extent
                    out = np.empty(tuple(out_shape), dtype=y.dtype)
                idx: list[slice] = [slice(None)] * 3
                idx[stage_ax] = slabs[k]
                np.copyto(out[tuple(idx)], y)
            if base.overlap is not None:
                base.overlap.waits += 1
                base.overlap.bytes_completed += req.posted_bytes
                base.overlap.bytes_overlapped += req.overlapped_bytes
                base.overlap.wait_seconds += req.waited_s
            tracer = base.timers.tracer if base.timers is not None else None
            if tracer is not None:
                tracer.add_complete(
                    f"ialltoallv s{k}",
                    t_posts[k],
                    time.perf_counter() - t_posts[k],
                    tid=1,
                    cat="comm",
                )
        # drain the tail acks so the next call may refill every parity
        for req in reqs[max(0, nstages - 2) :]:
            req.wait_acks()
        assert out is not None
        return out
