"""Thread-backed MPI subset: communicators, collectives, topologies, faults.

Every communicator owns a :class:`_Context` shared by its member
threads: a reusable barrier, an exchange board for collectives, and
point-to-point queues.  Collectives follow the deposit / barrier /
collect / barrier discipline so a board slot is never overwritten before
every member has read it.

Failure semantics are hardened for the fault-tolerant run harness: the
first failure on a communicator is *recorded* (which world rank, inside
which operation, with what error) before the barrier is aborted, so
every surviving rank raises a :class:`SimMPIError` that names the
culprit instead of deadlocking or guessing.  A barrier that released
every rank stays passed for all of them, even when one rank fails
before a peer it released has woken up: the abort belongs to whatever
comes next.  A seeded
:class:`FaultPlan` can be attached to :func:`run_spmd` to deterministically
kill a rank at the N-th collective, corrupt or drop a payload, or delay
a deposit — the failure modes a 786K-core machine serves up routinely —
and the plan follows communicator splits so faults fire inside the
pencil transpose sub-communicators too.

Two opt-in layers extend that all-or-nothing contract for elastic
degraded-mode recovery (ULFM-style shrink, cf. Diez, Peeters & Costa
2025):

* ``run_spmd(..., elastic=True)`` — when the *only* failures are rank
  deaths, surviving ranks run a deterministic agreement round
  (:meth:`_FailureDomain.agree_survivors`) instead of aborting blind:
  every live rank checks in, the dead set is frozen into one decision,
  and every survivor raises the same typed :class:`ShrinkRequired`
  carrying the agreed survivor list so a supervisor can re-plan onto
  ``P' = len(survivors)`` ranks and keep integrating.
* ``run_spmd(..., integrity=True)`` — every deposited payload travels
  inside a sender-side-checksummed envelope (checksummed *before* the
  fault-injection point, exactly the window real network/application
  CRCs cover), so an in-flight ``corrupt`` fault is *detected* by the
  receiver and surfaces as a typed :class:`SimMPIError` naming the
  culprit instead of silently poisoning the trajectory.

All timeouts derive from one env-overridable default
(``REPRO_SIMMPI_TIMEOUT``, :func:`default_timeout`): the ``recv``
timeout uses it directly, the :func:`run_spmd` join timeout is
``JOIN_TIMEOUT_FACTOR`` times it, and the agreement round waits at most
one default before freezing a decision among the ranks that checked in.

A nonblocking layer mirrors MPI-3's request model:
:meth:`Communicator.ialltoall` /
:meth:`Communicator.ialltoallv`, :meth:`Communicator.isend` and
:meth:`Communicator.irecv` return :class:`Request` handles with
``test`` / ``wait`` (plus module-level :func:`waitall`).  Posting is
queue-based and never blocks on peers — no barrier is involved — so a
rank can run FFT compute between the post and the wait.  Faults and
integrity compose exactly like the blocking calls, with MPI's deferred
error semantics: the checksum window still closes *before* the
injection point, but an injected ``kill``/``delay`` surfaces at
``wait``/``test`` time (:meth:`FaultPlan.apply_deferred`), and a
``corrupt``/``drop`` travels with the payload to be detected by every
receiver's ``wait``.  Because payloads move by reference, the buffer a
rank posted belongs to its receivers until they complete: receivers
acknowledge each consumed chunk at ``wait`` time and a sender calls
:meth:`Request.wait_acks` before refilling a staging buffer.  No
transpose calls this layer (every transpose is one blocking exchange,
DESIGN.md §6g); it stays, pinned by its fault tests, while the
end-to-end benchmark's span table wraps ``ialltoall``, ``ialltoallv``
and ``Request.wait``, and goes with the benchmark change that retires
the ``dist4_pipelined_mixed`` workload (ROADMAP item 2(d)).
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.instrument import MPICounters

#: base timeout in seconds: `recv` waits this long, the `run_spmd` join
#: waits JOIN_TIMEOUT_FACTOR times it.  Override with REPRO_SIMMPI_TIMEOUT.
DEFAULT_TIMEOUT = 30.0
JOIN_TIMEOUT_FACTOR = 4.0


def default_timeout() -> float:
    """The single configurable SimMPI timeout default (env-overridable).

    Soak runs under injected ``delay`` faults set ``REPRO_SIMMPI_TIMEOUT``
    instead of hitting hardcoded 30 s cliffs scattered across the layer.
    """
    env = os.environ.get("REPRO_SIMMPI_TIMEOUT")
    return float(env) if env else DEFAULT_TIMEOUT


def default_join_timeout() -> float:
    """Default join timeout of :func:`run_spmd` (one knob: the base default)."""
    return JOIN_TIMEOUT_FACTOR * default_timeout()


class SimMPIError(RuntimeError):
    """A collective failed (usually because a peer rank raised).

    ``rank`` is the world rank of the first recorded failure (None when
    unknown) and ``op`` the operation *this* rank was in when it found out.
    """

    def __init__(self, message: str, rank: int | None = None, op: str | None = None) -> None:
        super().__init__(message)
        self.rank = rank
        self.op = op


class RankFailure(RuntimeError):
    """A rank was killed by a :class:`FaultPlan` (simulated node death)."""

    def __init__(self, rank: int, op: str, call: int) -> None:
        super().__init__(f"rank {rank} killed by fault plan during {op!r} (call {call})")
        self.rank = rank
        self.op = op
        self.call = call


class ShrinkRequired(RuntimeError):
    """Survivor agreement concluded: the program can continue on fewer ranks.

    Raised (instead of a fatal :class:`SimMPIError`) by every surviving
    rank of an ``elastic`` SPMD program after a rank death, and re-raised
    once by :func:`run_spmd` to its caller.  ``survivors`` is the agreed,
    sorted world-rank list — identical on every rank, so a supervisor can
    deterministically re-plan the decomposition for ``len(survivors)``.
    """

    def __init__(
        self,
        survivors: Sequence[int],
        dead: Sequence[int],
        op: str | None = None,
    ) -> None:
        survivors = tuple(int(r) for r in survivors)
        dead = tuple(int(r) for r in dead)
        super().__init__(
            f"rank(s) {list(dead)} lost; {len(survivors)} survivors agreed "
            f"to shrink: {list(survivors)}"
        )
        self.survivors = survivors
        self.dead = dead
        self.op = op


class _CheckedPayload:
    """Integrity envelope: a sender-side checksum traveling with the payload.

    The checksum is computed *before* the fault-injection point, so an
    in-flight corruption is detected by every receiver — the window a
    real network/application CRC covers.
    """

    __slots__ = ("crc", "payload")

    def __init__(self, crc: Any, payload: Any) -> None:
        self.crc = crc
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<checked payload crc={self.crc!r}>"


def _payload_crc(payload: Any) -> Any:
    """CRC32 of an array payload; per-element tuple for chunk lists.

    Non-array payloads (python scalars, strings, None) return None —
    they are deposited by reference and cannot rot in flight here.
    """
    if isinstance(payload, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(payload).tobytes()) & 0xFFFFFFFF
    if isinstance(payload, (list, tuple)):
        return tuple(_payload_crc(p) for p in payload)
    return None


class _DroppedPayload:
    """Board marker left where a faulted rank's payload should have been."""

    __slots__ = ("rank", "op")

    def __init__(self, rank: int, op: str) -> None:
        self.rank = rank
        self.op = op

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<dropped payload of rank {self.rank} in {self.op!r}>"


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

_FAULT_ACTIONS = ("kill", "corrupt", "drop", "delay")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: ``action`` on ``rank``'s ``call``-th matching op.

    ``op`` filters by operation name (``"alltoall"``, ``"bcast"``,
    ``"barrier"``, ``"send"``, ...); ``None`` matches any.  ``call``
    counts that rank's matching calls from zero, so the same plan always
    fires at the same point of a deterministic program.
    """

    action: str
    rank: int
    op: str | None = None
    call: int = 0
    delay: float = 0.01

    def __post_init__(self) -> None:
        if self.action not in _FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; use {_FAULT_ACTIONS}")
        if self.call < 0:
            raise ValueError("call index must be >= 0")


class FaultPlan:
    """A seeded, deterministic schedule of :class:`FaultEvent`\\ s.

    Attached to :func:`run_spmd` (and propagated into split
    sub-communicators), the plan watches every operation; when an event's
    victim rank reaches the event's matching-call index the fault fires:

    * ``kill`` — raise :class:`RankFailure` in the victim (peers then get
      :class:`SimMPIError` through the hardened abort path),
    * ``corrupt`` — flip one seeded byte of the victim's payload copy,
    * ``drop`` — replace the payload with a marker every receiver turns
      into a :class:`SimMPIError` naming the culprit,
    * ``delay`` — sleep ``delay`` seconds before depositing.

    ``triggered`` records every fired event for assertions.
    """

    def __init__(self, events: Sequence[FaultEvent], seed: int = 0) -> None:
        self.events = tuple(events)
        self.seed = int(seed)
        self._counts = [0] * len(self.events)
        self._lock = threading.Lock()
        self.triggered: list[dict] = []

    def _match(self, world_rank: int, op: str) -> list[tuple[int, FaultEvent]]:
        """Advance the per-event call counters; return the events firing now."""
        fired: list[tuple[int, FaultEvent]] = []
        with self._lock:
            for i, e in enumerate(self.events):
                if e.rank != world_rank or (e.op is not None and e.op != op):
                    continue
                seen = self._counts[i]
                self._counts[i] = seen + 1
                if seen == e.call:
                    fired.append((i, e))
                    self.triggered.append(
                        {"action": e.action, "rank": world_rank, "op": op, "call": seen}
                    )
        return fired

    def seen(self, index: int = 0) -> int:
        """Matching calls event ``index`` has watched so far, fired or not."""
        with self._lock:
            return self._counts[index]

    def apply(self, world_rank: int, op: str, payload: Any) -> Any:
        """Run the plan for one operation; returns the (possibly faulted) payload."""
        for i, e in self._match(world_rank, op):
            if e.action == "kill":
                raise RankFailure(world_rank, op, e.call)
            if e.action == "delay":
                time.sleep(e.delay)
            elif e.action == "drop":
                payload = _DroppedPayload(world_rank, op)
            elif e.action == "corrupt":
                rng = np.random.default_rng([self.seed, world_rank, i])
                payload = _corrupt_payload(payload, rng)
        return payload

    def apply_deferred(
        self, world_rank: int, op: str, payload: Any
    ) -> tuple[Any, "RankFailure | None", float]:
        """Run the plan for a *nonblocking* operation (MPI deferred semantics).

        Payload faults (``corrupt``/``drop``) are applied immediately —
        they travel with the posted message — but ``kill`` and ``delay``
        are *returned* as ``(payload, kill_exc, delay_seconds)`` so the
        :class:`Request` can raise/stall at ``wait``/``test`` time, the
        point where a real nonblocking failure surfaces.
        """
        kill: RankFailure | None = None
        delay = 0.0
        for i, e in self._match(world_rank, op):
            if e.action == "kill":
                kill = kill or RankFailure(world_rank, op, e.call)
            elif e.action == "delay":
                delay += e.delay
            elif e.action == "drop":
                payload = _DroppedPayload(world_rank, op)
            elif e.action == "corrupt":
                rng = np.random.default_rng([self.seed, world_rank, i])
                payload = _corrupt_payload(payload, rng)
        return payload, kill, delay


def _flip_byte(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.array(arr, copy=True)
    view = out.reshape(-1).view(np.uint8)
    if view.size:
        view[int(rng.integers(view.size))] ^= 0xFF
    return out


def _corrupt_payload(payload: Any, rng: np.random.Generator) -> Any:
    if isinstance(payload, np.ndarray):
        return _flip_byte(payload, rng)
    if isinstance(payload, (list, tuple)):
        out = list(payload)
        for i, item in enumerate(out):
            if isinstance(item, np.ndarray) and item.size:
                out[i] = _flip_byte(item, rng)
                return tuple(out) if isinstance(payload, tuple) else out
    return payload


class MessageStats(MPICounters):
    """Traffic accounting, shared by all members of a communicator.

    A list/tuple payload counts one message per element (the chunks of an
    alltoall are separate wire messages); scalars and arrays count one.
    Every member's rank thread records here, and ``+=`` is not atomic:
    :meth:`record` increments, and :meth:`snapshot` reads, under the lock.
    """

    LOCKED = True

    def record(self, payload: Any) -> None:
        count = len(payload) if isinstance(payload, (list, tuple)) else 1
        nbytes = _payload_bytes(payload)
        with self._lock:
            self.messages += count
            self.bytes += nbytes


def _payload_bytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(p) for p in payload)
    return 0


class _FailureDomain:
    """Failure state shared by *every* context of one SPMD program.

    A rank can die while its peers wait on a sub-communicator barrier
    (the pencil transposes run on cart_sub splits), so aborting only the
    context where the failure surfaced would deadlock the rest.  All
    contexts derived from one root register their barriers here; the
    first failure is recorded once and every registered barrier is
    broken, so every surviving rank raises within a bounded time no
    matter which communicator it is blocked on.

    The domain also keeps the per-program failure census that elastic
    mode turns into a shrink decision: world ranks known *dead* (killed
    by a fault plan), ranks that failed some *other* way (a shrink would
    be unsound — the state of the program is suspect, not just its
    membership), and ranks that *completed* normally.  The agreement
    round (:meth:`agree_survivors`) is a deterministic membership
    protocol on top of that census.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.error = threading.Event()
        self.failure: tuple[int | None, str, str] | None = None
        self._barriers: list[threading.Barrier] = []
        # elastic-recovery census (world ranks)
        self.elastic = False
        self.integrity = False
        self.timeout = default_timeout()
        self.all_ranks: frozenset[int] = frozenset()
        self.dead: set[int] = set()
        self.other_failed: set[int] = set()
        self.completed: set[int] = set()
        self._present: set[int] = set()
        self._accounted = threading.Event()
        self._decision: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def register(self, barrier: threading.Barrier) -> None:
        with self.lock:
            self._barriers.append(barrier)

    def _check_accounted(self) -> None:
        """Under ``self.lock``: wake the agreement once every rank is classed."""
        known = self._present | self.dead | self.other_failed | self.completed
        if self.all_ranks and known >= self.all_ranks:
            self._accounted.set()

    def fail(self, world_rank: int | None, op: str, exc: BaseException) -> None:
        with self.lock:
            if self.failure is None:
                self.failure = (world_rank, op, f"{type(exc).__name__}: {exc}")
            if isinstance(exc, RankFailure):
                self.dead.add(exc.rank)
            elif not isinstance(exc, (SimMPIError, ShrinkRequired)):
                # a consequence error (peer abort, agreed shrink) is not a
                # new cause; anything else marks this rank genuinely failed
                if world_rank is not None:
                    self.other_failed.add(world_rank)
            self._check_accounted()
            barriers = list(self._barriers)
        self.error.set()
        for b in barriers:
            b.abort()

    def mark_completed(self, world_rank: int) -> None:
        with self.lock:
            self.completed.add(world_rank)
            self._check_accounted()

    def abort(self) -> None:
        with self.lock:
            barriers = list(self._barriers)
        self.error.set()
        for b in barriers:
            b.abort()

    # -- survivor agreement ---------------------------------------------

    def shrinkable(self) -> bool:
        """True when the only failures so far are rank deaths (elastic mode)."""
        with self.lock:
            return self.elastic and bool(self.dead) and not self.other_failed

    def agree_survivors(self, world_rank: int, op: str) -> ShrinkRequired:
        """Deterministic agreement round; returns this rank's ShrinkRequired.

        Every surviving rank checks in and waits until all world ranks
        are accounted for (present, dead, completed or otherwise failed),
        then the *first* rank to conclude freezes the decision — the
        sorted set of non-dead accounted ranks — and every later caller
        returns that same frozen decision.  A rank that misses the
        window (stuck past one default timeout) is treated as lost,
        exactly like a real membership protocol would.
        """
        with self.lock:
            self._present.add(world_rank)
            self._check_accounted()
        self._accounted.wait(timeout=self.timeout)
        with self.lock:
            if self._decision is None:
                if self._accounted.is_set():
                    survivors = sorted(self.all_ranks - self.dead - self.other_failed)
                else:  # stragglers: agree among the ranks that checked in
                    survivors = sorted(
                        (self._present | self.completed) - self.dead - self.other_failed
                    )
                dead = sorted(self.all_ranks - set(survivors))
                self._decision = (tuple(survivors), tuple(dead))
            survivors, dead = self._decision
        return ShrinkRequired(survivors, dead, op=op)

    def peer_error(self, op: str, world_rank: int | None = None) -> RuntimeError:
        """The typed error a rank observing a failure should raise.

        In elastic mode, when the only recorded failures are rank deaths,
        this runs the agreement round and returns :class:`ShrinkRequired`;
        otherwise the classic culprit-naming :class:`SimMPIError`.
        """
        if world_rank is not None and self.shrinkable():
            return self.agree_survivors(world_rank, op)
        with self.lock:
            failure = self.failure
        if failure is None:
            return SimMPIError(f"collective {op!r} aborted: a peer rank failed", op=op)
        fr, fop, fmsg = failure
        return SimMPIError(
            f"collective {op!r} aborted: rank {fr} failed during {fop!r} ({fmsg})",
            rank=fr,
            op=op,
        )


class _Generations:
    """A barrier's ``action``: counts the generations it released, or
    breaks the barrier instead once a party has refused it.

    The last party runs it under the barrier's own lock, before it wakes
    the others, so it costs no extra lock round."""

    __slots__ = ("count", "refused")

    def __init__(self) -> None:
        self.count = 0
        self.refused = False

    def __call__(self) -> None:
        if self.refused:
            raise threading.BrokenBarrierError  # nobody passes
        self.count += 1


class _Context:
    """Shared state of one communicator (one instance per comm, not per rank)."""

    def __init__(self, size: int, domain: _FailureDomain | None = None) -> None:
        self.size = size
        self.passed = _Generations()
        self.barrier = threading.Barrier(size, action=self.passed)
        self.board: list[Any] = [None] * size
        self.lock = threading.Lock()
        self.domain = domain if domain is not None else _FailureDomain()
        self.domain.register(self.barrier)
        self.fault_plan: FaultPlan | None = None
        self.queues: dict[tuple[int, int, Any], queue.Queue] = {}
        self.stats = MessageStats()
        self._scratch: dict[str, Any] = {}
        # per-local-rank nonblocking sequence counters: each rank thread
        # only touches its own dict, so no lock is needed.  SPMD-
        # deterministic programs issue matching ops in the same order on
        # every rank, which is what aligns the sequence-tagged queues.
        self._nb_seq: list[dict[Any, int]] = [{} for _ in range(size)]

    @property
    def error(self) -> threading.Event:
        return self.domain.error

    def queue_for(self, src: int, dst: int, tag: Any) -> queue.Queue:
        key = (src, dst, tag)
        with self.lock:
            if key not in self.queues:
                self.queues[key] = queue.Queue()
            return self.queues[key]

    def take(self, src: int, dst: int, tag: Any, timeout: float | None = None) -> Any:
        """Consume the single item of a sequence-tagged nonblocking
        channel and drop the channel (raises :class:`queue.Empty` when
        nothing arrived within ``timeout``; None: do not block).

        Each ``("__nb__"|"__nback__", ..., seq)`` channel carries exactly
        one payload or ack, so once that is consumed nobody will look the
        channel up again — without the drop every exchange would leave
        its queues behind for the life of the communicator.
        """
        q = self.queue_for(src, dst, tag)
        item = q.get_nowait() if timeout is None else q.get(timeout=timeout)
        with self.lock:
            del self.queues[(src, dst, tag)]
        return item

    def next_seq(self, rank: int, key: Any) -> int:
        seq = self._nb_seq[rank].get(key, 0)
        self._nb_seq[rank][key] = seq + 1
        return seq

    def sync(self, op: str = "collective", world_rank: int | None = None) -> None:
        if self.domain.error.is_set():
            raise self.domain.peer_error(op, world_rank)
        generation = self.passed.count
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError as exc:
            # a party already released, but not yet awake, sees a later
            # abort as a broken barrier: if this generation was released,
            # the barrier completed and the abort belongs to what follows
            if self.passed.count != generation:
                return
            raise self.domain.peer_error(op, world_rank) from exc

    def fail(self, world_rank: int | None, op: str, exc: BaseException) -> None:
        """Record the first failure (who, where, what), then break every
        barrier of the program so no rank stays blocked."""
        self.domain.fail(world_rank, op, exc)

    def abort(self) -> None:
        self.domain.abort()


# ----------------------------------------------------------------------
# nonblocking requests
# ----------------------------------------------------------------------

_POLL_S = 0.05


class Request:
    """Handle of an outstanding nonblocking operation (MPI_Request subset).

    ``test()`` makes progress without blocking and reports completion;
    ``wait()`` blocks — abort-responsively, like ``recv`` — until the
    operation completes and returns its result.  Deferred faults (a
    ``kill`` or ``delay`` injected at post time) surface here, matching
    MPI's rule that nonblocking errors are reported at completion.

    Overlap accounting: ``overlapped_bytes`` counts payload bytes that
    were already delivered when the request first had to check — i.e.
    communication fully hidden behind whatever compute ran between post
    and wait — and ``waited_s`` accumulates time spent blocked inside
    ``wait``.  ``posted_bytes`` is the off-rank volume posted.
    """

    def __init__(self, comm: "Communicator", op: str, kill: RankFailure | None,
                 delay: float) -> None:
        self._comm = comm
        self._op = op
        self._kill = kill
        self._ready_at = time.monotonic() + delay if delay else 0.0
        self._done = False
        self._result: Any = None
        self.posted_bytes = 0
        self.overlapped_bytes = 0
        self.waited_s = 0.0

    # -- shared plumbing -------------------------------------------------

    def _check_abort(self) -> None:
        dom = self._comm._ctx.domain
        if dom.error.is_set():
            raise dom.peer_error(self._op, self._comm._world_rank)

    def _raise_kill(self) -> None:
        if self._kill is not None:
            raise self._kill

    def _delay_pending(self) -> bool:
        return bool(self._ready_at) and time.monotonic() < self._ready_at

    def _timeout_fail(self, timeout: float) -> "SimMPIError":
        exc = TimeoutError(f"{self._op} wait timed out after {timeout:g}s")
        self._comm._ctx.fail(self._comm._world_rank, self._op, exc)
        return SimMPIError(
            f"{self._op} wait timed out after {timeout:g}s", op=self._op
        )

    def _progress(self) -> bool:
        """Nonblocking progress; True when the payload side is complete."""
        return True

    def _block_for(self, seconds: float) -> None:
        """Park until new input may be available (at most ``seconds``).

        Subclasses block on one of their missing queues so a wait wakes
        the moment a payload lands instead of on the next poll tick; the
        ``seconds`` bound (<= ``_POLL_S``) keeps the wait abort-responsive.
        """
        time.sleep(seconds)

    def _complete(self, out: Any) -> Any:
        """Open/assemble the result once progress is done (may raise)."""
        return None

    # -- public API ------------------------------------------------------

    def test(self) -> bool:
        """Nonblocking completion probe (faults surface here too)."""
        self._check_abort()
        self._raise_kill()
        if self._done:
            return True
        return self._progress() and not self._delay_pending()

    def wait(self, out: Any = None, timeout: float | None = None) -> Any:
        """Block until complete; returns the operation's result.

        ``out`` optionally receives the payload in place (a preallocated
        array for ``irecv``, a list of destination views for
        ``ialltoall``), keeping the steady state allocation-free.
        """
        if self._done:
            return self._result
        self._check_abort()
        self._raise_kill()
        ctx = self._comm._ctx
        if timeout is None:
            timeout = ctx.domain.timeout
        t0 = time.monotonic()
        deadline = t0 + timeout
        # first probe is free: anything already here overlapped with compute
        ready = self._progress()
        while not ready or self._delay_pending():
            self._check_abort()
            if time.monotonic() >= deadline:
                raise self._timeout_fail(timeout)
            now = time.monotonic()
            bound = min(_POLL_S, max(deadline - now, 0.0))
            if ready and self._ready_at:
                # payload complete, only an injected delay pends: sleep
                # exactly to the stall's end, not a full poll tick
                bound = min(bound, max(self._ready_at - now, 0.0))
            self._block_for(bound)
            ready = self._progress()
        self._result = self._complete(out)
        self._done = True
        self.waited_s += time.monotonic() - t0
        return self._result

    def wait_acks(self, timeout: float | None = None) -> None:
        """Block until every receiver has consumed this rank's payload.

        The credit half of the double-buffer protocol: a sender may only
        refill a posted staging buffer after ``wait_acks`` returns,
        because queued payloads travel by reference.  Acks are emitted by
        the *nonblocking* completion path (``irecv``/``ialltoall`` wait),
        which is the only consumer the protocol pairs with.
        """
        return None


class _AlltoallRequest(Request):
    """Outstanding ``ialltoall``/``ialltoallv``: one chunk from every rank."""

    def __init__(self, comm: "Communicator", op: str, seq: int,
                 chunks: Sequence[Any], kill: RankFailure | None,
                 delay: float) -> None:
        super().__init__(comm, op, kill, delay)
        self._seq = seq
        self._got: list[Any] = [None] * comm.size
        self._missing = set(range(comm.size))
        self._acks_missing = set(range(comm.size))
        self._first_probe = True
        self.posted_bytes = _payload_bytes(
            [c for d, c in enumerate(chunks) if d != comm.rank]
        )

    def _progress(self) -> bool:
        ctx = self._comm._ctx
        me = self._comm.rank
        arrived = 0
        for src in tuple(self._missing):
            try:
                self._got[src] = ctx.take(src, me, ("__nb__", self._op, self._seq))
            except queue.Empty:
                continue
            self._missing.discard(src)
            arrived += 1
        if self._first_probe:
            # everything present before we ever had to check was fully
            # hidden behind the compute that ran since the post
            self._first_probe = False
            for src in range(self._comm.size):
                if src not in self._missing and src != me:
                    self.overlapped_bytes += _payload_bytes(
                        _strip_envelope(self._got[src])
                    )
        return not self._missing

    def _block_for(self, seconds: float) -> None:
        if not self._missing:  # payload done, only an injected delay pends
            time.sleep(seconds)
            return
        src = next(iter(self._missing))
        try:
            self._got[src] = self._comm._ctx.take(
                src, self._comm.rank, ("__nb__", self._op, self._seq), timeout=seconds
            )
            self._missing.discard(src)
        except queue.Empty:
            pass

    def _complete(self, out: Any) -> list[Any]:
        comm = self._comm
        ctx = comm._ctx
        received = []
        for src in range(comm.size):
            chunk = comm._open(self._got[src], self._op, src)
            if out is not None:
                np.copyto(out[src], chunk)
                chunk = out[src]
            received.append(chunk)
            self._got[src] = None
            # consumption ack: the sender's staging slot for us is free
            ctx.queue_for(comm.rank, src, ("__nback__", self._op, self._seq)).put(True)
        return received

    def wait_acks(self, timeout: float | None = None) -> None:
        comm = self._comm
        ctx = comm._ctx
        if timeout is None:
            timeout = ctx.domain.timeout
        deadline = time.monotonic() + timeout
        while self._acks_missing:
            self._check_abort()
            for dst in tuple(self._acks_missing):
                try:
                    ctx.take(dst, comm.rank, ("__nback__", self._op, self._seq))
                    self._acks_missing.discard(dst)
                except queue.Empty:
                    pass
            if not self._acks_missing:
                return
            if time.monotonic() >= deadline:
                raise self._timeout_fail(timeout)
            dst = next(iter(self._acks_missing))
            try:
                ctx.take(
                    dst,
                    comm.rank,
                    ("__nback__", self._op, self._seq),
                    timeout=min(_POLL_S, max(deadline - time.monotonic(), 0.0)),
                )
                self._acks_missing.discard(dst)
            except queue.Empty:
                pass


class _SendRequest(Request):
    """Outstanding ``isend``: payload is already queued; wait surfaces faults."""

    def __init__(self, comm: "Communicator", dest: int, tag: int, seq: int,
                 obj: Any, kill: RankFailure | None, delay: float) -> None:
        super().__init__(comm, "isend", kill, delay)
        self._dest = dest
        self._tag = tag
        self._seq = seq
        self._acked = False
        self.posted_bytes = _payload_bytes(obj)

    def wait_acks(self, timeout: float | None = None) -> None:
        comm = self._comm
        ctx = comm._ctx
        if self._acked:
            return
        if timeout is None:
            timeout = ctx.domain.timeout
        deadline = time.monotonic() + timeout
        while True:
            self._check_abort()
            try:
                ctx.take(
                    self._dest,
                    comm.rank,
                    ("__nback__", "p2p", self._tag, self._seq),
                    timeout=min(_POLL_S, max(deadline - time.monotonic(), 0.0)),
                )
                self._acked = True
                return
            except queue.Empty:
                pass
            if time.monotonic() >= deadline:
                raise self._timeout_fail(timeout)


class _RecvRequest(Request):
    """Outstanding ``irecv``: completes when the matching isend's payload lands."""

    def __init__(self, comm: "Communicator", source: int, tag: int, seq: int) -> None:
        super().__init__(comm, "irecv", None, 0.0)
        self._source = source
        self._tag = tag
        self._seq = seq
        self._entry: Any = None
        self._have = False
        self._first_probe = True

    def _progress(self) -> bool:
        if self._have:
            return True
        try:
            self._entry = self._comm._ctx.take(
                self._source, self._comm.rank, ("__nb__", "p2p", self._tag, self._seq)
            )
            self._have = True
        except queue.Empty:
            pass
        if self._first_probe:
            self._first_probe = False
            if self._have:
                self.overlapped_bytes += _payload_bytes(_strip_envelope(self._entry))
        return self._have

    def _block_for(self, seconds: float) -> None:
        if self._have:
            time.sleep(seconds)
            return
        try:
            self._entry = self._comm._ctx.take(
                self._source,
                self._comm.rank,
                ("__nb__", "p2p", self._tag, self._seq),
                timeout=seconds,
            )
            self._have = True
        except queue.Empty:
            pass

    def _complete(self, out: Any) -> Any:
        comm = self._comm
        got = comm._open(self._entry, "irecv", self._source)
        self._entry = None
        if out is not None:
            np.copyto(out, got)
            got = out
        comm._ctx.queue_for(
            comm.rank, self._source, ("__nback__", "p2p", self._tag, self._seq)
        ).put(True)
        return got


def _strip_envelope(entry: Any) -> Any:
    return entry.payload if isinstance(entry, _CheckedPayload) else entry


def waitall(requests: Sequence[Request], timeout: float | None = None) -> list[Any]:
    """Complete every request in order; returns their results.

    Queues buffer, so sequential completion is semantically equivalent to
    round-robin progress — a later request's payload keeps arriving while
    an earlier one is waited on.
    """
    return [r.wait(timeout=timeout) for r in requests]


class Communicator:
    """Per-rank handle onto a shared communicator context."""

    def __init__(self, context: _Context, rank: int, world_ranks: Sequence[int]) -> None:
        self._ctx = context
        self.rank = rank
        self.size = context.size
        #: global (world) rank ids of the members, indexed by local rank
        self.world_ranks = tuple(world_ranks)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    @property
    def stats(self) -> MessageStats:
        return self._ctx.stats

    # ------------------------------------------------------------------
    # fault-injection / integrity plumbing
    # ------------------------------------------------------------------

    @property
    def _world_rank(self) -> int:
        return self.world_ranks[self.rank]

    def _sync(self, op: str) -> None:
        self._ctx.sync(op, self._world_rank)

    def _inject(self, op: str, payload: Any) -> Any:
        """Deposit-side pipeline: checksum (optional), then fault-inject.

        With integrity enabled the checksum is computed *before* the
        fault fires, so in-flight corruption is detectable downstream.
        """
        integrity = self._ctx.domain.integrity
        crc = _payload_crc(payload) if integrity else None
        plan = self._ctx.fault_plan
        if plan is not None:
            payload = plan.apply(self._world_rank, op, payload)
        if integrity:
            return _CheckedPayload(crc, payload)
        return payload

    def _open(self, entry: Any, op: str, src: int, *, chunk: int | None = None) -> Any:
        """Receive-side pipeline: unwrap, surface drops, verify checksums.

        ``src`` is the local rank the entry came from; ``chunk`` selects
        one element of a deposited chunk list (alltoall), verified
        against its own per-chunk checksum.
        """
        crc = None
        if isinstance(entry, _CheckedPayload):
            crc, entry = entry.crc, entry.payload
        if isinstance(entry, _DroppedPayload):
            raise SimMPIError(
                f"rank {entry.rank} dropped its {entry.op!r} payload "
                f"(detected in {op!r})",
                rank=entry.rank,
                op=op,
            )
        if chunk is not None:
            crc = crc[chunk] if isinstance(crc, (list, tuple)) else None
            entry = entry[chunk]
        if crc is not None and _payload_crc(entry) != crc:
            raise SimMPIError(
                f"corrupt payload from rank {self.world_ranks[src]} detected "
                f"in {op!r} (checksum mismatch)",
                rank=self.world_ranks[src],
                op=op,
            )
        return entry

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> None:
        self._inject("barrier", None)
        self._sync("barrier")

    def break_barrier(self) -> None:
        """Arrive at the next barrier and break it once every member has
        arrived: nobody passes, so each peer's :meth:`barrier` raises.  A
        rank that must fail a collective phase calls this first, so it
        fails only after every peer has reached that phase.  No fault is
        injected: the call counts fault plans are placed by stay as they
        were without it."""
        ctx = self._ctx
        ctx.passed.refused = True
        try:
            ctx.barrier.wait()
        except threading.BrokenBarrierError:
            pass

    def bcast(self, obj: Any, root: int = 0) -> Any:
        ctx = self._ctx
        if self.rank == root:
            ctx.board[root] = self._inject("bcast", obj)
        self._sync("bcast")
        out = self._open(ctx.board[root], "bcast", root)
        if self.rank != root:
            ctx.stats.record(out)
        self._sync("bcast")
        return out

    def allgather(self, obj: Any, _op: str = "allgather") -> list[Any]:
        ctx = self._ctx
        ctx.board[self.rank] = self._inject(_op, obj)
        self._sync(_op)
        out = [self._open(entry, _op, src) for src, entry in enumerate(ctx.board)]
        ctx.stats.record([o for i, o in enumerate(out) if i != self.rank])
        self._sync(_op)
        return out

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        out = self.allgather(obj, _op="gather")
        return out if self.rank == root else None

    def alltoall(self, chunks: Sequence[Any]) -> list[Any]:
        """Each rank sends ``chunks[d]`` to rank ``d``; returns what it got.

        Variable-size payloads (alltoallv) are the same call — chunks are
        arbitrary NumPy arrays.
        """
        ctx = self._ctx
        if len(chunks) != self.size:
            raise ValueError(f"need {self.size} chunks, got {len(chunks)}")
        ctx.board[self.rank] = self._inject("alltoall", chunks)
        self._sync("alltoall")
        received = [
            self._open(ctx.board[src], "alltoall", src, chunk=self.rank)
            for src in range(self.size)
        ]
        ctx.stats.record([c for d, c in enumerate(chunks) if d != self.rank])
        self._sync("alltoall")
        return received

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        vals = self.allgather(value, _op="allreduce")
        if op is None:
            out = vals[0]
            for v in vals[1:]:
                out = out + v
            return out
        out = vals[0]
        for v in vals[1:]:
            out = op(out, v)
        return out

    def reduce(self, value: Any, op=None, root: int = 0) -> Any | None:
        out = self.allreduce(value, op)
        return out if self.rank == root else None

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        wire = self._inject("send", obj)
        self._ctx.queue_for(self.rank, dest, tag).put(wire)
        self._ctx.stats.record(obj)

    def recv(self, source: int, tag: int = 0, timeout: float | None = None) -> Any:
        """Receive from ``source``; default timeout is the context default.

        The wait is abort-responsive: a peer failure recorded on the
        failure domain releases a blocked receiver within one poll
        interval instead of letting it sit out the whole timeout.
        """
        ctx = self._ctx
        if timeout is None:
            timeout = ctx.domain.timeout
        q = ctx.queue_for(source, self.rank, tag)
        deadline = time.monotonic() + timeout
        while True:
            try:
                got = q.get_nowait()
                break
            except queue.Empty:
                pass
            if ctx.domain.error.is_set():
                raise ctx.domain.peer_error("recv", self._world_rank)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                exc = TimeoutError(f"recv from {source} timed out after {timeout:g}s")
                ctx.fail(self._world_rank, "recv", exc)
                raise SimMPIError(
                    f"recv from {source} timed out after {timeout:g}s",
                    rank=self.world_ranks[source],
                    op="recv",
                ) from exc
            try:
                got = q.get(timeout=min(0.05, remaining))
                break
            except queue.Empty:
                continue
        return self._open(got, "recv", source)

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # ------------------------------------------------------------------
    # nonblocking operations
    # ------------------------------------------------------------------

    def _inject_deferred(self, op: str, payload: Any) -> tuple[Any, RankFailure | None, float]:
        """Deposit-side pipeline for nonblocking posts: checksum first,
        then fault-inject with kill/delay deferred to wait/test time."""
        plan = self._ctx.fault_plan
        if plan is None:
            return payload, None, 0.0
        return plan.apply_deferred(self._world_rank, op, payload)

    def ialltoall(self, chunks: Sequence[Any], _op: str = "ialltoall") -> Request:
        """Nonblocking alltoall: post now, overlap compute, ``wait`` later.

        Posting never blocks on peers (no barrier): each chunk goes into
        a sequence-tagged point-to-point queue, so a rank is free to run
        FFT compute until ``Request.wait`` collects the incoming chunks.
        A killed sender posts *nothing* (it died before the send) and its
        own ``wait``/``test`` raises the deferred :class:`RankFailure`,
        which releases blocked peers through the failure domain.
        """
        ctx = self._ctx
        if len(chunks) != self.size:
            raise ValueError(f"need {self.size} chunks, got {len(chunks)}")
        integrity = ctx.domain.integrity
        crcs = [_payload_crc(c) for c in chunks] if integrity else None
        payload, kill, delay = self._inject_deferred(_op, list(chunks))
        seq = ctx.next_seq(self.rank, (_op,))
        if kill is None:
            for dst in range(self.size):
                if isinstance(payload, _DroppedPayload):
                    wire: Any = payload
                else:
                    wire = payload[dst]
                    if integrity:
                        wire = _CheckedPayload(crcs[dst], wire)
                ctx.queue_for(self.rank, dst, ("__nb__", _op, seq)).put(wire)
            ctx.stats.record([c for d, c in enumerate(chunks) if d != self.rank])
        return _AlltoallRequest(self, _op, seq, chunks, kill, delay)

    def ialltoallv(self, chunks: Sequence[Any]) -> Request:
        """Variable-size nonblocking alltoall.

        Chunks are arbitrary (per-destination-shaped) arrays, exactly
        like the blocking ``alltoall`` — kept as a named alias so call
        sites read like their MPI counterparts.
        """
        return self.ialltoall(chunks, _op="ialltoallv")

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; the matching receive is :meth:`irecv`.

        The returned request's ``wait`` surfaces deferred faults;
        ``wait_acks`` blocks until the receiver consumed the payload
        (required before reusing a posted buffer — payloads travel by
        reference).
        """
        ctx = self._ctx
        integrity = ctx.domain.integrity
        crc = _payload_crc(obj) if integrity else None
        wire, kill, delay = self._inject_deferred("isend", obj)
        seq = ctx.next_seq(self.rank, ("p2p-send", dest, tag))
        if kill is None:
            if integrity:
                wire = _CheckedPayload(crc, wire)
            ctx.queue_for(self.rank, dest, ("__nb__", "p2p", tag, seq)).put(wire)
            ctx.stats.record(obj)
        return _SendRequest(self, dest, tag, seq, obj, kill, delay)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive; ``wait`` returns the payload (into ``out``
        if given) and acknowledges consumption to the sender."""
        seq = self._ctx.next_seq(self.rank, ("p2p-recv", source, tag))
        return _RecvRequest(self, source, tag, seq)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """MPI_Comm_split: one sub-communicator per distinct color."""
        ctx = self._ctx
        key = self.rank if key is None else key
        ctx.board[self.rank] = (color, key)
        self._sync("split")
        entries = list(ctx.board)  # [(color, key)] indexed by rank
        self._sync("split")
        members = sorted(
            (r for r in range(self.size) if entries[r][0] == color),
            key=lambda r: (entries[r][1], r),
        )
        # Deterministically share fresh contexts: lowest member builds them.
        with ctx.lock:
            store = ctx._scratch.setdefault("split", {})
            gen = ctx._scratch.setdefault("split_gen", [0])[0]
            key2 = (gen, color)
            if key2 not in store:
                # the sub-context joins the parent's failure domain and
                # keeps its fault plan: faults must keep firing — and
                # aborts must keep propagating — inside sub-communicators
                # (the pencil transposes run on cart_sub splits)
                sub = _Context(len(members), domain=ctx.domain)
                sub.fault_plan = ctx.fault_plan
                store[key2] = sub
            sub_ctx = store[key2]
        self._sync("split")
        if self.rank == 0:
            with ctx.lock:
                ctx._scratch["split_gen"][0] += 1
                ctx._scratch["split"] = {}
        new_rank = members.index(self.rank)
        world = [self.world_ranks[m] for m in members]
        return Communicator(sub_ctx, new_rank, world)

    def cart_create(self, dims: Sequence[int]) -> "CartesianCommunicator":
        """MPI_Cart_create (periodic flags irrelevant for transposes)."""
        if int(np.prod(dims)) != self.size:
            raise ValueError(f"dims {tuple(dims)} do not multiply to size {self.size}")
        return CartesianCommunicator(self._ctx, self.rank, self.world_ranks, tuple(dims))


class CartesianCommunicator(Communicator):
    """A communicator with an attached cartesian process grid."""

    def __init__(self, context, rank, world_ranks, dims: tuple[int, ...]) -> None:
        super().__init__(context, rank, world_ranks)
        self.dims = dims

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's cartesian coordinates (row-major, like MPI)."""
        return tuple(int(c) for c in np.unravel_index(self.rank, self.dims))

    def cart_sub(self, remain_dims: Sequence[bool]) -> Communicator:
        """MPI_Cart_sub: keep the dimensions flagged True, split on the rest."""
        if len(remain_dims) != len(self.dims):
            raise ValueError("remain_dims length must match dims")
        coords = self.coords
        dropped = tuple(c for c, keep in zip(coords, remain_dims) if not keep)
        kept = tuple(c for c, keep in zip(coords, remain_dims) if keep)
        kept_dims = tuple(d for d, keep in zip(self.dims, remain_dims) if keep)
        color = int(np.ravel_multi_index(dropped, tuple(
            d for d, keep in zip(self.dims, remain_dims) if not keep
        ))) if dropped else 0
        key = int(np.ravel_multi_index(kept, kept_dims)) if kept else 0
        return self.split(color, key)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    elastic: bool = False,
    integrity: bool = False,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` simulated ranks; gather returns.

    Exceptions in any rank abort the whole program (surviving ranks raise
    :class:`SimMPIError` carrying the failed rank and operation) and
    re-raise the first root-cause failure in the caller.  An optional
    ``fault_plan`` injects deterministic rank kills, payload corruption,
    drops or delays.

    ``timeout`` is the per-thread join ceiling; None means the
    env-overridable default (:func:`default_join_timeout`).  With
    ``elastic=True`` a pure rank-death failure ends in one agreed
    :class:`ShrinkRequired` (carrying the survivor list) instead of the
    victim's :class:`RankFailure`.  With ``integrity=True`` every payload
    travels checksummed, so corruption is detected at the receiver.
    """
    if timeout is None:
        timeout = default_join_timeout()
    ctx = _Context(nranks)
    ctx.fault_plan = fault_plan
    dom = ctx.domain
    dom.elastic = elastic
    dom.integrity = integrity
    dom.all_ranks = frozenset(range(nranks))
    results: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks

    def worker(rank: int) -> None:
        comm = Communicator(ctx, rank, range(nranks))
        try:
            results[rank] = fn(comm, *args)
            dom.mark_completed(rank)
        except ShrinkRequired as exc:
            # an agreed shrink is an outcome, not a new failure: the
            # domain is already aborted and the census already complete
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - must not deadlock peers
            errors[rank] = exc
            # when the exception already names a culprit rank (a detected
            # drop, a RankFailure), record *that* rank as the failure's
            # origin, not the rank that happened to notice first
            culprit = getattr(exc, "rank", None)
            ctx.fail(
                culprit if culprit is not None else rank,
                getattr(exc, "op", None) or "program",
                exc,
            )

    threads = [threading.Thread(target=worker, args=(r,), daemon=True) for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            ctx.abort()
            raise SimMPIError("SPMD program timed out (deadlock?)")
    failure = _root_cause(errors)
    if failure is None:
        return results
    _drop_frames(errors)
    # neither this frame nor the workers' closures may hold the raised
    # exception once its traceback holds this frame: that is a cycle
    errors.clear()
    try:
        raise failure
    finally:
        failure = None


def _root_cause(errors: Sequence[BaseException | None]) -> BaseException | None:
    """The rank failure :func:`run_spmd` re-raises (None: every rank
    returned): a genuine program bug outranks everything, an agreed
    shrink supersedes the kill that caused it, and a rank's own failure
    outranks the peers' :class:`SimMPIError` consequences."""
    for exc in errors:
        if exc is not None and not isinstance(
            exc, (SimMPIError, RankFailure, ShrinkRequired)
        ):
            return exc
    shrink = next((e for e in errors if isinstance(e, ShrinkRequired)), None)
    if shrink is not None:
        return shrink
    for exc in errors:
        if exc is not None and not isinstance(exc, SimMPIError):
            return exc
    return next((e for e in errors if e is not None), None)


def _drop_frames(errors: Sequence[BaseException | None]) -> None:
    """Clear the locals of every finished rank frame the ``errors`` and
    their chained causes passed through, so a rank's exception no longer
    holds its driver.  The type, the message and the traceback text stay."""
    pending, seen = list(errors), set()
    while pending:
        e = pending.pop()
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        traceback.clear_frames(e.__traceback__)
        pending += [e.__cause__, e.__context__]
