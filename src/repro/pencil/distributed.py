"""Distributed channel DNS on the pencil decomposition.

Each SimMPI rank owns a y-pencil block of the spectral state (a slab of
(kx, kz) modes with all of y local), so the Helmholtz solves and the
whole Navier–Stokes time advance are rank-local — exactly the paper's
§2.2 design.  Only the nonlinear-term evaluation touches the network,
through the :class:`~repro.pencil.parallel_fft.PencilTransforms`
pipeline: 2 global transposes per field per direction (y→z then z→x
on the way to physical space, x→z then z→y back), 48 exchanges per
RK3 step.

The distributed trajectory is bit-for-bit the serial one, on even and
uneven blocks and with every transpose method;
``tests/pencil/test_distributed.py`` pins that.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.checkpoint import ShardedCheckpointRotation
from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.supervisor import Supervisor, SupervisorPolicy
from repro.core.timestepper import ChannelState
from repro.core.velocity import recover_uw
from repro.instrument import SectionTimers
from repro.mpi.simmpi import Communicator, run_spmd
from repro.pencil.decomp import block_range
from repro.pencil.parallel_fft import PencilTransforms
from repro.pencil.transpose import DEFAULT_STAGES, TransposeMethod


class DistributedChannelDNS(ChannelDNS):
    """The pencil layout of :class:`~repro.core.solver.ChannelDNS`, one
    per rank (construct inside an SPMD function).

    The step loop, the diagnostics and the streaming hook are the base
    driver's; this class holds only what a decomposed run has and a
    serial one does not — the cartesian communicator and
    :class:`PencilTransforms`, scatter/gather of full states, and the
    sharded checkpoint entry points.

    Parameters
    ----------
    comm:
        World communicator of the SPMD program.
    config:
        The same :class:`~repro.core.solver.ChannelConfig` the serial
        driver takes.
    pa, pb:
        Process grid; ``pa * pb == comm.size``.
    telemetry:
        Optional structured run recording (:mod:`repro.telemetry`): a
        directory, :class:`~repro.telemetry.TelemetryConfig` or built
        :class:`~repro.telemetry.RunRecorder`.  Every rank writes its
        own ``telemetry-rankNNN.jsonl`` stream and ``trace-rankNNN.json``
        Chrome trace (merge with
        :func:`repro.telemetry.merge_traces`); rank 0 writes the run
        manifest.
    wire_precision:
        ``"full"`` (default) or ``"mixed"`` — mixed down-casts transpose
        payloads to float32/complex64 on the wire with float64
        accumulation in the solves; the trajectory then matches the
        full-precision one to the documented single-precision tolerance
        (DESIGN.md §6h), not bit-for-bit.
    stages:
        Slab count of pipelined transposes; any count gives the same
        bits.  One slab (the default) is one blocking ``alltoall`` per
        transpose; more post one ``ialltoallv`` per slab
        (:func:`~repro.pencil.transpose.exchange_op`).
    """

    def __init__(
        self,
        comm: Communicator,
        config: ChannelConfig,
        pa: int,
        pb: int,
        method: TransposeMethod | None = None,
        telemetry=None,
        wire_precision: str = "full",
        stages: int = DEFAULT_STAGES,
    ) -> None:
        if pa * pb != comm.size:
            raise ValueError(f"{pa} x {pb} != {comm.size} ranks")
        self.cart = comm.cart_create((pa, pb))
        self._layout_args = (comm, method, wire_precision, stages)
        super().__init__(config, telemetry)

    def _layout(self):
        """The pencil layout: the world communicator, this rank's pencil
        decomposition and the transposing transforms (collective)."""
        comm, method, wire, stages = self._layout_args
        cfg = self.config
        transforms = PencilTransforms(
            self.cart,
            cfg.nx,
            cfg.ny,
            cfg.nz,
            dealias=True,
            method=method,
            timers=self.timers,
            wire=wire,
            stages=stages,
        )
        return comm, transforms.decomp, transforms

    # ------------------------------------------------------------------

    def scatter_state(self, full: ChannelState) -> ChannelState:
        """This rank's slab of a full (serial-layout) state."""
        d = self.decomp
        owns_mean = self.modes.owns_mean
        return ChannelState(
            v=np.ascontiguousarray(full.v[d.x_slice, d.z_spec_slice]),
            omega_y=np.ascontiguousarray(full.omega_y[d.x_slice, d.z_spec_slice]),
            u00=full.u00.copy() if owns_mean else None,
            w00=full.w00.copy() if owns_mean else None,
            time=full.time,
        )

    def gather_state(self) -> ChannelState | None:
        """Reassemble the full state on world rank 0 (None elsewhere)."""
        s = self._require_state()
        pieces = self.comm.gather(
            (self.decomp.a, self.decomp.b, s.v, s.omega_y, s.u00, s.w00)
        )
        if pieces is None:
            return None
        g = self.grid
        full_v = np.zeros(g.spectral_shape, complex)
        full_o = np.zeros(g.spectral_shape, complex)
        u00 = w00 = None
        for a, b, v, o, pu, pw in pieces:
            xs = slice(*block_range(self.transforms.mx, self.transforms.pa, a))
            zs = slice(*block_range(self.transforms.mz, self.transforms.pb, b))
            full_v[xs, zs] = v
            full_o[xs, zs] = o
            if pu is not None:
                u00, w00 = pu, pw
        full = ChannelState(v=full_v, omega_y=full_o, u00=u00, w00=w00, time=s.time)
        full.u, full.w = recover_uw(g.modes, self.stepper.ops, full.v, full.omega_y, u00, w00)
        return full

    # ------------------------------------------------------------------
    # sharded checkpointing
    # ------------------------------------------------------------------

    def save_checkpoint(self, directory, keep: int = 3):
        """Collectively write one sharded snapshot (one shard per rank)."""
        return ShardedCheckpointRotation(directory, keep=keep).save(self)

    def load_checkpoint(self, directory, reshard: bool = False):
        """Restore the newest verifiable sharded snapshot, in place.

        ``reshard=True`` accepts snapshots written under a different
        process grid (decomposition-agnostic restore)."""
        return ShardedCheckpointRotation(directory).load_latest(self, reshard=reshard)


@dataclass(eq=False)
class RanksLaunch:
    """The SimMPI-ranks launch of :class:`~repro.core.supervisor.Supervisor`.

    Each attempt runs the loop's per-step body on every rank of a fresh
    :func:`~repro.mpi.simmpi.run_spmd` program on ``grid``.  A failure
    tears the program down, like a node failure killing an MPI
    allocation, and is logged as one ``restart``; the next attempt's
    ranks restore *in place* from the sharded rotation (resharding when
    ``elastic``) and apply a reduced dt if the loop set one.  Attempt
    ``i`` injects ``fault_plans[i]``.  Its ranks write telemetry under
    ``attempt-NN/``; :attr:`recorder` is the job-level ``events.jsonl``.
    """

    config: ChannelConfig
    grid: tuple[int, int, int]
    checkpoint_dir: Any
    keep: int = 3
    fault_plans: Sequence = ()
    method: TransposeMethod | None = None
    timeout: float | None = None
    elastic: bool = False
    integrity: bool = False
    telemetry: Any = None
    wire_precision: str = "full"
    stages: int = DEFAULT_STAGES
    streaming_every: int = 0
    publish: Any = None
    #: rank 0's driver of the latest attempt: where the job stands
    dns: DistributedChannelDNS | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.recorder = None
        self._dt: float | None = None
        if self.telemetry is not None:
            from repro.telemetry import RunRecorder, TelemetryConfig

            self.telemetry = TelemetryConfig.coerce(self.telemetry)
            self.recorder = RunRecorder(self.telemetry, rank=-1, nranks=self.grid[0])

    def where(self) -> tuple[int, float]:
        if self.dns is None:
            return -1, self.config.dt
        return self.dns.step_count, self.dns.stepper.dt

    def attempt(self, sup: Supervisor, target: int, callback):
        n, pa, pb = self.grid
        attempt = sup.attempt
        plan = self.fault_plans[attempt] if attempt < len(self.fault_plans) else None
        telemetry = None
        if self.telemetry is not None:
            telemetry = replace(
                self.telemetry,
                directory=pathlib.Path(self.telemetry.directory) / f"attempt-{attempt:02d}",
            )
        dt, self._dt = self._dt, None
        self.dns = None  # the failed attempt's drivers go before new ones are built

        def program(comm: Communicator):
            dns = DistributedChannelDNS(
                comm, self.config, pa=pa, pb=pb, method=self.method,
                telemetry=telemetry, wire_precision=self.wire_precision, stages=self.stages,
            )
            if comm.rank == 0:
                self.dns = dns
            if self.streaming_every:
                # attach before the restore so load_latest can hand the
                # accumulator its sidecar (no samples lost on restart)
                dns.attach_streaming(every=int(self.streaming_every))
            rotation = ShardedCheckpointRotation(
                self.checkpoint_dir, keep=self.keep, counters=sup.counters
            )
            try:
                # rank 0 decides restore-vs-initialize: per-rank filesystem
                # checks could race against rank 0 creating the first
                # snapshot directory and leave ranks in different branches
                if self.agree(dns, lambda: bool(rotation.snapshot_dirs())):
                    rotation.load_latest(dns, reshard=self.elastic)
                else:
                    dns.initialize()
                    sup.checkpoint(dns, rotation, dns.timers)  # a restart must have a target
                if dt is not None:
                    dns.set_dt(dt)
                if dns.recorder is not None:
                    dns.recorder.add_group("recovery", sup.counters)
                sup.advance(dns, rotation, target, callback, dns.timers)
                self._publish(dns, comm)
                return dns.gather_state()
            finally:
                # runs on the failure path too, so a crashed attempt still
                # leaves a summary record behind for the post-mortem
                dns.finalize_telemetry()

        results = run_spmd(
            n, program, timeout=self.timeout, fault_plan=plan,
            elastic=self.elastic, integrity=self.integrity,
        )
        if self.recorder is not None:
            self.recorder.record_event(
                "complete", step=target, detail=f"finished on {n} ranks ({pa}x{pb})",
                attempt=attempt, info={"ranks": n, "restarts": sup.restarts},
            )
        return results[0]

    def _publish(self, dns: DistributedChannelDNS, comm: Communicator) -> None:
        """Merge the streamed statistics (collective); rank 0 publishes."""
        if self.publish is None or dns.streaming is None or dns.streaming.total_samples == 0:
            return
        stats = dns.streaming.result()
        if comm.rank == 0:
            from repro.serving.store import StatsStore

            pub = self.publish
            store = pub if isinstance(pub, StatsStore) else StatsStore(pub)
            store.publish(
                stats, self.config, step_count=dns.step_count, sim_time=float(dns.state.time)
            )
            dns.streaming.counters.publishes += 1

    def recover(self, sup: Supervisor, exc: BaseException, step: int) -> None:
        sup.counters.restarts += 1
        info = {"restarts": sup.restarts, "max_restarts": sup.max_restarts}
        sup.record("restart", step, f"{type(exc).__name__}: {exc}", info)

    def agree(self, dns, decide):
        comm = dns.comm
        return comm.bcast(decide() if comm.rank == 0 else None, root=0)

    def set_dt(self, dt: float) -> None:
        self._dt = dt

    def close(self) -> None:
        # the caller may keep the exception that ended the job, and its
        # traceback keeps this launch: a closed launch holds no driver
        self.dns = None
        if self.recorder is not None:
            self.recorder.close()


def run_supervised_spmd(
    nranks: int,
    config: ChannelConfig,
    pa: int,
    pb: int,
    n_steps: int,
    checkpoint_dir,
    *,
    checkpoint_every: int = 5,
    keep: int = 3,
    max_restarts: int = 3,
    fault_plans: Sequence = (),
    monitor_factory: Callable[[], Any] | None = None,
    method: TransposeMethod | None = None,
    timeout: float | None = None,
    counters=None,
    elastic: bool = False,
    integrity: bool = False,
    min_ranks: int = 1,
    timers: SectionTimers | None = None,
    telemetry=None,
    wire_precision: str = "full",
    stages: int = DEFAULT_STAGES,
    streaming_every: int = 0,
    publish=None,
):
    """Supervise the distributed DNS to step ``n_steps`` on SimMPI ranks:
    :class:`~repro.core.supervisor.Supervisor` over a :class:`RanksLaunch`.

    Resumes from the newest verifiable sharded snapshot under
    ``checkpoint_dir`` (``n_steps`` is the absolute target) and returns
    ``(final_full_state, recovery_log)``.  A rank death, a collective
    failure, a trip of a ``monitor_factory()`` watchdog or a non-finite
    snapshot relaunches the job; past ``max_restarts`` relaunches the last
    failure propagates, and an :class:`~repro.core.health.UnstableError`
    relaunches at a reduced dt.  ``integrity=True`` makes payload
    corruption a typed failure (CRC envelopes); ``timeout=None`` is
    SimMPI's default join timeout.

    ``elastic=True`` turns a rank death into a
    :class:`~repro.mpi.simmpi.ShrinkRequired`: the grid is re-planned for
    the agreed survivors (down to ``min_ranks``) and the job continues
    through the resharding reader, without consuming the restart budget.
    The job never grows back within one call; a later call on more ranks
    resumes the same ``checkpoint_dir`` through the same reader.  A
    recovered run is bit-for-bit the uninterrupted one, a shrunken run a
    fresh one at the survivor grid (``tests/pencil/test_checkpoint.py``,
    ``tests/pencil/test_elastic.py``).

    ``telemetry`` writes each attempt's per-rank streams under
    ``<dir>/attempt-NN/`` and the job's decisions into
    ``<dir>/events.jsonl``.  ``streaming_every=N`` samples
    :class:`~repro.serving.StreamingStatistics` every N steps, carried
    through every snapshot and restart; ``publish`` (a
    :class:`~repro.serving.StatsStore` or its root) receives the merged
    averages on completion.
    """
    launch = RanksLaunch(
        config, (nranks, pa, pb), checkpoint_dir, keep=keep, fault_plans=fault_plans,
        method=method, timeout=timeout, elastic=elastic, integrity=integrity,
        telemetry=telemetry, wire_precision=wire_precision, stages=stages,
        streaming_every=streaming_every, publish=publish,
    )
    sup = Supervisor(
        launch,
        # relaunches are budgeted in total only: the per-frontier budget
        # is set past the point where max_restarts binds
        policy=SupervisorPolicy(checkpoint_every=checkpoint_every, max_retries=max_restarts + 1),
        max_restarts=max_restarts, monitor_factory=monitor_factory, counters=counters,
        timers=timers, recorder=launch.recorder, min_ranks=min_ranks,
    )
    try:
        return sup.run_to(n_steps), sup.log
    finally:
        launch.close()
