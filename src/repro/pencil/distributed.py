"""Distributed channel DNS on the pencil decomposition.

Each SimMPI rank owns a y-pencil block of the spectral state (a slab of
(kx, kz) modes with all of y local), so the Helmholtz solves and the
whole Navier–Stokes time advance are rank-local — exactly the paper's
§2.2 design.  Only the nonlinear-term evaluation touches the network,
through the :class:`~repro.pencil.parallel_fft.PencilTransforms`
pipeline (4 global transposes per field per direction).

The distributed trajectory is bit-for-bit the serial one (up to FFT
round-off); ``tests/pencil/test_distributed.py`` pins that.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.timestepper import ChannelState
from repro.core.velocity import recover_uw
from repro.instrument import SectionTimers
from repro.mpi.simmpi import Communicator
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
        bits.
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
        from repro.core.checkpoint import ShardedCheckpointRotation

        return ShardedCheckpointRotation(directory, keep=keep).save(self)

    def load_checkpoint(self, directory, reshard: bool = False):
        """Restore the newest verifiable sharded snapshot, in place.

        ``reshard=True`` accepts snapshots written under a different
        process grid (decomposition-agnostic restore)."""
        from repro.core.checkpoint import ShardedCheckpointRotation

        return ShardedCheckpointRotation(directory).load_latest(self, reshard=reshard)


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
    grow_source=None,
    max_ranks: int | None = None,
    should_stop: Callable[[], Any] | None = None,
    on_shrink: Callable[[Sequence[int], Sequence[int]], Any] | None = None,
    streaming_every: int = 0,
    publish=None,
):
    """Job-level supervised restart loop for the distributed DNS.

    Launches the SPMD program; when a rank dies (injected
    :class:`~repro.mpi.simmpi.RankFailure`, collective failure, or
    watchdog trip) the whole job is torn down — exactly like a node
    failure killing an MPI allocation — and relaunched, resuming from
    the newest verifiable sharded snapshot under ``checkpoint_dir``.
    Attempt ``i`` uses ``fault_plans[i]`` when provided (so tests inject
    a fault on the first attempt and restart clean).  Returns
    ``(final_full_state, recovery_log)``; the log holds
    :class:`~repro.core.supervisor.RecoveryEvent` entries.

    With ``elastic=True`` a rank death instead surfaces as a
    :class:`~repro.mpi.simmpi.ShrinkRequired` carrying the agreed
    survivor list: the supervisor re-plans the process grid for
    ``P' = len(survivors)`` via :func:`~repro.pencil.decomp.choose_grid`,
    relaunches at the reduced size, and the program restores through the
    resharding reader — the campaign *shrinks and continues* instead of
    demanding its full allocation back.  Shrinks do not consume the
    ``max_restarts`` budget (they are capacity loss, not retry churn);
    ``min_ranks`` bounds how far the job may degrade.  ``integrity=True``
    additionally turns silent payload corruption into typed, restartable
    failures via the CRC envelope layer.  ``timeout=None`` uses the
    env-overridable SimMPI default join timeout.

    Because the sharded restore is bit-exact, the recovered trajectory is
    bit-for-bit the uninterrupted one — and a degraded run is bit-for-bit
    a fresh run launched at the shrunken size from the same snapshot —
    pinned by ``tests/pencil/test_checkpoint.py`` and
    ``tests/pencil/test_elastic.py``.

    Elastic *expansion* is the symmetric move: ``grow_source`` (an
    ``available()``/``claim(n)`` two-phase view of a shared rank pool,
    e.g. :class:`~repro.mpi.pool.LeaseGrowSource`) is probed by rank 0
    at every checkpoint boundary; when free ranks can take the job back
    toward its original ``nranks``, the decision is broadcast and every
    rank raises the same :class:`~repro.mpi.simmpi.GrowRequired` — no
    rank is inside a collective, so the teardown is clean.  The
    supervisor then atomically claims the ranks (a concurrent job may
    win the race, in which case the run simply resumes at its current
    size), re-plans the grid and resumes through the resharding reader.
    Because restores are bit-exact and the trajectory is grid-invariant,
    the grown run is bit-identical to an uninterrupted run at the grown
    grid (pinned by ``tests/pencil/test_elastic.py``).  Growth never
    exceeds ``max_ranks`` (default: the launched ``nranks`` — a job the
    scheduler placed *below* its request passes its full request here)
    and never consumes the restart budget.

    ``should_stop`` is the scheduler's preemption hook, probed (rank 0,
    then broadcast) at the same boundaries: a truthy return — the reason
    — makes every rank raise
    :class:`~repro.mpi.simmpi.PreemptRequired` *after* the boundary
    snapshot landed, so preemption never loses checkpointed work.  The
    exception propagates to the caller (the
    :class:`~repro.core.jobs.JobManager` requeues the job).
    ``on_shrink(dead, survivors)`` is called with the agreed world-rank
    sets on every shrink, letting a pool quarantine the backing ranks
    while the job keeps running.

    ``telemetry`` (a directory or
    :class:`~repro.telemetry.TelemetryConfig`) turns on structured run
    recording: each attempt writes per-rank streams and traces under
    ``<dir>/attempt-NN/``, and a job-level ``events.jsonl`` (``rank=-1``)
    records every restart, shrink, grow, preemption and give-up decision
    of this loop.

    ``streaming_every=N`` (N > 0) attaches a
    :class:`~repro.serving.StreamingStatistics` accumulator sampling
    every N steps; its merged sums ride along with every boundary
    snapshot as a checksummed sidecar and are restored on every
    restart/reshard, so a recovered (or shrunken/grown) run loses no
    accumulated samples.  ``publish`` names a
    :class:`~repro.serving.StatsStore` root (or passes one): on normal
    completion the merged time averages are published there, keyed by
    the run's config fingerprint and Re_tau.
    """
    from repro.core.checkpoint import ShardedCheckpointRotation
    from repro.core.health import HealthCheckError
    from repro.core.supervisor import RecoveryEvent
    from repro.mpi.simmpi import (
        GrowRequired,
        PreemptRequired,
        RankFailure,
        ShrinkRequired,
        SimMPIError,
        run_spmd,
    )
    from repro.pencil.decomp import choose_grid

    log: list[RecoveryEvent] = []
    if timers is None:
        timers = SectionTimers()
    mx, mz = config.nx // 2, config.nz - 1
    rank_cap = nranks if max_ranks is None else max(max_ranks, nranks)

    def _grow_target(cur: int) -> int | None:
        """Largest feasible world size to grow to, or None.

        Capped at ``rank_cap`` and at what the source reports free;
        stepped down until :func:`choose_grid` accepts the count (a
        prime count with tight extents may admit no grid)."""
        if grow_source is None or cur >= rank_cap:
            return None
        avail = grow_source.available()
        if avail <= 0:
            return None
        for n in range(min(rank_cap, cur + avail), cur, -1):
            try:
                choose_grid(n, mx, mz, config.ny)
            except ValueError:
                continue
            return n
        return None

    tel_cfg = None
    job_rec = None
    if telemetry is not None:
        from dataclasses import replace as _replace

        from repro.telemetry import RunRecorder, TelemetryConfig

        tel_cfg = TelemetryConfig.coerce(telemetry)
        job_rec = RunRecorder(tel_cfg, rank=-1, nranks=nranks)

    def _make_prog(cur_pa: int, cur_pb: int, cur_attempt: int):
        if tel_cfg is not None:
            import pathlib as _pathlib

            attempt_tel = _replace(
                tel_cfg,
                directory=_pathlib.Path(tel_cfg.directory) / f"attempt-{cur_attempt:02d}",
            )
        else:
            attempt_tel = None

        def _prog(comm: Communicator):
            dns = DistributedChannelDNS(
                comm, config, pa=cur_pa, pb=cur_pb, method=method,
                telemetry=attempt_tel, wire_precision=wire_precision, stages=stages,
            )
            if streaming_every:
                # attach before the restore so load_latest can hand the
                # accumulator its sidecar (no samples lost on restart)
                dns.attach_streaming(every=int(streaming_every))
            rotation = ShardedCheckpointRotation(
                checkpoint_dir, keep=keep, counters=counters
            )
            # rank 0 decides restore-vs-initialize and broadcasts it: per-rank
            # filesystem checks could race against rank 0 creating the first
            # snapshot directory and leave ranks in different branches
            resume = comm.bcast(
                bool(rotation.snapshot_dirs()) if comm.rank == 0 else None, root=0
            )
            if resume:
                rotation.load_latest(dns, reshard=elastic)
            else:
                dns.initialize()
                rotation.save(dns)  # baseline: a restart must have a target
            if counters is not None and dns.recorder is not None:
                dns.recorder.set_recovery_counters(counters)
            monitor = monitor_factory() if monitor_factory is not None else None
            probed = should_stop is not None or grow_source is not None
            try:
                while dns.step_count < n_steps:
                    dns.step()
                    if monitor is not None:
                        monitor(dns)
                    at_boundary = (
                        dns.step_count % checkpoint_every == 0
                        or dns.step_count >= n_steps
                    )
                    if at_boundary:
                        rotation.save(dns)
                    if at_boundary and probed and dns.step_count < n_steps:
                        # scheduler control point: the boundary snapshot just
                        # landed, so a stop here loses nothing.  Rank 0 decides,
                        # everyone hears the same verdict, nobody is inside a
                        # collective when the typed control exception fires.
                        decision = None
                        if comm.rank == 0:
                            reason = should_stop() if should_stop is not None else None
                            if reason:
                                decision = ("stop", str(reason))
                            else:
                                target = _grow_target(comm.size)
                                if target is not None:
                                    decision = ("grow", target)
                        decision = comm.bcast(decision, root=0)
                        if decision is not None:
                            kind, val = decision
                            if kind == "stop":
                                raise PreemptRequired(val, step=dns.step_count)
                            raise GrowRequired(val, comm.size)
                if (
                    publish is not None
                    and dns.streaming is not None
                    and dns.streaming.total_samples > 0
                ):
                    # collective merge; rank 0 publishes into the store
                    stats = dns.streaming.result()
                    if comm.rank == 0:
                        from repro.serving.store import StatsStore

                        target = (
                            publish
                            if isinstance(publish, StatsStore)
                            else StatsStore(publish)
                        )
                        target.publish(
                            stats,
                            config,
                            step_count=dns.step_count,
                            sim_time=float(dns.state.time),
                        )
                        dns.streaming.counters.publishes += 1
                return dns.gather_state()
            finally:
                # runs on the failure path too, so a crashed attempt still
                # leaves a summary record behind for the post-mortem
                dns.finalize_telemetry()

        return _prog

    cur_n, cur_pa, cur_pb = nranks, pa, pb
    attempt = 0
    restarts_used = 0

    def _event(kind: str, step: int, detail: str, info: dict, in_log: bool = True) -> None:
        """One decision of this loop: into the job-level telemetry stream
        and — unless it ends the job (complete / giving up) — the
        returned recovery log."""
        if in_log:
            log.append(
                RecoveryEvent(step=step, kind=kind, detail=detail, attempt=attempt, info=info)
            )
        if job_rec is not None:
            job_rec.record_event(kind, step=step, detail=detail, attempt=attempt, info=info)

    try:
        while True:
            plan = fault_plans[attempt] if attempt < len(fault_plans) else None
            try:
                results = run_spmd(
                    cur_n,
                    _make_prog(cur_pa, cur_pb, attempt),
                    timeout=timeout,
                    fault_plan=plan,
                    elastic=elastic,
                    integrity=integrity,
                )
                _event(
                    "complete",
                    n_steps,
                    f"finished on {cur_n} ranks ({cur_pa}x{cur_pb})",
                    {"ranks": cur_n, "restarts": restarts_used},
                    in_log=False,
                )
                return results[0], log
            except ShrinkRequired as exc:
                nsurv = len(exc.survivors)
                # quarantine the dead ranks even when the job is about to
                # give up — the pool must stay honest either way
                if on_shrink is not None:
                    on_shrink(exc.dead, exc.survivors)
                if nsurv < min_ranks:
                    _event(
                        "giving_up",
                        -1,
                        f"{nsurv} survivors < min_ranks={min_ranks}",
                        {"ranks": nsurv},
                        in_log=False,
                    )
                    raise
                with timers.section(SectionTimers.ELASTIC):
                    new_pa, new_pb = choose_grid(nsurv, mx, mz, config.ny)
                _event(
                    "shrink",
                    -1,
                    f"{exc}; re-planned {cur_pa}x{cur_pb} -> {new_pa}x{new_pb} on {nsurv} ranks",
                    {"ranks": nsurv, "pa": new_pa, "pb": new_pb},
                )
                if counters is not None:
                    counters.shrinks += 1
                cur_n, cur_pa, cur_pb = nsurv, new_pa, new_pb
                attempt += 1
            except GrowRequired as exc:
                with timers.section(SectionTimers.ELASTIC):
                    # a concurrent job may have won the free ranks between
                    # probe and commit: then resume at the current size, no event
                    claimed = grow_source.claim(exc.ranks - cur_n)
                    if claimed:
                        new_n = exc.ranks
                        new_pa, new_pb = choose_grid(new_n, mx, mz, config.ny)
                if claimed:
                    _event(
                        "grow",
                        -1,
                        f"{exc}; re-planned {cur_pa}x{cur_pb} -> {new_pa}x{new_pb} "
                        f"on {new_n} ranks",
                        {"ranks": new_n, "pa": new_pa, "pb": new_pb},
                    )
                    if counters is not None:
                        counters.grows += 1
                    cur_n, cur_pa, cur_pb = new_n, new_pa, new_pb
                attempt += 1
            except PreemptRequired as exc:
                _event(
                    "preempted",
                    exc.step,
                    f"PreemptRequired: {exc}",
                    {"ranks": cur_n, "reason": exc.reason},
                )
                raise
            except (SimMPIError, RankFailure, HealthCheckError) as exc:
                step = getattr(exc, "step", None) or -1
                detail = f"{type(exc).__name__}: {exc}"
                if counters is not None:
                    counters.restarts += 1
                restarts_used += 1
                info = {"restarts": restarts_used, "max_restarts": max_restarts}
                if restarts_used > max_restarts:
                    _event(
                        "giving_up",
                        step,
                        f"restart budget exhausted after {detail}",
                        info,
                        in_log=False,
                    )
                    raise
                _event("restart", step, detail, info)
                attempt += 1
    finally:
        if job_rec is not None:
            job_rec.close()
