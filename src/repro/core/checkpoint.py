"""Durable checkpoint / restart for the channel DNS.

The paper's production run spans 650,000 steps over months of machine
allocations on up to 786K cores — checkpointing is load-bearing
infrastructure, and a checkpoint that can be *lost* (crash mid-write) or
*silently wrong* (bit rot, truncated transfer) is worse than none.  The
durability itself — atomic fsync'd publish, the CRC32-checksummed npz
container, keep-K generations with a ``latest`` pointer and a verified
fallback walk — lives in :mod:`repro.storage`; this module decides what a
snapshot holds and how a driver is restored from it.

There is one snapshot format and one rotation,
:class:`ShardedCheckpointRotation`, for every layout:

* **Sharded snapshots** — one shard per process (each rank's own
  y-pencil block) plus a rank-0 ``manifest.json``, with a coordinated
  consistency check on load; every restore decision derives from
  ``bcast``/``allgather`` so every rank takes the same branch and the
  loader cannot deadlock.  A serial driver (``comm is None``) writes the
  one shard of a ``1 x 1`` grid; without a communicator the collectives
  are skipped, as ``ChannelDNS._reduce`` skips its own.
* **Decomposition-agnostic restore** — every shard records the global
  spectral index ranges of its block, so a snapshot written on one
  ``A x B`` grid can be reassembled onto any other, serial included
  (``load_latest`` with ``reshard=True``), by reading just the
  overlapping shards — the restore path of both supervisor launches and
  of the elastic shrink.  :meth:`ShardedCheckpointRotation.load_serial`
  builds a serial driver from the snapshot's own config and makes that
  same restore.

Restart is *exact*: the RK3 scheme's cross-step memory (the
zeta-weighted previous nonlinear term) is only used within a step
(zeta_1 = 0), so a restarted trajectory is bit-for-bit the uninterrupted
one — pinned by ``tests/core/test_checkpoint.py``,
``tests/pencil/test_checkpoint.py`` and the supervised crash-recovery
tests in ``tests/core/test_supervisor.py``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

import numpy as np

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.timestepper import SMR91, ChannelState

# the error types and format constants stay importable from here
from repro.storage import (
    FORMAT_HISTORY,
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointUnrecoverableError,
    Generations,
    failure,
    publish,
    read_npz,
    write_npz,
)

#: grid/discretization keys that must match between a checkpoint and the
#: config of the driver it is restored into.
_GRID_KEYS = ("nx", "ny", "nz", "degree", "stretch", "lx", "lz")


# ----------------------------------------------------------------------
# configuration fingerprint
# ----------------------------------------------------------------------


def _config_fingerprint(config: ChannelConfig) -> dict:
    """JSON-able config snapshot, including the RK scheme coefficients."""
    d = asdict(config)
    d["scheme"] = {k: [float(x) for x in v] for k, v in asdict(config.scheme).items()}
    return d


def _scheme_coeffs(scheme: SMR91) -> dict:
    return {k: [float(x) for x in v] for k, v in asdict(scheme).items()}


def _check_fingerprint(stored: dict, config: ChannelConfig) -> None:
    """Reject grid or scheme mismatches with a message naming the field."""
    for key in _GRID_KEYS:
        if getattr(config, key) != stored[key]:
            raise ValueError(
                f"checkpoint grid mismatch on {key!r}: "
                f"{stored[key]} (file) vs {getattr(config, key)} (given)"
            )
    stored_scheme = stored.get("scheme")
    if stored_scheme is not None:
        given = _scheme_coeffs(config.scheme)
        if given != stored_scheme:
            raise ValueError(
                "checkpoint scheme mismatch: the file was written with RK "
                f"coefficients {stored_scheme} but the given config uses "
                f"{given}; restart with the matching scheme"
            )


#: config fields that older checkpoints carry but ChannelConfig no
#: longer has; dropped on load (any other unknown key still raises)
_RETIRED_KEYS = ("fft_planning",)


def _config_from_fingerprint(stored: dict) -> ChannelConfig:
    kwargs = {k: v for k, v in stored.items() if k not in _RETIRED_KEYS}
    scheme = kwargs.pop("scheme", None)
    if isinstance(scheme, dict):
        kwargs["scheme"] = SMR91(**{k: tuple(v) for k, v in scheme.items()})
    return ChannelConfig(**kwargs)


# ----------------------------------------------------------------------
# the layout of a driver, and its collectives
# ----------------------------------------------------------------------


def _block(dns):
    """``dns``'s block of the global spectral grid as a
    :class:`~repro.pencil.decomp.PencilDecomp`: a rank's own, or for a
    serial driver the one block of a ``1 x 1`` grid."""
    if dns.comm is not None:
        return dns.decomp
    from repro.pencil.decomp import PencilDecomp

    g = dns.grid
    return PencilDecomp(g.mx, g.mz, g.ny, g.nxq, g.nzq, pa=1, pb=1, a=0, b=0)


# a serial driver has no peers: its rank is 0 and each collective is the
# identity, as in ChannelDNS._reduce


def _rank(comm) -> int:
    return 0 if comm is None else comm.rank


def _barrier(comm) -> None:
    if comm is not None:
        comm.barrier()


def _bcast(comm, value):
    return value if comm is None else comm.bcast(value, root=0)


def _allgather(comm, value) -> list:
    return [value] if comm is None else comm.allgather(value)


def _read_manifest(snap: pathlib.Path, rank) -> dict:
    """A snapshot's ``manifest.json``; an unreadable one is corrupt."""
    path = snap / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        why = f"manifest unreadable ({exc})"
        raise CheckpointCorruptError(why, [failure(rank, path, exc, why)]) from exc


# ----------------------------------------------------------------------
# the rotation (one shard per process; a serial driver is one shard)
# ----------------------------------------------------------------------


class ShardedCheckpointRotation:
    """Keep-K sharded snapshots of a run, for a driver in any layout.

    Layout::

        <directory>/step-<N>/shard-r0003.npz   # rank 3's pencil block
        <directory>/step-<N>/stats.npz         # streaming-statistics sidecar
        <directory>/step-<N>/manifest.json     # rank 0: global metadata
        <directory>/latest                     # rank 0: pointer

    Every shard is itself an atomic, checksummed npz; the rank-0 manifest
    (written only after a barrier confirms all shards are durable) names
    the layout (nranks, pa, pb), the config fingerprint and the step, so
    a restart can check consistency before touching any state.  Rank 0
    lists the candidates and reads the manifest, and ``bcast`` hands both
    to every rank; each rank's shard verdict is shared by ``allgather``,
    so a half-written or corrupt snapshot is skipped by *all* ranks
    together and the rotation falls back to the previous one.  A serial
    driver is rank 0 of a ``1 x 1`` grid: it writes one shard and the
    manifest, and skips the collectives.  Pass a
    :class:`~repro.instrument.RecoveryCounters` to count saves, prunes,
    verify failures and resharded restores.
    """

    def __init__(self, directory: str | pathlib.Path, keep: int = 3, counters=None) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.keep = int(keep)
        self.counters = counters
        self.generations = Generations(self.directory, "step-")

    def snapshot_dirs(self) -> list[pathlib.Path]:
        """Snapshot directories, newest (highest step) first."""
        return self.generations.paths()

    # -- write ----------------------------------------------------------

    def refuse(self, dns) -> None:
        """Fail the peers' :meth:`save` at its opening barrier.

        A rank that will not save calls this before it raises: it returns
        once every peer has reached the save, so none is torn down
        mid-step, and no peer writes a shard.  A serial driver has no
        peers to stop."""
        if dns.comm is not None:
            dns.comm.break_barrier()

    def save(self, dns) -> pathlib.Path:
        """Collectively write one sharded snapshot of ``dns``."""
        comm = dns.comm
        rank = _rank(comm)
        state = dns.state
        if state is None:
            raise RuntimeError("nothing to checkpoint: initialize() first")
        snap = self.directory / f"step-{dns.step_count:09d}"
        if rank == 0:
            snap.mkdir(parents=True, exist_ok=True)
        _barrier(comm)
        d = _block(dns)
        shard_manifest = {
            "format_version": FORMAT_VERSION,
            "format_history": list(FORMAT_HISTORY),
            "kind": "shard",
            "rank": rank,
            "a": d.a,
            "b": d.b,
            "pa": d.pa,
            "pb": d.pb,
            # global spectral index ranges of this shard's block — what
            # makes the snapshot decomposition-agnostic on restore
            "x_range": [d.x_slice.start, d.x_slice.stop],
            "z_range": [d.z_spec_slice.start, d.z_spec_slice.stop],
            "owns_mean": bool(dns.modes.owns_mean),
            "time": float(state.time),
            "step_count": int(dns.step_count),
        }
        arrays = {"v": state.v, "omega_y": state.omega_y}
        if dns.modes.owns_mean:
            arrays["u00"] = state.u00
            arrays["w00"] = state.w00
        write_npz(snap / f"shard-r{rank:04d}.npz", shard_manifest, arrays)
        _barrier(comm)  # all shards durable before the manifest names them
        # streaming-statistics sidecar (collective merge, rank-0 write)
        # lands inside the step dir before the manifest/pointer name it,
        # so a restorable snapshot always carries its accumulated samples
        streaming = dns.streaming
        if streaming is not None and streaming.total_samples > 0:
            streaming.save_to(snap)
        if rank == 0:
            nranks = 1 if comm is None else comm.size
            manifest = {
                "format_version": FORMAT_VERSION,
                "format_history": list(FORMAT_HISTORY),
                "kind": "sharded",
                "step_count": int(dns.step_count),
                "time": float(state.time),
                "nranks": nranks,
                "pa": d.pa,
                "pb": d.pb,
                "mx": int(d.mx),
                "mz": int(d.mz),
                "ny": int(d.ny),
                "config": _config_fingerprint(dns.config),
                "runtime": {
                    "dt": float(dns.stepper.dt),
                    "forcing": float(dns.stepper.forcing),
                },
                "shards": [f"shard-r{r:04d}.npz" for r in range(nranks)],
            }
            publish(snap / "manifest.json", json.dumps(manifest).encode())
            self.generations.point(snap)
            pruned = self.generations.prune(self.keep)
            if self.counters is not None:
                self.counters.checkpoints_pruned += len(pruned)
        if self.counters is not None:
            self.counters.checkpoints_saved += 1
        _barrier(comm)
        return snap

    # -- coordinated verified restore -----------------------------------

    def load_latest(self, dns, *, reshard: bool = False) -> pathlib.Path:
        """Restore the newest snapshot every rank can verify, in place.

        ``dns`` is a freshly built driver of the run's config (collectively
        built on every rank of a decomposed run); the restore sets its
        state, step and runtime dt/forcing, and hands an attached
        streaming accumulator its sidecar.  With ``reshard=False`` (the
        default) the snapshot's ``a x b`` layout must match the running
        decomposition; a mismatch raises :class:`ValueError` on all
        ranks — a configuration error, not corruption.  With
        ``reshard=True`` the layout is free: each rank reassembles its own
        spectral block from every old shard whose global index range
        overlaps it (decomposition-agnostic restore, used by both
        supervisor launches).  Either way, every shard that is read is
        CRC-verified, shard failures are reported with *which* rank/shard
        failed and why, and an unverifiable snapshot is skipped by all
        ranks together so the rotation falls back to the previous one;
        any error that is not corruption propagates.  When *every*
        generation fails, the typed :class:`CheckpointUnrecoverableError`
        carries the per-generation, per-shard (rank, path, reason)
        attribution.
        """
        comm = dns.comm
        names = _bcast(
            comm,
            [p.name for p in self.generations.candidates()] if _rank(comm) == 0 else None,
        )
        return self.generations.first_verified(
            lambda snap: self._restore(dns, snap, reshard),
            candidates=[self.directory / name for name in names],
            counters=self.counters,
            kind="sharded checkpoint",
        )

    def _restore(self, dns, snap: pathlib.Path, reshard: bool) -> pathlib.Path:
        """Collectively restore ``snap`` into ``dns``; every rank raises the
        same :class:`CheckpointCorruptError` when any rank's read fails."""
        from repro.core.velocity import recover_uw

        comm = dns.comm
        rank = _rank(comm)
        manifest = fails = None
        if rank == 0:
            try:
                manifest = _read_manifest(snap, 0)
            except CheckpointCorruptError as exc:
                fails = exc.failures
        manifest, fails = _bcast(comm, (manifest, fails))
        if fails:
            raise CheckpointCorruptError(fails[0]["message"], fails)
        d = _block(dns)
        nranks = 1 if comm is None else comm.size
        same_layout = (
            manifest["nranks"] == nranks and manifest["pa"] == d.pa and manifest["pb"] == d.pb
        )
        if not same_layout and not reshard:
            raise ValueError(
                f"sharded checkpoint layout mismatch: file has "
                f"{manifest['nranks']} ranks as {manifest['pa']}x{manifest['pb']}, "
                f"run has {nranks} ranks as {d.pa}x{d.pb}"
            )
        _check_fingerprint(manifest["config"], dns.config)
        try:
            state, detail = _read_block(snap, manifest, d, rank, dns.modes.owns_mean), None
        except CheckpointCorruptError as exc:
            state, detail = None, exc.failures[0]
        # every rank learns every verdict, so the failure message can
        # name exactly which shard broke and all ranks branch together
        fails = [f for f in _allgather(comm, detail) if f is not None]
        if fails:
            raise CheckpointCorruptError("; ".join(f["message"] for f in fails), fails)
        state.u, state.w = recover_uw(
            dns.modes, dns.stepper.ops, state.v, state.omega_y, state.u00, state.w00
        )
        dns.state = state
        dns.step_count = int(manifest["step_count"])
        runtime = manifest.get("runtime")
        if runtime is not None:
            dns.set_dt(float(runtime["dt"]))
            dns.stepper.forcing = float(runtime["forcing"])
        if not same_layout and self.counters is not None:
            self.counters.reshard_restores += 1
        # sidecars hold *global* sums, so the restore is decomposition-
        # agnostic for free: any layout (including post-shrink/grow)
        # reloads the same base.  Missing sidecar -> start from zero.
        streaming = dns.streaming
        if streaming is not None:
            streaming.restore_from(snap)
        return snap

    # -- serial, without a config ---------------------------------------

    def load_serial(self) -> ChannelDNS:
        """The newest verifiable snapshot, in any layout, as a serial
        :class:`ChannelDNS` built from the snapshot's own config — how a
        campaign's snapshot is inspected or continued on one process."""
        config = self.generations.first_verified(
            lambda snap: _config_from_fingerprint(_read_manifest(snap, 0)["config"]),
            kind="sharded checkpoint",
        )
        dns = ChannelDNS(config)
        self.load_latest(dns, reshard=True)
        return dns


def _read_block(snap: pathlib.Path, manifest: dict, d, rank: int, owns_mean: bool) -> ChannelState:
    """Reassemble block ``d`` of a sharded snapshot, in any layout: with
    the writer's layout that is exactly this rank's own shard.

    Reads every shard whose global index range overlaps the block,
    CRC-verifying each and checking its recorded ranges against the
    decomposition rule.  Mean profiles come from the ``owns_mean`` shard,
    which always overlaps any block containing mode ``(0, 0)``.  Raises
    :class:`CheckpointCorruptError` whose one failure record names the
    offending shard and the reading ``rank``.
    """
    from repro.pencil.decomp import block_range

    mx = int(manifest.get("mx", d.mx))
    mz = int(manifest.get("mz", d.mz))
    if (mx, mz) != (d.mx, d.mz):
        why = f"rank {rank}: snapshot spectral extents {mx}x{mz} != run's {d.mx}x{d.mz}"
        raise CheckpointCorruptError(why, [failure(rank, snap, why, why)])
    xs, zs = d.x_slice, d.z_spec_slice
    pa_old, pb_old = int(manifest["pa"]), int(manifest["pb"])
    v = np.zeros((xs.stop - xs.start, zs.stop - zs.start, d.ny), complex)
    omega_y = np.zeros_like(v)
    u00 = w00 = None
    for r in range(int(manifest["nranks"])):
        a_old, b_old = divmod(r, pb_old)
        ox0, ox1 = block_range(mx, pa_old, a_old)
        oz0, oz1 = block_range(mz, pb_old, b_old)
        gx0, gx1 = max(ox0, xs.start), min(ox1, xs.stop)
        gz0, gz1 = max(oz0, zs.start), min(oz1, zs.stop)
        if gx0 >= gx1 or gz0 >= gz1:
            continue  # no overlap with the requested block
        path = snap / f"shard-r{r:04d}.npz"
        try:
            shard, arrays = read_npz(path)
            # the shard must be the one the decomposition rule puts here;
            # shards that predate the recorded index ranges skip that check
            for key, want in (
                ("step_count", manifest["step_count"]), ("rank", r), ("a", a_old),
                ("b", b_old), ("x_range", [ox0, ox1]), ("z_range", [oz0, oz1]),
            ):
                got = shard.get(key, want if key.endswith("_range") else None)
                if got != want:
                    raise CheckpointCorruptError(f"shard records {key}={got}, expected {want}")
        except CheckpointCorruptError as exc:
            why = f"rank {rank}: shard {path.name} failed verification ({exc})"
            raise CheckpointCorruptError(why, [failure(rank, path, exc, why)]) from exc
        v[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = arrays[
            "v"
        ][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        omega_y[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = (
            arrays["omega_y"][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        )
        if owns_mean and shard.get("owns_mean"):
            u00, w00 = arrays["u00"], arrays["w00"]
    if owns_mean and u00 is None:
        why = f"rank {rank}: no overlapping shard carries the mean (u00/w00) profiles"
        raise CheckpointCorruptError(why, [failure(rank, snap, why, why)])
    return ChannelState(v=v, omega_y=omega_y, u00=u00, w00=w00, time=float(manifest["time"]))
