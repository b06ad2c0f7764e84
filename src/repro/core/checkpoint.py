"""Durable checkpoint / restart for the channel DNS.

The paper's production run spans 650,000 steps over months of machine
allocations on up to 786K cores — checkpointing is load-bearing
infrastructure, and a checkpoint that can be *lost* (crash mid-write) or
*silently wrong* (bit rot, truncated transfer) is worse than none.  The
durability itself — atomic fsync'd publish, the CRC32-checksummed npz
container, keep-K generations with a ``latest`` pointer and a verified
fallback walk — lives in :mod:`repro.storage`; this module decides what a
snapshot holds and how a driver is rebuilt from it:

* **Serial snapshots** — :func:`save_checkpoint` / :func:`load_checkpoint`
  write and restore one checksummed file; :class:`CheckpointRotation`
  keeps the newest ``keep`` of them and restores the newest one that
  *reads*, so a corrupt head never strands a campaign.
* **Sharded parallel snapshots** — :class:`ShardedCheckpointRotation`
  saves one shard per SimMPI rank (each rank's own y-pencil block) plus
  a rank-0 ``manifest.json``, with a coordinated consistency check on
  load; every restore decision derives from ``bcast``/``allgather`` so
  every rank takes the same branch and the loader cannot deadlock.
* **Decomposition-agnostic restore** — every shard records the global
  spectral index ranges of its block, so a snapshot written on one
  ``A x B`` grid can be reassembled onto any other (``load_latest``
  with ``reshard=True``, or :meth:`ShardedCheckpointRotation.load_serial`
  for the ``1 x 1`` case) by reading just the overlapping shards — the
  restore path of the elastic shrink-and-continue supervisor.

Restart is *exact*: the RK3 scheme's cross-step memory (the
zeta-weighted previous nonlinear term) is only used within a step
(zeta_1 = 0), so a restarted trajectory is bit-for-bit the uninterrupted
one — pinned by ``tests/core/test_checkpoint.py`` and the supervised
crash-recovery tests in ``tests/core/test_supervisor.py``.
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

#: grid/discretization keys that must match between a checkpoint and an
#: explicitly supplied config.
_GRID_KEYS = ("nx", "ny", "nz", "degree", "stretch", "lx", "lz")


def _normalize_path(path: str | pathlib.Path) -> pathlib.Path:
    """Append ``.npz`` when missing so save and load agree on the name.

    ``np.savez_compressed`` silently appends the suffix when handed a bare
    path; normalizing here means callers may pass either form to either
    side.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def verify_checkpoint(path: str | pathlib.Path) -> tuple[bool, str]:
    """Cheaply decide whether ``path`` is a loadable, checksum-clean checkpoint.

    Damaged bytes and unsupported format versions answer ``False`` with
    the reason; any other error propagates."""
    try:
        read_npz(_normalize_path(path))
        return True, "ok"
    except ValueError as exc:
        return False, f"{type(exc).__name__}: {exc}"


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
# serial save / load
# ----------------------------------------------------------------------


def save_checkpoint(dns: ChannelDNS, path: str | pathlib.Path) -> pathlib.Path:
    """Atomically write the DNS state + checksummed manifest; returns the path.

    The manifest carries the full configuration fingerprint (grid, scheme
    coefficients, format-version history) and the *runtime* dt/forcing —
    which may have drifted from the config under a
    :class:`~repro.core.control.CFLController` or
    :class:`~repro.core.control.MassFluxController` — so a restart can
    continue the trajectory exactly.
    """
    state = dns.state
    if state is None:
        raise RuntimeError("nothing to checkpoint: initialize() first")
    path = _normalize_path(path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "format_history": list(FORMAT_HISTORY),
        "kind": "serial",
        "config": _config_fingerprint(dns.config),
        "time": float(state.time),
        "step_count": int(dns.step_count),
        "runtime": {"dt": float(dns.stepper.dt), "forcing": float(dns.stepper.forcing)},
    }
    arrays = {
        "v": state.v,
        "omega_y": state.omega_y,
        "u00": state.u00,
        "w00": state.w00,
    }
    return write_npz(path, manifest, arrays)


def load_checkpoint(
    path: str | pathlib.Path,
    config: ChannelConfig | None = None,
    *,
    restore_runtime: bool | None = None,
) -> ChannelDNS:
    """Rebuild a ready-to-run :class:`ChannelDNS` from a verified checkpoint.

    If ``config`` is omitted it is reconstructed from the file and the
    runtime dt/forcing are restored (exact continuation).  If given, it
    must match the checkpoint's grid *and* RK scheme; runtime values then
    default to the supplied config (legitimate e.g. to restart with a
    different dt) unless ``restore_runtime=True``.
    """
    manifest, arrays = read_npz(_normalize_path(path))
    stored = manifest["config"]
    if restore_runtime is None:
        restore_runtime = config is None
    if config is None:
        config = _config_from_fingerprint(stored)
    else:
        _check_fingerprint(stored, config)
    state = ChannelState(
        v=arrays["v"],
        omega_y=arrays["omega_y"],
        u00=arrays["u00"],
        w00=arrays["w00"],
        time=float(manifest["time"]),
    )
    return _serial_driver(config, state, manifest, restore_runtime)


def _serial_driver(config, state: ChannelState, manifest: dict, restore_runtime) -> ChannelDNS:
    """A ready-to-run serial driver continuing ``state`` at the manifest's
    step (restore-by-construction: the serial rotation and the ``1 x 1``
    resharding reader both end here)."""
    dns = ChannelDNS(config)
    dns.initialize(state)
    dns.step_count = int(manifest["step_count"])
    runtime = manifest.get("runtime")
    if restore_runtime and runtime is not None:
        dns.set_dt(float(runtime["dt"]))
        dns.stepper.forcing = float(runtime["forcing"])
    return dns


# ----------------------------------------------------------------------
# rotation: keep-K snapshots with a latest pointer and verified fallback
# ----------------------------------------------------------------------


class CheckpointRotation:
    """Keep the last ``keep`` snapshots of a run under one directory.

    ``save`` writes ``<basename>-<step>.npz`` atomically, repoints the
    ``latest`` file and prunes beyond ``keep``.  ``load_latest`` walks the
    pointer first, then every remaining snapshot newest-first, reading
    each candidate once, and restores the first one that is not corrupt —
    a corrupt head falls back instead of killing the campaign.  Pass a
    :class:`~repro.instrument.RecoveryCounters` to surface save/prune/
    verify-failure counts through the instrumentation layer.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        basename: str = "ckpt",
        keep: int = 3,
        counters=None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.basename = basename
        self.keep = int(keep)
        self.counters = counters
        self.generations = Generations(self.directory, f"{basename}-", ".npz")

    def snapshots(self) -> list[pathlib.Path]:
        """Snapshot files, newest (highest step) first."""
        return self.generations.paths()

    @property
    def latest_path(self) -> pathlib.Path | None:
        """The pointer target when it exists, else the newest snapshot."""
        return self.generations.head()

    def refuse(self, dns: ChannelDNS) -> None:
        """A serial save has no peers to stop (see the sharded rotation's)."""

    def save(self, dns: ChannelDNS) -> pathlib.Path:
        path = save_checkpoint(dns, self.directory / f"{self.basename}-{dns.step_count:09d}.npz")
        # a streaming-statistics sidecar rides along with every snapshot
        # (written before the pointer moves, so `latest` never names a
        # snapshot whose sidecar is missing mid-crash) — see repro.serving
        streaming = dns.streaming
        if streaming is not None and streaming.total_samples > 0:
            streaming.save_to(self.directory, dns.step_count)
        self.generations.point(path)
        pruned = self.generations.prune(self.keep)
        if self.counters is not None:
            self.counters.checkpoints_saved += 1
            self.counters.checkpoints_pruned += len(pruned)
        if streaming is not None:
            streaming.sidecars(self.directory).prune(self.keep)
        return path

    def load_latest(
        self,
        config: ChannelConfig | None = None,
        *,
        restore_runtime: bool | None = None,
    ) -> ChannelDNS:
        """Restore the newest snapshot that reads (fallback on corruption).

        Only :class:`CheckpointCorruptError` falls back; any other error —
        an unsupported format version, a config mismatch, an interpreter
        fault — propagates.  When every generation fails, raises the typed
        :class:`CheckpointUnrecoverableError` carrying per-generation
        attribution instead of a generic fallback message."""
        return self.generations.first_verified(
            lambda path: load_checkpoint(path, config=config, restore_runtime=restore_runtime),
            counters=self.counters,
        )


# ----------------------------------------------------------------------
# sharded parallel checkpoints (one shard per SimMPI rank)
# ----------------------------------------------------------------------


def _read_manifest(snap: pathlib.Path, rank) -> dict:
    """A sharded snapshot's ``manifest.json``; an unreadable one is corrupt."""
    path = snap / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        why = f"manifest unreadable ({exc})"
        raise CheckpointCorruptError(why, [failure(rank, path, exc, why)]) from exc


class ShardedCheckpointRotation:
    """Per-rank sharded snapshots for :class:`DistributedChannelDNS`.

    Layout::

        <directory>/step-<N>/shard-r0003.npz   # rank 3's pencil block
        <directory>/step-<N>/manifest.json     # rank 0: global metadata
        <directory>/latest                     # rank 0: pointer

    Every shard is itself an atomic, checksummed npz; the rank-0 manifest
    (written only after a barrier confirms all shards are durable) names
    the layout (nranks, pa, pb), the config fingerprint and the step, so
    a restart can check consistency before touching any state.  Rank 0
    lists the candidates and reads the manifest, and ``bcast`` hands both
    to every rank; each rank's shard verdict is shared by ``allgather``,
    so a half-written or corrupt snapshot is skipped by *all* ranks
    together and the rotation falls back to the previous one.
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

    def refuse(self, ddns) -> None:
        """Fail the peers' :meth:`save` at its opening barrier.

        A rank that will not save calls this before it raises: it returns
        once every peer has reached the save, so none is torn down
        mid-step, and no peer writes a shard."""
        ddns.comm.break_barrier()

    def save(self, ddns) -> pathlib.Path:
        """Collectively write one sharded snapshot of ``ddns``."""
        comm = ddns.comm
        state = ddns.state
        if state is None:
            raise RuntimeError("nothing to checkpoint: initialize() first")
        snap = self.directory / f"step-{ddns.step_count:09d}"
        if comm.rank == 0:
            snap.mkdir(parents=True, exist_ok=True)
        comm.barrier()
        d = ddns.decomp
        shard_manifest = {
            "format_version": FORMAT_VERSION,
            "format_history": list(FORMAT_HISTORY),
            "kind": "shard",
            "rank": comm.rank,
            "a": d.a,
            "b": d.b,
            "pa": d.pa,
            "pb": d.pb,
            # global spectral index ranges of this shard's block — what
            # makes the snapshot decomposition-agnostic on restore
            "x_range": [d.x_slice.start, d.x_slice.stop],
            "z_range": [d.z_spec_slice.start, d.z_spec_slice.stop],
            "owns_mean": bool(ddns.modes.owns_mean),
            "time": float(state.time),
            "step_count": int(ddns.step_count),
        }
        arrays = {"v": state.v, "omega_y": state.omega_y}
        if ddns.modes.owns_mean:
            arrays["u00"] = state.u00
            arrays["w00"] = state.w00
        write_npz(snap / f"shard-r{comm.rank:04d}.npz", shard_manifest, arrays)
        comm.barrier()  # all shards durable before the manifest names them
        # streaming-statistics sidecar (collective merge, rank-0 write)
        # lands inside the step dir before the manifest/pointer name it,
        # so a restorable snapshot always carries its accumulated samples
        streaming = ddns.streaming
        if streaming is not None and streaming.total_samples > 0:
            streaming.save_to(snap)
        if comm.rank == 0:
            manifest = {
                "format_version": FORMAT_VERSION,
                "format_history": list(FORMAT_HISTORY),
                "kind": "sharded",
                "step_count": int(ddns.step_count),
                "time": float(state.time),
                "nranks": comm.size,
                "pa": ddns.transforms.pa,
                "pb": ddns.transforms.pb,
                "mx": int(ddns.transforms.mx),
                "mz": int(ddns.transforms.mz),
                "ny": int(ddns.decomp.ny),
                "config": _config_fingerprint(ddns.config),
                "runtime": {
                    "dt": float(ddns.stepper.dt),
                    "forcing": float(ddns.stepper.forcing),
                },
                "shards": [f"shard-r{r:04d}.npz" for r in range(comm.size)],
            }
            publish(snap / "manifest.json", json.dumps(manifest).encode())
            self.generations.point(snap)
            pruned = self.generations.prune(self.keep)
            if self.counters is not None:
                self.counters.checkpoints_pruned += len(pruned)
        if self.counters is not None:
            self.counters.checkpoints_saved += 1
        comm.barrier()
        return snap

    # -- coordinated verified restore -----------------------------------

    def load_latest(self, ddns, *, reshard: bool = False) -> pathlib.Path:
        """Restore the newest snapshot every rank can verify, in place.

        With ``reshard=False`` (the default) the snapshot's ``a x b``
        layout must match the running decomposition; a mismatch raises
        :class:`ValueError` on all ranks — a configuration error, not
        corruption.  With ``reshard=True`` the layout is free: each rank
        reassembles its own spectral block from every old shard whose
        global index range overlaps it (decomposition-agnostic restore,
        used by the elastic supervisor after a shrink).  Either way,
        every shard that is read is CRC-verified, shard failures are
        reported with *which* rank/shard failed and why, and an
        unverifiable snapshot is skipped by all ranks together so the
        rotation falls back to the previous one; any error that is not
        corruption propagates.  When *every* generation fails, the typed
        :class:`CheckpointUnrecoverableError` carries the per-generation,
        per-shard (rank, path, reason) attribution.
        """
        comm = ddns.comm
        names = comm.bcast(
            [p.name for p in self.generations.candidates()] if comm.rank == 0 else None,
            root=0,
        )
        return self.generations.first_verified(
            lambda snap: self._restore(ddns, snap, reshard),
            candidates=[self.directory / name for name in names],
            counters=self.counters,
            kind="sharded checkpoint",
        )

    def _restore(self, ddns, snap: pathlib.Path, reshard: bool) -> pathlib.Path:
        """Collectively restore ``snap`` into ``ddns``; every rank raises the
        same :class:`CheckpointCorruptError` when any rank's read fails."""
        from repro.core.velocity import recover_uw

        comm = ddns.comm
        manifest = fails = None
        if comm.rank == 0:
            try:
                manifest = _read_manifest(snap, 0)
            except CheckpointCorruptError as exc:
                fails = exc.failures
        manifest, fails = comm.bcast((manifest, fails), root=0)
        if fails:
            raise CheckpointCorruptError(fails[0]["message"], fails)
        same_layout = (
            manifest["nranks"] == comm.size
            and manifest["pa"] == ddns.transforms.pa
            and manifest["pb"] == ddns.transforms.pb
        )
        if not same_layout and not reshard:
            raise ValueError(
                f"sharded checkpoint layout mismatch: file has "
                f"{manifest['nranks']} ranks as {manifest['pa']}x{manifest['pb']}, "
                f"run has {comm.size} ranks as "
                f"{ddns.transforms.pa}x{ddns.transforms.pb}"
            )
        _check_fingerprint(manifest["config"], ddns.config)
        try:
            state, detail = _read_block(ddns, snap, manifest), None
        except CheckpointCorruptError as exc:
            state, detail = None, exc.failures[0]
        # every rank learns every verdict, so the failure message can
        # name exactly which shard broke and all ranks branch together
        fails = [f for f in comm.allgather(detail) if f is not None]
        if fails:
            raise CheckpointCorruptError("; ".join(f["message"] for f in fails), fails)
        state.u, state.w = recover_uw(
            ddns.modes, ddns.stepper.ops, state.v, state.omega_y, state.u00, state.w00
        )
        ddns.state = state
        ddns.step_count = int(manifest["step_count"])
        runtime = manifest.get("runtime")
        if runtime is not None:
            ddns.stepper.set_dt(float(runtime["dt"]))
            ddns.stepper.forcing = float(runtime["forcing"])
        if not same_layout and self.counters is not None:
            self.counters.reshard_restores += 1
        # sidecars hold *global* sums, so the restore is decomposition-
        # agnostic for free: any layout (including post-shrink/grow)
        # reloads the same base.  Missing sidecar -> start from zero.
        streaming = ddns.streaming
        if streaming is not None:
            streaming.restore_from(snap)
        return snap

    # -- serial reassembly ----------------------------------------------

    def load_serial(
        self,
        config: ChannelConfig | None = None,
        *,
        restore_runtime: bool | None = None,
    ) -> ChannelDNS:
        """Reassemble the newest verifiable sharded snapshot into a serial
        :class:`ChannelDNS` (the ``1 x 1`` case of the resharding reader).

        No communicator involved — this is how a campaign's sharded
        snapshot is inspected or continued on a single process.
        """
        if restore_runtime is None:
            restore_runtime = config is None

        def restore(snap: pathlib.Path) -> ChannelDNS:
            manifest = _read_manifest(snap, None)
            stored = manifest["config"]
            if config is None:
                cfg = _config_from_fingerprint(stored)
            else:
                cfg = config
                _check_fingerprint(stored, cfg)
            mx = int(manifest.get("mx", cfg.nx // 2))
            mz = int(manifest.get("mz", cfg.nz - 1))
            ny = int(manifest.get("ny", cfg.ny))
            state = _assemble_block(snap, manifest, mx, mz, slice(0, mx), slice(0, mz), ny)
            if self.counters is not None:
                self.counters.reshard_restores += 1
            return _serial_driver(cfg, state, manifest, restore_runtime)

        return self.generations.first_verified(
            restore, counters=self.counters, kind="sharded checkpoint"
        )


def _read_block(ddns, snap: pathlib.Path, manifest: dict) -> ChannelState:
    """This rank's spectral block of a sharded snapshot, in any layout:
    with the writer's layout that is exactly this rank's own shard."""
    rank, d, t = ddns.comm.rank, ddns.decomp, ddns.transforms
    mx = int(manifest.get("mx", t.mx))
    mz = int(manifest.get("mz", t.mz))
    if (mx, mz) != (t.mx, t.mz):
        why = f"rank {rank}: snapshot spectral extents {mx}x{mz} != run's {t.mx}x{t.mz}"
        raise CheckpointCorruptError(why, [failure(rank, snap, why, why)])
    return _assemble_block(
        snap, manifest, mx, mz, d.x_slice, d.z_spec_slice, d.ny,
        rank=rank, collect_mean=bool(ddns.modes.owns_mean),
    )


def _assemble_block(
    snap: pathlib.Path, manifest: dict, mx: int, mz: int, xs: slice, zs: slice, ny: int,
    *, rank=None, collect_mean: bool = True,
) -> ChannelState:
    """Reassemble the ``(xs, zs)`` spectral block of a sharded snapshot.

    Reads every shard whose global index range overlaps the requested
    block, CRC-verifying each and checking its recorded ranges against
    the decomposition rule.  Mean profiles come from the ``owns_mean``
    shard, which always overlaps any block containing mode ``(0, 0)``.
    Raises :class:`CheckpointCorruptError` whose one failure record
    names the offending shard and the reading ``rank``.
    """
    from repro.pencil.decomp import block_range

    reader = "" if rank is None else f"rank {rank}: "
    pa_old, pb_old = int(manifest["pa"]), int(manifest["pb"])
    v = np.zeros((xs.stop - xs.start, zs.stop - zs.start, ny), complex)
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
            why = f"{reader}shard {path.name} failed verification ({exc})"
            raise CheckpointCorruptError(why, [failure(rank, path, exc, why)]) from exc
        v[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = arrays[
            "v"
        ][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        omega_y[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = (
            arrays["omega_y"][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        )
        if collect_mean and shard.get("owns_mean"):
            u00, w00 = arrays["u00"], arrays["w00"]
    if collect_mean and u00 is None:
        why = f"{reader}no overlapping shard carries the mean (u00/w00) profiles"
        raise CheckpointCorruptError(why, [failure(rank, snap, why, why)])
    return ChannelState(v=v, omega_y=omega_y, u00=u00, w00=w00, time=float(manifest["time"]))
