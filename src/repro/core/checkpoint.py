"""Durable checkpoint / restart for the channel DNS.

The paper's production run spans 650,000 steps over months of machine
allocations on up to 786K cores — checkpointing is load-bearing
infrastructure, and a checkpoint that can be *lost* (crash mid-write) or
*silently wrong* (bit rot, truncated transfer) is worse than none.  This
module therefore treats durability as part of the format:

* **Atomic writes** — every file is written to a temporary sibling,
  flushed and ``fsync``'d, then moved into place with :func:`os.replace`
  (atomic on POSIX); the containing directory is fsync'd afterwards so
  the rename itself is durable.  A crash mid-save leaves the previous
  checkpoint untouched.
* **Checksummed payloads** — the embedded JSON manifest records a CRC32
  per array; :func:`load_checkpoint` recomputes and verifies them,
  raising :class:`CheckpointCorruptError` on any mismatch (on top of the
  zip container's own integrity checks, which catch raw bit flips).
* **Rotation with fallback** — :class:`CheckpointRotation` keeps the
  newest ``keep`` snapshots plus a ``latest`` pointer and, when asked to
  restore, falls back to the newest snapshot that *verifies*, so a
  corrupt head never strands a campaign.
* **Sharded parallel snapshots** — :class:`ShardedCheckpointRotation`
  saves one shard per SimMPI rank (each rank's own y-pencil block) plus
  a rank-0 ``manifest.json``, with a coordinated consistency check on
  load; all restore decisions derive from ``bcast``/``allgather`` so
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
import os
import pathlib
import shutil
import zlib
from dataclasses import asdict

import numpy as np

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.timestepper import SMR91, ChannelState

#: current writer version and the lineage of versions this reader accepts.
#: v2: manifest with per-array CRC32, scheme fingerprint and runtime (dt,
#: forcing).  A manifest-less file (the v1 layout) cannot be verified and
#: is refused as unsupported.
FORMAT_VERSION = 2
FORMAT_HISTORY = (2,)

#: grid/discretization keys that must match between a checkpoint and an
#: explicitly supplied config.
_GRID_KEYS = ("nx", "ny", "nz", "degree", "stretch", "lx", "lz")


class CheckpointCorruptError(ValueError):
    """A checkpoint failed verification (bad container, checksum or manifest)."""


class CheckpointUnrecoverableError(CheckpointCorruptError):
    """Every candidate generation failed integrity — no fallback is left.

    This is the rotation's terminal verdict, not a per-snapshot mismatch:
    the newest snapshot *and* every older generation were tried and each
    one was rejected.  ``generations`` preserves the full attribution as
    ``[(snapshot_name, [failure, ...]), ...]`` in the order tried, where
    each failure is ``{"rank", "path", "reason", "message"}`` (``rank``
    is None for the serial rotation) — so a job manager can report which
    rank's shard broke in which generation without parsing the message.
    """

    def __init__(self, directory, generations, kind: str = "checkpoint") -> None:
        self.directory = pathlib.Path(directory)
        self.generations = [(name, list(fails)) for name, fails in generations]
        if self.generations:
            detail = "; ".join(
                f"{name}: " + "; ".join(f["message"] for f in fails)
                for name, fails in self.generations
            )
        else:
            detail = "no snapshots found"
        super().__init__(f"no verifiable {kind} under {self.directory} ({detail})")


def _failure(rank, path, reason, message) -> dict:
    """One structured failure record of a rejected checkpoint generation."""
    return {"rank": rank, "path": str(path), "reason": str(reason), "message": message}


# ----------------------------------------------------------------------
# low-level atomic, checksummed npz I/O
# ----------------------------------------------------------------------


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


def _crc32(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def _fsync_dir(directory: pathlib.Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: pathlib.Path, write_fn) -> None:
    """Write-to-temp + fsync + atomic rename; ``write_fn(fh)`` fills the file."""
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # failed before the rename
            tmp.unlink()
    _fsync_dir(path.parent)


def _atomic_write_npz(
    path: pathlib.Path, manifest: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Atomically write a checkpoint file: arrays + checksummed manifest."""
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    manifest = dict(manifest)
    manifest["arrays"] = {
        k: {"crc32": _crc32(v), "shape": list(v.shape), "dtype": str(v.dtype)}
        for k, v in payload.items()
    }
    _atomic_write_bytes(
        path,
        lambda fh: np.savez_compressed(fh, manifest_json=json.dumps(manifest), **payload),
    )


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    _atomic_write_bytes(path, lambda fh: fh.write(text.encode()))


def _read_npz(path: pathlib.Path, verify: bool = True) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint file, returning ``(manifest, arrays)``.

    Container-level failures (truncation, bad zip, bad zlib streams) and
    checksum mismatches raise :class:`CheckpointCorruptError`; version
    mismatches raise a plain :class:`ValueError` naming the supported
    lineage.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            keys = set(data.files)
            manifest = json.loads(str(data["manifest_json"])) if "manifest_json" in keys else {}
            # an explicit key is authoritative when present (a manifest-less
            # legacy layout, or a file whose version was deliberately rewritten)
            if "format_version" in keys:
                version = int(data["format_version"])
            elif manifest:
                version = int(manifest.get("format_version", -1))
            else:
                raise CheckpointCorruptError(f"{path.name}: no checkpoint header")
            if version not in FORMAT_HISTORY or not manifest:
                raise ValueError(
                    f"unsupported checkpoint format {version}; "
                    f"this build reads versions {FORMAT_HISTORY}"
                )
            arrays: dict[str, np.ndarray] = {}
            for name, meta in manifest["arrays"].items():
                arr = data[name]
                if verify:
                    crc = _crc32(arr)
                    if crc != int(meta["crc32"]):
                        raise CheckpointCorruptError(
                            f"{path.name}: checksum mismatch on array {name!r} "
                            f"(stored {meta['crc32']:#010x}, computed {crc:#010x})"
                        )
                arrays[name] = arr.copy()
            return manifest, arrays
    except ValueError:
        raise
    except Exception as exc:  # truncated/garbled container, missing keys, IO error
        raise CheckpointCorruptError(f"{path.name}: unreadable checkpoint ({exc})") from exc


def verify_checkpoint(path: str | pathlib.Path) -> tuple[bool, str]:
    """Cheaply decide whether ``path`` is a loadable, checksum-clean checkpoint."""
    try:
        _read_npz(_normalize_path(path), verify=True)
        return True, "ok"
    except Exception as exc:  # noqa: BLE001 - any failure means "not verifiable"
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


def _config_from_fingerprint(stored: dict) -> ChannelConfig:
    kwargs = dict(stored)
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
    _atomic_write_npz(path, manifest, arrays)
    return path


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
    path = _normalize_path(path)
    manifest, arrays = _read_npz(path, verify=True)
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
    pointer first, then every remaining snapshot newest-first, and
    restores the first one that passes checksum verification — a corrupt
    head falls back instead of killing the campaign.  Pass a
    :class:`~repro.instrument.RecoveryCounters` to surface save/prune/
    verify-failure counts through the instrumentation layer.
    """

    POINTER = "latest"

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

    # -- inventory ------------------------------------------------------

    def snapshots(self) -> list[pathlib.Path]:
        """Snapshot files, newest (highest step) first."""

        def step_of(p: pathlib.Path) -> int:
            try:
                return int(p.stem.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                return -1

        found = [p for p in self.directory.glob(f"{self.basename}-*.npz") if step_of(p) >= 0]
        return sorted(found, key=step_of, reverse=True)

    @property
    def latest_path(self) -> pathlib.Path | None:
        """The pointer target when it exists, else the newest snapshot."""
        pointer = self.directory / self.POINTER
        if pointer.exists():
            target = self.directory / pointer.read_text().strip()
            if target.exists():
                return target
        snaps = self.snapshots()
        return snaps[0] if snaps else None

    # -- write ----------------------------------------------------------

    def save(self, dns: ChannelDNS) -> pathlib.Path:
        path = self.directory / f"{self.basename}-{dns.step_count:09d}.npz"
        save_checkpoint(dns, path)
        # a streaming-statistics sidecar rides along with every snapshot
        # (written before the pointer moves, so `latest` never names a
        # snapshot whose sidecar is missing mid-crash) — see repro.serving
        streaming = dns.streaming
        if streaming is not None and streaming.total_samples > 0:
            streaming.save_to(self.directory, dns.step_count)
        _atomic_write_text(self.directory / self.POINTER, path.name)
        if self.counters is not None:
            self.counters.checkpoints_saved += 1
        for old in self.snapshots()[self.keep:]:
            old.unlink(missing_ok=True)
            if self.counters is not None:
                self.counters.checkpoints_pruned += 1
        if streaming is not None:
            sidecars = sorted(self.directory.glob("stats-*.npz"))
            for old in sidecars[: max(0, len(sidecars) - self.keep)]:
                old.unlink(missing_ok=True)
        return path

    # -- verified restore ----------------------------------------------

    def _candidates(self) -> list[pathlib.Path]:
        ordered: list[pathlib.Path] = []
        head = self.latest_path
        if head is not None:
            ordered.append(head)
        for p in self.snapshots():
            if p not in ordered:
                ordered.append(p)
        return ordered

    def load_latest(
        self,
        config: ChannelConfig | None = None,
        *,
        restore_runtime: bool | None = None,
    ) -> ChannelDNS:
        """Restore the newest *verifiable* snapshot (fallback on corruption).

        When every generation fails, raises the typed
        :class:`CheckpointUnrecoverableError` carrying per-generation
        attribution instead of a generic fallback message."""
        tried: list[tuple[str, list[dict]]] = []
        for path in self._candidates():
            ok, reason = verify_checkpoint(path)
            if not ok:
                tried.append(
                    (path.name, [_failure(None, path, reason, str(reason))])
                )
                if self.counters is not None:
                    self.counters.verify_failures += 1
                continue
            return load_checkpoint(path, config=config, restore_runtime=restore_runtime)
        raise CheckpointUnrecoverableError(self.directory, tried)


# ----------------------------------------------------------------------
# sharded parallel checkpoints (one shard per SimMPI rank)
# ----------------------------------------------------------------------


class ShardedCheckpointRotation:
    """Per-rank sharded snapshots for :class:`DistributedChannelDNS`.

    Layout::

        <directory>/step-<N>/shard-r0003.npz   # rank 3's pencil block
        <directory>/step-<N>/manifest.json     # rank 0: global metadata
        <directory>/latest                     # rank 0: pointer

    Every shard is itself an atomic, checksummed npz; the rank-0 manifest
    (written only after a barrier confirms all shards are durable) names
    the layout (nranks, pa, pb), the config fingerprint and the step, so
    a restart can check consistency before touching any state.  All
    load-time decisions are broadcast/reduced so every rank takes the
    same branch — a half-written or corrupt snapshot is skipped by *all*
    ranks together and the rotation falls back to the previous one.
    """

    POINTER = "latest"

    def __init__(self, directory: str | pathlib.Path, keep: int = 3, counters=None) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.keep = int(keep)
        self.counters = counters

    # -- inventory ------------------------------------------------------

    def snapshot_dirs(self) -> list[pathlib.Path]:
        """Snapshot directories, newest (highest step) first."""

        def step_of(p: pathlib.Path) -> int:
            try:
                return int(p.name.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                return -1

        found = [p for p in self.directory.glob("step-*") if p.is_dir() and step_of(p) >= 0]
        return sorted(found, key=step_of, reverse=True)

    def _candidate_names(self) -> list[str]:
        ordered: list[str] = []
        pointer = self.directory / self.POINTER
        if pointer.exists():
            name = pointer.read_text().strip()
            if (self.directory / name).is_dir():
                ordered.append(name)
        for p in self.snapshot_dirs():
            if p.name not in ordered:
                ordered.append(p.name)
        return ordered

    # -- write ----------------------------------------------------------

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
        _atomic_write_npz(snap / f"shard-r{comm.rank:04d}.npz", shard_manifest, arrays)
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
            _atomic_write_bytes(
                snap / "manifest.json", lambda fh: fh.write(json.dumps(manifest).encode())
            )
            _atomic_write_text(self.directory / self.POINTER, snap.name)
            for old in self.snapshot_dirs()[self.keep:]:
                shutil.rmtree(old, ignore_errors=True)
                if self.counters is not None:
                    self.counters.checkpoints_pruned += 1
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
        rotation falls back to the previous one.  When *every* generation
        fails, the typed :class:`CheckpointUnrecoverableError` carries
        the per-generation, per-shard (rank, path, reason) attribution.
        """
        from repro.core.velocity import recover_uw

        comm = ddns.comm
        names = comm.bcast(self._candidate_names() if comm.rank == 0 else None, root=0)
        tried: list[tuple[str, list[dict]]] = []
        for name in names:
            snap = self.directory / name
            payload = None
            if comm.rank == 0:
                try:
                    payload = (json.loads((snap / "manifest.json").read_text()), None)
                except Exception as exc:  # noqa: BLE001 - skip unreadable snapshot
                    payload = (
                        None,
                        _failure(
                            0,
                            snap / "manifest.json",
                            exc,
                            f"manifest unreadable ({exc})",
                        ),
                    )
            manifest, reason = comm.bcast(payload, root=0)
            if manifest is None:
                tried.append((name, [reason]))
                if self.counters is not None:
                    self.counters.verify_failures += 1
                continue
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
            if same_layout:
                ok, detail, state = self._load_own_shard(ddns, snap, manifest)
            else:
                ok, detail, state = self._load_resharded(ddns, snap, manifest)
            # every rank learns every verdict, so the failure message can
            # name exactly which shard broke and all ranks branch together
            verdicts = comm.allgather((bool(ok), detail))
            if not all(v for v, _ in verdicts):
                tried.append((name, [d for v, d in verdicts if not v and d]))
                if self.counters is not None:
                    self.counters.verify_failures += 1
                continue
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
        raise CheckpointUnrecoverableError(
            self.directory, tried, kind="sharded checkpoint"
        )

    def _load_own_shard(self, ddns, snap, manifest):
        """Same-layout fast path: read this rank's own shard, verified."""
        rank = ddns.comm.rank
        shard_name = f"shard-r{rank:04d}.npz"
        try:
            shard, arrays = _read_npz(snap / shard_name, verify=True)
            _check_shard(shard, manifest, rank=rank, a=ddns.decomp.a, b=ddns.decomp.b)
        except Exception as exc:  # noqa: BLE001 - reported, skipped collectively
            return (
                False,
                _failure(
                    rank,
                    snap / shard_name,
                    exc,
                    f"rank {rank}: shard {shard_name} failed verification ({exc})",
                ),
                None,
            )
        state = ChannelState(
            v=arrays["v"],
            omega_y=arrays["omega_y"],
            u00=arrays.get("u00"),
            w00=arrays.get("w00"),
            time=float(manifest["time"]),
        )
        return True, None, state

    def _load_resharded(self, ddns, snap, manifest):
        """Reassemble this rank's block from the overlapping old shards."""
        rank = ddns.comm.rank
        d = ddns.decomp
        mx = int(manifest.get("mx", ddns.transforms.mx))
        mz = int(manifest.get("mz", ddns.transforms.mz))
        if (mx, mz) != (ddns.transforms.mx, ddns.transforms.mz):
            why = (
                f"snapshot spectral extents {mx}x{mz} != "
                f"run's {ddns.transforms.mx}x{ddns.transforms.mz}"
            )
            return False, _failure(rank, snap, why, f"rank {rank}: {why}"), None
        try:
            v, omega_y, u00, w00 = _assemble_block(
                snap,
                manifest,
                mx,
                mz,
                d.x_slice,
                d.z_spec_slice,
                d.ny,
                collect_mean=bool(ddns.modes.owns_mean),
            )
        except Exception as exc:  # noqa: BLE001 - reported, skipped collectively
            return False, _failure(rank, snap, exc, f"rank {rank}: {exc}"), None
        state = ChannelState(
            v=v, omega_y=omega_y, u00=u00, w00=w00, time=float(manifest["time"])
        )
        return True, None, state

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
        tried: list[tuple[str, list[dict]]] = []
        for name in self._candidate_names():
            snap = self.directory / name
            try:
                manifest = json.loads((snap / "manifest.json").read_text())
            except Exception as exc:  # noqa: BLE001 - fall back to older snapshot
                tried.append(
                    (
                        name,
                        [
                            _failure(
                                None,
                                snap / "manifest.json",
                                exc,
                                f"manifest unreadable ({exc})",
                            )
                        ],
                    )
                )
                continue
            stored = manifest["config"]
            if restore_runtime is None:
                restore_runtime = config is None
            if config is None:
                config = _config_from_fingerprint(stored)
            else:
                _check_fingerprint(stored, config)
            mx = int(manifest.get("mx", config.nx // 2))
            mz = int(manifest.get("mz", config.nz - 1))
            try:
                v, omega_y, u00, w00 = _assemble_block(
                    snap,
                    manifest,
                    mx,
                    mz,
                    slice(0, mx),
                    slice(0, mz),
                    int(manifest.get("ny", config.ny)),
                    collect_mean=True,
                )
            except Exception as exc:  # noqa: BLE001 - fall back to older snapshot
                tried.append((name, [_failure(None, snap, exc, str(exc))]))
                if self.counters is not None:
                    self.counters.verify_failures += 1
                continue
            state = ChannelState(
                v=v, omega_y=omega_y, u00=u00, w00=w00, time=float(manifest["time"])
            )
            if self.counters is not None:
                self.counters.reshard_restores += 1
            return _serial_driver(config, state, manifest, restore_runtime)
        raise CheckpointUnrecoverableError(
            self.directory, tried, kind="sharded checkpoint"
        )


def _check_shard(shard: dict, manifest: dict, *, rank=None, a=None, b=None) -> None:
    """Consistency of one shard manifest against the snapshot manifest."""
    if shard["step_count"] != manifest["step_count"]:
        raise CheckpointCorruptError(
            f"shard step {shard['step_count']} != manifest step "
            f"{manifest['step_count']}"
        )
    for key, want in (("rank", rank), ("a", a), ("b", b)):
        if want is not None and shard[key] != want:
            raise CheckpointCorruptError(
                f"shard records {key}={shard[key]}, expected {want}"
            )


def _assemble_block(
    snap: pathlib.Path,
    manifest: dict,
    mx: int,
    mz: int,
    xs: slice,
    zs: slice,
    ny: int,
    *,
    collect_mean: bool,
):
    """Reassemble the ``(xs, zs)`` spectral block of a sharded snapshot.

    Reads every shard whose global index range overlaps the requested
    block, CRC-verifying each and checking its recorded ranges against
    the decomposition rule.  Mean profiles come from the ``owns_mean``
    shard, which always overlaps any block containing mode ``(0, 0)``.
    Raises :class:`CheckpointCorruptError` naming the offending shard.
    """
    from repro.pencil.decomp import block_range

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
        shard_name = f"shard-r{r:04d}.npz"
        try:
            shard, arrays = _read_npz(snap / shard_name, verify=True)
            _check_shard(shard, manifest, rank=r, a=a_old, b=b_old)
            for key, want in (("x_range", (ox0, ox1)), ("z_range", (oz0, oz1))):
                got = shard.get(key)
                if got is not None and tuple(got) != want:
                    raise CheckpointCorruptError(
                        f"shard records {key}={tuple(got)}, expected {want}"
                    )
        except Exception as exc:
            raise CheckpointCorruptError(
                f"shard {shard_name} failed verification ({exc})"
            ) from exc
        v[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = arrays[
            "v"
        ][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        omega_y[gx0 - xs.start : gx1 - xs.start, gz0 - zs.start : gz1 - zs.start] = (
            arrays["omega_y"][gx0 - ox0 : gx1 - ox0, gz0 - oz0 : gz1 - oz0]
        )
        if collect_mean and shard.get("owns_mean"):
            u00, w00 = arrays["u00"], arrays["w00"]
    if collect_mean and u00 is None:
        raise CheckpointCorruptError(
            "no overlapping shard carries the mean (u00/w00) profiles"
        )
    return v, omega_y, u00, w00
