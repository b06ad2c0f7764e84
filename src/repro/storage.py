"""Durable files: one publish, one checksummed npz reader, one keep-K walk.

Every file the package persists goes through this module — checkpoints
and their shards, streaming-statistics sidecars, published statistics
results, telemetry manifests and traces.  It owns three decisions:

* **Publish** (:func:`publish`) — write a unique temp sibling, ``fsync``
  it, move it into place with :func:`os.replace` (atomic on POSIX) and
  ``fsync`` the directory so the rename is durable too.  A failure
  removes the temp file; the previous file is never torn.
* **The checksummed npz container** (:func:`write_npz` /
  :func:`read_npz`) — a compressed npz whose ``manifest_json`` member
  records a CRC32 per array.  :func:`read_npz` raises
  :class:`CheckpointCorruptError` for damaged bytes only: the closed set
  :data:`CORRUPTION` of errors the container parse raises on flipped or
  truncated bytes, a missing member, or a checksum mismatch.  Any other
  exception (an interpreter fault on a healthy file) propagates, so it
  can never roll a run back a generation.  The format version is checked
  after the bytes have read cleanly and raises a plain
  :class:`ValueError`.
* **The generation policy** (:class:`Generations`) — a step-ordered
  inventory of ``<prefix><step><suffix>`` entries under one directory, a
  ``latest`` pointer (one that is missing, does not decode or names
  nothing counts as absent), keep-K pruning, and a newest-first walk
  that returns the first generation that reads and records every
  rejection for :class:`CheckpointUnrecoverableError`.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import threading
import tokenize
import zipfile
import zlib

import numpy as np

#: current container version and the lineage of versions this reader
#: accepts.  v2: manifest with per-array CRC32.  A manifest-less file (the
#: v1 layout) cannot be verified and is refused as unsupported.  The
#: container is unchanged by the snapshot layout above it; one layout
#: break is recorded here all the same: serial runs no longer write or
#: read the single-file ``kind: "serial"`` snapshot (``ckpt-<step>.npz``
#: with a ``stats-<step>.npz`` sidecar) — every run, serial included,
#: writes the sharded ``step-<N>/`` directory (a serial run is its one
#: shard), and no loader for the old file is kept.
FORMAT_VERSION = 2
FORMAT_HISTORY = (2,)

#: what damaged bytes raise while the container is parsed — zip and zlib
#: framing, a stream that ends early, a missing member, an unsupported
#: zip feature flag, the file system, and numpy's ``.npy`` header parse
#: (whose ``ValueError`` also covers a manifest that is not JSON).  The
#: parse region holds nothing else, so these mean corruption there.
CORRUPTION = (
    zipfile.BadZipFile, zlib.error, EOFError, KeyError, NotImplementedError,
    OSError, tokenize.TokenError, ValueError,
)


class CheckpointCorruptError(ValueError):
    """A durable file failed verification (bad container, checksum or manifest).

    ``failures`` optionally carries the structured records (see
    :func:`failure`) of a rejected generation, e.g. one per failed shard.
    """

    def __init__(self, message: str, failures: list[dict] | None = None) -> None:
        super().__init__(message)
        self.failures = list(failures or [])


class CheckpointUnrecoverableError(CheckpointCorruptError):
    """Every candidate generation failed integrity — no fallback is left.

    This is the rotation's terminal verdict, not a per-snapshot mismatch:
    the newest snapshot *and* every older generation were tried and each
    one was rejected.  ``generations`` preserves the full attribution as
    ``[(snapshot_name, [failure, ...]), ...]`` in the order tried, where
    each failure is ``{"rank", "path", "reason", "message"}`` (``rank``
    is None for the serial rotation) — so a caller can report which
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


def failure(rank, path, reason, message) -> dict:
    """One structured failure record of a rejected generation."""
    return {"rank": rank, "path": str(path), "reason": str(reason), "message": message}


# ----------------------------------------------------------------------
# publish
# ----------------------------------------------------------------------


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


def publish(path, payload) -> pathlib.Path:
    """Durably replace ``path`` with ``payload`` and return the path.

    ``payload`` is the file's bytes, or a callable ``fill(fh)`` that
    writes them to a binary file handle.  The temp sibling is unique per
    process and thread, so concurrent writers of one path each replace it
    whole.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(payload):
                payload(fh)
            else:
                fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


# ----------------------------------------------------------------------
# the checksummed npz container
# ----------------------------------------------------------------------


def _crc32(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def write_npz(path, manifest: dict, arrays: dict[str, np.ndarray]) -> pathlib.Path:
    """Publish ``arrays`` plus ``manifest`` with a CRC32 entry per array."""
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    manifest = dict(manifest)
    manifest["arrays"] = {
        k: {"crc32": _crc32(v), "shape": list(v.shape), "dtype": str(v.dtype)}
        for k, v in payload.items()
    }
    return publish(
        path,
        lambda fh: np.savez_compressed(fh, manifest_json=json.dumps(manifest), **payload),
    )


def read_npz(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and checksum-verify a container, returning ``(manifest, arrays)``.

    Damaged bytes raise :class:`CheckpointCorruptError`; a version outside
    :data:`FORMAT_HISTORY` raises a plain :class:`ValueError` naming the
    supported lineage.  Anything else propagates unchanged.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            # nothing here writes encrypted members, and zipfile would
            # report a flipped "encrypted" flag bit as a RuntimeError
            if any(info.flag_bits & 0x1 for info in data.zip.infolist()):
                raise zipfile.BadZipFile("member flagged as encrypted")
            members = {name: data[name] for name in data.files}
        manifest = json.loads(str(members.pop("manifest_json", "{}")))
        arrays = {name: members[name] for name in manifest.get("arrays", ())}
    except CORRUPTION as exc:
        raise CheckpointCorruptError(f"{path.name}: unreadable checkpoint ({exc})") from exc
    # an explicit member is authoritative when present (a manifest-less
    # legacy layout, or a file whose version was deliberately rewritten)
    version = members.get("format_version", manifest.get("format_version"))
    if version is None:
        raise CheckpointCorruptError(f"{path.name}: no checkpoint header")
    if int(version) not in FORMAT_HISTORY or not manifest:
        raise ValueError(
            f"unsupported checkpoint format {int(version)}; "
            f"this build reads versions {FORMAT_HISTORY}"
        )
    for name, meta in manifest["arrays"].items():
        crc = _crc32(arrays[name])
        if crc != int(meta["crc32"]):
            raise CheckpointCorruptError(
                f"{path.name}: checksum mismatch on array {name!r} "
                f"(stored {meta['crc32']:#010x}, computed {crc:#010x})"
            )
    return manifest, arrays


# ----------------------------------------------------------------------
# the generation policy: inventory, latest pointer, keep-K, verified walk
# ----------------------------------------------------------------------


class Generations:
    """The ``<prefix><step><suffix>`` entries (files or directories) under
    ``directory``, newest (highest step) first, with a ``latest`` pointer.

    The step is the integer right after ``prefix``, up to the first
    ``-`` (``result-step000000300-a1b2c3d4.npz`` is step 300); equal steps
    order by name.  Entries whose step does not parse are not generations.
    """

    POINTER = "latest"

    def __init__(self, directory, prefix: str, suffix: str = "") -> None:
        self.directory = pathlib.Path(directory)
        self.prefix = prefix
        self.suffix = suffix

    def step_of(self, path) -> int | None:
        """The generation step of ``path``, or None if it is not one."""
        name = pathlib.PurePath(path).name
        if not (name.startswith(self.prefix) and name.endswith(self.suffix)):
            return None
        stem = name[len(self.prefix) : len(name) - len(self.suffix)]
        step = stem.split("-", 1)[0]
        return int(step) if step.isdecimal() else None

    def paths(self) -> list[pathlib.Path]:
        """Every generation, newest first."""
        found = [
            (step, p)
            for p in self.directory.glob(f"{self.prefix}*{self.suffix}")
            if (step := self.step_of(p)) is not None
        ]
        return [p for _, p in sorted(found, key=lambda sp: (sp[0], sp[1].name), reverse=True)]

    def pointed(self) -> pathlib.Path | None:
        """The existing generation the pointer names; None when the pointer
        is missing, does not decode, or names no generation."""
        try:
            name = (self.directory / self.POINTER).read_text().strip()
        except (OSError, UnicodeDecodeError):
            return None
        target = self.directory / name
        if self.step_of(target) is None or not target.exists():
            return None
        return target

    def head(self) -> pathlib.Path | None:
        """The pointer target when it exists, else the newest generation."""
        target = self.pointed()
        if target is not None:
            return target
        paths = self.paths()
        return paths[0] if paths else None

    def candidates(self) -> list[pathlib.Path]:
        """Restore order: the pointer target, then every generation newest first."""
        head = self.pointed()
        return ([head] if head else []) + [p for p in self.paths() if p != head]

    def point(self, path) -> None:
        """Durably repoint ``latest`` at ``path`` (a generation of this directory)."""
        publish(self.directory / self.POINTER, pathlib.PurePath(path).name.encode())

    def prune(self, keep: int) -> list[pathlib.Path]:
        """Remove every generation beyond the newest ``keep``; returns them."""
        stale = self.paths()[keep:]
        for p in stale:
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            else:
                p.unlink(missing_ok=True)
        return stale

    def first_verified(self, read, *, candidates=None, counters=None, kind="checkpoint"):
        """``read(path)`` of the first candidate that does not raise
        :class:`CheckpointCorruptError`.

        Each rejection is recorded — as the error's ``failures`` when it
        carries them, else as one record naming the path — and counted in
        ``counters.verify_failures``.  Any other exception propagates and
        ends the walk.  ``candidates`` defaults to :meth:`candidates`.
        When every candidate is rejected, raises
        :class:`CheckpointUnrecoverableError` with the records in the
        order tried.
        """
        tried: list[tuple[str, list[dict]]] = []
        for path in self.candidates() if candidates is None else candidates:
            try:
                return read(path)
            except CheckpointCorruptError as exc:
                records = exc.failures or [
                    failure(None, path, f"{type(exc).__name__}: {exc}", str(exc))
                ]
                tried.append((path.name, records))
                if counters is not None:
                    counters.verify_failures += 1
        raise CheckpointUnrecoverableError(self.directory, tried, kind=kind)
