"""Run manifest: what produced a telemetry stream, pinned alongside it.

A stream of timings is only an artefact if a later reader can tell what
was run: the configuration (fingerprinted, so two streams are comparable
at a glance), the code revision, the package versions and the machine.
:func:`build_manifest` collects all of it; :class:`~repro.telemetry.RunRecorder`
writes it as ``manifest.json`` next to the stream.  Everything is
best-effort — a missing git binary or package never fails a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import time

from repro.storage import publish
from repro.telemetry.schema import SCHEMA_VERSION

MANIFEST_NAME = "manifest.json"


def config_fingerprint(config) -> tuple[dict, str]:
    """(JSON-safe config dict, sha256 of its canonical serialization).

    Accepts a dataclass (e.g. :class:`~repro.core.solver.ChannelConfig`),
    a plain dict, or ``None``.  Non-JSON values (e.g. the SMR91 scheme
    dataclass) are serialized through ``repr`` so the fingerprint is
    stable and total.
    """
    if config is None:
        d: dict = {}
    elif dataclasses.is_dataclass(config) and not isinstance(config, type):
        d = dataclasses.asdict(config)
    elif isinstance(config, dict):
        d = dict(config)
    else:
        d = {"repr": repr(config)}
    canonical = json.dumps(d, sort_keys=True, default=repr)
    return json.loads(canonical), hashlib.sha256(canonical.encode()).hexdigest()


def _git_revision() -> dict:
    try:
        here = pathlib.Path(__file__).resolve().parent
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        if rev.returncode != 0:
            return {"rev": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        return {
            "rev": rev.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = __import__(pkg).__version__
        except Exception:  # noqa: BLE001 - absence is informative, not fatal
            out[pkg] = None
    try:
        from repro import __version__ as repro_version

        out["repro"] = repro_version
    except Exception:  # noqa: BLE001
        out["repro"] = None
    return out


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
    }


def build_manifest(
    config=None,
    *,
    nranks: int = 1,
    grid: tuple[int, int] | None = None,
    transport: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest dict for one run.

    ``grid`` is the SPMD process grid ``(pa, pb)`` when applicable;
    ``transport`` how its transposes move data
    (:meth:`~repro.pencil.parallel_fft.PencilTransforms.transport`);
    ``extra`` is merged in verbatim under ``"extra"`` (campaign ids,
    batch job ids, ...).
    """
    cfg_dict, fingerprint = config_fingerprint(config)
    return {
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": cfg_dict,
        "config_fingerprint": fingerprint,
        "git": _git_revision(),
        "versions": _versions(),
        "machine": _machine(),
        "nranks": int(nranks),
        "process_grid": list(grid) if grid is not None else None,
        "transport": dict(transport) if transport else None,
        "extra": dict(extra) if extra else {},
    }


def write_manifest(directory, manifest: dict) -> pathlib.Path:
    """Durably write ``manifest.json`` under ``directory`` (atomic replace)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True)
    return publish(directory / MANIFEST_NAME, text.encode())


def read_manifest(directory) -> dict:
    """Load ``manifest.json`` from a telemetry directory."""
    return json.loads((pathlib.Path(directory) / MANIFEST_NAME).read_text())
