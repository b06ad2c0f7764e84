"""Versioned on-disk results store for published turbulence statistics.

One store directory holds the published statistics of many runs, keyed
by friction Reynolds number.  Layout::

    store/
      retau-00180.00/
        result-step000002000-a1b2c3d4.npz   # atomic, checksummed
        result-step000004000-a1b2c3d4.npz
        latest                              # name of the newest result
      retau-00550.00/
        ...

Each result file is the checksummed container of :mod:`repro.storage`,
like a checkpoint: published atomically (temp file, fsync, rename), a
CRC32 per array embedded in a JSON manifest, verified on read.  Results
are keyed by the run's config fingerprint
(:func:`repro.telemetry.manifest.config_fingerprint`) so two different
configurations at the same Re_tau never silently overwrite each other,
and rotated keep-K per Re_tau directory.  Every manifest and array
field is documented field-by-field in ``docs/statistics_service.md``
(enforced by ``tests/serving/test_docs.py`` against
:data:`RESULT_FIELDS`).
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.storage import FORMAT_VERSION as _CONTAINER_VERSION
from repro.storage import Generations, read_npz, write_npz
from repro.telemetry.manifest import config_fingerprint

#: results-store format version, with the accepted lineage spelled out
#: like the checkpoint format so readers can fail with a useful message
STORE_FORMAT_VERSION = 1
STORE_FORMAT_HISTORY: tuple[int, ...] = (1,)

#: manifest fields of a published result: ``{name: (required, description)}``
RESULT_FIELDS: dict[str, tuple[bool, str]] = {
    "format_version": (True, "container version of the shared checksummed-npz reader"),
    "store_version": (True, "results-store format version (currently 1)"),
    "kind": (True, 'record discriminator, always "stats-result"'),
    "re_tau": (True, "nominal friction Reynolds number of the run config"),
    "nu": (True, "kinematic viscosity (1 / re_tau for unit half-height)"),
    "u_tau": (True, "measured friction velocity from the mean-profile wall slope"),
    "fingerprint": (True, "sha256 of the canonical run-config serialization"),
    "config": (True, "JSON-safe snapshot of the run config behind the fingerprint"),
    "nsamples": (True, "snapshots folded into the time averages"),
    "step_count": (True, "driver step count when the result was published"),
    "sim_time": (True, "simulation time when the result was published"),
    "created": (True, "unix wall-clock time of the publish"),
}

#: array fields of a published result: ``{name: (required, description)}``
RESULT_ARRAYS: dict[str, tuple[bool, str]] = {
    "y": (True, "wall-normal collocation points, (ny,), channel in [-1, 1]"),
    "U": (True, "mean streamwise velocity profile, (ny,)"),
    "uu": (True, "streamwise velocity variance <u'u'>, (ny,)"),
    "vv": (True, "wall-normal velocity variance <v'v'>, (ny,)"),
    "ww": (True, "spanwise velocity variance <w'w'>, (ny,)"),
    "uv": (True, "Reynolds shear stress <u'v'>, (ny,)"),
    "kx": (True, "streamwise wavenumbers, (mx,), kx >= 0"),
    "kz": (True, "spanwise wavenumbers after ±kz folding, (nz//2,), kz >= 0"),
    "spec_x_u": (True, "streamwise 1-D energy spectrum E_u(kx, y), (mx, ny)"),
    "spec_x_v": (True, "streamwise 1-D energy spectrum E_v(kx, y), (mx, ny)"),
    "spec_x_w": (True, "streamwise 1-D energy spectrum E_w(kx, y), (mx, ny)"),
    "spec_z_u": (True, "spanwise 1-D energy spectrum E_u(kz, y), (nz//2, ny)"),
    "spec_z_v": (True, "spanwise 1-D energy spectrum E_v(kz, y), (nz//2, ny)"),
    "spec_z_w": (True, "spanwise 1-D energy spectrum E_w(kz, y), (nz//2, ny)"),
}

def _retau_dirname(re_tau: float) -> str:
    return f"retau-{float(re_tau):08.2f}"


class StatsStore:
    """Publish and read versioned turbulence-statistics results.

    ``keep`` bounds the number of result files retained per Re_tau
    directory (keep-K rotation, oldest step first); ``keep=0`` disables
    rotation.
    """

    def __init__(self, root, keep: int = 3) -> None:
        self.root = pathlib.Path(root)
        self.keep = int(keep)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def publish(
        self,
        result: dict,
        config,
        *,
        step_count: int = 0,
        sim_time: float = 0.0,
    ) -> pathlib.Path:
        """Atomically publish one result (e.g. ``StreamingStatistics.result()``).

        ``result`` must carry every :data:`RESULT_ARRAYS` key plus
        ``nsamples`` and ``u_tau``; ``config`` is the run config whose
        ``re_tau``/``nu`` key the result.  Returns the published path.
        """
        cfg_dict, fp = config_fingerprint(config)
        re_tau = float(cfg_dict.get("re_tau", getattr(config, "re_tau", 0.0)))
        nu = float(getattr(config, "nu", 1.0 / re_tau if re_tau else 1.0))
        results = self._results(re_tau)
        results.directory.mkdir(parents=True, exist_ok=True)
        missing = [k for k, (req, _) in RESULT_ARRAYS.items() if req and k not in result]
        if missing:
            raise ValueError(f"result missing required arrays: {missing}")
        manifest = {
            # container version of the shared checksummed-npz reader
            # (repro.storage); store_version is this store's own schema
            "format_version": _CONTAINER_VERSION,
            "store_version": STORE_FORMAT_VERSION,
            "kind": "stats-result",
            "re_tau": re_tau,
            "nu": nu,
            "u_tau": float(result["u_tau"]),
            "fingerprint": fp,
            "config": cfg_dict,
            "nsamples": int(result["nsamples"]),
            "step_count": int(step_count),
            "sim_time": float(sim_time),
            "created": time.time(),
        }
        arrays = {k: np.asarray(result[k]) for k in RESULT_ARRAYS}
        path = results.directory / f"result-step{int(step_count):09d}-{fp[:8]}.npz"
        write_npz(path, manifest, arrays)
        results.point(path)
        if self.keep > 0:
            results.prune(self.keep)
        return path

    def _results(self, re_tau: float) -> Generations:
        """The published results at ``re_tau``, ordered by publish step."""
        return Generations(self.root / _retau_dirname(re_tau), "result-step", ".npz")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def re_taus(self) -> list[float]:
        """Friction Reynolds numbers with at least one published result."""
        out = []
        if not self.root.exists():
            return out
        for d in sorted(self.root.glob("retau-*")):
            if any(d.glob("result-*.npz")):
                try:
                    out.append(float(d.name.split("-", 1)[1]))
                except ValueError:
                    continue
        return out

    def latest_path(self, re_tau: float) -> pathlib.Path | None:
        """Path of the newest verified result at ``re_tau`` (or None).

        Follows the ``latest`` pointer when it names an existing result;
        otherwise falls back to the newest ``result-*.npz`` by step
        (the pointer write and the publish are separate atomic steps, so
        a crash can leave the pointer one publish behind).
        """
        return self._results(re_tau).head()

    def load(self, re_tau: float) -> tuple[dict, dict[str, np.ndarray]]:
        """Read and checksum-verify the newest result at ``re_tau``.

        Returns ``(manifest, arrays)``.  Raises :class:`FileNotFoundError`
        when no result is published at that Re_tau, :class:`ValueError`
        on a format-version mismatch, and
        :class:`~repro.storage.CheckpointCorruptError` on damaged bytes —
        a corrupt newest result is reported, never skipped.
        """
        path = self.latest_path(re_tau)
        if path is None:
            raise FileNotFoundError(f"no published result for re_tau={re_tau}")
        manifest, arrays = read_npz(path)
        version = int(manifest.get("store_version", -1))
        if version not in STORE_FORMAT_HISTORY:
            raise ValueError(
                f"{path.name}: store_version {version} not in supported "
                f"lineage {STORE_FORMAT_HISTORY}"
            )
        if manifest.get("kind") != "stats-result":
            raise ValueError(f"{path.name}: not a stats-result file")
        return manifest, arrays
