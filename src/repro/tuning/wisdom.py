"""Persistent plan wisdom: tuning decisions that survive process restarts.

The paper's production runs amortize tuning across restarts — FFTW plans
and transpose implementations are measured once per machine and reused
("the implementation with the best performance on simple tests is
selected and used for production", §4.3), which is exactly FFTW's wisdom
file contract.  Our MEASURE-mode planner (:mod:`repro.fft.plans`), the
solve-engine panel selection (:func:`repro.linalg.engine.measure_block`)
and :meth:`repro.pencil.transpose.GlobalTranspose.plan` historically
re-timed every candidate on every process start.  :class:`WisdomStore`
removes that cost: each MEASURE outcome is recorded into a versioned
on-disk JSON cache keyed by the decision domain, the shape/dtype/backend
key of the plan, and the *machine fingerprint* (hash of the same
machine facts the telemetry manifest pins), so a warm start loads the
decision instead of measuring it — and a foreign machine's wisdom is
ignored, never trusted.

Robustness contract (asserted by ``tests/tuning/test_wisdom.py``):

* **Atomic writes** — read-merge-replace, each write a
  :func:`repro.storage.publish` (unique temp file, fsync, rename),
  guarded by a process-level lock; two SimMPI ranks (or two processes)
  recording different keys never clobber each other.
* **Corrupt/stale tolerance** — a truncated or non-JSON file, a schema
  version bump, or a fingerprint mismatch silently falls back to fresh
  measurement; every such skip is counted (``corrupt`` / ``stale``), not
  raised.
* **Env knob** — ``REPRO_WISDOM`` selects the store process-wide:
  unset/``off``/``0`` disables it, ``readonly:<path>`` loads but never
  writes, any other value is the store path.

:data:`MEASURE_STATS` counts the actual timing runs executed by every
self-tuning site, whether or not wisdom is on — the warm-start
acceptance check ("zero MEASURE timing runs") is asserted against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time

from repro.instrument import Counters
from repro.storage import publish
from repro.telemetry.manifest import _machine

#: format version of the wisdom file; entries from other versions are stale
WISDOM_SCHEMA_VERSION = 1

#: env var selecting the process-wide default store (path | off | readonly:<path>)
ENV_WISDOM = "REPRO_WISDOM"

#: one process-level write lock: SimMPI ranks are threads, so in-process
#: concurrent writers serialize here; cross-process writers rely on the
#: read-merge-replace cycle staying atomic via :func:`repro.storage.publish`
_WRITE_LOCK = threading.Lock()


def machine_fingerprint() -> str:
    """Short stable hash of the telemetry manifest's machine facts."""
    canonical = json.dumps(_machine(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_key(*parts) -> str:
    """Canonical string key from JSON-serializable parts (shapes, dtypes,
    backends, flags); tuples and numpy scalars normalize through ``str``."""
    return json.dumps([_jsonable(p) for p in parts], separators=(",", ":"))


def _jsonable(p):
    if isinstance(p, (list, tuple)):
        return [_jsonable(x) for x in p]
    if p is None or isinstance(p, (bool, int, float, str)):
        return p
    return str(p)


class MeasureStats(Counters):
    """Process-wide census of timing runs the self-tuning sites executed.

    Incremented by the sites themselves (wisdom on or off), so a warm
    start's "zero MEASURE timing runs" claim is a counter assertion, not
    an inference: ``fft_candidates_timed`` moves per timed candidate run
    in :meth:`~repro.fft.plans.FFTPlan._plan`, ``transpose_methods_timed``
    per method timed in :meth:`~repro.pencil.transpose.GlobalTranspose.plan`,
    ``engine_blocks_timed`` per candidate panel height timed in
    :func:`~repro.linalg.engine.measure_block`.
    """

    fft_candidates_timed: int = 0
    transpose_methods_timed: int = 0
    engine_blocks_timed: int = 0

    def total(self) -> int:
        return sum(self.snapshot().values())


#: the process-wide measurement census
MEASURE_STATS = MeasureStats()


class WisdomCounters(Counters):
    """Hit/miss/robustness accounting of one store (manifest provenance).

    ``stale`` counts fingerprint or schema mismatches and ``corrupt``
    unreadable files or entries (both ignored); ``readonly_drops`` counts
    ``record()`` calls swallowed by readonly mode.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    corrupt: int = 0
    writes: int = 0
    readonly_drops: int = 0


class WisdomStore:
    """Versioned on-disk cache of measured tuning decisions.

    Parameters
    ----------
    path:
        The wisdom JSON file (created on first record).
    readonly:
        Load decisions but never write (``REPRO_WISDOM=readonly:<path>``).
    fingerprint:
        Machine identity stamped on every entry; defaults to
        :func:`machine_fingerprint`.  Lookups only trust entries whose
        fingerprint matches — wisdom is per-machine, like FFTW's.
    counters:
        Optional shared :class:`WisdomCounters`.
    """

    def __init__(
        self,
        path,
        *,
        readonly: bool = False,
        fingerprint: str | None = None,
        counters: WisdomCounters | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.readonly = bool(readonly)
        self.fingerprint = fingerprint or machine_fingerprint()
        self.counters = counters if counters is not None else WisdomCounters()
        self._entries: dict[str, dict] = {}
        self._loaded = False

    # ------------------------------------------------------------------
    # file I/O (corrupt/stale tolerant, atomic)
    # ------------------------------------------------------------------

    def _read_file(self, count: bool = True) -> dict[str, dict]:
        """Parse the wisdom file into valid entries; never raises."""
        try:
            raw = self.path.read_text()
        except OSError:
            return {}
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            if count:
                self.counters.corrupt += 1
            return {}
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            if count:
                self.counters.corrupt += 1
            return {}
        if doc.get("schema") != WISDOM_SCHEMA_VERSION:
            if count:
                self.counters.stale += 1
            return {}
        entries: dict[str, dict] = {}
        for key, entry in doc["entries"].items():
            if not isinstance(entry, dict) or "value" not in entry or "fp" not in entry:
                if count:
                    self.counters.corrupt += 1
                continue
            entries[key] = entry
        return entries

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._entries = self._read_file()
            self._loaded = True

    def _write_file(self, entries: dict[str, dict]) -> None:
        doc = {
            "schema": WISDOM_SCHEMA_VERSION,
            "updated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "entries": entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        publish(self.path, json.dumps(doc, indent=1, sort_keys=True).encode())

    # ------------------------------------------------------------------
    # the cache contract
    # ------------------------------------------------------------------

    def lookup(self, domain: str, key) -> dict | None:
        """The recorded decision for ``(domain, key)`` on this machine.

        Returns the entry's ``value`` dict, or None on miss.  Entries
        recorded by another machine count as ``stale`` and miss.
        """
        self._ensure_loaded()
        entry = self._entries.get(self._full_key(domain, key))
        if entry is None:
            self.counters.misses += 1
            return None
        if entry["fp"] != self.fingerprint:
            self.counters.stale += 1
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return entry["value"]

    def record(self, domain: str, key, value: dict, timings: dict | None = None) -> None:
        """Persist one measured decision (merge + atomic replace).

        ``value`` must be JSON-serializable; ``timings`` (the raw
        best-of-N measurements behind the decision) ride along for
        inspection but are not part of the decision.
        """
        entry = {
            "fp": self.fingerprint,
            "value": value,
            "timings": timings or {},
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        full = self._full_key(domain, key)
        self._ensure_loaded()
        self._entries[full] = entry  # warm the in-memory view either way
        if self.readonly:
            self.counters.readonly_drops += 1
            return
        with _WRITE_LOCK:
            merged = self._read_file(count=False)  # pick up concurrent writers
            merged[full] = entry
            self._write_file(merged)
            self._entries.update(merged)
        self.counters.writes += 1

    def _full_key(self, domain: str, key) -> str:
        if not isinstance(key, str):
            key = make_key(key) if not isinstance(key, (list, tuple)) else make_key(*key)
        return f"{domain}::{key}"

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def provenance(self) -> dict:
        """Manifest-ready summary of this store (see docs/observability.md)."""
        self._ensure_loaded()
        return {
            "enabled": True,
            "path": str(self.path),
            "readonly": self.readonly,
            "schema": WISDOM_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "entries": len(self._entries),
            **self.counters.snapshot(),
        }


# ----------------------------------------------------------------------
# the process-wide default store (REPRO_WISDOM)
# ----------------------------------------------------------------------

_STORE_CACHE: dict[str, WisdomStore | None] = {}


def default_store() -> WisdomStore | None:
    """The ``REPRO_WISDOM``-selected store, or None when wisdom is off.

    Cached per env value so every planner/transpose in the process shares
    one store (and its counters); tests that repoint the env get a fresh
    store for the new value.
    """
    env = os.environ.get(ENV_WISDOM, "").strip()
    if env in ("", "off", "0"):
        return None
    if env not in _STORE_CACHE:
        if env.startswith("readonly:"):
            _STORE_CACHE[env] = WisdomStore(env[len("readonly:"):], readonly=True)
        else:
            _STORE_CACHE[env] = WisdomStore(env)
    return _STORE_CACHE[env]


def wisdom_provenance() -> dict:
    """Provenance of the default store for the telemetry manifest
    (``{"enabled": False}`` when ``REPRO_WISDOM`` is off)."""
    store = default_store()
    if store is None:
        return {"enabled": False}
    return store.provenance()
