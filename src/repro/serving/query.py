"""Query layer over the statistics store (the service's read path).

:class:`StatisticsService` answers the paper's figure-level questions —
law-of-wall profiles, velocity variances, 1-D energy spectra — at
*arbitrary* ``y+`` and Re_tau:

* **y+ interpolation** — responses are linearly interpolated onto the
  requested wall coordinates from the stored lower-half-channel profile
  (``y+ = (1 + y) u_tau / nu`` for ``y <= 0``, matching
  :meth:`repro.serving.StreamingStatistics.wall_units`).
* **Re_tau interpolation** — profile queries between two stored Re_tau
  interpolate linearly in ``log(Re_tau)`` between the bracketing
  entries; spectra (whose wavenumber grids differ across runs) answer
  from the nearest stored Re_tau and say which one in the response.
* **Memoization** — responses are cached in a bounded LRU keyed by the
  full query tuple, and loaded store files in a second small LRU, both
  with hit/miss counters (:meth:`StatisticsService.cache_info`).  A warm
  cache answers from memory with no disk I/O — the ≥10x cold-vs-warm
  ratio is measured by ``benchmarks/bench_stats_service.py``; the
  ``stats_serving`` workload of ``benchmarks/e2e`` gates the read path.

Every response field is documented in ``docs/statistics_service.md``,
enforced against :data:`QUERY_FIELDS` by ``tests/serving/test_docs.py``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.serving.store import StatsStore

#: response fields across the query endpoints: ``{name: (required, description)}``
#: (required=True fields appear in every response; others are
#: endpoint-specific)
QUERY_FIELDS: dict[str, tuple[bool, str]] = {
    "query": (True, "echo of the endpoint name (law_of_wall/variance/spectrum)"),
    "re_tau": (True, "requested friction Reynolds number"),
    "re_tau_sources": (True, "stored Re_tau values the answer was built from"),
    "u_tau": (True, "friction velocity (interpolated like the payload)"),
    "nsamples": (True, "fewest snapshot samples among the source results"),
    "y_plus": (False, "wall coordinates the profile was evaluated at"),
    "u_plus": (False, "mean velocity in wall units U+ = U / u_tau"),
    "component": (False, "velocity component the query asked for (u/v/w or uv)"),
    "value_plus": (False, "variance/covariance in wall units, <f'g'> / u_tau^2"),
    "direction": (False, "spectrum direction, x (streamwise) or z (spanwise)"),
    "wavenumbers": (False, "wavenumber grid of the returned spectrum"),
    "energy": (False, "1-D energy spectrum E(k) at the requested y+"),
}

_VARIANCES = {"u": "uu", "v": "vv", "w": "ww", "uv": "uv"}


class _LRUCache:
    """Bounded LRU mapping with hit/miss counters (no unhashable keys)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class StatisticsService:
    """Cached query front end over a :class:`~repro.serving.store.StatsStore`.

    ``cache_size`` bounds the response LRU (entries, not bytes — every
    response is a small JSON-able dict); ``dataset_cache_size`` bounds
    how many loaded+verified store files stay resident.  Both knobs are
    documented in ``docs/statistics_service.md``.
    """

    def __init__(self, store, cache_size: int = 256, dataset_cache_size: int = 8) -> None:
        if not isinstance(store, StatsStore):
            store = StatsStore(store)
        self.store = store
        self._responses = _LRUCache(cache_size)
        self._datasets = _LRUCache(dataset_cache_size)

    # ------------------------------------------------------------------
    # dataset access
    # ------------------------------------------------------------------

    def _dataset(self, re_tau: float) -> dict:
        """Load (or reuse) one stored result, reduced to wall-unit form."""
        cached = self._datasets.get(re_tau)
        if cached is not None:
            return cached
        manifest, arrays = self.store.load(re_tau)
        u_tau = float(manifest["u_tau"])
        nu = float(manifest["nu"])
        y = arrays["y"]
        half = y <= 0.0  # lower half-channel, like wall_units()
        ds = {
            "re_tau": float(manifest["re_tau"]),
            "u_tau": u_tau,
            "nu": nu,
            "nsamples": int(manifest["nsamples"]),
            "y_plus": (1.0 + y[half]) * u_tau / nu,
            "half": half,
            "profiles": {
                name: arrays[name][half] for name in ("U", "uu", "vv", "ww", "uv")
            },
            "kx": arrays["kx"],
            "kz": arrays["kz"],
            "spec_x": {c: arrays[f"spec_x_{c}"] for c in ("u", "v", "w")},
            "spec_z": {c: arrays[f"spec_z_{c}"] for c in ("u", "v", "w")},
            "y": y,
        }
        self._datasets.put(re_tau, ds)
        return ds

    def _bracket(self, re_tau: float) -> tuple[list[float], list[float]]:
        """Stored Re_tau values bracketing the request, plus log weights.

        Exact (or out-of-range) requests resolve to a single source; an
        interior request resolves to its two neighbours with linear
        weights in ``log(Re_tau)``.
        """
        stored = self.store.re_taus()
        if not stored:
            raise FileNotFoundError("statistics store is empty")
        exact = [r for r in stored if abs(r - re_tau) < 1e-9]
        if exact:
            return [exact[0]], [1.0]
        lo = [r for r in stored if r < re_tau]
        hi = [r for r in stored if r > re_tau]
        if not lo:
            return [min(hi)], [1.0]
        if not hi:
            return [max(lo)], [1.0]
        a, b = max(lo), min(hi)
        t = (np.log(re_tau) - np.log(a)) / (np.log(b) - np.log(a))
        return [a, b], [1.0 - float(t), float(t)]

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _as_tuple(y_plus) -> tuple[float, ...]:
        return tuple(float(v) for v in np.atleast_1d(y_plus))

    def law_of_wall(self, re_tau: float, y_plus) -> dict:
        """Mean-velocity profile ``U+(y+)`` at the requested wall coordinates."""
        yp = self._as_tuple(y_plus)
        key = ("law_of_wall", float(re_tau), yp)
        hit = self._responses.get(key)
        if hit is not None:
            return hit
        sources, weights = self._bracket(re_tau)
        u_plus = np.zeros(len(yp))
        u_tau = 0.0
        nsamples = None
        for r, w in zip(sources, weights):
            ds = self._dataset(r)
            u_plus += w * np.interp(yp, ds["y_plus"], ds["profiles"]["U"] / ds["u_tau"])
            u_tau += w * ds["u_tau"]
            ns = ds["nsamples"]
            nsamples = ns if nsamples is None else min(nsamples, ns)
        resp = {
            "query": "law_of_wall",
            "re_tau": float(re_tau),
            "re_tau_sources": sources,
            "u_tau": u_tau,
            "nsamples": nsamples,
            "y_plus": list(yp),
            "u_plus": u_plus.tolist(),
        }
        self._responses.put(key, resp)
        return resp

    def variance(self, re_tau: float, component: str, y_plus) -> dict:
        """Velocity variance (or ``uv`` shear stress) in wall units at ``y+``."""
        if component not in _VARIANCES:
            raise ValueError(f"component must be one of {sorted(_VARIANCES)}")
        yp = self._as_tuple(y_plus)
        key = ("variance", float(re_tau), component, yp)
        hit = self._responses.get(key)
        if hit is not None:
            return hit
        profile = _VARIANCES[component]
        sources, weights = self._bracket(re_tau)
        value = np.zeros(len(yp))
        u_tau = 0.0
        nsamples = None
        for r, w in zip(sources, weights):
            ds = self._dataset(r)
            value += w * np.interp(
                yp, ds["y_plus"], ds["profiles"][profile] / ds["u_tau"] ** 2
            )
            u_tau += w * ds["u_tau"]
            ns = ds["nsamples"]
            nsamples = ns if nsamples is None else min(nsamples, ns)
        resp = {
            "query": "variance",
            "re_tau": float(re_tau),
            "re_tau_sources": sources,
            "u_tau": u_tau,
            "nsamples": nsamples,
            "component": component,
            "y_plus": list(yp),
            "value_plus": value.tolist(),
        }
        self._responses.put(key, resp)
        return resp

    def spectrum(self, re_tau: float, direction: str, component: str, y_plus: float) -> dict:
        """1-D energy spectrum ``E_c(k)`` at one ``y+`` (nearest stored Re_tau).

        Spectra are not interpolated across Re_tau — different runs
        carry different wavenumber grids — so the answer comes from the
        nearest stored entry, named in ``re_tau_sources``.
        """
        if direction not in ("x", "z"):
            raise ValueError("direction must be 'x' or 'z'")
        if component not in ("u", "v", "w"):
            raise ValueError("component must be one of ('u', 'v', 'w')")
        yp = float(y_plus)
        key = ("spectrum", float(re_tau), direction, component, yp)
        hit = self._responses.get(key)
        if hit is not None:
            return hit
        sources, weights = self._bracket(re_tau)
        nearest = sources[int(np.argmax(weights))]
        ds = self._dataset(nearest)
        surface = ds[f"spec_{direction}"][component]  # (nk, ny)
        half_surface = surface[:, ds["half"]]  # lower half, ordered with y_plus
        energy = np.empty(surface.shape[0])
        for i in range(surface.shape[0]):
            energy[i] = np.interp(yp, ds["y_plus"], half_surface[i])
        resp = {
            "query": "spectrum",
            "re_tau": float(re_tau),
            "re_tau_sources": [nearest],
            "u_tau": ds["u_tau"],
            "nsamples": ds["nsamples"],
            "direction": direction,
            "component": component,
            "y_plus": [yp],
            "wavenumbers": ds["kx" if direction == "x" else "kz"].tolist(),
            "energy": energy.tolist(),
        }
        self._responses.put(key, resp)
        return resp

    # ------------------------------------------------------------------
    # cache introspection
    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Hit/miss counters and sizes of both caches (JSON-able)."""
        return {
            "responses": {
                "hits": self._responses.hits,
                "misses": self._responses.misses,
                "size": len(self._responses),
                "maxsize": self._responses.maxsize,
            },
            "datasets": {
                "hits": self._datasets.hits,
                "misses": self._datasets.misses,
                "size": len(self._datasets),
                "maxsize": self._datasets.maxsize,
            },
        }

    def clear_caches(self) -> None:
        self._responses.clear()
        self._datasets.clear()
