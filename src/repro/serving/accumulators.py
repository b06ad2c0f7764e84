"""Online streaming turbulence statistics (the service's write path).

The paper's deliverable is statistics — the law-of-wall profile
(Fig. 5), the velocity variances and Reynolds shear stress (Fig. 6) and
the 1-D energy spectra (Fig. 9) — but the batch helpers in
:mod:`repro.stats` and :mod:`repro.core.statistics` need the full
snapshot in hand.  :class:`StreamingStatistics` — the repo's only
accumulator — computes the same quantities in a single pass *during*
the run:

* **Single-pass accumulation** — per y-plane sums of the mean profile,
  the velocity covariances (``uu``, ``vv``, ``ww``, ``uv``) and the
  streamwise/spanwise 1-D energy spectra of all three components, using
  exactly the Parseval weighting of the batch path so a streamed run
  reproduces the batch numbers (bit-for-bit in serial, to the documented
  reduction tolerance across ranks — see ``docs/statistics_service.md``).
* **Rank-local partials** — each SimMPI rank accumulates only its own
  ``(kx, kz)`` block; :meth:`merged` folds the partials through one
  packed ``allreduce`` on the existing reductions.  No field data moves.
* **Resumability** — :meth:`save_to` writes the *merged* sums as an
  atomic, checksummed sidecar inside a snapshot directory;
  :meth:`restore_from` reloads them as a decomposition-agnostic base so
  a crashed, restarted or elastically resharded run loses no accumulated
  samples.  The checkpoint rotation calls both hooks automatically when
  a driver has an accumulator attached (``dns.attach_streaming(...)``).
* **Budgeted overhead** — sampling is timed under the ``stats``
  :class:`~repro.instrument.SectionTimers` section and self-measured in
  :class:`~repro.instrument.StatsCounters.sample_seconds`, surfaced as
  the telemetry stream's optional ``stats`` group (schema v5).
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.instrument import StatsCounters
from repro.storage import FORMAT_VERSION as _CONTAINER_VERSION
from repro.storage import read_npz, write_npz

#: sidecar format version (bump when the packed layout changes)
STATS_FORMAT_VERSION = 1

#: relative tolerance to which distributed streamed statistics match the
#: serial batch path — the reduction sums rank partials in rank order,
#: which regroups the floating-point additions of the full-axis serial
#: sum.  Serial streamed-vs-batch comparisons are bit-for-bit.
REDUCTION_RTOL = 1e-10

#: the sidecar's file name inside a snapshot directory
SIDECAR_NAME = "stats.npz"


class StreamingStatistics:
    """Single-pass statistics accumulator for a (possibly distributed) DNS.

    Works against a :class:`~repro.core.solver.ChannelDNS` in any
    layout: it accumulates over ``dns.modes`` and merges through
    ``dns.comm`` (no merge traffic when that is None).  In decomposed
    runs every rank must construct one — every read is collective.
    It keeps the driver's communicator, modes and wall-normal operators,
    not the driver: the driver owns it (``dns.streaming``) and hands it
    each state to sample.

    Accumulated quantities, all per y collocation plane:

    * ``U`` — mean streamwise velocity profile,
    * ``uu``/``vv``/``ww``/``uv`` — velocity covariances (fluctuations,
      mean mode excluded), the Parseval weighting of
      :func:`~repro.core.statistics.plane_covariance`,
    * ``spec_x[c]`` — streamwise 1-D energy spectra ``E_c(kx, y)`` for
      ``c`` in ``u, v, w`` (reality factor applied at merge time),
    * ``spec_z[c]`` — spanwise spectra, accumulated signed over ``kz``
      and folded to ``E_c(kz >= 0, y)`` at merge time — matching
      :func:`repro.stats.spectra.energy_spectrum_x` /
      :func:`~repro.stats.spectra.energy_spectrum_z` plane by plane.
    """

    PROFILES = ("U", "uu", "vv", "ww", "uv")
    COMPONENTS = ("u", "v", "w")

    def __init__(self, dns) -> None:
        #: weak: only the default of :meth:`sample` reads the driver
        self._dns = weakref.ref(dns)
        self.comm = dns.comm
        self.grid = dns.grid
        self.modes = dns.modes
        self.nu = dns.config.nu
        self.ops = dns.stepper.ops
        self.counters = StatsCounters()
        g = self.grid
        decomp = dns.decomp
        #: global index offsets of this rank's (kx, kz) block
        self._x0 = decomp.x_slice.start if decomp is not None else 0
        self._z0 = decomp.z_spec_slice.start if decomp is not None else 0
        self.nsamples = 0  # samples folded into the *local* partials
        self._base_samples = 0  # samples carried by a restored sidecar
        self._sums = {name: np.zeros(g.ny) for name in self.PROFILES}
        self._spec_x = {c: np.zeros((g.mx, g.ny)) for c in self.COMPONENTS}
        self._spec_z = {c: np.zeros((g.mz, g.ny)) for c in self.COMPONENTS}
        #: restored merged sums (present only on the mean-owning rank so
        #: the reduction counts them exactly once)
        self._base: np.ndarray | None = None
        self._weights = self.modes.parseval_weights

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------

    def _covariance(self, f_vals: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
        prod = np.real(f_vals * np.conj(g_vals)) * self._weights
        mean = self.modes.mean_index
        if mean is not None:
            prod[mean] = 0.0  # fluctuations exclude the mean mode
        return prod.sum(axis=(0, 1))

    def sample(self, state=None) -> None:
        """Fold one snapshot into the running sums (collective cadence:
        in distributed runs every rank must sample the same steps)."""
        t0 = time.perf_counter()
        if state is None:
            dns = self._dns()
            state = None if dns is None else dns.state
        if state is None:
            raise RuntimeError("no state to sample")
        ops = self.ops
        u_vals = ops.values(state.u)
        v_vals = ops.values(state.v)
        w_vals = ops.values(state.w)
        if self.modes.owns_mean:
            self._sums["U"] += ops.values(state.u00)
        self._sums["uu"] += self._covariance(u_vals, u_vals)
        self._sums["vv"] += self._covariance(v_vals, v_vals)
        self._sums["ww"] += self._covariance(w_vals, w_vals)
        self._sums["uv"] += self._covariance(u_vals, v_vals)
        x0, z0 = self._x0, self._z0
        bx, bz = self.modes.shape
        for name, vals in (("u", u_vals), ("v", v_vals), ("w", w_vals)):
            p = np.abs(vals) ** 2  # (bx, bz, ny)
            # E(kx, y): sum over this rank's kz columns into global kx rows
            self._spec_x[name][x0 : x0 + bx] += p.sum(axis=1)
            # E_signed(kz, y): kx-weighted sum into global (signed) kz rows
            self._spec_z[name][z0 : z0 + bz] += (p * self._weights).sum(axis=0)
        self.nsamples += 1
        self.counters.samples += 1
        self.counters.sample_seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # packed merge
    # ------------------------------------------------------------------

    def _pack(self) -> np.ndarray:
        """Flatten every local partial (plus a restored base, on the
        owning rank) into one contiguous vector for a single reduction."""
        parts = [self._sums[name] for name in self.PROFILES]
        parts += [self._spec_x[c].ravel() for c in self.COMPONENTS]
        parts += [self._spec_z[c].ravel() for c in self.COMPONENTS]
        packed = np.concatenate(parts)
        if self._base is not None:
            packed = packed + self._base
        return packed

    def _merged_packed(self) -> np.ndarray:
        """The packed global sums: one allreduce (none when serial)."""
        packed = self._pack()
        if self.comm is not None:
            packed = self.comm.allreduce(packed)
        self.counters.merges += 1
        return packed

    def _unpack(self, packed: np.ndarray) -> dict[str, np.ndarray]:
        g = self.grid
        out: dict[str, np.ndarray] = {}
        i = 0
        for name in self.PROFILES:
            out[name] = packed[i : i + g.ny].copy()
            i += g.ny
        for c in self.COMPONENTS:
            out[f"spec_x_{c}"] = packed[i : i + g.mx * g.ny].reshape(g.mx, g.ny).copy()
            i += g.mx * g.ny
        for c in self.COMPONENTS:
            out[f"spec_z_{c}"] = packed[i : i + g.mz * g.ny].reshape(g.mz, g.ny).copy()
            i += g.mz * g.ny
        return out

    @property
    def total_samples(self) -> int:
        """Samples represented by a merge: local + restored base."""
        return self.nsamples + self._base_samples

    def merged(self) -> dict[str, np.ndarray]:
        """Global *summed* quantities (collective: one packed allreduce).

        Returns the raw sums keyed ``U``/``uu``/.../``spec_x_u``/...;
        divide by :attr:`total_samples` for time averages (or use
        :meth:`result`, which does it for you).
        """
        if self.total_samples == 0:
            raise RuntimeError("no samples accumulated")
        return self._unpack(self._merged_packed())

    def result(self) -> dict:
        """Time-averaged global statistics, ready to publish (collective).

        The returned dict maps every array field of the results store
        (``docs/statistics_service.md``) to its value: the five profiles,
        the six spectra surfaces (reality factor applied, spanwise
        spectra folded to ``kz >= 0``), the wall-normal grid ``y``, the
        wavenumbers ``kx``/``kz`` and the measured friction velocity
        ``u_tau``.
        """
        g = self.grid
        sums = self.merged()
        n = self.total_samples
        out: dict = {name: sums[name] / n for name in self.PROFILES}
        # reality factor of the streamwise spectra: kx > 0 counts twice
        wx = np.where(g.kx > 0.0, 2.0, 1.0)[:, None]
        half = g.nz // 2
        for c in self.COMPONENTS:
            out[f"spec_x_{c}"] = sums[f"spec_x_{c}"] / n * wx
            signed = sums[f"spec_z_{c}"] / n
            folded = np.empty((half, g.ny))
            folded[0] = signed[0]
            for j in range(1, half):
                folded[j] = signed[j] + signed[g.mz - j]  # fold ±kz
            out[f"spec_z_{c}"] = folded
        out["y"] = g.y.copy()
        out["kx"] = g.kx.copy()
        out["kz"] = g.kz[:half].copy()
        out["nsamples"] = n
        out["u_tau"] = self._friction_velocity(out["U"])
        return out

    def _friction_velocity(self, mean_profile: np.ndarray) -> float:
        """``u_tau = sqrt(nu |dU/dy|_wall)`` averaged over both walls."""
        a = self.grid.basis.interpolate(mean_profile)
        d_lo, d_up = self.ops.wall_derivatives(a)
        return float(np.sqrt(self.nu * 0.5 * (abs(d_lo) + abs(d_up))))

    # ------------------------------------------------------------------
    # profile reads (each one merge — collective on a decomposed run)
    # ------------------------------------------------------------------

    def profile(self, name: str) -> np.ndarray:
        """Time-averaged global profile over the collocation points."""
        return self.merged()[name] / self.total_samples

    def mean_velocity(self) -> np.ndarray:
        return self.profile("U")

    def reynolds_stress(self) -> np.ndarray:
        """``-<u'v'>`` (positive in the lower half where production lives)."""
        return -self.profile("uv")

    def friction_velocity(self) -> float:
        """Measured ``u_tau`` of the time-averaged mean profile."""
        return self._friction_velocity(self.mean_velocity())

    def wall_units(self) -> tuple[np.ndarray, np.ndarray]:
        """(y+, U+) of the lower half-channel, wall-distance ordered."""
        nu = self.nu
        mean = self.mean_velocity()
        u_tau = self._friction_velocity(mean)
        y = self.grid.y
        half = y <= 0.0
        return (1.0 + y[half]) * u_tau / nu, mean[half] / u_tau

    def bulk_velocity(self) -> float:
        """Volume-averaged streamwise velocity (mass flux / area / 2)."""
        w = self.grid.basis.collocation_weights
        return float(w @ self.mean_velocity()) / 2.0

    # ------------------------------------------------------------------
    # checkpoint sidecar (resumability)
    # ------------------------------------------------------------------

    def save_to(self, directory):
        """Write the merged sums as an atomic checksummed sidecar
        (:data:`SIDECAR_NAME` under ``directory``).

        Collective (performs the packed merge); only the lead rank
        writes.  The sidecar holds *global* sums, so any later
        decomposition — including a serial collapse, an elastic shrink or
        a later run on more ranks — can restore it.  Returns the written
        path on the writing rank, ``None`` elsewhere.
        """
        import pathlib

        if self.total_samples == 0:
            return None
        packed = self._merged_packed()
        if self.comm is not None and self.comm.rank != 0:
            return None
        path = pathlib.Path(directory) / SIDECAR_NAME
        manifest = {
            # container version of the shared checksummed-npz reader;
            # stats_version is the sidecar's own packed-layout schema
            "format_version": _CONTAINER_VERSION,
            "stats_version": STATS_FORMAT_VERSION,
            "kind": "streaming-stats",
            "nsamples": int(self.total_samples),
            "ny": int(self.grid.ny),
            "mx": int(self.grid.mx),
            "mz": int(self.grid.mz),
        }
        return write_npz(path, manifest, {"packed": packed})

    def restore_from(self, directory) -> bool:
        """Load a sidecar written by :meth:`save_to`, if one exists.

        Every rank reads the file (deterministic, no broadcast needed);
        the merged sums become the accumulator's *base*, carried by the
        mean-owning rank only so the next merge counts them exactly
        once.  Local partials reset to zero.  Returns True when a
        sidecar was found and loaded; False (accumulator left empty)
        when none exists — a run checkpointed before streaming was
        enabled restarts with zero samples, not an error.
        """
        import pathlib

        path = pathlib.Path(directory) / SIDECAR_NAME
        if not path.exists():
            return False
        manifest, arrays = read_npz(path)
        if manifest.get("kind") != "streaming-stats":
            raise ValueError(f"{path.name}: not a streaming-stats sidecar")
        for key in ("ny", "mx", "mz"):
            want = int(getattr(self.grid, key))
            if int(manifest[key]) != want:
                raise ValueError(
                    f"{path.name}: grid mismatch on {key!r}: "
                    f"{manifest[key]} (file) vs {want} (run)"
                )
        for name in self.PROFILES:
            self._sums[name][:] = 0.0
        for c in self.COMPONENTS:
            self._spec_x[c][:] = 0.0
            self._spec_z[c][:] = 0.0
        self.nsamples = 0
        self._base_samples = int(manifest["nsamples"])
        if self.comm is None or self.modes.owns_mean:
            self._base = arrays["packed"]
        else:
            self._base = None
        self.counters.restores += 1
        return True
