"""High-level channel DNS driver: one step loop for every layout.

:class:`ChannelDNS` ties together the grid, the RK3 IMEX stepper, initial
conditions, streaming statistics and diagnostics behind the public API
used by the examples:

>>> from repro.core import ChannelConfig, ChannelDNS
>>> dns = ChannelDNS(ChannelConfig(nx=32, ny=33, nz=32, re_tau=180.0, dt=2e-4))
>>> dns.initialize()
>>> stats = dns.attach_streaming(every=2)
>>> dns.run(10)
>>> stats.bulk_velocity()  # doctest: +SKIP

Units: lengths in channel half-widths, velocities in friction velocity
(the driving pressure gradient is 1, so ``u_tau = 1`` and
``nu = 1 / Re_tau``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.grid import ChannelGrid
from repro.core.initial import perturbed_state
from repro.core.timestepper import ChannelState, IMEXStepper, SMR91
from repro.core.transforms import SerialTransformBackend
from repro.core.velocity import divergence, recover_uw
from repro.instrument import SectionTimers


@dataclass
class ChannelConfig:
    """Configuration of a channel DNS run.

    The paper's production case is ``nx=10240, ny=1536, nz=7680`` at
    ``Re_tau = 5200``; laptop-scale reproductions use grids like 32³ at
    ``Re_tau = 180``.
    """

    nx: int = 32
    ny: int = 33
    nz: int = 32
    re_tau: float = 180.0
    lx: float = 2.0 * np.pi
    lz: float = np.pi
    dt: float = 1e-4
    degree: int = 7
    stretch: float = 2.0
    forcing: float = 1.0
    init_amplitude: float = 0.1
    init_modes: int = 4
    init_base: str = "reichardt"
    seed: int = 0
    scheme: SMR91 = field(default_factory=SMR91)
    nu_value: float | None = None
    #: FFT execution backend of the transform pipeline: "numpy" (default,
    #: bit-reproducible), "scipy" (pocketfft with a thread pool) or "auto".
    fft_backend: str = "numpy"
    #: thread count for the scipy backend (the paper's OpenMP-threaded
    #: FFTs); None leaves the backend single-threaded.
    fft_workers: int | None = None

    @property
    def nu(self) -> float:
        """Kinematic viscosity: explicit ``nu_value`` if set, else implied
        by Re_tau with ``u_tau = sqrt(forcing)``."""
        if self.nu_value is not None:
            return float(self.nu_value)
        return float(np.sqrt(self.forcing)) / self.re_tau


def _elementwise_max(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _message_totals(stats: tuple) -> dict:
    """Summed snapshot of several communicators' ``MessageStats``."""
    total = dict.fromkeys(stats[0].FIELDS, 0)
    for st in stats:
        for k, v in st.snapshot().items():
            total[k] += v
    return total


class ChannelDNS:
    """Spectral channel DNS (Kim–Moin–Moser formulation): the one driver.

    The step loop and every diagnostic are written against a *layout* —
    ``transforms`` (spectral <-> physical), ``modes`` (the wavenumber
    block this process advances) and ``comm`` — and serial is simply the
    layout without a communicator: full mode set, in-process transforms,
    ``comm is None``.  :class:`~repro.pencil.distributed.DistributedChannelDNS`
    substitutes the pencil layout (:meth:`_layout`) and inherits the rest.
    Global quantities go through :meth:`_reduce`, which returns its
    argument when there is no communicator, so a serial run constructs
    no communicator and issues no collective.

    ``telemetry`` enables structured run recording (see
    :mod:`repro.telemetry`): pass a directory path or a
    :class:`~repro.telemetry.TelemetryConfig` and every step emits a
    JSON-lines record (section times, counters, dt, CFL) with a run
    manifest and a Chrome trace written alongside; an already-built
    :class:`~repro.telemetry.RunRecorder` is attached as-is.  Call
    :meth:`finalize_telemetry` (or close the recorder) at the end of a
    run to write the summary record.
    """

    def __init__(self, config: ChannelConfig, telemetry=None) -> None:
        self.config = config
        self.grid = ChannelGrid(
            config.nx,
            config.ny,
            config.nz,
            lx=config.lx,
            lz=config.lz,
            degree=config.degree,
            stretch=config.stretch,
        )
        #: the run's only section timers, shared with the stepper and the
        #: transforms (which time their fft and transpose stages into them)
        self.timers = SectionTimers()
        self.comm, self.decomp, self.transforms = self._layout()
        d = self.decomp
        self.modes = (
            self.grid.modes if d is None else self.grid.modes.slab(d.x_slice, d.z_spec_slice)
        )
        self.stepper = IMEXStepper(
            self.grid,
            nu=config.nu,
            dt=config.dt,
            forcing=config.forcing,
            scheme=config.scheme,
            modes=self.modes,
            backend=self.transforms,
            # the communicator's own method, not a closure over this driver:
            # nothing a driver owns refers back to it (DESIGN.md §6a)
            reduce_max=(
                None if self.comm is None
                else partial(self.comm.allreduce, op=_elementwise_max)
            ),
            timers=self.timers,
        )
        self.state: ChannelState | None = None
        self.step_count = 0
        self.recorder = None
        self.streaming = None
        self._streaming_every = 0
        if telemetry is not None:
            from repro.telemetry import RunRecorder

            if not isinstance(telemetry, RunRecorder):
                rank, nranks = (0, 1) if self.comm is None else (self.comm.rank, self.comm.size)
                telemetry = RunRecorder(telemetry, rank=rank, nranks=nranks)
            telemetry.attach(self)

    def _layout(self):
        """``(comm, decomp, transforms)`` of this run — serial here: no
        communicator, no decomposition, the transforms of the ``1 x 1``
        grid, timed into the run's timers."""
        cfg = self.config
        transforms = SerialTransformBackend(
            self.grid,
            backend=cfg.fft_backend,
            workers=cfg.fft_workers,
        )
        transforms.timers = self.timers
        return None, None, transforms

    def _reduce(self, value, op=None):
        """Global reduction of a rank-local ``value`` (``op=None`` sums);
        the value itself when there is no communicator."""
        if self.comm is None:
            return value
        return self.comm.allreduce(value, op=op)

    # ------------------------------------------------------------------

    def scatter_state(self, full: ChannelState) -> ChannelState:
        """This layout's part of a full state — all of it, when serial."""
        return full

    def initialize(self, state: ChannelState | None = None) -> None:
        """Set the initial condition from a full (serial-layout) state
        (default: the seeded perturbed mean profile, generated
        identically on every rank of a decomposed run)."""
        if state is None:
            cfg = self.config
            state = perturbed_state(
                self.grid,
                nu=cfg.nu,
                amplitude=cfg.init_amplitude,
                modes=cfg.init_modes,
                seed=cfg.seed,
                base=cfg.init_base,
                forcing=cfg.forcing,
            )
        state = self.scatter_state(state)
        if state.u is None or state.w is None:  # the derived velocity cache
            state.u, state.w = recover_uw(
                self.modes, self.stepper.ops, state.v, state.omega_y, state.u00, state.w00
            )
        self.state = state

    def attach_streaming(self, stats=None, *, every: int = 1):
        """Attach a streaming-statistics accumulator to the step loop.

        Every ``every`` steps, :meth:`step` folds the fresh state into
        the accumulator under the ``stats`` timer section (see
        :mod:`repro.serving`).  ``stats=None`` builds a fresh
        :class:`~repro.serving.StreamingStatistics`.  On a decomposed run
        this is collective: every rank attaches with the same ``every``
        and holds its own partial sums, merged through the communicator
        when read.  Returns the attached accumulator.
        """
        if stats is None:
            from repro.serving import StreamingStatistics

            stats = StreamingStatistics(self)
        self.streaming = stats
        self._streaming_every = max(1, int(every))
        if self.recorder is not None:
            self.recorder.add_group("stats", stats.counters)
        return stats

    def counter_groups(self) -> dict:
        """The step-record counter groups this driver has (see
        :data:`repro.instrument.GROUPS`): group -> snapshot function."""
        groups = {"solve": self.stepper.solve_counters, **self.transforms.counter_groups()}
        if self.comm is not None:
            # world collectives plus the transposes' exchanges, which run
            # on the row and column sub-communicators' own contexts
            comms = (self.comm, self.transforms.comm_a, self.transforms.comm_b)
            stats = tuple({id(c.stats): c.stats for c in comms}.values())
            groups["mpi"] = partial(_message_totals, stats)
        if self.streaming is not None:
            groups["stats"] = self.streaming.counters.snapshot
        return groups

    def step(self) -> None:
        """Advance one timestep."""
        # the stepper shares self.timers: ns_advance and the implicit
        # solves inside it, nonlinear_products and the transforms' fft
        # (and, on a pencil layout, transpose) sections inside that
        self.state = self.stepper.step(self._require_state())
        self.step_count += 1
        if self.streaming is not None and self.step_count % self._streaming_every == 0:
            with self.timers.section(self.timers.STATS):
                self.streaming.sample(self.state)
        if self.recorder is not None:
            self.recorder.record_step(self)

    def finalize_telemetry(self) -> None:
        """Close the attached recorder (summary record + final trace)."""
        if self.recorder is not None:
            self.recorder.close()

    def set_dt(self, dt: float) -> None:
        """Change the timestep (refactors the implicit banded systems)."""
        self.stepper.set_dt(dt)

    def run(self, nsteps: int, callback=None, controllers=()) -> None:
        """Advance ``nsteps``.

        ``controllers`` are callables applied after every step (e.g.
        :class:`~repro.core.control.CFLController`,
        :class:`~repro.core.control.MassFluxController`, or a
        :class:`~repro.core.health.HealthMonitor`, whose typed exceptions
        propagate to the caller — the supervised run loop catches them;
        its checks reduce globally, so every rank trips together), then
        ``callback(dns)``.
        """
        for _ in range(nsteps):
            self.step()
            for ctrl in controllers:
                ctrl(self)
            if callback is not None:
                callback(self)

    # ------------------------------------------------------------------
    # diagnostics (global: every rank of a decomposed run gets the same value)
    # ------------------------------------------------------------------

    def physical_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) on (this rank's part of) the dealiased quadrature
        grid ``(nxq, nzq, ny)``."""
        s = self._require_state()
        return self.stepper.nonlinear.physical_velocity(s.u, s.v, s.w)

    def divergence_norm(self) -> float:
        """Max collocated spectral divergence (machine-zero for this scheme)."""
        return self._reduce(self._block_divergence(), max)

    def _block_divergence(self) -> float:
        """Max collocated spectral divergence of this rank's block (no
        communicator call)."""
        s = self._require_state()
        return float(np.abs(divergence(self.modes, self.stepper.ops, s.u, s.v, s.w)).max())

    def kinetic_energy(self) -> float:
        """Volume-averaged kinetic energy (including the mean flow)."""
        s = self._require_state()
        ops = self.stepper.ops
        e_y = np.zeros(self.grid.ny)
        for f in (s.u, s.v, s.w):
            vals = ops.values(f)
            e_y += (np.abs(vals) ** 2 * self.modes.parseval_weights).sum(axis=(0, 1))
        wq = self.grid.basis.collocation_weights
        return float(wq @ self._reduce(e_y)) / 2.0 / 2.0  # /2 for KE, /2 for volume (Ly = 2)

    def cfl_number(self) -> float:
        return self.stepper.cfl_number()

    def state_finite(self) -> bool:
        """True when every prognostic array is finite (watchdog hook)."""
        return bool(self._reduce(int(self._require_state().finite()), min))

    def wall_shear_velocity(self) -> float:
        """Instantaneous friction velocity from the mean profile."""
        s = self._require_state()
        local = 0.0  # the mean-owning block carries the profile
        if self.modes.owns_mean:
            d_lo, d_up = self.stepper.ops.wall_derivatives(s.u00)
            local = float(np.sqrt(self.config.nu * 0.5 * (abs(d_lo) + abs(d_up))))
        return self._reduce(local, max)

    def _require_state(self) -> ChannelState:
        if self.state is None:
            raise RuntimeError("call initialize() first")
        return self.state
