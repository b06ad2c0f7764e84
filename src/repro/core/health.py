"""Watchdog health checks for a running trajectory.

A months-long production campaign cannot wait for a human to notice that
the trajectory blew up at 3am: the watchdog turns silent numerical death
into a *typed* exception the :class:`~repro.core.supervisor.RunSupervisor`
can catch, roll back, and recover from.  Three checks, each against a
configurable threshold, every ``every`` steps:

* **finiteness** — any NaN/Inf in the prognostic arrays raises
  :class:`DivergedError` (the classic blow-up signature, and the first
  check because every later diagnostic is meaningless on NaN state);
* **divergence norm** — the scheme keeps the velocity solenoidal to
  machine zero, so a divergence norm above threshold means the solve
  path itself is broken (also :class:`DivergedError`);
* **CFL number** — an advective CFL above threshold means the explicit
  terms are about to go unstable; :class:`UnstableError` tells the
  supervisor that *dt reduction*, not just a retry, is the fix.

The monitor follows the controller protocol (a callable applied after
each step), so it plugs into ``dns.run(n, controllers=[monitor])`` on
any layout of :class:`~repro.core.solver.ChannelDNS`: the driver's
``state_finite``/``divergence_norm``/``cfl_number`` are global
reductions on a decomposed run, so every rank trips together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class HealthCheckError(RuntimeError):
    """Base of the watchdog's typed failures; carries the failing step."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class DivergedError(HealthCheckError):
    """The trajectory is numerically dead: NaN/Inf state or broken solenoidality."""


class UnstableError(HealthCheckError):
    """The trajectory is (about to go) unstable: CFL above threshold."""


@dataclass
class HealthMonitor:
    """Periodic state health checks; raises typed errors on violation.

    Use as a controller: ``dns.run(n, controllers=[HealthMonitor()])``,
    or hand it to a :class:`~repro.core.supervisor.RunSupervisor` which
    will roll back and retry on failure instead of dying.
    """

    #: check every this-many steps (1 = every step)
    every: int = 1
    #: advective CFL ceiling; above it the explicit terms are unstable
    max_cfl: float = 2.5
    #: solenoidality ceiling (machine-zero scheme; 1e-6 is generous)
    max_divergence: float = 1e-6
    #: NaN/Inf screening of the prognostic arrays
    check_finite: bool = True
    #: checks performed (diagnostic)
    checks: int = field(default=0, repr=False)
    #: last passing report: {"step", "divergence", "cfl"}
    last_report: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")

    def __call__(self, dns) -> None:
        if dns.step_count % self.every:
            return
        self.checks += 1
        step = dns.step_count
        if self.check_finite and not dns.state_finite():
            raise DivergedError(f"non-finite state at step {step}", step=step)
        div = dns.divergence_norm()
        if not div <= self.max_divergence:  # catches NaN too
            raise DivergedError(
                f"divergence norm {div:.3e} exceeds {self.max_divergence:.3e} "
                f"at step {step}",
                step=step,
            )
        cfl = dns.cfl_number()
        if not np.isfinite(cfl) or cfl > self.max_cfl:
            raise UnstableError(
                f"CFL {cfl:.3f} exceeds {self.max_cfl:.3f} at step {step}",
                step=step,
            )
        self.last_report = {"step": step, "divergence": div, "cfl": cfl}
