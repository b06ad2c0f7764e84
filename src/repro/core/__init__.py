"""Core channel DNS: the paper's primary computational contribution.

Implements the Kim–Moin–Moser wall-normal velocity/vorticity formulation
(§2.1) with Fourier–Galerkin discretization in x/z, B-spline collocation
in y, 3/2-rule dealiasing, and third-order low-storage IMEX Runge–Kutta
time advancement (Spalart–Moser–Rogers 1991).

Public entry point: :class:`~repro.core.solver.ChannelDNS` configured by
:class:`~repro.core.solver.ChannelConfig`.
"""

from repro.core.grid import ChannelGrid
from repro.core.health import DivergedError, HealthMonitor, UnstableError
from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.supervisor import RunSupervisor, SupervisorPolicy
from repro.core.timestepper import SMR91

__all__ = [
    "ChannelConfig",
    "ChannelDNS",
    "ChannelGrid",
    "DivergedError",
    "HealthMonitor",
    "RunSupervisor",
    "SMR91",
    "SupervisorPolicy",
    "UnstableError",
]
