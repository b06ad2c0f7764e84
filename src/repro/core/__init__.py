"""Core channel DNS: the paper's primary computational contribution.

Implements the Kim–Moin–Moser wall-normal velocity/vorticity formulation
(§2.1) with Fourier–Galerkin discretization in x/z, B-spline collocation
in y, 3/2-rule dealiasing, and third-order low-storage IMEX Runge–Kutta
time advancement (Spalart–Moser–Rogers 1991).

Public entry point: :class:`~repro.core.solver.ChannelDNS` configured by
:class:`~repro.core.solver.ChannelConfig`.
"""

import importlib

from repro.core.grid import ChannelGrid
from repro.core.health import DivergedError, HealthMonitor, UnstableError
from repro.core.solver import ChannelConfig, ChannelDNS
from repro.core.timestepper import SMR91

# The supervisor stands on repro.mpi, repro.pencil and repro.storage; it is
# imported on first access (PEP 562) so a serial run loads none of them.
_LAZY = {"RunSupervisor": "repro.core.supervisor", "SupervisorPolicy": "repro.core.supervisor"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value

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
