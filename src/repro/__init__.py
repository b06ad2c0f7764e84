"""repro — reproduction of "Petascale Direct Numerical Simulation of
Turbulent Channel Flow on up to 786K Cores" (Lee, Malaya & Moser, SC13).

The package provides four layers:

* the spectral channel DNS itself (:mod:`repro.core`): Kim–Moin–Moser
  formulation, Fourier x/z + 7th-degree B-spline collocation in y,
  RK3 IMEX time advance, statistics;
* the substrates it stands on: B-splines (:mod:`repro.bsplines`), the
  custom corner-banded solver (:mod:`repro.linalg`), Nyquist-free FFTs
  with 3/2 dealiasing (:mod:`repro.fft`);
* the parallel machinery: a simulated MPI (:mod:`repro.mpi`), pencil
  decomposition with global transposes, the customized parallel FFT and
  a P3DFFT-like baseline, and a distributed DNS driver
  (:mod:`repro.pencil`);
* calibrated machine models of the paper's four benchmark systems that
  regenerate its performance tables (:mod:`repro.perfmodel`), plus
  statistics references and field visualisation (:mod:`repro.stats`);
* run observability (:mod:`repro.telemetry`): every driver takes
  ``telemetry=`` and emits a JSON-lines record stream, a run manifest
  and a Chrome trace (see ``docs/observability.md``).

Quickstart::

    from repro import ChannelConfig, ChannelDNS
    dns = ChannelDNS(ChannelConfig(nx=32, ny=33, nz=32, re_tau=180.0, dt=2e-4))
    dns.initialize()
    stats = dns.attach_streaming(every=10)
    dns.run(100)
    yplus, uplus = stats.wall_units()
"""

import importlib

__version__ = "1.0.0"

#: re-exported name -> defining module, imported on first access (PEP 562)
#: so that ``import repro.serving`` or ``from repro.core import ChannelDNS``
#: loads none of the layers it does not use
_EXPORTS = {
    "ChannelConfig": "repro.core",
    "ChannelDNS": "repro.core",
    "ChannelGrid": "repro.core",
    "DistributedChannelDNS": "repro.pencil.distributed",
    "P3DFFTBaseline": "repro.pencil",
    "PencilTransforms": "repro.pencil",
    "RunRecorder": "repro.telemetry",
    "TelemetryConfig": "repro.telemetry",
    "run_spmd": "repro.mpi",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
