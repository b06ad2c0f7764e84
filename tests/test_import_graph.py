"""The production import graph loads numpy and repro, and no scipy submodule.

scipy is an optional backend here (``fft_backend="scipy"``) and the
oracle behind :mod:`repro.linalg.reference`; a serial, distributed or
serving process never needs it, and each process pays its import time
and resident memory once per rank.  Each case runs in a fresh
interpreter so no other test's imports leak into ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

SCIPY_SUBMODULES = ("scipy.linalg", "scipy.fft", "scipy.special")


def loaded_after(code: str, tmp_path, watch) -> list[str]:
    """Run ``code`` in a fresh interpreter; the names in ``watch`` it left in
    ``sys.modules``."""
    tail = f"\nimport json, sys\nprint(json.dumps([m for m in {list(watch)!r} if m in sys.modules]))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + tail],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_loads_no_dns_layer_and_no_scipy(tmp_path):
    code = """
        from repro.serving import StatisticsService, populate_store, synthetic_result
        store = populate_store("store", (180.0, 550.0))
        service = StatisticsService(store)
        service.law_of_wall(180.0, [5.0, 30.0])
        service.variance(550.0, "u", [15.0])
        service.spectrum(180.0, "x", "u", 15.0)
        synthetic_result(180.0)
    """
    watch = ("repro.core", "repro.mpi", "repro.pencil", *SCIPY_SUBMODULES)
    assert loaded_after(code, tmp_path, watch) == []


def test_serial_dns_loads_no_parallel_layer_and_no_scipy(tmp_path):
    code = """
        from repro.core import ChannelConfig, ChannelDNS
        dns = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=1), telemetry="telemetry")
        stats = dns.attach_streaming(every=1)
        dns.initialize()
        dns.run(3)
        dns.finalize_telemetry()
        dns.kinetic_energy()
        stats.bulk_velocity()
    """
    watch = ("repro.mpi", "repro.pencil", *SCIPY_SUBMODULES)
    assert loaded_after(code, tmp_path, watch) == []


def test_distributed_dns_loads_no_scipy(tmp_path):
    code = """
        from repro.core import ChannelConfig
        from repro.mpi import run_spmd
        from repro.pencil.distributed import DistributedChannelDNS

        def prog(comm):
            dns = DistributedChannelDNS(comm, ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=1), pa=2, pb=2)
            dns.initialize()
            dns.run(2)
            return dns.kinetic_energy()

        run_spmd(4, prog)
    """
    assert loaded_after(code, tmp_path, SCIPY_SUBMODULES) == []


def test_every_package_export_resolves(tmp_path):
    code = """
        import repro
        for name in repro.__all__:
            exec(f"from repro import {name}")
        from repro.core import *
        from repro.linalg.reference import (
            netlib_banded_lu, netlib_banded_solve, solve_padded_complex, solve_padded_split,
        )
    """
    assert loaded_after(code, tmp_path, ("repro.core.supervisor", "scipy.linalg")) == [
        "repro.core.supervisor", "scipy.linalg",
    ]


def test_scipy_backend_is_imported_on_first_use(tmp_path):
    pytest.importorskip("scipy")
    code = """
        import sys
        import numpy as np
        from repro.fft.plans import FFTPlan, available_backends, resolve_backend
        assert available_backends() == ("numpy", "scipy") and resolve_backend("auto") == "scipy"
        assert "scipy.fft" not in sys.modules
        a = np.random.default_rng(0).standard_normal((12, 10))
        got = FFTPlan("rfft", a.shape, axis=0, backend="scipy", workers=2).execute(a)
        want = FFTPlan("rfft", a.shape, axis=0, backend="numpy").execute(a)
        np.testing.assert_allclose(got, want, atol=1e-12)
    """
    assert loaded_after(code, tmp_path, ("scipy.fft",)) == ["scipy.fft"]
