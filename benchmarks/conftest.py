"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_table*.py`` / ``bench_fig*.py`` module regenerates one of
the paper's tables or figures, printing a paper-vs-reproduction table
and writing it under ``benchmarks/results/``.  All benches use the
pytest-benchmark fixture on a representative kernel so the whole harness
runs under ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import ChannelConfig, ChannelDNS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a report and persist it to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 74}\n{text}\n{'=' * 74}")


def fmt_row(cells, widths) -> str:
    return " ".join(str(c).rjust(w) for c, w in zip(cells, widths))


@pytest.fixture(scope="session")
def mini_dns():
    """A small turbulent channel run shared by the figure benches.

    Re_tau = 180 on a 32 x 33 x 32 grid: enough steps for transients to
    decay and statistics to take shape, small enough to keep the harness
    fast.
    """
    cfg = ChannelConfig(
        nx=32,
        ny=33,
        nz=32,
        re_tau=180.0,
        dt=4e-4,
        init_amplitude=2.5,
        init_modes=6,
        seed=7,
    )
    dns = ChannelDNS(cfg)
    dns.initialize()
    dns.run(900)  # breakdown of the initial perturbations into turbulence
    dns.attach_streaming(every=10)  # read back as dns.streaming
    dns.run(600)
    return dns
