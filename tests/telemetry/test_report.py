"""Stream → Table-9/10 breakdown regeneration."""

import subprocess
import sys

import pytest

from repro.core.solver import ChannelConfig, ChannelDNS
from repro.telemetry.report import breakdown, format_breakdown

CFG = ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4, seed=3, init_amplitude=0.5)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    tel = tmp_path_factory.mktemp("tel")
    dns = ChannelDNS(CFG, telemetry=tel)
    dns.initialize()
    dns.run(5)
    dns.finalize_telemetry()
    return tel / "telemetry.jsonl"


def test_breakdown_statistics(stream):
    result = breakdown(stream)
    assert result["steps"] == 5
    assert result["wall_s"] > 0
    adv = result["sections"]["ns_advance"]
    assert adv["median_s"] > 0
    assert adv["total_s"] == pytest.approx(adv["mean_s"] * 5)
    assert adv["calls"] > 0
    # exclusive sections: the shares and the residual add up to the wall
    shares = sum(s["share"] for s in result["sections"].values())
    assert shares + result["residual_s"] / result["wall_s"] == pytest.approx(1.0)
    assert 0.0 <= result["residual_s"] < 0.25 * result["wall_s"]
    # the solve section (inside ns_advance) and the serial fft stages
    # (inside nonlinear_products) are reported in their own right
    assert {"solve", "fft"} <= set(result["sections"])
    assert result["summary"]["overhead_frac"] is not None


def test_format_breakdown_paper_columns(stream):
    text = format_breakdown(breakdown(stream))
    lines = text.splitlines()
    assert "5 steps" in lines[0]
    names = [ln.split()[0] for ln in lines[2:] if ln.split()]
    # Table 9/10 order puts ns_advance before the alphabetical extras
    assert names.index("ns_advance") < names.index("nonlinear_products")
    assert "(outside sections)" in text  # the residual has its own row
    assert "recorder overhead" in text
    assert "budget < 1%" in text


def test_report_cli(stream):
    out = subprocess.run(
        [sys.executable, "-m", "repro.telemetry.report", str(stream)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "ns_advance" in out.stdout


def test_distributed_shares_add_up_to_the_step_wall(tmp_path):
    """On a 2x2 run the transposes and FFT stages are timed inside
    ``nonlinear_products``; exclusive sections keep every rank's shares
    within its recorded step wall, the rest being a small residual."""
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.distributed import DistributedChannelDNS

    tel = tmp_path / "tel"

    def prog(comm):
        dns = DistributedChannelDNS(comm, CFG, pa=2, pb=2, telemetry=tel)
        dns.initialize()
        dns.run(6)
        dns.finalize_telemetry()

    run_spmd(4, prog)
    for rank in range(4):
        result = breakdown(tel / f"telemetry-rank{rank:03d}.jsonl")
        assert result["steps"] == 6
        sections = result["sections"]
        assert {"transpose", "fft", "nonlinear_products", "ns_advance", "solve"} <= set(sections)
        total = sum(s["total_s"] for s in sections.values())
        assert total <= result["wall_s"]
        assert result["residual_s"] == pytest.approx(result["wall_s"] - total)
        assert result["residual_s"] < 0.25 * result["wall_s"]
        assert sum(s["share"] for s in sections.values()) <= 1.0
