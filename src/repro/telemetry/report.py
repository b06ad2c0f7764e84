"""Table-9/10-style breakdowns regenerated from a telemetry stream.

The paper reports a timestep as ``Transpose / FFT / N-S advance /
Total`` (Tables 9-10).  :func:`breakdown` reproduces exactly that view
— plus every other recorded section — from a stream written by
:class:`~repro.telemetry.RunRecorder`, so the published numbers come
from a durable artefact instead of an ad-hoc print at the end of a run::

    python -m repro.telemetry.report runs/smoke/telemetry.jsonl

Per-section statistics are computed over the per-step deltas (median,
mean, total, share of the step), which is how a noisy shared machine
should be summarized — a single cumulative total hides the tail.  The
sections are exclusive, so their shares and the ``(outside sections)``
residual add up to the recorded step wall.
"""

from __future__ import annotations

import statistics
import sys

from repro.instrument import SectionTimers
from repro.telemetry.schema import read_stream

#: the paper's Table 9/10 column order, then everything else alphabetically
PAPER_ORDER = (
    SectionTimers.TRANSPOSE,
    SectionTimers.FFT,
    SectionTimers.ADVANCE,
)


def breakdown(path, *, validate: bool = True) -> dict:
    """Aggregate a stream into per-section timing statistics.

    Returns ``{"steps", "wall_s", "residual_s", "sections": {name:
    {"median_s", "mean_s", "total_s", "calls", "share"}}, "summary"}``
    where ``share`` is the section's fraction of the summed per-step
    wall time.  Sections are exclusive (a nested section's time is not
    in its parent's), so the shares add up to the step less
    ``residual_s``: the wall time no section covers.
    """
    per_section: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    wall = 0.0
    steps = 0
    summary = None
    for rec in read_stream(path, validate=validate):
        if rec["type"] == "step":
            steps += 1
            wall += rec["wall_s"]
            for name, cell in rec["sections"].items():
                per_section.setdefault(name, []).append(cell["s"])
                calls[name] = calls.get(name, 0) + cell["calls"]
        elif rec["type"] == "summary":
            summary = rec
    sections = {}
    for name, samples in per_section.items():
        total = sum(samples)
        sections[name] = {
            "median_s": statistics.median(samples),
            "mean_s": total / len(samples),
            "total_s": total,
            "calls": calls[name],
            "share": (total / wall) if wall > 0 else 0.0,
        }
    return {
        "steps": steps,
        "wall_s": wall,
        "residual_s": wall - sum(s["total_s"] for s in sections.values()),
        "sections": sections,
        "summary": summary,
    }


def format_breakdown(result: dict, title: str = "per-step section breakdown") -> str:
    """Render a breakdown as the paper-style text table."""
    sections = result["sections"]
    order = [s for s in PAPER_ORDER if s in sections]
    order += sorted(s for s in sections if s not in PAPER_ORDER)
    lines = [
        f"{title}  ({result['steps']} steps, {result['wall_s']:.3f} s wall)",
        f"{'section':>20} {'median':>10} {'mean':>10} {'total':>10} {'calls':>7} {'share':>7}",
    ]
    for name in order:
        s = sections[name]
        lines.append(
            f"{name:>20} {s['median_s'] * 1e3:>8.2f}ms {s['mean_s'] * 1e3:>8.2f}ms "
            f"{s['total_s']:>9.3f}s {s['calls']:>7d} {s['share']:>6.1%}"
        )
    wall, residual = result["wall_s"], result["residual_s"]
    lines.append(
        f"{'(outside sections)':>20} {'':>10} {'':>10} {residual:>9.3f}s {'':>7} "
        f"{(residual / wall) if wall > 0 else 0.0:>6.1%}"
    )
    summary = result.get("summary")
    if summary and summary.get("overhead_frac") is not None:
        lines.append(
            f"{'recorder overhead':>20} {summary['overhead_s']:.4f}s "
            f"({summary['overhead_frac']:.2%} of recorded wall; budget < 1%)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    for path in argv:
        print(format_breakdown(breakdown(path), title=str(path)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
