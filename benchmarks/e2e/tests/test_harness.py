"""Tests of the benchmark harness itself (not part of tier-1).

Run from the repo root: ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import sys
import threading
import time

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
import layers  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, t0, t1, parent, step=0, work=None):
    return [name, t0, t1, parent, step, work]


class TestSelfTime:
    def test_nested_spans_of_one_thread(self):
        spans = [
            span("step", 0.0, 10.0, -1),
            span("ops", 1.0, 4.0, 0),
            span("solve", 2.0, 3.0, 1),
            span("ops", 5.0, 9.0, 0),
        ]
        assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_totals_per_rank_and_same_name_nesting(self):
        rec = layers.SpanRecorder()
        a = layers._ThreadSpans(0, layers.SETUP)
        a.rank = 0
        a.spans = [
            span("step", 0.0, 10.0, -1),
            span("ops", 1.0, 7.0, 0),
            span("ops", 2.0, 5.0, 1),  # ops calling ops: inclusive time counts the outer one only
            span("mpi", 3.0, 4.0, 2, work=(2, 16)),
            span("step", 20.0, 21.0, -1, step=layers.SETUP),  # outside the measured steps
        ]
        b = layers._ThreadSpans(1, layers.SETUP)
        b.rank = 1
        b.spans = [span("step", 0.0, 6.0, -1), span("mpi", 0.0, 6.0, 0)]
        rec.threads = [a, b]
        totals = rec.totals(layers.MEASURED)
        assert totals[0]["step"][:3] == [4.0, 10.0, 1]
        assert totals[0]["ops"][:3] == [3.0 + 2.0, 6.0, 2]
        assert totals[0]["mpi"] == [1.0, 1.0, 1, [(2, 16)]]
        assert totals[0][""][1] == 10.0
        assert totals[1]["step"][:2] == [0.0, 6.0]
        assert rec.totals(layers.SETUP, layers.SETUP)[0]["step"][:3] == [1.0, 1.0, 1]

    def test_unattributed_counts_the_steppers_own_time(self):
        rec = layers.SpanRecorder()
        st = layers._ThreadSpans(0, layers.SETUP)
        st.spans = [
            span("core.step", 0.0, 10.0, -1),  # 1 s of glue around its children
            span("core.operators", 1.0, 7.0, 0),
            span("linalg.solve", 7.0, 10.0, 0),
        ]
        rec.threads = [st]
        rank0 = rec.totals(layers.MEASURED)[0]
        assert layers.unattributed(rank0, 10.0) == pytest.approx(0.1)
        assert layers.unattributed(rank0, 12.0) == pytest.approx(0.25)  # 2 s outside every span

    def test_live_threads_keep_their_own_stacks(self):
        rec = layers.SpanRecorder()
        inner = rec.wrap(lambda: time.sleep(0.02), "inner")
        outer = rec.wrap(lambda: (time.sleep(0.01), inner()), "outer")
        rec.on = True

        def body(rank):
            rec.set_rank(rank)
            rec.set_step(0)
            outer()

        threads = [threading.Thread(target=body, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        totals = rec.totals(layers.MEASURED)
        assert sorted(totals) == [0, 1, 2]
        for per_rank in totals.values():
            assert per_rank["outer"][2] == per_rank["inner"][2] == 1
            assert per_rank["inner"][0] >= 0.02
            assert 0.01 <= per_rank["outer"][0] < per_rank["outer"][1] - 0.02 + 1e-9
        for st in rec.threads:
            assert [s[3] for s in st.spans] == [-1, 0]

    def test_off_recorder_passes_through(self):
        rec = layers.SpanRecorder()
        assert rec.wrap(lambda x: x + 1, "f")(1) == 2
        assert rec.threads == []


class TestTables:
    def test_names_and_units(self):
        names = [*layers.WORKLOADS, *layers.END_TO_END, *layers.PER_LAYER]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for unit, better, *_ in [*layers.END_TO_END.values(), *layers.PER_LAYER.values()]:
            assert UNIT.fullmatch(unit), unit
            assert better in ("lower", "higher")
        assert all(len(why) <= 200 and "\n" not in why for why in layers.WORKLOADS.values())
        assert len(layers.END_TO_END) <= 16 and len(layers.PER_LAYER) <= 128
        assert layers.END_TO_END["setup_s"][:2] == ("s", "lower")
        assert all(0 < row[2] <= 0.25 for row in layers.END_TO_END.values())

    def test_every_span_metric_names_a_layer(self):
        for metric, row in layers.PER_LAYER.items():
            assert row[2] is None or row[2] in layers.LAYERS, metric

    def test_benchmark_json_mirrors_the_tables(self):
        doc = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())
        assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        assert doc["paths"] == ["benchmarks/e2e"]
        assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
        assert doc["run_seconds"] == runner.RUN_SECONDS
        assert doc["workloads"] == [{"name": n, "why": w} for n, w in layers.WORKLOADS.items()]
        assert doc["end_to_end"] == [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in layers.END_TO_END.items()
        ]
        assert doc["per_layer"] == [
            {"name": n, "unit": row[0], "better": row[1]} for n, row in layers.PER_LAYER.items()
        ]

    def test_workload_runners_match(self):
        assert sorted(workloads.RUNNERS) == sorted(layers.WORKLOADS)


class TestRecorderInstall:
    def test_unresolved_target_gives_null_metric_and_a_warning(self):
        rec = layers.SpanRecorder()
        with pytest.warns(UserWarning, match="does not resolve"):
            rec.install({"core.operators": ("repro.core.operators:WallNormalOps.gone",)})
        try:
            assert rec.unresolved == ["core.operators"]
            out = layers.derive(rec, rec.totals(layers.MEASURED), 1)
            assert out["core.operators.ms"] is None and out["core.operators.calls"] is None
            assert out["core.step.self_ms"] == 0.0
        finally:
            rec.uninstall()

    def test_install_and_uninstall_restore_the_class(self):
        from repro.core.operators import WallNormalOps

        before = WallNormalOps.__dict__["values"]
        rec = layers.SpanRecorder()
        rec.install({"core.operators": layers.LAYERS["core.operators"]})
        assert WallNormalOps.__dict__["values"] is not before
        rec.uninstall()
        assert WallNormalOps.__dict__["values"] is before


class TestTraceGenerator:
    def test_same_seed_same_trace(self):
        assert workloads.query_trace(3, 2000) == workloads.query_trace(3, 2000)
        assert workloads.query_trace(3, 2000) != workloads.query_trace(4, 2000)

    def test_trace_shape(self):
        trace = workloads.query_trace(0)
        assert len(trace) == workloads.TRACE_QUERIES
        assert {endpoint for endpoint, _ in trace} == {"law_of_wall", "variance", "spectrum"}
        assert len(set(trace)) > 2 * workloads.RESPONSE_CACHE  # the working set overflows the response LRU


class TestCompare:
    @staticmethod
    def doc(op_ms, failed=0, calls=108.0):
        per_layer = {m: {"unit": r[0], "value": 0.0} for m, r in layers.PER_LAYER.items()}
        per_layer["core.operators.calls"]["value"] = calls
        e2e = {m: {"unit": r[0], "values": [1.0, 1.0, 1.0]} for m, r in layers.END_TO_END.items()}
        e2e["op_ms_p50"]["values"] = op_ms
        workload = {"end_to_end": e2e, "per_layer": per_layer, "attempted": 100, "failed": failed}
        return {"workloads": {"serial_tall": workload}}

    @pytest.mark.parametrize(
        "new, word, status",
        [
            ([100.0, 101.0, 102.0], "unchanged", 0),
            ([130.0, 131.0, 132.0], "regressed", 1),
            ([70.0, 71.0, 72.0], "improved", 0),
            ([80.0, 101.0, 122.0], "unresolved", 0),
        ],
    )
    def test_verdicts(self, new, word, status):
        out = io.StringIO()
        assert compare.compare(self.doc([100.0, 101.0, 102.0]), self.doc(new), out) == status
        row = next(line for line in out.getvalue().splitlines() if "op_ms_p50" in line)
        assert row.endswith(word)

    def test_count_change_and_failures_fail(self):
        base = self.doc([100.0, 100.0, 100.0])
        assert compare.compare(base, self.doc([100.0, 100.0, 100.0], calls=107.0), io.StringIO()) == 1
        assert compare.compare(base, self.doc([100.0, 100.0, 100.0], failed=1), io.StringIO()) == 1


@pytest.mark.parametrize("name", list(layers.WORKLOADS))
def test_two_operation_smoke(name, tmp_path):
    result = runner.child(str(tmp_path), name, 0, 0.0, 0, ["--min-ops", "2"])
    assert result["workload"] == name and result["failed"] == 0
    assert result["attempted"] >= result["ops"] >= 2
    line = runner.contract_object(result, 0)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True
    assert sorted(line["metrics"]) == sorted(layers.END_TO_END)
    for metric in line["metrics"].values():
        assert metric["value"] > 0 and UNIT.fullmatch(metric["unit"])


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    result = runner.child(str(tmp_path), "serial_tall", 0, 0.0, 1, ["--min-ops", "2"])
    line = runner.contract_object(result, 1)
    assert sorted(line["metrics"]) == sorted(layers.PER_LAYER)
    assert line["metrics"]["core.operators.calls"]["value"] > 0
    assert line["metrics"]["pencil.transpose.calls"]["value"] == 0
