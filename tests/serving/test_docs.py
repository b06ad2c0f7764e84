"""Documentation coverage of the serving layer.

Mirrors the observability-guide enforcement
(``tests/telemetry/test_schema.py``): every schema field the code
defines must be named in the operator docs, and every benchmark module
must have its section in ``docs/benchmarks.md`` — so the docs cannot
silently drift from the code.
"""

import pathlib

import pytest

from repro.serving import QUERY_FIELDS, RESULT_ARRAYS, RESULT_FIELDS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SERVICE_DOC = ROOT / "docs" / "statistics_service.md"
BENCH_DOC = ROOT / "docs" / "benchmarks.md"


@pytest.fixture(scope="module")
def service_doc() -> str:
    return SERVICE_DOC.read_text()


@pytest.fixture(scope="module")
def bench_doc() -> str:
    return BENCH_DOC.read_text()


def test_every_result_manifest_field_documented(service_doc):
    for name in RESULT_FIELDS:
        assert f"`{name}`" in service_doc, (
            f"store manifest field {name!r} missing from {SERVICE_DOC.name}"
        )


def test_every_result_array_documented(service_doc):
    for name in RESULT_ARRAYS:
        assert f"`{name}`" in service_doc, (
            f"store array {name!r} missing from {SERVICE_DOC.name}"
        )


def test_every_query_field_documented(service_doc):
    for name in QUERY_FIELDS:
        assert f"`{name}`" in service_doc, (
            f"query response field {name!r} missing from {SERVICE_DOC.name}"
        )


def test_service_doc_covers_the_contract_surface(service_doc):
    """The merge/accuracy/caching sections the code relies on by name."""
    for anchor in (
        "REDUCTION_RTOL",
        "`cache_size`",
        "`dataset_cache_size`",
        "stats_serving",
        "attach_streaming",
        "bit-exact",
    ):
        assert anchor in service_doc, anchor


def test_every_benchmark_has_a_section(bench_doc):
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert benches, "no benchmarks found"
    for path in benches:
        assert f"`{path.name}`" in bench_doc, (
            f"benchmark {path.name} has no section in {BENCH_DOC.name}"
        )


def test_benchmark_results_exist_for_documented_numbers():
    """Every bench_* module has a results file backing its doc numbers."""
    results = ROOT / "benchmarks" / "results"
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        name = path.stem.removeprefix("bench_")
        assert (results / f"{name}.txt").exists(), (
            f"no recorded results for {path.name}"
        )
