"""Wisdom store: persistence, robustness, and the warm-start contract."""

import json
import threading

import numpy as np
import pytest

from repro.fft.plans import FFTPlan, PlanFlags, Planner
from repro.linalg.custom import FoldedLU
from repro.linalg.engine import measure_block
from repro.linalg.structure import BandedSystemSpec, FoldedBanded
from repro.mpi.simmpi import run_spmd
from repro.pencil.decomp import block_range, block_sizes
from repro.pencil.transpose import GlobalTranspose, TransposeMethod
from repro.tuning import (
    ENV_WISDOM,
    MEASURE_STATS,
    WISDOM_SCHEMA_VERSION,
    WisdomStore,
    default_store,
    machine_fingerprint,
    make_key,
    wisdom_provenance,
)


@pytest.fixture
def store(tmp_path):
    return WisdomStore(tmp_path / "wisdom.json")


def _folded_lu(n=64, nbatch=4):
    rng = np.random.default_rng(0)
    spec = BandedSystemSpec(n=n, kl=3, ku=3, corner=3)
    data = rng.standard_normal((nbatch, n, spec.window))
    data[:, np.arange(n), spec.mdiag] += 14.0
    return FoldedLU(FoldedBanded(spec, data))


class TestStoreBasics:
    def test_record_then_lookup(self, store):
        store.record("fft", ["k", [4, 4], 0], {"strategy": "direct"}, {"direct": 1e-5})
        assert store.lookup("fft", ["k", [4, 4], 0]) == {"strategy": "direct"}
        assert store.counters.hits == 1 and store.counters.writes == 1

    def test_persists_across_instances(self, store, tmp_path):
        store.record("d", ["a"], {"v": 1})
        again = WisdomStore(tmp_path / "wisdom.json")
        assert again.lookup("d", ["a"]) == {"v": 1}

    def test_miss_is_counted(self, store):
        assert store.lookup("d", ["nope"]) is None
        assert store.counters.misses == 1

    def test_domains_do_not_collide(self, store):
        store.record("a", ["k"], {"v": 1})
        store.record("b", ["k"], {"v": 2})
        assert store.lookup("a", ["k"]) == {"v": 1}
        assert store.lookup("b", ["k"]) == {"v": 2}

    def test_make_key_normalizes(self):
        assert make_key((4, 4), np.dtype("float64")) == make_key([4, 4], "float64")

    def test_provenance(self, store):
        store.record("d", ["a"], {"v": 1})
        p = store.provenance()
        assert p["enabled"] and p["entries"] == 1
        assert p["fingerprint"] == machine_fingerprint()
        assert p["schema"] == WISDOM_SCHEMA_VERSION


class TestRobustness:
    """Corrupt, stale and foreign wisdom never raises — it re-measures."""

    def test_fingerprint_mismatch_misses(self, store, tmp_path):
        store.record("d", ["a"], {"v": 1})
        foreign = WisdomStore(tmp_path / "wisdom.json", fingerprint="deadbeef00000000")
        assert foreign.lookup("d", ["a"]) is None
        assert foreign.counters.stale == 1

    def test_schema_bump_drops_entries(self, store, tmp_path):
        store.record("d", ["a"], {"v": 1})
        doc = json.loads((tmp_path / "wisdom.json").read_text())
        doc["schema"] = WISDOM_SCHEMA_VERSION + 1
        (tmp_path / "wisdom.json").write_text(json.dumps(doc))
        again = WisdomStore(tmp_path / "wisdom.json")
        assert again.lookup("d", ["a"]) is None
        assert again.counters.stale == 1

    @pytest.mark.parametrize("garbage", ["", "{", "[1,2,3]", '{"schema": 1}'])
    def test_corrupt_file_is_ignored(self, tmp_path, garbage):
        path = tmp_path / "wisdom.json"
        path.write_text(garbage)
        s = WisdomStore(path)
        assert s.lookup("d", ["a"]) is None
        assert s.counters.corrupt == 1

    def test_truncated_file_recovers_on_record(self, tmp_path):
        path = tmp_path / "wisdom.json"
        s = WisdomStore(path)
        s.record("d", ["a"], {"v": 1})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        again = WisdomStore(path)
        assert again.lookup("d", ["a"]) is None  # corrupt, not raised
        again.record("d", ["b"], {"v": 2})  # and the file heals
        assert WisdomStore(path).lookup("d", ["b"]) == {"v": 2}

    def test_malformed_entry_skipped_others_kept(self, store, tmp_path):
        store.record("d", ["good"], {"v": 1})
        path = tmp_path / "wisdom.json"
        doc = json.loads(path.read_text())
        doc["entries"]["d::bad"] = "not-a-dict"
        path.write_text(json.dumps(doc))
        again = WisdomStore(path)
        assert again.lookup("d", ["good"]) == {"v": 1}
        assert again.counters.corrupt == 1

    def test_concurrent_writers_do_not_clobber(self, tmp_path):
        path = tmp_path / "wisdom.json"

        def prog(comm):
            s = WisdomStore(path)
            s.record("d", [f"rank{comm.rank}"], {"v": comm.rank})
            comm.barrier()
            return True

        assert all(run_spmd(4, prog))
        merged = WisdomStore(path)
        for r in range(4):
            assert merged.lookup("d", [f"rank{r}"]) == {"v": r}

    def test_threaded_writers_all_land(self, tmp_path):
        path = tmp_path / "wisdom.json"
        stores = [WisdomStore(path) for _ in range(8)]
        threads = [
            threading.Thread(target=s.record, args=("d", [f"t{i}"], {"v": i}))
            for i, s in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = WisdomStore(path)
        for i in range(8):
            assert merged.lookup("d", [f"t{i}"]) == {"v": i}


class TestReadonlyAndEnv:
    def test_readonly_never_writes(self, tmp_path):
        path = tmp_path / "wisdom.json"
        WisdomStore(path).record("d", ["a"], {"v": 1})
        before = path.read_text()
        ro = WisdomStore(path, readonly=True)
        assert ro.lookup("d", ["a"]) == {"v": 1}
        ro.record("d", ["b"], {"v": 2})
        assert path.read_text() == before
        assert ro.counters.readonly_drops == 1
        # ... but the in-memory view still warms within the process
        assert ro.lookup("d", ["b"]) == {"v": 2}

    @pytest.mark.parametrize("env", ["", "off", "0"])
    def test_env_off(self, monkeypatch, env):
        monkeypatch.setenv(ENV_WISDOM, env)
        assert default_store() is None
        assert wisdom_provenance() == {"enabled": False}

    def test_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_WISDOM, str(tmp_path / "w.json"))
        s = default_store()
        assert s is not None and not s.readonly
        assert default_store() is s  # cached per env value

    def test_env_readonly(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_WISDOM, f"readonly:{tmp_path / 'w.json'}")
        s = default_store()
        assert s is not None and s.readonly

    def test_env_provenance_lands_in_manifest(self, monkeypatch, tmp_path):
        from repro.telemetry.manifest import build_manifest

        monkeypatch.setenv(ENV_WISDOM, str(tmp_path / "w.json"))
        m = build_manifest()
        assert m["wisdom"]["enabled"] is True
        assert m["wisdom"]["path"] == str(tmp_path / "w.json")
        monkeypatch.setenv(ENV_WISDOM, "off")
        assert build_manifest()["wisdom"] == {"enabled": False}


class TestFFTPlanWisdom:
    """MEASURE plans: cold measures and records, warm loads bit-identical."""

    def test_cold_then_warm(self, store):
        MEASURE_STATS.reset()
        cold = FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=store)
        assert MEASURE_STATS.fft_candidates_timed > 0
        assert not cold.from_wisdom

        MEASURE_STATS.reset()
        warm = FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=store)
        assert MEASURE_STATS.fft_candidates_timed == 0
        assert warm.from_wisdom
        assert warm.strategy == cold.strategy
        assert warm.measured == {k: pytest.approx(v) for k, v in cold.measured.items()}

    def test_warm_plan_executes_identically(self, store, rng):
        a = rng.standard_normal((16, 16))
        cold = FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=store)
        warm = FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=store)
        np.testing.assert_array_equal(cold.execute(a), warm.execute(a))

    def test_planner_field_threads_wisdom(self, store):
        MEASURE_STATS.reset()
        Planner(flags=PlanFlags.MEASURE, wisdom=store).plan("fft", (16, 16), 0)
        assert MEASURE_STATS.fft_candidates_timed > 0
        MEASURE_STATS.reset()
        p = Planner(flags=PlanFlags.MEASURE, wisdom=store).plan("fft", (16, 16), 0)
        assert MEASURE_STATS.fft_candidates_timed == 0
        assert p.from_wisdom

    def test_estimate_plans_never_touch_the_store(self, store):
        FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.ESTIMATE, wisdom=store)
        assert len(store) == 0

    def test_foreign_wisdom_remeasures(self, store, tmp_path):
        FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=store)
        foreign = WisdomStore(tmp_path / "wisdom.json", fingerprint="feedface00000000")
        MEASURE_STATS.reset()
        plan = FFTPlan("fft", (16, 16), axis=0, flags=PlanFlags.MEASURE, wisdom=foreign)
        assert MEASURE_STATS.fft_candidates_timed > 0
        assert not plan.from_wisdom


class TestEngineBlockWisdom:
    def test_cold_then_warm(self, store):
        MEASURE_STATS.reset()
        cold = measure_block(_folded_lu(), wisdom=store)
        assert MEASURE_STATS.engine_blocks_timed > 0

        MEASURE_STATS.reset()
        warm = measure_block(_folded_lu(), wisdom=store)
        assert MEASURE_STATS.engine_blocks_timed == 0
        assert warm == cold

    def test_engine_measure_resolves_once(self, store):
        lu = _folded_lu()
        eng = lu.engine(block="measure", wisdom=store)
        assert eng.block == measure_block(_folded_lu(), wisdom=store)

    def test_single_candidate_skips_measurement(self, store):
        MEASURE_STATS.reset()
        block = measure_block(_folded_lu(n=16), candidates=(16, 32, 64), wisdom=store)
        assert block == 16  # every candidate clamps to n
        assert MEASURE_STATS.engine_blocks_timed == 0


class TestTransposeWisdom:
    def test_cold_then_warm_identical_choice(self, tmp_path):
        path = tmp_path / "wisdom.json"

        def prog(comm):
            s = WisdomStore(path)
            lo, hi = block_range(8, comm.size, comm.rank)
            t = GlobalTranspose(comm, 0, 2, concat_sizes=block_sizes(8, comm.size))
            choice = t.plan(np.zeros((8, 2, hi - lo)), wisdom=s)
            return choice.value, len(t.measured)

        MEASURE_STATS.reset()
        cold = run_spmd(4, prog)
        assert MEASURE_STATS.transpose_methods_timed > 0
        assert all(m == 3 for _, m in cold)

        MEASURE_STATS.reset()
        warm = run_spmd(4, prog)
        assert MEASURE_STATS.transpose_methods_timed == 0
        assert [c for c, _ in warm] == [c for c, _ in cold]
        assert all(m == 0 for _, m in warm)  # loaded, not measured

    def test_ranks_agree_on_warm_choice(self, tmp_path):
        path = tmp_path / "wisdom.json"

        def prog(comm):
            s = WisdomStore(path)
            lo, hi = block_range(8, comm.size, comm.rank)
            t = GlobalTranspose(comm, 0, 2, concat_sizes=block_sizes(8, comm.size))
            choice = t.plan(np.zeros((8, 2, hi - lo)), wisdom=s)
            choices = comm.allgather(choice)
            assert len(set(choices)) == 1
            return choice in list(TransposeMethod)

        assert all(run_spmd(4, prog))
        assert all(run_spmd(4, prog))
