"""Versioned results store: atomic publish, rotation, verification."""

import numpy as np
import pytest

from repro.core import ChannelConfig
from repro.core.checkpoint import CheckpointCorruptError
from repro.serving import RESULT_ARRAYS, RESULT_FIELDS, StatsStore
from repro.serving.store import STORE_FORMAT_VERSION, _retau_dirname
from repro.serving.synthetic import synthetic_result
from repro.storage import read_npz, write_npz


@pytest.fixture
def published(tmp_path):
    """A store with one synthetic Re_tau=180 result published."""
    result, config = synthetic_result(180.0)
    store = StatsStore(tmp_path, keep=3)
    path = store.publish(result, config, step_count=100, sim_time=0.25)
    return store, path, result, config


def test_publish_roundtrip(published):
    store, path, result, config = published
    assert path.exists()
    manifest, arrays = store.load(180.0)
    assert manifest["kind"] == "stats-result"
    assert manifest["store_version"] == STORE_FORMAT_VERSION
    assert manifest["re_tau"] == 180.0
    assert manifest["nsamples"] == result["nsamples"]
    assert manifest["step_count"] == 100
    assert manifest["sim_time"] == 0.25
    assert manifest["u_tau"] == result["u_tau"]
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(arrays[name], np.asarray(result[name]))


def test_manifest_carries_every_required_field(published):
    store, _, _, _ = published
    manifest, _ = store.load(180.0)
    for name, (required, _desc) in RESULT_FIELDS.items():
        if required:
            assert name in manifest, name


def test_fingerprint_keys_filenames(tmp_path):
    """Two configs at the same Re_tau publish to distinct files."""
    store = StatsStore(tmp_path)
    r1, c1 = synthetic_result(180.0)
    r2, _ = synthetic_result(180.0)
    c2 = dict(c1, nx=2 * c1["nx"])
    p1 = store.publish(r1, c1, step_count=10)
    p2 = store.publish(r2, c2, step_count=10)
    assert p1 != p2
    assert p1.exists() and p2.exists()


def test_missing_required_array_rejected(tmp_path):
    result, config = synthetic_result(180.0)
    del result["spec_z_w"]
    with pytest.raises(ValueError, match="spec_z_w"):
        StatsStore(tmp_path).publish(result, config)


def test_rotation_keeps_k_newest(tmp_path):
    store = StatsStore(tmp_path, keep=2)
    result, config = synthetic_result(180.0)
    for step in (10, 20, 30, 40):
        store.publish(result, config, step_count=step)
    directory = tmp_path / _retau_dirname(180.0)
    names = sorted(p.name for p in directory.glob("result-*.npz"))
    assert len(names) == 2
    assert "step000000030" in names[0] and "step000000040" in names[1]
    manifest, _ = store.load(180.0)
    assert manifest["step_count"] == 40


def test_keep_zero_disables_rotation(tmp_path):
    store = StatsStore(tmp_path, keep=0)
    result, config = synthetic_result(180.0)
    for step in (1, 2, 3, 4, 5):
        store.publish(result, config, step_count=step)
    directory = tmp_path / _retau_dirname(180.0)
    assert len(list(directory.glob("result-*.npz"))) == 5


def test_latest_pointer_fallback(published):
    """A stale/missing pointer falls back to the lexically newest file."""
    store, path, result, config = published
    store.publish(result, config, step_count=200)
    pointer = path.parent / "latest"
    pointer.write_text("result-step999999999-deadbeef.npz\n")  # dangling
    manifest, _ = store.load(180.0)
    assert manifest["step_count"] == 200
    pointer.unlink()
    manifest, _ = store.load(180.0)
    assert manifest["step_count"] == 200


def test_re_taus_enumeration(tmp_path):
    store = StatsStore(tmp_path)
    assert store.re_taus() == []
    for re_tau in (550.0, 180.0):
        result, config = synthetic_result(re_tau)
        store.publish(result, config)
    assert store.re_taus() == [180.0, 550.0]


def test_load_missing_re_tau_raises(published):
    store, _, _, _ = published
    with pytest.raises(FileNotFoundError):
        store.load(5200.0)


def test_corrupt_result_detected(published):
    store, path, _, _ = published
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError):
        store.load(180.0)


def test_unknown_store_version_rejected(published, monkeypatch):
    store, path, result, config = published
    import repro.serving.store as store_mod

    monkeypatch.setattr(store_mod, "STORE_FORMAT_VERSION", 99)
    store.publish(result, config, step_count=300)
    with pytest.raises(ValueError, match="store_version 99"):
        store.load(180.0)


def test_wrong_kind_rejected(published, monkeypatch):
    store, path, _, _ = published
    manifest, arrays = read_npz(path)
    manifest["kind"] = "not-a-result"
    write_npz(path, manifest, arrays)
    with pytest.raises(ValueError, match="not a stats-result"):
        store.load(180.0)
