"""The shared durable-file layer (``repro.storage``).

Three properties every durable file of the package relies on:

* damaged bytes — any flip or truncation — read back bit-identical or
  raise :class:`CheckpointCorruptError`, never anything else;
* an exception that is *not* corruption propagates out of a rotation's
  restore: no fallback to an older generation, no verify failure counted;
* a ``latest`` pointer that is missing, does not decode or names nothing
  is treated as absent by every rotation.
"""

import io
import threading
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import ShardedCheckpointRotation
from repro.instrument import RecoveryCounters
from repro.mpi.simmpi import run_spmd
from repro.pencil.distributed import DistributedChannelDNS
from repro.serving import StatsStore
from repro.serving.store import _retau_dirname
from repro.serving.synthetic import synthetic_result
from repro.storage import CheckpointCorruptError, Generations, publish, read_npz, write_npz

SMALL = ChannelConfig(nx=8, ny=17, nz=8, dt=2e-4, init_amplitude=0.5, seed=3)
SHARDED = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)

ARRAYS = {
    "v": (np.arange(12.0) - 3.5j * np.arange(12.0)).reshape(3, 4),
    "mean": np.linspace(-1.0, 1.0, 7),
}


def _header_offsets(raw: bytes) -> list[int]:
    """Every byte of the zip local headers, the central directory and the
    end-of-central-directory record."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        starts = [info.header_offset for info in zf.infolist()]
        central = zf.start_dir
    offsets: list[int] = []
    for off in starts:
        name_len = int.from_bytes(raw[off + 26 : off + 28], "little")
        extra_len = int.from_bytes(raw[off + 28 : off + 30], "little")
        offsets.extend(range(off, off + 30 + name_len + extra_len))
    offsets.extend(range(central, len(raw)))
    return offsets


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """``(raw bytes, header offsets, scratch path)`` of one small container."""
    directory = tmp_path_factory.mktemp("container")
    path = write_npz(directory / "c.npz", {"kind": "test", "format_version": 2}, ARRAYS)
    raw = path.read_bytes()
    return raw, _header_offsets(raw), directory / "damaged.npz"


def _reads_identical_or_corrupt(data: bytes, target) -> None:
    target.write_bytes(data)
    try:
        _, arrays = read_npz(target)
    except CheckpointCorruptError:
        return
    assert arrays.keys() == ARRAYS.keys()
    for name, want in ARRAYS.items():
        assert arrays[name].dtype == want.dtype
        assert arrays[name].tobytes() == want.tobytes()


class TestDamagedBytes:
    def test_every_header_flip(self, container):
        raw, headers, target = container
        for offset in headers:
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            _reads_identical_or_corrupt(bytes(damaged), target)

    def test_encrypted_flag_bit_is_corruption(self, container):
        """zipfile raises RuntimeError for a member flagged encrypted; one
        flipped bit in a central-directory entry's flags sets that flag."""
        raw, _, target = container
        entry = raw.find(b"PK\x01\x02")
        assert entry > 0
        while entry > 0:
            damaged = bytearray(raw)
            damaged[entry + 8] ^= 0x01
            target.write_bytes(bytes(damaged))
            with pytest.raises(CheckpointCorruptError, match="encrypted"):
                read_npz(target)
            entry = raw.find(b"PK\x01\x02", entry + 1)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sampled_payload_flips(self, container, data):
        raw, headers, target = container
        payload = sorted(set(range(len(raw))) - set(headers))
        offset = data.draw(st.sampled_from(payload))
        mask = data.draw(st.integers(1, 0xFF))
        damaged = bytearray(raw)
        damaged[offset] ^= mask
        _reads_identical_or_corrupt(bytes(damaged), target)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sampled_truncations(self, container, data):
        raw, _, target = container
        _reads_identical_or_corrupt(raw[: data.draw(st.integers(0, len(raw) - 1))], target)


class TestPublish:
    def test_failed_write_keeps_previous_and_leaves_no_temp(self, tmp_path):
        path = publish(tmp_path / "f.json", b"old")

        def boom(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            publish(path, boom)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


class TestGenerations:
    def test_step_order_pointer_and_prune(self, tmp_path):
        gens = Generations(tmp_path, "result-step", ".npz")
        for step, tag in ((2, "b"), (10, "a"), (2, "a")):
            (tmp_path / f"result-step{step:09d}-{tag}.npz").write_bytes(b"")
        (tmp_path / "result-stepX-a.npz").write_bytes(b"")  # no step: not a generation
        assert [p.name for p in gens.paths()] == [
            "result-step000000010-a.npz",
            "result-step000000002-b.npz",
            "result-step000000002-a.npz",
        ]
        (tmp_path / "latest").write_text("result-stepX-a.npz")  # not a generation
        assert gens.head().name == "result-step000000010-a.npz"
        gens.point(tmp_path / "result-step000000002-a.npz")
        assert [p.name for p in gens.candidates()][:2] == [
            "result-step000000002-a.npz",
            "result-step000000010-a.npz",
        ]
        assert [p.name for p in gens.prune(1)] == [
            "result-step000000002-b.npz",
            "result-step000000002-a.npz",
        ]
        assert gens.head().name == "result-step000000010-a.npz"  # dangling pointer


class _FailOnce:
    """``np.load`` that raises an interpreter-style fault on its first call."""

    def __init__(self, load):
        self.load = load
        self.lock = threading.Lock()
        self.fired = False

    def __call__(self, *args, **kwargs):
        with self.lock:
            fire, self.fired = not self.fired, True
        if fire:
            raise RuntimeError("injected interpreter fault")
        return self.load(*args, **kwargs)


def _save_two_sharded(tmp_path, nranks, pa, pb, config):
    def save(comm):
        dns = DistributedChannelDNS(comm, config, pa=pa, pb=pb)
        dns.initialize()
        rot = ShardedCheckpointRotation(tmp_path)
        rot.save(dns)
        dns.run(1)
        rot.save(dns)

    run_spmd(nranks, save)


def _restore_sharded(tmp_path, nranks, pa, pb, config, counters=None):
    def restore(comm):
        dns = DistributedChannelDNS(comm, config, pa=pa, pb=pb)
        ShardedCheckpointRotation(tmp_path, counters=counters).load_latest(dns)
        return dns.step_count

    return run_spmd(nranks, restore)


def _restore_serial(rot) -> int:
    """Restore a rotation's newest snapshot into a fresh serial driver."""
    dns = ChannelDNS(SMALL)
    rot.load_latest(dns)
    return dns.step_count


class TestNonCorruptionPropagates:
    """A fault inside the read of a healthy head is not corruption."""

    def test_serial_rotation(self, tmp_path, monkeypatch):
        dns = ChannelDNS(SMALL)
        dns.initialize()
        counters = RecoveryCounters()
        rot = ShardedCheckpointRotation(tmp_path, counters=counters)
        rot.save(dns)
        dns.run(1)
        rot.save(dns)
        monkeypatch.setattr(np, "load", _FailOnce(np.load))
        with pytest.raises(RuntimeError, match="injected"):
            _restore_serial(rot)
        assert counters.verify_failures == 0
        assert _restore_serial(rot) == 1  # the head, once the fault passed

    def test_sharded_rotation_2x2(self, tmp_path, monkeypatch):
        _save_two_sharded(tmp_path, 4, 2, 2, SHARDED)
        counters = RecoveryCounters()
        monkeypatch.setattr(np, "load", _FailOnce(np.load))
        with pytest.raises(RuntimeError, match="injected"):
            _restore_sharded(tmp_path, 4, 2, 2, SHARDED, counters)
        assert counters.verify_failures == 0
        assert _restore_sharded(tmp_path, 4, 2, 2, SHARDED, counters) == [1] * 4


def _serial_rotation(tmp_path):
    dns = ChannelDNS(SMALL)
    dns.initialize()
    rot = ShardedCheckpointRotation(tmp_path)
    rot.save(dns)
    dns.run(1)
    rot.save(dns)
    return tmp_path, lambda: _restore_serial(rot)


def _sharded_rotation(tmp_path):
    _save_two_sharded(tmp_path, 1, 1, 1, SMALL)
    return tmp_path, lambda: _restore_sharded(tmp_path, 1, 1, 1, SMALL)[0]


def _stats_store(tmp_path):
    store = StatsStore(tmp_path)
    result, config = synthetic_result(180.0)
    store.publish(result, config, step_count=0)
    store.publish(result, config, step_count=1)
    return tmp_path / _retau_dirname(180.0), lambda: store.load(180.0)[0]["step_count"]


@pytest.mark.parametrize("make", [_serial_rotation, _sharded_rotation, _stats_store])
def test_undecodable_pointer_counts_as_absent(tmp_path, make):
    directory, newest_step = make(tmp_path)
    (directory / "latest").write_bytes(b"\xff\xfe\x00not a name")
    assert newest_step() == 1
