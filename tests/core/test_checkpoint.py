"""Checkpoint/restart tests on a serial driver: exact continuation,
durability, rotation.

A serial snapshot is the one shard of a ``1 x 1`` grid, written and
restored by the same :class:`ShardedCheckpointRotation` every rank uses.
"""

import json

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS, SMR91
from repro.core.checkpoint import (
    FORMAT_HISTORY,
    CheckpointCorruptError,
    CheckpointUnrecoverableError,
    ShardedCheckpointRotation,
)
from repro.instrument import RecoveryCounters
from repro.storage import read_npz, write_npz

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=13)


def _permuted_scheme() -> SMR91:
    """A valid SMR91 variant: the first two substeps swapped (consistency
    is per-substep, so permutation preserves the dataclass invariants)."""

    def swap(t):
        return (t[1], t[0], t[2])

    base = SMR91()
    return SMR91(
        alpha=swap(base.alpha),
        beta=swap(base.beta),
        gamma=swap(base.gamma),
        zeta=swap(base.zeta),
    )


def _flip_byte(path, offset_fraction=0.5):
    data = bytearray(path.read_bytes())
    data[int(len(data) * offset_fraction)] ^= 0xFF
    path.write_bytes(bytes(data))


def _shard(snap):
    """The one shard of a serial snapshot directory."""
    return snap / "shard-r0000.npz"


def _fresh(config=CFG):
    dns = ChannelDNS(config)
    dns.initialize()
    return dns


@pytest.fixture
def rot(tmp_path):
    return ShardedCheckpointRotation(tmp_path)


class TestRoundTrip:
    def test_state_preserved(self, rot):
        dns = _fresh()
        dns.run(3)
        rot.save(dns)
        restored = rot.load_serial()
        np.testing.assert_array_equal(restored.state.v, dns.state.v)
        np.testing.assert_array_equal(restored.state.omega_y, dns.state.omega_y)
        np.testing.assert_array_equal(restored.state.u00, dns.state.u00)
        np.testing.assert_array_equal(restored.state.w00, dns.state.w00)
        assert restored.state.time == dns.state.time
        assert restored.step_count == 3

    def test_restart_is_bit_exact_continuation(self, rot):
        """Run 6 steps straight vs 3 + checkpoint + restart + 3."""
        straight = _fresh()
        straight.run(6)

        first = _fresh()
        first.run(3)
        rot.save(first)
        second = ChannelDNS(CFG)
        rot.load_latest(second)
        second.run(3)

        np.testing.assert_array_equal(second.state.v, straight.state.v)
        np.testing.assert_array_equal(second.state.omega_y, straight.state.omega_y)
        np.testing.assert_array_equal(second.state.u00, straight.state.u00)

    def test_config_reconstructed(self, rot):
        rot.save(_fresh())
        restored = rot.load_serial()
        assert restored.config == CFG
        assert restored.config.nu == pytest.approx(CFG.nu)

    def test_explicit_config_must_match_grid(self, rot):
        rot.save(_fresh())
        other = ChannelDNS(ChannelConfig(nx=32, ny=24, nz=16))
        with pytest.raises(ValueError, match="grid mismatch"):
            rot.load_latest(other)

    def test_dt_may_change_on_restart(self, rot):
        """A driver built with a different dt restores (grid must match):
        the restore continues at the saved dt, and a new dt is set on the
        restored driver."""
        dns = _fresh()
        dns.run(1)
        rot.save(dns)
        restored = ChannelDNS(ChannelConfig(**{**CFG.__dict__, "dt": 1e-4}))
        rot.load_latest(restored)
        assert restored.stepper.dt == CFG.dt
        restored.set_dt(1e-4)
        restored.run(1)
        assert restored.state.time == pytest.approx(dns.state.time + 1e-4)

    def test_uninitialized_raises(self, rot):
        with pytest.raises(RuntimeError):
            rot.save(ChannelDNS(CFG))

    def test_unsupported_version_raises(self, rot):
        snap = rot.save(_fresh())
        data = dict(np.load(_shard(snap), allow_pickle=False))
        data["format_version"] = 99
        np.savez_compressed(_shard(snap), **data)
        with pytest.raises(ValueError, match="format") as info:
            rot.load_latest(ChannelDNS(CFG))
        assert not isinstance(info.value, CheckpointCorruptError)

    def test_v1_layout_is_no_longer_read(self, rot):
        """A legacy v1 shard (bare savez: no manifest, no checksums) is
        refused with the supported lineage named, not adapted."""
        dns = _fresh()
        snap = rot.save(dns)
        s = dns.state
        np.savez_compressed(
            _shard(snap),
            format_version=1,
            config_json=json.dumps({"nx": CFG.nx, "ny": CFG.ny, "nz": CFG.nz}),
            time=0.0,
            step_count=0,
            v=s.v,
            omega_y=s.omega_y,
            u00=s.u00,
            w00=s.w00,
        )
        assert FORMAT_HISTORY == (2,)
        with pytest.raises(ValueError, match=r"unsupported checkpoint format 1.*\(2,\)"):
            rot.load_latest(ChannelDNS(CFG))


class TestFingerprint:
    def test_manifest_records_history_scheme_and_checksums(self, rot):
        snap = rot.save(_fresh())
        manifest = json.loads((snap / "manifest.json").read_text())
        assert manifest["format_history"] == list(FORMAT_HISTORY)
        assert set(manifest["config"]["scheme"]) == {"alpha", "beta", "gamma", "zeta"}
        # a serial snapshot is the one shard of a 1 x 1 grid
        assert (manifest["nranks"], manifest["pa"], manifest["pb"]) == (1, 1, 1)
        assert manifest["shards"] == ["shard-r0000.npz"]
        with np.load(_shard(snap), allow_pickle=False) as data:
            shard = json.loads(str(data["manifest_json"]))
        assert shard["x_range"] == [0, CFG.nx // 2] and shard["z_range"] == [0, CFG.nz - 1]
        assert shard["owns_mean"] is True
        for name in ("v", "omega_y", "u00", "w00"):
            assert "crc32" in shard["arrays"][name]

    def test_scheme_mismatch_rejected(self, rot):
        rot.save(_fresh())
        other = ChannelDNS(ChannelConfig(**{**CFG.__dict__, "scheme": _permuted_scheme()}))
        with pytest.raises(ValueError, match="scheme mismatch"):
            rot.load_latest(other)

    def test_runtime_dt_restored_by_default(self, rot):
        """A controller-drifted dt and forcing must survive the restart
        for exact continuation."""
        dns = _fresh()
        dns.run(1)
        dns.set_dt(5e-5)
        dns.stepper.forcing = 1.25
        rot.save(dns)
        restored = rot.load_serial()
        assert restored.stepper.dt == 5e-5
        assert restored.stepper.forcing == 1.25

    @staticmethod
    def _save_with_config_key(rot, key, value):
        """A snapshot whose stored config carries one extra key, as an
        older writer with that ChannelConfig field would have stored it."""
        dns = _fresh()
        dns.run(1)
        snap = rot.save(dns)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["config"][key] = value
        (snap / "manifest.json").write_text(json.dumps(manifest))
        return dns

    def test_retired_planning_key_is_dropped(self, rot):
        """Snapshots written while ChannelConfig had ``fft_planning``
        still load without a config."""
        dns = self._save_with_config_key(rot, "fft_planning", "estimate")
        restored = rot.load_serial()
        assert restored.config == CFG
        np.testing.assert_array_equal(restored.state.v, dns.state.v)

    def test_other_unknown_config_key_raises(self, rot):
        self._save_with_config_key(rot, "fft_flavour", "estimate")
        with pytest.raises(TypeError, match="fft_flavour"):
            rot.load_serial()


class TestCorruption:
    def test_bitflip_rejected(self, rot):
        snap = rot.save(_fresh())
        _flip_byte(_shard(snap))
        with pytest.raises(CheckpointCorruptError):
            read_npz(_shard(snap))
        with pytest.raises(CheckpointUnrecoverableError, match="shard-r0000"):
            rot.load_latest(ChannelDNS(CFG))

    def test_truncation_rejected(self, rot):
        snap = rot.save(_fresh())
        data = _shard(snap).read_bytes()
        _shard(snap).write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            read_npz(_shard(snap))
        with pytest.raises(CheckpointUnrecoverableError):
            rot.load_latest(ChannelDNS(CFG))

    def test_payload_swap_caught_by_our_checksum(self, rot):
        """A well-formed zip whose array bytes changed must fail OUR crc."""
        snap = rot.save(_fresh())
        data = dict(np.load(_shard(snap), allow_pickle=False))
        v = data["v"].copy()
        v.flat[0] += 1.0
        data["v"] = v
        np.savez_compressed(_shard(snap), **data)  # valid container, stale manifest
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            rot.load_latest(ChannelDNS(CFG))

    def test_atomic_save_preserves_previous_on_failure(self, rot, monkeypatch):
        """A crash mid-write must leave the previous shard, manifest and
        pointer intact: the snapshot still restores."""
        dns = _fresh()
        dns.run(1)
        snap = rot.save(dns)
        before = {p.name: p.read_bytes() for p in (_shard(snap), snap / "manifest.json")}
        pointer = (rot.directory / "latest").read_bytes()

        def boom(fh, **kw):
            fh.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError):
            rot.save(dns)  # the same step: rewrites the same shard path
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (_shard(snap), snap / "manifest.json")} == before
        assert (rot.directory / "latest").read_bytes() == pointer
        assert sorted(p.name for p in snap.iterdir()) == ["manifest.json", "shard-r0000.npz"]
        read_npz(_shard(snap))
        restored = ChannelDNS(CFG)
        rot.load_latest(restored)
        np.testing.assert_array_equal(restored.state.v, dns.state.v)


class TestRotation:
    def _advance_and_save(self, rot, dns, nsteps=1):
        dns.run(nsteps)
        return rot.save(dns)

    def test_keep_prunes_and_latest_points_to_newest(self, tmp_path):
        dns = _fresh()
        rot = ShardedCheckpointRotation(tmp_path, keep=2)
        for _ in range(4):
            self._advance_and_save(rot, dns)
        snaps = rot.snapshot_dirs()
        assert len(snaps) == 2
        assert rot.generations.head() == snaps[0]
        restored = rot.load_serial()
        assert restored.step_count == 4

    def test_corrupt_head_falls_back_to_previous(self, tmp_path):
        dns = _fresh()
        counters = RecoveryCounters()
        rot = ShardedCheckpointRotation(tmp_path, keep=3, counters=counters)
        for _ in range(3):
            self._advance_and_save(rot, dns)
        _flip_byte(_shard(rot.generations.head()))
        restored = ChannelDNS(CFG)
        rot.load_latest(restored)
        assert restored.step_count == 2  # fell back one snapshot
        assert counters.verify_failures >= 1

    def test_all_corrupt_raises(self, tmp_path):
        dns = _fresh()
        rot = ShardedCheckpointRotation(tmp_path, keep=3)
        for _ in range(2):
            self._advance_and_save(rot, dns)
        for snap in rot.snapshot_dirs():
            _flip_byte(_shard(snap))
        with pytest.raises(CheckpointUnrecoverableError, match="no verifiable"):
            rot.load_latest(ChannelDNS(CFG))

    def test_fallback_continuation_is_exact(self, tmp_path):
        """Restarting off the fallback snapshot reproduces the trajectory."""
        straight = _fresh()
        straight.run(6)

        dns = _fresh()
        rot = ShardedCheckpointRotation(tmp_path, keep=3)
        for _ in range(3):
            self._advance_and_save(rot, dns, 2)  # snapshots at 2, 4, 6
        _flip_byte(_shard(rot.generations.head()))  # corrupt step-6 snapshot
        restored = ChannelDNS(CFG)
        rot.load_latest(restored)
        assert restored.step_count == 4
        restored.run(2)
        np.testing.assert_array_equal(restored.state.v, straight.state.v)
        np.testing.assert_array_equal(restored.state.omega_y, straight.state.omega_y)
