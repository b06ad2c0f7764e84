"""Checkpoint/restart tests: exact continuation, durability, rotation."""

import json

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS, SMR91
from repro.core.checkpoint import (
    FORMAT_HISTORY,
    CheckpointCorruptError,
    CheckpointRotation,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
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


@pytest.fixture
def ckpt_path(tmp_path):
    return tmp_path / "state.npz"


class TestRoundTrip:
    def test_state_preserved(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(3)
        save_checkpoint(dns, ckpt_path)
        restored = load_checkpoint(ckpt_path)
        np.testing.assert_array_equal(restored.state.v, dns.state.v)
        np.testing.assert_array_equal(restored.state.omega_y, dns.state.omega_y)
        np.testing.assert_array_equal(restored.state.u00, dns.state.u00)
        assert restored.state.time == dns.state.time
        assert restored.step_count == 3

    def test_restart_is_bit_exact_continuation(self, ckpt_path):
        """Run 6 steps straight vs 3 + checkpoint + restart + 3."""
        straight = ChannelDNS(CFG)
        straight.initialize()
        straight.run(6)

        first = ChannelDNS(CFG)
        first.initialize()
        first.run(3)
        save_checkpoint(first, ckpt_path)
        second = load_checkpoint(ckpt_path)
        second.run(3)

        np.testing.assert_array_equal(second.state.v, straight.state.v)
        np.testing.assert_array_equal(second.state.omega_y, straight.state.omega_y)
        np.testing.assert_array_equal(second.state.u00, straight.state.u00)

    def test_config_reconstructed(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        restored = load_checkpoint(ckpt_path)
        assert restored.config.nx == CFG.nx
        assert restored.config.re_tau == CFG.re_tau
        assert restored.config.nu == pytest.approx(CFG.nu)

    def test_explicit_config_must_match_grid(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        other = ChannelConfig(nx=32, ny=24, nz=16)
        with pytest.raises(ValueError, match="grid mismatch"):
            load_checkpoint(ckpt_path, config=other)

    def test_dt_may_change_on_restart(self, ckpt_path):
        """Restarting with a different dt is legitimate (grid must match)."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(1)
        save_checkpoint(dns, ckpt_path)
        new_cfg = ChannelConfig(**{**CFG.__dict__, "dt": 1e-4})
        restored = load_checkpoint(ckpt_path, config=new_cfg)
        restored.run(1)
        assert restored.state.time == pytest.approx(dns.state.time + 1e-4)

    def test_uninitialized_raises(self, ckpt_path):
        dns = ChannelDNS(CFG)
        with pytest.raises(RuntimeError):
            save_checkpoint(dns, ckpt_path)

    def test_unsupported_version_raises(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        data = dict(np.load(ckpt_path, allow_pickle=False))
        data["format_version"] = 99
        np.savez_compressed(ckpt_path, **data)
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(ckpt_path)


    def test_v1_layout_is_no_longer_read(self, ckpt_path):
        """A legacy v1 file (bare savez: no manifest, no checksums) is
        refused with the supported lineage named, not adapted."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        s = dns.state
        np.savez_compressed(
            ckpt_path,
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
            load_checkpoint(ckpt_path)


class TestSuffixHandling:
    """Paths with or without ``.npz`` must agree between save and load."""

    def test_save_without_suffix_load_either_way(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(1)
        written = save_checkpoint(dns, tmp_path / "segment")
        assert written == tmp_path / "segment.npz"
        assert written.exists()
        for name in ("segment", "segment.npz"):
            restored = load_checkpoint(tmp_path / name)
            np.testing.assert_array_equal(restored.state.v, dns.state.v)

    def test_save_with_suffix_load_without(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, tmp_path / "seg.npz")
        restored = load_checkpoint(tmp_path / "seg")
        assert restored.step_count == 0


class TestFingerprint:
    def test_manifest_records_history_scheme_and_checksums(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        with np.load(ckpt_path, allow_pickle=False) as data:
            manifest = json.loads(str(data["manifest_json"]))
        assert manifest["format_history"] == list(FORMAT_HISTORY)
        assert set(manifest["config"]["scheme"]) == {"alpha", "beta", "gamma", "zeta"}
        for name in ("v", "omega_y", "u00", "w00"):
            assert "crc32" in manifest["arrays"][name]

    def test_scheme_mismatch_rejected(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        other = ChannelConfig(**{**CFG.__dict__, "scheme": _permuted_scheme()})
        with pytest.raises(ValueError, match="scheme mismatch"):
            load_checkpoint(ckpt_path, config=other)

    def test_runtime_dt_restored_by_default(self, ckpt_path):
        """A controller-drifted dt must survive the restart for exact
        continuation when the config is reconstructed from the file."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(1)
        dns.set_dt(5e-5)
        save_checkpoint(dns, ckpt_path)
        restored = load_checkpoint(ckpt_path)
        assert restored.stepper.dt == 5e-5

    @staticmethod
    def _save_with_config_key(path, key, value):
        """A checkpoint whose stored config carries one extra key, as an
        older writer with that ChannelConfig field would have stored it."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(1)
        save_checkpoint(dns, path)
        manifest, arrays = read_npz(path)
        manifest["config"][key] = value
        write_npz(path, manifest, arrays)
        return dns

    def test_retired_planning_key_is_dropped(self, ckpt_path):
        """Checkpoints written while ChannelConfig had ``fft_planning``
        still load without a config."""
        dns = self._save_with_config_key(ckpt_path, "fft_planning", "estimate")
        restored = load_checkpoint(ckpt_path)
        assert restored.config == CFG
        np.testing.assert_array_equal(restored.state.v, dns.state.v)

    def test_other_unknown_config_key_raises(self, ckpt_path):
        self._save_with_config_key(ckpt_path, "fft_flavour", "estimate")
        with pytest.raises(TypeError, match="fft_flavour"):
            load_checkpoint(ckpt_path)


class TestCorruption:
    def test_bitflip_rejected(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        _flip_byte(ckpt_path)
        ok, reason = verify_checkpoint(ckpt_path)
        assert not ok and reason
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(ckpt_path)

    def test_truncation_rejected(self, ckpt_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        data = ckpt_path.read_bytes()
        ckpt_path.write_bytes(data[: len(data) // 2])
        assert not verify_checkpoint(ckpt_path)[0]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(ckpt_path)

    def test_payload_swap_caught_by_our_checksum(self, ckpt_path):
        """A well-formed zip whose array bytes changed must fail OUR crc."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        save_checkpoint(dns, ckpt_path)
        data = dict(np.load(ckpt_path, allow_pickle=False))
        v = data["v"].copy()
        v.flat[0] += 1.0
        data["v"] = v
        np.savez_compressed(ckpt_path, **data)  # valid container, stale manifest
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            load_checkpoint(ckpt_path)

    def test_atomic_save_preserves_previous_on_failure(self, ckpt_path, monkeypatch):
        """A crash mid-write must leave the previous checkpoint intact."""
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.run(1)
        save_checkpoint(dns, ckpt_path)
        before = ckpt_path.read_bytes()
        dns.run(1)
        import repro.core.checkpoint as ck

        def boom(fh, **kw):
            fh.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(ck.np, "savez_compressed", boom)
        with pytest.raises(OSError):
            save_checkpoint(dns, ckpt_path)
        assert ckpt_path.read_bytes() == before
        assert verify_checkpoint(ckpt_path)[0]


class TestRotation:
    def _advance_and_save(self, rot, dns, nsteps=1):
        dns.run(nsteps)
        return rot.save(dns)

    def test_keep_prunes_and_latest_points_to_newest(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        rot = CheckpointRotation(tmp_path, keep=2)
        for _ in range(4):
            self._advance_and_save(rot, dns)
        snaps = rot.snapshots()
        assert len(snaps) == 2
        assert rot.latest_path == snaps[0]
        restored = rot.load_latest()
        assert restored.step_count == 4

    def test_corrupt_head_falls_back_to_previous(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        counters = RecoveryCounters()
        rot = CheckpointRotation(tmp_path, keep=3, counters=counters)
        for _ in range(3):
            self._advance_and_save(rot, dns)
        _flip_byte(rot.latest_path)
        restored = rot.load_latest()
        assert restored.step_count == 2  # fell back one snapshot
        assert counters.verify_failures >= 1

    def test_all_corrupt_raises(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        rot = CheckpointRotation(tmp_path, keep=3)
        for _ in range(2):
            self._advance_and_save(rot, dns)
        for snap in rot.snapshots():
            _flip_byte(snap)
        with pytest.raises(CheckpointCorruptError, match="no verifiable"):
            rot.load_latest()

    def test_fallback_continuation_is_exact(self, tmp_path):
        """Restarting off the fallback snapshot reproduces the trajectory."""
        straight = ChannelDNS(CFG)
        straight.initialize()
        straight.run(6)

        dns = ChannelDNS(CFG)
        dns.initialize()
        rot = CheckpointRotation(tmp_path, keep=3)
        for _ in range(3):
            self._advance_and_save(rot, dns, 2)  # snapshots at 2, 4, 6
        _flip_byte(rot.latest_path)  # corrupt step-6 snapshot
        restored = rot.load_latest(config=CFG)
        assert restored.step_count == 4
        restored.run(2)
        np.testing.assert_array_equal(restored.state.v, straight.state.v)
        np.testing.assert_array_equal(restored.state.omega_y, straight.state.omega_y)
