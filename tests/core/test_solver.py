"""ChannelDNS facade tests."""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS


class TestConfig:
    def test_nu_from_re_tau(self):
        cfg = ChannelConfig(re_tau=180.0, forcing=1.0)
        assert cfg.nu == pytest.approx(1.0 / 180.0)

    def test_nu_override(self):
        cfg = ChannelConfig(nu_value=0.05)
        assert cfg.nu == 0.05

    def test_forcing_scales_u_tau(self):
        cfg = ChannelConfig(re_tau=100.0, forcing=4.0)
        assert cfg.nu == pytest.approx(2.0 / 100.0)


class TestLifecycle:
    def test_step_before_initialize_raises(self):
        dns = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16))
        with pytest.raises(RuntimeError):
            dns.step()

    def test_diagnostics_before_initialize_raise(self):
        dns = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16))
        with pytest.raises(RuntimeError):
            dns.divergence_norm()

    def test_run_counts_steps(self):
        dns = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16, dt=5e-4))
        dns.initialize()
        dns.run(3)
        assert dns.step_count == 3

    def test_callback_invoked(self):
        dns = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16, dt=5e-4))
        dns.initialize()
        seen = []
        dns.run(2, callback=lambda d: seen.append(d.step_count))
        assert seen == [1, 2]


class TestDiagnostics:
    @pytest.fixture(scope="class")
    def dns(self):
        d = ChannelDNS(ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.4, seed=6))
        d.initialize()
        d.run(2)
        return d

    def test_physical_velocity_shapes(self, dns):
        u, v, w = dns.physical_velocity()
        assert u.shape == dns.grid.quadrature_shape
        assert v.shape == w.shape == u.shape

    def test_kinetic_energy_positive(self, dns):
        assert dns.kinetic_energy() > 0.0

    def test_divergence_machine_zero(self, dns):
        assert dns.divergence_norm() < 1e-10

    def test_wall_shear_velocity_near_unity(self, dns):
        assert 0.3 < dns.wall_shear_velocity() < 3.0

    def test_energy_finite_and_stable(self, dns):
        """No blow-up over further steps."""
        e0 = dns.kinetic_energy()
        dns.run(2)
        assert np.isfinite(dns.kinetic_energy())
        assert dns.kinetic_energy() < 10 * e0 + 10


class TestSerialLayout:
    def test_serial_run_constructs_no_communicator(self, tmp_path, monkeypatch):
        """Serial is the layout *without* a communicator: the whole public
        loop — telemetry, streaming statistics, watchdog, checkpoint
        round trip, supervisor — must never build one."""
        from repro.core import HealthMonitor, RunSupervisor
        from repro.core.checkpoint import ShardedCheckpointRotation
        from repro.mpi.simmpi import Communicator

        def refuse(self, *args, **kwargs):
            raise AssertionError("a serial run constructed a Communicator")

        monkeypatch.setattr(Communicator, "__init__", refuse)
        cfg = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.4, seed=6)
        dns = ChannelDNS(cfg, telemetry=tmp_path / "tel")
        assert dns.comm is None and dns.decomp is None
        assert dns.modes is dns.grid.modes
        dns.initialize()
        stats = dns.attach_streaming(every=1)
        dns.run(2, controllers=[HealthMonitor()])
        rotation = ShardedCheckpointRotation(tmp_path / "ckpt")
        dns = RunSupervisor(dns, rotation, monitor=HealthMonitor()).run(2)
        assert dns.step_count == 4 and stats.total_samples == 4
        assert np.isfinite([dns.kinetic_energy(), dns.wall_shear_velocity()]).all()
        assert stats.bulk_velocity() > 0.0
        restored = ChannelDNS(cfg)
        rotation.load_latest(restored)
        assert restored.comm is None and restored.step_count == 4
        assert rotation.load_serial().step_count == 4
        dns.finalize_telemetry()
