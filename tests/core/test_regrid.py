"""Spectral regridding / pointwise evaluation tests."""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.grid import ChannelGrid
from repro.core.operators import WallNormalOps
from repro.core.regrid import evaluate_at, regrid_state
from repro.core.transforms import to_quadrature_grid
from repro.core.velocity import divergence


def running_dns(nx=16, ny=24, nz=16, steps=2):
    cfg = ChannelConfig(nx=nx, ny=ny, nz=nz, dt=2e-4, init_amplitude=0.5, seed=21)
    dns = ChannelDNS(cfg)
    dns.initialize()
    dns.run(steps)
    return dns


class TestRegrid:
    def test_refine_preserves_shared_modes(self):
        dns = running_dns()
        gin = dns.grid
        gout = ChannelGrid(nx=32, ny=36, nz=32, stretch=gin.basis and 2.0)
        refined = regrid_state(dns.state, gin, gout)
        # the physical field on the coarse grid is unchanged by refinement
        coarse_phys = to_quadrature_grid(
            WallNormalOps(gin).values(dns.state.v), gin
        )
        fine_phys = to_quadrature_grid(WallNormalOps(gout).values(refined.v), gout)
        # sample both at shared physical locations via pointwise evaluation
        xs = np.array([0.3, 1.1, 2.2])
        zs = np.array([0.2, 0.9, 1.7])
        ys = np.array([-0.5, 0.0, 0.4])
        a = evaluate_at(gin, dns.state.v, xs, zs, ys)
        b = evaluate_at(gout, refined.v, xs, zs, ys)
        np.testing.assert_allclose(b, a, atol=1e-6)
        assert coarse_phys.shape != fine_phys.shape

    def test_refined_state_is_divergence_free(self):
        dns = running_dns()
        gout = ChannelGrid(nx=32, ny=36, nz=32)
        refined = regrid_state(dns.state, dns.grid, gout)
        div = divergence(gout.modes, WallNormalOps(gout), refined.u, refined.v, refined.w)
        assert np.abs(div).max() < 1e-9

    def test_refined_dns_continues(self):
        """Grid sequencing: refine and keep time-stepping stably."""
        dns = running_dns()
        gout_cfg = ChannelConfig(nx=32, ny=36, nz=32, dt=2e-4)
        fine = ChannelDNS(gout_cfg)
        fine.initialize(regrid_state(dns.state, dns.grid, fine.grid))
        fine.run(2)
        assert np.isfinite(fine.kinetic_energy())
        assert fine.divergence_norm() < 1e-9

    def test_refine_then_coarsen_is_identity(self):
        dns = running_dns()
        gin = dns.grid
        gout = ChannelGrid(nx=32, ny=24, nz=32)
        up = regrid_state(dns.state, gin, gout)
        back = regrid_state(up, gout, gin)
        np.testing.assert_allclose(back.v, dns.state.v, atol=1e-12)
        np.testing.assert_allclose(back.omega_y, dns.state.omega_y, atol=1e-12)

    def test_coarsening_is_lowpass(self):
        dns = running_dns(nx=32, ny=24, nz=32)
        gout = ChannelGrid(nx=16, ny=24, nz=16)
        down = regrid_state(dns.state, dns.grid, gout)
        # retained modes intact
        np.testing.assert_allclose(down.v[:4, :4], dns.state.v[:4, :4], atol=1e-12)

    def test_partial_state_rejected(self):
        from repro.core.timestepper import ChannelState

        dns = running_dns()
        partial = ChannelState(
            v=dns.state.v, omega_y=dns.state.omega_y, u00=None, w00=None
        )
        with pytest.raises(ValueError):
            regrid_state(partial, dns.grid, dns.grid)


class TestEvaluateAt:
    def test_single_mode_exact(self):
        g = ChannelGrid(nx=16, ny=16, nz=16)
        coeffs = np.zeros(g.spectral_shape, complex)
        a = g.basis.interpolate(1 - g.y**2)
        coeffs[2, 0] = 0.5 * a  # cos(2x) (1 - y²)
        xs = np.array([0.1, 0.7, 2.0])
        zs = np.zeros(3)
        ys = np.array([-0.3, 0.0, 0.6])
        vals = evaluate_at(g, coeffs, xs, zs, ys)
        np.testing.assert_allclose(vals, np.cos(2 * xs) * (1 - ys**2), atol=1e-10)

    def test_matches_collocated_values(self):
        dns = running_dns()
        g = dns.grid
        ops = WallNormalOps(g)
        phys = to_quadrature_grid(ops.values(dns.state.u), g)
        i, j, k = 3, 5, 7
        val = evaluate_at(
            g, dns.state.u, np.array([g.x[i]]), np.array([g.z[j]]), np.array([g.y[k]])
        )[0]
        assert val == pytest.approx(phys[i, j, k], abs=1e-9)

    def test_shape_mismatch(self):
        g = ChannelGrid(nx=16, ny=12, nz=16)
        with pytest.raises(ValueError):
            evaluate_at(g, np.zeros(g.spectral_shape, complex), np.zeros(2), np.zeros(3), np.zeros(2))
