"""Spectral regridding and snapshot interpolation.

Production DNS campaigns (the paper's included) are grid-sequenced: a
coarse run develops turbulence cheaply, then the state is spectrally
interpolated onto the production grid and continued.  For a spectral
code this is exact on the shared modes:

* x/z: pad (new zero modes) or truncate the Fourier coefficients,
* y: evaluate the B-splines of the old basis at any points and
  re-interpolate in the new basis (exact when the new breakpoints
  refine the old ones to within spline accuracy).

``evaluate_at`` offers the same machinery pointwise — velocities at
arbitrary (x, z, y) to spectral accuracy — which is what post-processing
pipelines sample along lines and planes.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import ChannelGrid
from repro.core.operators import WallNormalOps
from repro.core.timestepper import ChannelState
from repro.core.velocity import recover_uw


def _resample_modes(field: np.ndarray, gin: ChannelGrid, gout: ChannelGrid) -> np.ndarray:
    """Pad/truncate the (kx, kz) mode content between grids (y untouched)."""
    out = np.zeros((gout.mx, gout.mz, field.shape[2]), dtype=complex)
    mx = min(gin.mx, gout.mx)
    # positive kz block
    hin, hout = gin.nz // 2, gout.nz // 2
    hpos = min(hin, hout)
    out[:mx, :hpos] = field[:mx, :hpos]
    # negative kz block (tails of the FFT-ordered layout)
    hneg = min(hin - 1, hout - 1)
    if hneg > 0:
        out[:mx, gout.mz - hneg :] = field[:mx, gin.mz - hneg :]
    return out


def _resample_y(coeffs: np.ndarray, gin: ChannelGrid, gout: ChannelGrid) -> np.ndarray:
    """Old-basis spline coefficients -> new-basis coefficients."""
    if gin.ny == gout.ny and np.allclose(gin.basis.breakpoints, gout.basis.breakpoints):
        return coeffs
    vals = gin.basis.evaluate(coeffs, gout.basis.collocation_points)
    return gout.basis.interpolate(vals)


def regrid_state(state: ChannelState, gin: ChannelGrid, gout: ChannelGrid) -> ChannelState:
    """Spectrally interpolate a DNS state onto another grid.

    Mode content shared by both grids transfers exactly; new modes start
    at zero; dropped modes are discarded (a spectral low-pass).  The
    kx = 0 reality symmetry and wall boundary conditions are preserved
    by construction.
    """
    if state.u00 is None or state.w00 is None:
        raise ValueError("regrid_state needs a full (mean-owning) state")
    v = _resample_modes(_resample_y(state.v, gin, gout), gin, gout)
    omega = _resample_modes(_resample_y(state.omega_y, gin, gout), gin, gout)
    out = ChannelState(
        v=v,
        omega_y=omega,
        u00=_resample_y(state.u00, gin, gout),
        w00=_resample_y(state.w00, gin, gout),
        time=state.time,
    )
    out.u, out.w = recover_uw(
        gout.modes, WallNormalOps(gout), out.v, out.omega_y, out.u00, out.w00
    )
    return out


def evaluate_at(
    grid: ChannelGrid,
    field_coeffs: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Evaluate one spectral field at arbitrary points (spectral accuracy).

    ``x``, ``z``, ``y`` are 1-D arrays of equal length; returns the real
    field values at the points ``(x[i], z[i], y[i])``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not (x.shape == z.shape == y.shape):
        raise ValueError("x, z, y must have equal shapes")
    # y first: spline evaluation gives per-mode values at each point
    npts = x.size
    out = np.zeros(npts)
    # evaluate spline along y once per point (vectorized per point over modes)
    for i in range(npts):
        mode_vals = grid.basis.evaluate(field_coeffs, np.array([y[i]]))[..., 0]
        phase_x = np.exp(1j * grid.kx * x[i])  # (mx,)
        phase_z = np.exp(1j * grid.kz * z[i])  # (mz,)
        contrib = (mode_vals * phase_z[None, :]).sum(axis=1)  # (mx,)
        # kx = 0 is real by the reality symmetry; kx > 0 counts twice
        out[i] = contrib[0].real + 2.0 * np.real((contrib[1:] * phase_x[1:]).sum())
    return out
