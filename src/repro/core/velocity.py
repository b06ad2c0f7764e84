"""Velocity recovery from the (v, omega_y) state — paper step (j).

For each wavenumber with ``k² = kx² + kz² > 0``, continuity and the
definition of the wall-normal vorticity give a 2x2 algebraic system:

    i kx u + i kz w = -dv/dy          (continuity)
    i kz u - i kx w =  omega_y        (definition)

with solution

    u = ( i kx dv/dy - i kz omega_y) / k²
    w = ( i kz dv/dy + i kx omega_y) / k²

The ``k² = 0`` (mean) mode carries its own state (``u00``, ``w00``); the
mean of v vanishes identically (impermeable walls + continuity).  All
functions operate on a :class:`~repro.core.modes.ModeSet`, which is the
full mode grid for the serial solver or one pencil block per rank in the
distributed solver.
"""

from __future__ import annotations

import numpy as np

from repro.core.modes import ModeSet
from repro.core.operators import WallNormalOps


def recover_uw(
    modes: ModeSet,
    ops: WallNormalOps,
    v: np.ndarray,
    omega_y: np.ndarray,
    u00: np.ndarray | None,
    w00: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Spline coefficients of u and w from the state variables.

    ``v``/``omega_y`` are coefficient arrays over ``modes``; ``u00``/
    ``w00`` are the mean-mode coefficient vectors, required exactly when
    this mode set owns the (0,0) mode.
    """
    dv = ops.dvalues(v)
    # Work in coefficient space throughout: the derivative of a spline is
    # not in the same spline space, so re-expand the collocated dv/dy.
    dv_coeffs = ops.coeffs(dv)
    ksq = modes.ksq.copy()
    mean = modes.mean_index
    if mean is not None:
        ksq[mean] = 1.0  # avoid division by zero; overwritten below
    inv = 1.0 / ksq[..., None]
    u = (modes.ikx * dv_coeffs - modes.ikz * omega_y) * inv
    w = (modes.ikz * dv_coeffs + modes.ikx * omega_y) * inv
    if mean is not None:
        if u00 is None or w00 is None:
            raise ValueError("this mode block owns the mean mode; u00/w00 required")
        u[mean] = u00
        w[mean] = w00
    return u, w


def wall_normal_vorticity(modes: ModeSet, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``omega_y = i kz u - i kx w`` (coefficient space)."""
    return modes.ikz * u - modes.ikx * w


def divergence(
    modes: ModeSet, ops: WallNormalOps, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Collocated divergence ``i kx u + dv/dy + i kz w`` (diagnostic)."""
    return modes.ikx * ops.values(u) + ops.dvalues(v) + modes.ikz * ops.values(w)
