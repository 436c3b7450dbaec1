"""Desk-scale 1D space-time finite-volume reference scheme.

The explicit space-time FV step on a moving 1D mesh.  It must match the
finite-volume method-of-lines step (volumes from the discrete GCL) to
round-off; that step lives in `tests/test_stfv.py`.  Interfaces are
periodic: interface i sits between cells i-1 and i (mod n).
"""

from dataclasses import dataclass

import numpy as np


class CellInversionError(RuntimeError):
    """A cell's interfaces crossed during the step."""


@dataclass
class Fv1dState:
    """Cell averages plus interface coordinates at both time levels."""

    ubar: np.ndarray      # (n,)
    x_n: np.ndarray       # (n+1,) strictly increasing
    x_np1: np.ndarray     # (n+1,)
    dt: float

    def __post_init__(self):
        self.ubar = np.asarray(self.ubar, dtype=float)
        self.x_n = np.asarray(self.x_n, dtype=float)
        self.x_np1 = np.asarray(self.x_np1, dtype=float)
        if np.any(np.diff(self.x_n) <= 0) or np.any(np.diff(self.x_np1) <= 0):
            raise CellInversionError("interfaces must be strictly increasing "
                                     "at both time levels")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def _interface_fluxes(state: Fv1dState, c: float):
    """Explicit mesh-relative upwind fluxes F = (c - v_g) u* for f = c u at
    the n+1 interfaces (periodic neighbors); the upwind state u* follows
    the sign of the relative speed c - v_g."""
    u = state.ubar
    v_g = (state.x_np1 - state.x_n) / state.dt
    u_left = np.concatenate([[u[-1]], u])     # cell left of interface i
    u_right = np.concatenate([u, [u[0]]])
    rel = c - v_g
    return rel * np.where(rel >= 0, u_left, u_right)


def stfv_step_explicit(state: Fv1dState, c: float = 1.0) -> np.ndarray:
    """Explicit space-time FV update of u_t + c u_x = 0,
    ubar^{n+1} (x~_2 - x~_1) = ubar^n (x_2 - x_1) - dt (F_2 - F_1)."""
    vol_new = np.diff(state.x_np1)
    if np.any(vol_new <= 0):
        raise CellInversionError("cell inversion at t + dt")
    F = _interface_fluxes(state, c)
    return (state.ubar * np.diff(state.x_n)
            - state.dt * (F[1:] - F[:-1])) / vol_new
