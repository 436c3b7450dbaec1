"""Desk-scale 1D space-time finite-volume reference scheme.

`march_stfv` marches the explicit space-time FV step on a moving 1D mesh,
whose elements are the cells (`interfaces`).  The step must match the
finite-volume method-of-lines step (volumes from the discrete GCL) to
round-off; that step lives in `tests/test_stfv.py`.  Interfaces are
periodic: interface i sits between cells i-1 and i (mod n).
"""

from dataclasses import dataclass

import numpy as np

from stfr.basis import gauss_legendre
from stfr.mesh import Mesh
from stfr.motion import MotionPrescription, march_path
from stfr.physics import Advection1D, ExactSolution, exact_state
from stfr.st_solver import MarchResult, StateField


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
        if not self.dt > 0:
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


def interfaces(mesh: Mesh) -> np.ndarray:
    """Node indices of the FV interfaces, left to right: the end nodes of
    the mesh's elements, which must form one chain in x (else ValueError).
    Nodes that no element names are no interface."""
    x = mesh.nodes[:, 0]
    ends = mesh.elems
    ends = np.where((x[ends[:, 0]] > x[ends[:, 1]])[:, None], ends[:, ::-1], ends)
    ends = ends[np.argsort(x[ends[:, 0]])]
    gaps = np.flatnonzero(ends[1:, 0] != ends[:-1, 1])
    if gaps.size:
        a, b = ends[gaps[0], 1], ends[gaps[0] + 1, 0]
        raise ValueError(f"stfv needs elements that form one chain, but the "
                         f"element ending at node {a} (x={x[a]:g}) is "
                         f"followed by one starting at node {b} (x={x[b]:g})")
    return np.append(ends[:, 0], ends[-1, 1])


def cell_averages(sol: ExactSolution, x: np.ndarray, t: float) -> np.ndarray:
    """Exact cell averages (n,), first variable, at time t of the cells
    between the interface positions x (n+1,); 3-point Gauss rule."""
    xq, wq = gauss_legendre(3)
    mid, half = 0.5 * (x[:-1] + x[1:]), 0.5 * (x[1:] - x[:-1])
    vals = exact_state(sol, mid[:, None] + half[:, None] * xq, t=t)[..., 0]
    return 0.5 * np.einsum("q,cq->c", wq, vals)


def check_mesh(mesh: Mesh):
    """ValueError if the mesh has dirichlet faces: the interfaces are periodic."""
    if len(mesh.dirichlet):
        raise ValueError(f"stfv treats its interfaces as periodic, but the "
                         f"mesh has {len(mesh.dirichlet)} dirichlet faces")


def march_stfv(mesh: Mesh, motion: MotionPrescription, eq: Advection1D,
               sol: ExactSolution, dt: float, n_steps: int) -> MarchResult:
    """March n_steps steps of u_t + eq.c u_x = 0 from the exact cell averages
    at t = 0 to a `MarchResult` of the final ones (n,), left to right, and
    node coordinates; ValueError before any step for a refused mesh."""
    check_mesh(mesh)
    order = interfaces(mesh)

    def step(k, ubar, coords_n, coords_n1):
        st = Fv1dState(ubar, coords_n[order, 0], coords_n1[order, 0], dt)
        return stfv_step_explicit(st, eq.c)

    ubar, coords = march_path(
        motion, mesh, dt, n_steps,
        lambda coords0: cell_averages(sol, coords0[order, 0], 0.0), step)
    return MarchResult(field=StateField(ubar), coords_final=coords)
