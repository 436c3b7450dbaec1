"""ALE flux reconstruction in space, marched by explicit SSP-RK3.

The semi-discrete residual follows the GCL-safe form: the instantaneous
metric terms are never differentiated, the Jacobian is never evolved as an
unknown, and the grid velocity enters as a pointwise -V_g . grad(u) source
plus mesh-relative face fluxes F_n = F . n - (V_g . n) u.  The grid velocity
is frozen per physical step, V_g = (x^{n+1} - x^n) / dt, and nodes move
linearly within the step.

Each RK stage takes its geometry from `geometry.spatial_geometry`: the
space-time mapping at the single level tau = -1 of the slab of length
dt = 2 from the stage-time node positions x to x + 2 V_g.  There t_tau = 1
and x_tau = V_g, so the space-time metric rows and face vectors are the ALE
vectors (M, -V_g . M) and |J| = Js; no separate MOL geometry exists.

The operator is the nT = 1 case of the space-time FR kernels in
`st_solver`: the chain-rule divergence, face jumps (traces, Riemann flux,
Dirichlet states) and lift are the same code the slab operator runs,
without the temporal-direction terms.
"""

from dataclasses import dataclass

import numpy as np

from stfr.basis import make_basis
from stfr.geometry import spatial_geometry
from stfr.mesh import Mesh
from stfr.motion import MotionPrescription, motion_path
from stfr.physics import Advection1D, Advection2D, EquationSet, ExactSolution
from stfr.st_solver import (
    FacePlan,
    _divergence_weights,
    _face_jumps,
    _lift,
    _spatial_divergence,
    initial_condition,
)
from stfr.timestepping import ssp_rk3_step


@dataclass
class MolField:
    """Spatial nodal coefficients, (n_elems, (k_s+1)^dim, n_vars)."""

    values: np.ndarray
    ks: int
    t: float
    coords: np.ndarray  # node coordinates at time t


def grid_velocity_step(coords_n: np.ndarray, coords_n1: np.ndarray,
                       dt: float) -> np.ndarray:
    """Per-node velocity (x^{n+1} - x^n) / dt, held constant over the step."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    return (np.asarray(coords_n1) - np.asarray(coords_n)) / dt


class MolOperator:
    """Residual du/dt at one mesh position with one frozen grid velocity."""

    def __init__(self, mesh: Mesh, coords: np.ndarray, vel_nodes: np.ndarray,
                 eq: EquationSet, t: float = 0.0,
                 bc: ExactSolution | None = None):
        self.mesh = mesh
        self.eq = eq
        self.dim = mesh.dim
        self.t = t
        self.bs = None  # set by bind_degree
        self.coords = coords
        self.vel_nodes = vel_nodes
        self.bc = bc

    def bind_degree(self, ks: int):
        """Build the metric rows and face vectors for degree ks: the
        space-time geometry at one temporal level, (nE, 1, ...) arrays."""
        self.bs = make_basis(ks)
        g = self.geom = spatial_geometry(self.mesh, self.coords, self.vel_nodes,
                                         self.bs, self.t)
        self.weights = _divergence_weights(self.eq, g)
        self.plan = FacePlan(self.mesh, g.face_m, g.face_coords, self.bc)
        return self

    def _interior(self, u):
        """js * (div F - V_g . grad u) at solution points."""
        return _spatial_divergence(self.eq, u, self.bs.diff, self.weights)

    def _side_deltas(self, u):
        return _face_jumps(self.eq, u, self.bs, self.dim, self.plan)

    def _lift(self, delta):
        return _lift(delta, self.geom.ks, self.dim)

    def residual(self, u):
        """du/dt = -(div F - V_g . grad u + correction field) for nodal u
        (nE, nS, nV), run through the kernels as (nE, 1, nS, nV)."""
        u = u[:, None]
        total = self._interior(u)
        total += self._lift(self._side_deltas(u))
        return -total[:, 0] / self.geom.js[:, 0, :, None]


def mol_residual(field: MolField, mesh: Mesh, vel_nodes: np.ndarray,
                 eq: EquationSet, bc: ExactSolution | None = None) -> np.ndarray:
    """Semi-discrete du/dt at the solution points (spec surface)."""
    op = MolOperator(mesh, field.coords, vel_nodes, eq, t=field.t, bc=bc)
    op.bind_degree(field.ks)
    return op.residual(field.values)


def rk3_physical_step(field: MolField, mesh: Mesh, coords_n1: np.ndarray,
                      dt: float, eq: EquationSet,
                      bc: ExactSolution | None = None) -> MolField:
    """One SSP-RK3 step from field.t to field.t + dt.

    The grid velocity is frozen from the step's endpoint positions; stage
    residuals see the linearly interpolated node positions at stage times
    (0, 1, 1/2) and the matching analytic boundary states.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    coords_n = field.coords
    vel = grid_velocity_step(coords_n, coords_n1, dt)
    ops = {}

    def rhs(u, t_stage):
        c = (t_stage - field.t) / dt
        key = round(c, 12)
        if key not in ops:
            coords_c = (1 - c) * coords_n + c * coords_n1
            ops[key] = MolOperator(mesh, coords_c, vel, eq,
                                   t=field.t + c * dt, bc=bc).bind_degree(field.ks)
        return ops[key].residual(u)

    u1 = ssp_rk3_step(field.values, rhs, dt, t=field.t)
    return MolField(values=u1, ks=field.ks, t=field.t + dt, coords=coords_n1)


def mol_stable_dt(mesh: Mesh, coords: np.ndarray, eq: EquationSet, ks: int,
                  safety: float = 0.5) -> float:
    """Explicit-RK3 stable step estimate: safety * h_min / (s_max (k+1)^2).

    s_max is a crude convective speed bound; the (k+1)^2 factor tracks the
    growth of the FR operator's spectral radius with degree.
    """
    C = mesh.elem_corners(coords)
    if mesh.dim == 1:
        h = np.min(np.abs(C[:, 1, 0] - C[:, 0, 0]))
    else:
        d1 = np.linalg.norm(C[:, 1] - C[:, 0], axis=1)
        d2 = np.linalg.norm(C[:, 3] - C[:, 0], axis=1)
        h = min(np.min(d1), np.min(d2))
    if isinstance(eq, Advection1D):
        s = abs(eq.c)
    elif isinstance(eq, Advection2D):
        s = np.hypot(eq.c1, eq.c2)
    else:
        s = 3.0  # order-one velocities plus sound speed for the test states
    return safety * h / (max(s, 1e-12) * (ks + 1) ** 2)


@dataclass
class MolMarchResult:
    field: MolField
    coords_final: np.ndarray


def march_mol(mesh: Mesh, motion: MotionPrescription, eq: EquationSet,
              sol: ExactSolution, ks: int, dt: float, n_steps: int,
              bc: ExactSolution | None = None,
              step_callback=None) -> MolMarchResult:
    """March n_steps SSP-RK3 steps from the exact initial condition."""
    bs = make_basis(ks)
    path = motion_path(motion, mesh, dt, n_steps)
    if bc is None and len(mesh.dirichlet):
        bc = sol
    u0 = initial_condition(mesh, path[0], bs, sol)
    fld = MolField(values=u0, ks=ks, t=0.0, coords=path[0])
    for k in range(n_steps):
        fld = rk3_physical_step(fld, mesh, path[k + 1], dt, eq, bc=bc)
        if step_callback is not None:
            step_callback(fld)
    return MolMarchResult(field=fld, coords_final=path[n_steps])
