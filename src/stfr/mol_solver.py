"""ALE flux reconstruction in space, marched by explicit SSP-RK3.

The semi-discrete residual follows the GCL-safe form: the instantaneous
metric terms are never differentiated, the Jacobian is never evolved as an
unknown, and the grid velocity enters as a pointwise -V_g . grad(u) source
plus mesh-relative face fluxes F_n = F . n - (V_g . n) u.  The grid velocity
is frozen per physical step, V_g = (x^{n+1} - x^n) / dt, and nodes move
linearly within the step.

All stages of a step share V_g, so one call of `geometry.spatial_geometry`,
one evaluation of the mapping, builds the geometry of the whole step: the
space-time mapping of the slab of length dt = 2 from the step-start
positions x_n to x_n + 2 V_g, at the levels tau = s - 1 for the stage time
offsets s = (0, dt, dt/2).  At every level t_tau = 1 and x_tau = V_g, so
the metric rows and face vectors are the ALE vectors (M, -V_g . M) at the
stage positions x_n + s V_g and |J| = Js; no separate MOL geometry exists.

The operator is the nT = 1 case of the space-time FR kernels in
`st_solver`: the chain-rule divergence, face jumps (traces, Riemann flux,
Dirichlet states) and lift are the same code the slab operator runs,
without the temporal-direction terms.  Each stage runs them on its own
level's contiguous (nE, 1, ...) copies of the metric data.
"""

from dataclasses import dataclass

import numpy as np

from stfr.basis import make_basis
from stfr.geometry import GeometryDegeneracyError, spatial_geometry
from stfr.mesh import Mesh
from stfr.motion import MotionPrescription, motion_path
from stfr.physics import (
    Advection1D,
    Advection2D,
    EquationSet,
    ExactSolution,
    NonPhysicalStateError,
)
from stfr.st_solver import (
    FacePlan,
    _divergence_weights,
    _face_jumps,
    _lift,
    _spatial_divergence,
    initial_condition,
)
from stfr.timestepping import STAGE_OFFSETS, ssp_rk3_step


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
    """Residuals du/dt of the mesh that moves from `coords` at time t with
    one frozen grid velocity, at the stage time offsets `offsets` (one
    temporal level each)."""

    def __init__(self, mesh: Mesh, coords: np.ndarray, vel_nodes: np.ndarray,
                 eq: EquationSet, t: float = 0.0,
                 bc: ExactSolution | None = None, offsets: tuple = (0.0,)):
        self.mesh = mesh
        self.eq = eq
        self.dim = mesh.dim
        self.t = t
        self.bs = None  # set by bind_degree
        self.coords = coords
        self.vel_nodes = vel_nodes
        self.bc = bc
        self.offsets = offsets

    def bind_degree(self, ks: int):
        """Build the metric rows and face vectors for degree ks with one
        geometry call at all levels, then keep per level contiguous
        (nE, 1, ...) divergence weights, a FacePlan and js."""
        self.bs = make_basis(ks)
        g = spatial_geometry(self.mesh, self.coords, self.vel_nodes, self.bs,
                             self.t, self.offsets)
        weights = _divergence_weights(self.eq, g)
        levels = [slice(j, j + 1) for j in range(len(self.offsets))]
        self.weights = [[np.ascontiguousarray(w[:, j]) for w in weights]
                        for j in levels]
        self.plans = [FacePlan(self.mesh, g.face_m[:, :, j],
                               g.face_coords[:, :, j], self.bc) for j in levels]
        self.js = [np.ascontiguousarray(g.js[:, j]) for j in levels]
        return self

    def _interior(self, u, level):
        """js * (div F - V_g . grad u) at solution points."""
        return _spatial_divergence(self.eq, u, self.bs.diff, self.weights[level])

    def _side_deltas(self, u, level):
        return _face_jumps(self.eq, u, self.bs, self.dim, self.plans[level])

    def _lift(self, delta):
        return _lift(delta, self.bs.degree, self.dim)

    def residual(self, u, level: int = 0):
        """du/dt = -(div F - V_g . grad u + correction field) for nodal u
        (nE, nS, nV) at temporal level `level`, run through the kernels as
        (nE, 1, nS, nV)."""
        u = u[:, None]
        total = self._interior(u, level)
        total += self._lift(self._side_deltas(u, level))
        return -total[:, 0] / self.js[level][:, 0, :, None]


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
    residuals see the node positions x_n + s V_g and the analytic boundary
    states at the stage times field.t + s, s = (0, dt, dt/2), all from one
    operator built at those three levels.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    vel = grid_velocity_step(field.coords, coords_n1, dt)
    offsets = tuple(c * dt for c in STAGE_OFFSETS)
    op = MolOperator(mesh, field.coords, vel, eq, t=field.t, bc=bc,
                     offsets=offsets).bind_degree(field.ks)
    stages = iter(range(len(offsets)))  # ssp_rk3_step runs them in order
    u1 = ssp_rk3_step(field.values, lambda u, t: op.residual(u, next(stages)),
                      dt, t=field.t)
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
        try:
            fld = rk3_physical_step(fld, mesh, path[k + 1], dt, eq, bc=bc)
        except (GeometryDegeneracyError, NonPhysicalStateError) as exc:
            exc.args = (f"step {k} at t = {k * dt:.6g}: {exc}",)
            raise
        if not np.isfinite(fld.values).all():
            raise NonPhysicalStateError(
                f"step {k} at t = {k * dt:.6g}: non-finite solution values")
        if step_callback is not None:
            step_callback(fld)
    return MolMarchResult(field=fld, coords_final=path[n_steps])
