"""ALE flux reconstruction in space, marched by explicit SSP-RK3
(`ssp_rk3_step`, stage time offsets `STAGE_OFFSETS`).

The semi-discrete residual follows the GCL-safe form: the instantaneous
metric terms are never differentiated, the Jacobian is never evolved as an
unknown, and the grid velocity enters as a pointwise -V_g . grad(u) source
plus mesh-relative face fluxes F_n = F . n - (V_g . n) u.  The grid velocity
is frozen per physical step, V_g = (x^{n+1} - x^n) / dt, and nodes move
linearly within the step.

All stages of a step share V_g, so `rk3_physical_step` builds the geometry
of the whole step with one `geometry.spatial_geometry` call on the step's
end positions and its stage fractions `STAGE_OFFSETS`: the call forms V_g
and the space-time mapping of the slab of length 2 from the step-start
positions x_n to x_n + 2 V_g, at the levels tau = s - 1 for the stage time
offsets s = (0, dt, dt/2).  At every level t_tau = 1 and x_tau = V_g, so
the metric rows and face vectors are the ALE vectors (M, -V_g . M) at the
stage positions x_n + s V_g and |J| = Js; no separate MOL geometry exists.
The build forms only what the stages read: the volume rows and js, the
outward face vectors, and positions at Dirichlet flux points alone.

`MolOperator` binds that geometry as one `LevelPlan`, the spatial operator
the slab solver holds, and stage j runs its FR kernels at level j, reading
the tables in place, without the temporal-direction terms.
"""

import numpy as np

from stfr.basis import BasisSet, make_basis
from stfr.geometry import SlabGeometry, spatial_geometry
from stfr.mesh import Mesh
from stfr.motion import MotionPrescription, march_path
from stfr.physics import Advection1D, Advection2D, EquationSet, ExactSolution
from stfr.st_solver import LevelPlan, MarchResult, StateField, initial_condition

# Fraction of the estimated stability limit that `mol_stable_dt` returns.
CFL_SAFETY = 0.5

# SSP-RK3 stage time offsets in units of dt, in the order the stages run
STAGE_OFFSETS = (0.0, 1.0, 0.5)


class MolOperator:
    """Residuals du/dt of the stages of one step, stage j read in place at
    level j of the `LevelPlan` of the geometry it is bound to."""

    def __init__(self, mesh: Mesh, eq: EquationSet,
                 bc: ExactSolution | None = None):
        self.mesh = mesh
        self.eq = eq
        self.bc = bc
        self.plan = None  # set by bind_degree

    def bind_degree(self, geom: SlabGeometry):
        """Bind the stage geometry of one `spatial_geometry` call: one
        LevelPlan over all its levels."""
        self.plan = LevelPlan(self.mesh, geom, self.eq, self.bc)
        return self

    def _interior(self, u, level):
        """js * (div F - V_g . grad u) at solution points."""
        return self.plan.spatial_divergence(u, slice(level, level + 1))

    def _side_deltas(self, u, level):
        return self.plan.face_jumps(u, slice(level, level + 1))

    def _lift(self, delta):
        return self.plan.lift(delta)

    def residual(self, u, level: int = 0):
        """du/dt = -(div F - V_g . grad u + correction field) / |J| for nodal
        u (nV, nE, nS) at temporal level `level`, run through the kernels as
        the view (nV, nE, 1, nS); |J| = Js at every level."""
        v = u[:, :, None]
        total = self._interior(v, level)
        total += self._lift(self._side_deltas(v, level))
        return np.divide(total, -self.plan.jac[:, level:level + 1], out=total)[:, :, 0]


def ssp_rk3_step(u, rhs, dt):
    """One SSP-RK3 cycle: u_{n+1} from u_n with du/dt = rhs(u, k).

    Stage k calls rhs at the time offset STAGE_OFFSETS[k] * dt, k = 0, 1, 2.
    With rhs frozen to a constant r this reduces exactly to u + dt * r.
    """
    u1 = u + dt * rhs(u, 0)
    u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * rhs(u1, 1)
    return u / 3.0 + 2.0 / 3.0 * u2 + 2.0 / 3.0 * dt * rhs(u2, 2)


def rk3_physical_step(u: np.ndarray, mesh: Mesh, coords_n, coords_n1,
                      dt: float, t_n: float, eq: EquationSet,
                      basis_s: BasisSet, bc: ExactSolution | None = None):
    """One SSP-RK3 step of the nodal values u (nV, nE, nS) from t_n to
    t_n + dt, the nodes moving from coords_n to coords_n1; returns the new
    values.  The grid velocity is frozen from the step's end positions;
    stage residuals see the node positions x_n + s V_g and the analytic
    boundary states at the stage times t_n + s, s = (0, dt, dt/2), all
    from one geometry built at those three levels."""
    geom = spatial_geometry(mesh, coords_n, coords_n1, dt, basis_s, t_n,
                            STAGE_OFFSETS)
    op = MolOperator(mesh, eq, bc).bind_degree(geom)
    return ssp_rk3_step(u, op.residual, dt)


def mol_stable_dt(mesh: Mesh, coords: np.ndarray, eq: EquationSet,
                  ks: int) -> float:
    """Explicit-RK3 stable step estimate: CFL_SAFETY * h_min / (s_max (k+1)^2).

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
    return CFL_SAFETY * h / (max(s, 1e-12) * (ks + 1) ** 2)


def march_mol(mesh: Mesh, motion: MotionPrescription, eq: EquationSet,
              sol: ExactSolution, ks: int, dt: float, n_steps: int,
              step_callback=None) -> MarchResult:
    """March n_steps SSP-RK3 steps from the exact initial condition; `sol`
    also gives the boundary states where the mesh has Dirichlet faces.
    Returns a `MarchResult` holding the final values (nV, nE, nS) and node
    coordinates.  step_callback(u) runs on each step's new values, ahead
    of march_path's check that they are finite."""
    bs = make_basis(ks)

    def step(k, u, coords_n, coords_n1):
        u = rk3_physical_step(u, mesh, coords_n, coords_n1, dt, k * dt, eq,
                              bs, bc=sol)
        if step_callback is not None:
            step_callback(u)
        return u

    u, coords = march_path(
        motion, mesh, dt, n_steps,
        lambda coords0: initial_condition(mesh, coords0, bs, sol), step)
    return MarchResult(field=StateField(u), coords_final=coords)
