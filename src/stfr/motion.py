"""Grid motion prescriptions.

Closed-form motions (Stationary, RigidOscillation, CircleDeformation) give
node positions as pure functions of the reference coordinates and time.
SineDeformation is incremental: each physical step displaces nodes by an
explicit increment evaluated at the step's start, so node trajectories
depend on the step size used to march them.

`march_path` walks the node coordinates of `motion_path` step by step; the
three solvers (space-time FR slabs, the method of lines and the space-time
FV scheme) each march through it with a step function of their own.
"""

import math
from dataclasses import dataclass

import numpy as np

from stfr.mesh import EDGE_ENDS, Mesh
from stfr.physics import NonPhysicalStateError

# the displacements of two periodic partners may differ by this much times
# the coordinate scale of the mesh: round-off
PERIODIC_TOL = 1e-10


class PeriodicMotionError(ValueError):
    """A motion that moves the two nodes of a periodic face pair apart."""


@dataclass(frozen=True)
class Stationary:
    pass


@dataclass(frozen=True)
class RigidOscillation:
    """x_i(t) = x_i0 + amp_i * cos(omega_i * t), per coordinate."""

    amp: tuple = (0.1, 0.1)
    omega: tuple = (2 * math.pi, 2 * math.pi)


@dataclass(frozen=True)
class SineDeformation:
    """Per-step node displacement
    d x_i = amp_i * length_i * (dt / t_max) * sin(w_t t) * sin(w_x x) * sin(w_y y)
    with w_t = n_t pi / t_max, w_x = n[0] pi / length_x, w_y = n[1] pi / length_y.
    """

    amp: tuple = (0.1, 0.1)
    length: tuple = (1.0, 1.0)
    n_t: float = 0.5
    n: tuple = (4.0, 4.0)
    t_max: float = 0.2

    def __post_init__(self):
        if not self.t_max > 0:  # also catches nan
            raise ValueError(f"t_max must be > 0, got {self.t_max!r}")
        if not all(v > 0 for v in self.length):
            raise ValueError(f"length must be > 0, got {self.length!r}")


@dataclass(frozen=True)
class CircleDeformation:
    """Rotation + ellipse scaling + vertical translation + symmetry-breaking
    angular perturbation of a disk, driven by the ramp alpha(t)."""

    a_theta: float = math.pi
    a_a: float = 1.5
    a_g: float = 0.15


MotionPrescription = Stationary | RigidOscillation | SineDeformation | CircleDeformation


def circle_alpha(t):
    """Ramp alpha(t) = t^3 (8 - 3t) / 16; alpha(0) = 0, alpha(1) = 5/16."""
    t = np.asarray(t, dtype=float)
    return t**3 * (8.0 - 3.0 * t) / 16.0


def circle_psi(t, a_a: float = 1.5):
    """Ellipse amplification psi(t) = 1 + (A_a - 1) alpha(t)."""
    return 1.0 + (a_a - 1.0) * circle_alpha(t)


def eta_perturbation(lam, omega, tau):
    """Symmetry-breaking perturbation sin(w*lam + tau*(1 - cos(w*lam)))."""
    lam = np.asarray(lam, dtype=float)
    wl = omega * lam
    return np.sin(wl + tau * (1.0 - np.cos(wl)))


def circle_fg(r0, theta0, t):
    """Volume-deformation shape function of the circular-domain motion."""
    r0 = np.asarray(r0, dtype=float)
    t6 = float(t) ** 6
    radial = 16.0 * r0**4 + eta_perturbation(t, 10.0, 0.7) * (
        np.cos(32.0 * np.pi * r0**4) - 1.0)
    return t6 / (t6 + 0.01) * radial * eta_perturbation(theta0, 1.0, 0.7)


def circle_theta(r0, theta0, t, a_g: float = 0.15):
    """Perturbed angle theta_g = theta_0 + A_g * f_g(r0, theta0, t)."""
    return np.asarray(theta0, dtype=float) + a_g * circle_fg(r0, theta0, t)


def node_positions(presc: MotionPrescription, mesh: Mesh, t: float) -> np.ndarray:
    """Node coordinates at time t for a closed-form prescription.

    Raises:
        ValueError: for SineDeformation (incremental; use deform_step) or t < 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    ref = mesh.nodes
    if isinstance(presc, Stationary):
        return ref.copy()
    if isinstance(presc, RigidOscillation):
        out = ref.copy()
        for i in range(mesh.dim):
            out[:, i] += presc.amp[i] * math.cos(presc.omega[i] * t)
        return out
    if isinstance(presc, CircleDeformation):
        if mesh.dim != 2:
            raise ValueError("CircleDeformation requires a 2D mesh")
        r0 = np.hypot(ref[:, 0], ref[:, 1])
        th0 = np.arctan2(ref[:, 1], ref[:, 0])
        alpha = float(circle_alpha(t))
        psi = float(circle_psi(t, presc.a_a))
        thg = circle_theta(r0, th0, t, presc.a_g)
        x = psi * r0 * np.cos(thg)
        y = r0 * np.sin(thg) / psi
        rot = presc.a_theta * alpha
        c, s = math.cos(rot), math.sin(rot)
        xr = c * x - s * y
        yr = s * x + c * y + alpha
        return np.stack([xr, yr], axis=1)
    if isinstance(presc, SineDeformation):
        raise ValueError(
            "SineDeformation is incremental; use deform_step / motion_path")
    raise TypeError(f"unknown prescription {presc!r}")


def deform_step(presc: SineDeformation, coords: np.ndarray, t: float,
                dt: float) -> np.ndarray:
    """One explicit displacement increment of the sine deformation.

    The increment is evaluated at each node's position at time t.

    Raises:
        ValueError: if dt <= 0.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    coords = np.asarray(coords, dtype=float)
    dim = coords.shape[1]
    wt = presc.n_t * math.pi / presc.t_max
    wx = presc.n[0] * math.pi / presc.length[0]
    st = math.sin(wt * t)
    sx = np.sin(wx * coords[:, 0])
    if dim == 1:
        shape = st * sx
    else:
        wy = presc.n[1] * math.pi / presc.length[1]
        shape = st * sx * np.sin(wy * coords[:, 1])
    out = coords.copy()
    for i in range(dim):
        out[:, i] += presc.amp[i] * presc.length[i] * (dt / presc.t_max) * shape
    return out


def motion_path(presc: MotionPrescription, mesh: Mesh, dt: float,
                n_steps: int) -> np.ndarray:
    """Node coordinates at the discrete levels t_k = k dt, k = 0..n_steps.

    Closed-form prescriptions are evaluated directly; SineDeformation is
    accumulated step by step.  Shape (n_steps + 1, n_nodes, dim).
    """
    if isinstance(presc, SineDeformation):
        out = np.empty((n_steps + 1, mesh.n_nodes, mesh.dim))
        out[0] = mesh.nodes
        for k in range(n_steps):
            out[k + 1] = deform_step(presc, out[k], k * dt, dt)
        return out
    return np.stack([node_positions(presc, mesh, k * dt)
                     for k in range(n_steps + 1)], axis=0)


def march_path(presc: MotionPrescription, mesh: Mesh, dt: float, n_steps: int,
               start, step, unit: str = "step"):
    """March a solution along the motion path x_k = `motion_path`(...)[k].

    Seeds u = start(x_0), then runs u = step(k, u, x_k, x_{k+1}) for
    k = 0..n_steps-1.  Overflow is silenced, in the seed as in the steps:
    an unstable run ends in the check that u is finite after each step.
    Every solver error is a RuntimeError; its message gets the prefix
    "<unit> k at t = <k dt>".
    Returns (u, x_{n_steps}).

    Raises:
        PeriodicMotionError: before the first step, if the path moves the
            two nodes of a periodic face pair apart.
    """
    path = motion_path(presc, mesh, dt, n_steps)
    _check_periodic(presc, mesh, path, dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = start(path[0])
        for k in range(n_steps):
            try:
                u = step(k, u, path[k], path[k + 1])
                if not np.isfinite(u).all():
                    raise NonPhysicalStateError("non-finite solution values")
            except RuntimeError as exc:
                exc.args = (f"{unit} {k} at t = {k * dt:.6g}: {exc.args[0]}",
                            *exc.args[1:])
                raise
    return u, path[n_steps]


def _check_periodic(presc, mesh: Mesh, path, dt: float):
    """Fail if the two nodes of some periodic face pair, the faces whose
    sides name different nodes, get different displacements on `path`."""
    f, ends = mesh.faces, EDGE_ENDS[mesh.dim]
    left = mesh.elems[f.elem_l[:, None], ends[f.edge_l]]
    right = mesh.elems[f.elem_r[:, None], ends[f.edge_r]]
    right = np.where(f.flip[:, None], right[:, ::-1], right)
    pair = left != right
    a, b = left[pair], right[pair]
    d = path.take(a, axis=1) - path.take(b, axis=1)
    gap = np.abs(d - d[0])
    if gap.size and gap.max() > PERIODIC_TOL * np.abs(mesh.nodes).max():
        k, i, _ = np.unravel_index(gap.argmax(), gap.shape)
        raise PeriodicMotionError(
            f"motion: {presc!r} moves the periodic partner nodes {a[i]} and "
            f"{b[i]} apart by {gap.max():.3e} at t = {k * dt:.6g}")
