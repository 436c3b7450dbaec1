"""Equation sets, the Euler flux, the Roe-ALE Riemann solver, and exact
solutions for error measurement.

Which module owns which flux: this one holds the Euler kernels, written in
component form.  `flux` scales Q by the velocity and adds the pressure
terms in place, `_normal_flux` is the mesh-relative normal flux
phi = Q (q_n - vgn) + p (0, mx, my, q_n) in one buffer, and `_roe_ale`
assembles its dissipation one component at a time from the wave strengths,
with no eigenvector columns stacked.  The advection flux has no function
of its own: `st_solver._weights` contracts the speed with each metric or
face vector once (c . M_x + M_t), and the FR kernels there scale Q by it.
The Euler space-time normal and common fluxes through unnormalized face
vectors, which call the kernels here, live with the FR kernels too.

States are variables-first, (n_vars, ...): the flux kernels take them so
and return matching shapes, and `exact_state` returns them so.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class NonPhysicalStateError(RuntimeError):
    """A state the solver cannot go on from: an Euler state with non-positive
    density or pressure, or non-finite values after a time step."""


@dataclass(frozen=True)
class Advection1D:
    c: float = 1.0
    n_vars: ClassVar[int] = 1
    dim: ClassVar[int] = 1


@dataclass(frozen=True)
class Advection2D:
    c1: float = 0.5
    c2: float = 0.5
    n_vars: ClassVar[int] = 1
    dim: ClassVar[int] = 2


@dataclass(frozen=True)
class Euler2D:
    gamma: float = 1.4
    n_vars: ClassVar[int] = 4
    dim: ClassVar[int] = 2

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("Euler2D requires gamma > 1")


EquationSet = Advection1D | Advection2D | Euler2D


def _require_positive(a, name):
    """Raise NonPhysicalStateError unless every value of a is positive and
    finite.  Two reductions and no temporaries: NaN fails both comparisons,
    and -inf, zero and +inf fail one each."""
    if a.size and not 0 < a.min() <= a.max() < np.inf:
        lo, hi = a.min(), a.max()
        kind = "non-positive" if lo <= 0 else "non-finite"
        raise NonPhysicalStateError(f"{kind} {name} (min {lo:.3e}, max {hi:.3e})")


def euler_primitives(eq: Euler2D, Q):
    """(rho, u, v, p) of states Q (4, ...); validates admissibility."""
    rho = Q[0]
    _require_positive(rho, "density")
    u = Q[1] / rho
    v = Q[2] / rho
    p = (eq.gamma - 1.0) * (Q[3] - 0.5 * rho * (u * u + v * v))
    _require_positive(p, "pressure")
    return rho, u, v, p


def flux(eq: Euler2D, Q):
    """Euler flux components (f, g) of states Q (4, ...); shapes match Q."""
    Q = np.asarray(Q, dtype=float)
    _, u, v, p = euler_primitives(eq, Q)
    f = Q * u
    g = Q * v
    f[1] += p
    f[3] += p * u
    g[2] += p
    g[3] += p * v
    return f, g


def _normal_flux(Q, u, v, p, mx, my, vgn):
    """Mesh-relative normal flux phi = Q (q_n - vgn) + p (0, mx, my, q_n),
    q_n = u mx + v my, of Euler states Q (4, ...) with primitives (u, v, p)
    through the spatial vector (mx, my) of a face of normal speed vgn.

    (mx, my) need not be a unit vector: with (w0, w1, -w2) of an
    unnormalized space-time vector w it is w . (f, g, Q).
    """
    qn = u * mx
    qn += v * my
    phi = Q * (qn - vgn)
    phi[1] += p * mx
    phi[2] += p * my
    phi[3] += p * qn
    return phi


def _roe_ale(eq: Euler2D, QL, QR, mx, my, vgn):
    """Roe flux of the mesh-relative normal flux phi = F.m - vgn Q, for
    states (4, ...) and a unit normal m = (mx, my): 1/2 (phi_L + phi_R - D).

    The face-normal grid speed vgn shifts the eigenvalues; the eigenvectors
    are the static ones (Roe, J Comput Phys 43 (1981) 357).  The dissipation
    D = sum_k |lambda_k| alpha_k r_k is assembled component by component:
    with b_k = |lambda_k| alpha_k for the acoustic waves (1, 3), the entropy
    wave (2) and the shear wave (4), s = b_1 + b_3 and d = a (b_3 - b_1),

        D = (s + b_2) (1, u, v, 0) + d (0, mx, my, q_n)
            + b_4 (0, -my, mx, u_t) + (0, 0, 0, H s + b_2 |u|^2 / 2)

    at the Roe average, u_t = v mx - u my.  No entropy fix (smooth test
    problems only).
    """
    gm = eq.gamma
    rhoL, uL, vL, pL = euler_primitives(eq, QL)
    rhoR, uR, vR, pR = euler_primitives(eq, QR)
    HL = (QL[3] + pL) / rhoL
    HR = (QR[3] + pR) / rhoR

    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    wL = sL / (sL + sR)
    wR = 1.0 - wL
    u = wL * uL + wR * uR
    v = wL * vL + wR * vR
    H = wL * HL + wR * HR
    ke = 0.5 * (u * u + v * v)
    a2 = (gm - 1.0) * (H - ke)
    if np.any(a2 <= 0):
        raise NonPhysicalStateError("Roe-average state has non-positive a^2")
    a = np.sqrt(a2)
    qn = u * mx + v * my
    rel = qn - vgn

    dp = pR - pL
    du = uR - uL
    dv = vR - vL
    rho_bar = np.sqrt(rhoL * rhoR)
    # wave strengths times |lambda_k|
    ra = rho_bar * a * (du * mx + dv * my)
    b1 = np.abs(rel - a) * (dp - ra) / (2 * a2)
    b3 = np.abs(rel + a) * (dp + ra) / (2 * a2)
    lam2 = np.abs(rel)
    b2 = lam2 * (QR[0] - QL[0] - dp / a2)
    b4 = lam2 * rho_bar * (dv * mx - du * my)
    s = b1 + b3
    d = a * (b3 - b1)
    d0 = s + b2

    out = _normal_flux(QL, uL, vL, pL, mx, my, vgn)
    out += _normal_flux(QR, uR, vR, pR, mx, my, vgn)
    out[0] -= d0
    out[1] -= d0 * u + d * mx - b4 * my
    out[2] -= d0 * v + d * my + b4 * mx
    out[3] -= H * s + b2 * ke + d * qn + b4 * (v * mx - u * my)
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# exact solutions


@dataclass(frozen=True)
class SineWave1D:
    """u(x, t) = sin(2 pi (x - c t))."""

    c: float = 1.0


@dataclass(frozen=True)
class SineWave2D:
    """u(x, y, t) = sin(2 pi (x - c1 t)) sin(2 pi (y - c2 t))."""

    c1: float = 0.5
    c2: float = 0.5


@dataclass(frozen=True)
class IsentropicVortex:
    """Advecting isentropic vortex of the 2D Euler equations.

    `period` wraps the vortex center on a periodic square of that extent,
    so states near a wrapped boundary stay consistent with periodic runs.
    """

    U0: float = 0.5
    V0: float = 0.5
    u_max: float = 0.25
    b: float = 0.2
    gamma: float = 1.4
    period: float | None = None

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("IsentropicVortex requires b > 0")
        if self.period is not None and self.period <= 0:
            raise ValueError("IsentropicVortex requires period > 0")
        if not 0.5 * (self.gamma - 1.0) * self.u_max**2 * math.e < 1:
            raise ValueError("IsentropicVortex requires 0.5 (gamma - 1) u_max^2 e"
                             " < 1, else the core has no positive density")


@dataclass(frozen=True)
class Constant:
    """Uniform state, for free-stream preservation runs."""

    value: tuple = (1.0,)


ExactSolution = SineWave1D | SineWave2D | IsentropicVortex | Constant


def exact_state(sol: ExactSolution, x, y=None, t: float = 0.0):
    """Conservative variables of the exact solution at (x[, y], t).

    Returns shape (n_vars,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(sol, SineWave1D):
        return np.sin(2 * np.pi * (x - sol.c * t))[None]
    if isinstance(sol, SineWave2D):
        return (np.sin(2 * np.pi * (x - sol.c1 * t))
                * np.sin(2 * np.pi * (np.asarray(y, dtype=float) - sol.c2 * t)))[None]
    if isinstance(sol, Constant):
        val = np.asarray(sol.value, dtype=float).reshape((-1,) + (1,) * x.ndim)
        return np.broadcast_to(val, val.shape[:1] + x.shape).copy()
    y = np.asarray(y, dtype=float)
    dx = x - sol.U0 * t
    dy = y - sol.V0 * t
    if sol.period is not None:
        L = sol.period
        dx = (dx + L / 2) % L - L / 2
        dy = (dy + L / 2) % L - L / 2
    r = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    gm = sol.gamma
    core = 1.0 - 0.5 * (gm - 1.0) * sol.u_max**2 * np.exp(1.0 - r**2 / sol.b**2)
    rho = core ** (1.0 / (gm - 1.0))
    p = core ** (gm / (gm - 1.0)) / gm
    swirl = (sol.u_max / sol.b) * r * np.exp(0.5 * (1.0 - r**2 / sol.b**2))
    u = sol.U0 - swirl * np.sin(theta)
    v = sol.V0 + swirl * np.cos(theta)
    rhoE = p / (gm - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack([rho, rho * u, rho * v, rhoE], axis=0)


# exact-solution kind -> the equation sets it solves
EXACT_KINDS = {"sine_wave": (Advection1D, Advection2D),
               "isentropic_vortex": (Euler2D,),
               "constant": (Advection1D, Advection2D, Euler2D)}


def exact_for(eq: EquationSet, kind: str = "sine_wave", **params) -> ExactSolution:
    """The exact solution of kind `kind` for the equation set eq.

    Raises ValueError when that kind does not solve eq, or when a constant
    state does not have eq.n_vars values or, for Euler, a positive density
    and pressure.
    """
    if not isinstance(eq, EXACT_KINDS.get(kind, ())):
        raise ValueError(f"exact solution {kind!r} does not solve "
                         f"{type(eq).__name__}")
    if kind == "constant":
        default = (1.0,) if eq.n_vars == 1 else (1.0, 0.5, 0.5, 1.0 / (1.4 - 1) + 0.25)
        value = tuple(params.get("value", default))
        if len(value) != eq.n_vars:
            raise ValueError(f"a constant state of {type(eq).__name__} has "
                             f"{eq.n_vars} values, got {len(value)}")
        if isinstance(eq, Euler2D):
            rho, mx, my, energy = value
            if not rho > 0:
                raise ValueError(f"a constant Euler state needs density > 0, got {rho!r}")
            p = (eq.gamma - 1.0) * (energy - 0.5 * (mx * mx + my * my) / rho)
            if not p > 0:
                raise ValueError(f"a constant Euler state needs pressure > 0, got {p:.6g}")
        return Constant(value)
    if isinstance(eq, Advection1D):
        return SineWave1D(c=eq.c)
    if isinstance(eq, Advection2D):
        return SineWave2D(c1=eq.c1, c2=eq.c2)
    return IsentropicVortex(gamma=eq.gamma, **params)
