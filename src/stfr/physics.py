"""Equation sets, physical fluxes, the Roe-ALE Riemann solver, and exact
solutions for error measurement.

Space-time normal and common fluxes through unnormalized face vectors live
with the FR kernels in `st_solver`.

All operations are pure functions over trailing state axes: arrays of shape
(..., n_vars) go in, matching shapes come out.
"""

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


def euler_primitives(eq: Euler2D, Q):
    """(rho, u, v, p) from conservative variables; validates admissibility."""
    rho = Q[..., 0]
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise NonPhysicalStateError(f"non-positive density (min {rho.min():.3e})")
    u = Q[..., 1] / rho
    v = Q[..., 2] / rho
    p = (eq.gamma - 1.0) * (Q[..., 3] - 0.5 * rho * (u * u + v * v))
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise NonPhysicalStateError(f"non-positive pressure (min {p.min():.3e})")
    return rho, u, v, p


def flux(eq: EquationSet, Q):
    """Spatial flux components: f in 1D, (f, g) in 2D; shapes match Q."""
    Q = np.asarray(Q, dtype=float)
    if isinstance(eq, Advection1D):
        return eq.c * Q
    if isinstance(eq, Advection2D):
        return eq.c1 * Q, eq.c2 * Q
    rho, u, v, p = euler_primitives(eq, Q)
    rhoE = Q[..., 3]
    f = np.stack([rho * u, rho * u * u + p, rho * u * v, u * (rhoE + p)], axis=-1)
    g = np.stack([rho * v, rho * u * v, rho * v * v + p, v * (rhoE + p)], axis=-1)
    return f, g


def _roe_ale(eq: Euler2D, QL, QR, mx, my, vgn):
    """Roe flux of the mesh-relative normal flux F.m - vgn Q.

    Face-normal grid speed vgn shifts the eigenvalues; eigenvectors are the
    static ones.  No entropy fix (smooth test problems only).
    """
    gm = eq.gamma
    rhoL, uL, vL, pL = euler_primitives(eq, QL)
    rhoR, uR, vR, pR = euler_primitives(eq, QR)
    HL = (QL[..., 3] + pL) / rhoL
    HR = (QR[..., 3] + pR) / rhoR

    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    wL = sL / (sL + sR)
    wR = 1.0 - wL
    u = wL * uL + wR * uR
    v = wL * vL + wR * vR
    H = wL * HL + wR * HR
    a2 = (gm - 1.0) * (H - 0.5 * (u * u + v * v))
    if np.any(a2 <= 0):
        raise NonPhysicalStateError("Roe-average state has non-positive a^2")
    a = np.sqrt(a2)
    qn = u * mx + v * my

    dQ = QR - QL
    drho = dQ[..., 0]
    dp = pR - pL
    du = uR - uL
    dv = vR - vL
    dqn = du * mx + dv * my
    rho_bar = np.sqrt(rhoL * rhoR)
    # wave strengths
    a1 = (dp - rho_bar * a * dqn) / (2 * a2)
    a2w = drho - dp / a2
    a3 = (dp + rho_bar * a * dqn) / (2 * a2)
    # shear strength (tangential velocity jump)
    dut = du * (-my) + dv * mx

    lam1 = np.abs(qn - vgn - a)
    lam2 = np.abs(qn - vgn)
    lam3 = np.abs(qn - vgn + a)

    def col(*comps):
        return np.stack(comps, axis=-1)

    r1 = col(np.ones_like(u), u - a * mx, v - a * my, H - a * qn)
    r2 = col(np.ones_like(u), u, v, 0.5 * (u * u + v * v))
    r3 = col(np.ones_like(u), u + a * mx, v + a * my, H + a * qn)
    r4 = col(np.zeros_like(u), -my, mx, u * (-my) + v * mx)

    diss = (lam1[..., None] * a1[..., None] * r1
            + lam2[..., None] * (a2w[..., None] * r2
                                 + (rho_bar * dut)[..., None] * r4)
            + lam3[..., None] * a3[..., None] * r3)

    def phi(Q, rho, uu, vv, p):
        qnl = uu * mx + vv * my
        rel = qnl - vgn
        return col(rho * rel,
                   Q[..., 1] * rel + p * mx,
                   Q[..., 2] * rel + p * my,
                   Q[..., 3] * rel + p * qnl)

    return 0.5 * (phi(QL, rhoL, uL, vL, pL) + phi(QR, rhoR, uR, vR, pR)) - 0.5 * diss


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


@dataclass(frozen=True)
class Constant:
    """Uniform state, for free-stream preservation runs."""

    value: tuple = (1.0,)


ExactSolution = SineWave1D | SineWave2D | IsentropicVortex | Constant


def exact_state(sol: ExactSolution, x, y=None, t: float = 0.0):
    """Conservative variables of the exact solution at (x[, y], t).

    Returns shape x.shape + (n_vars,).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(sol, SineWave1D):
        return np.sin(2 * np.pi * (x - sol.c * t))[..., None]
    if isinstance(sol, SineWave2D):
        return (np.sin(2 * np.pi * (x - sol.c1 * t))
                * np.sin(2 * np.pi * (np.asarray(y, dtype=float) - sol.c2 * t)))[..., None]
    if isinstance(sol, Constant):
        val = np.asarray(sol.value, dtype=float)
        return np.broadcast_to(val, x.shape + (val.size,)).copy()
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
    return np.stack([rho, rho * u, rho * v, rhoE], axis=-1)


# exact-solution kind -> the equation sets it solves
EXACT_KINDS = {"sine_wave": (Advection1D, Advection2D),
               "isentropic_vortex": (Euler2D,),
               "constant": (Advection1D, Advection2D, Euler2D)}


def exact_for(eq: EquationSet, kind: str = "sine_wave", **params) -> ExactSolution:
    """The exact solution of kind `kind` for the equation set eq.

    Raises ValueError when that kind does not solve eq, or when a constant
    state does not have eq.n_vars values.
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
        return Constant(value)
    if isinstance(eq, Advection1D):
        return SineWave1D(c=eq.c)
    if isinstance(eq, Advection2D):
        return SineWave2D(c1=eq.c1, c2=eq.c2)
    return IsentropicVortex(gamma=eq.gamma, **params)
