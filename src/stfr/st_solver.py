"""Space-time flux reconstruction solver.

One slab at a time: assemble the space-time residual R(u) (projected
divergence plus correction field), solve R(u) = 0 for the slab's nodal
values by Newton-Krylov iteration, then interpolate the converged slab to
its top face to feed the next slab.  The converged slab is the fixed point
of the paper's dual time stepping; only the iteration that reaches it
differs.  `gmres` runs one GMRES cycle (Saad & Schultz 1986) per Newton
step, and `SlabOperator.march` owns the restarts; for advection R is affine
and the steps are the restart cycles of one GMRES solve, for Euler it is
Jacobian-free Newton-Krylov (Knoll & Keyes 2004) with finite-difference
products.  Both are right-preconditioned by `KroneckerPreconditioner`: each
element's space-time Jacobian block approximated by a Kronecker sum of 1D
upwind operators and inverted by fast diagonalization, built once per slab
from element means of the metric and, for Euler, of the slab's inflow state.
The elements share their 1D eigenbases (at most three per direction, one
for Euler), so each transform of the apply is one real GEMM per shared
basis on an element-last layout, for both equations.

The interior divergence is evaluated in chain-rule form: reference-direction
derivatives of the collocated physical flux components are contracted with
the exact pointwise metric rows M_dir = |J| grad(dir).  For polynomial
fluxes this equals the exact divergence of the collocated flux (the metric
rows of a linear space-time element satisfy the conservation-law identities
exactly), which is what preserves uniform flow on deforming grids at every
order.  Temporal faces are upwinded causally: the bottom face takes the
inflow (previous slab or initial condition), the top face is left local.

`LevelPlan` is the one spatial operator both solvers hold: a geometry's
tables at every temporal level, read in place, and the FR kernels on nodal
arrays laid out variables-first, (nV, nE, nT, nS), so a system is nV scalar
fields stacked, at all levels or at the levels a slice picks:
`spatial_divergence` (chain-rule sum_dir M_dir . d_dir F_st, one flux
component at a time, never stacked), `face_jumps` (traces, face sides
gathered by the mesh's `side_rows`, the right side of a flipped face
reversed, one upwind product per side for advection, Riemann and normal
fluxes for Euler, the jumps gathered back in the traces' layout) and
`lift`.  Every table contraction but the d_tau term's batched matmul is
one GEMM (`_contract`) on a table stored as the GEMM reads it.  The
solvers hold their states in the same layout, slab (nV, nE, nT, nS) and
MOL (nV, nE, nS), so the residuals run the kernels on them as they are.
`SlabOperator` runs the kernels at all its levels and adds only the d_tau
term and the causal temporal correction;
`mol_solver.MolOperator` runs stage j at level j.  The slab is FR in time
over the method-of-lines operator at the Gauss levels.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from stfr.basis import BasisSet, make_basis
from stfr.geometry import (
    SlabGeometry,
    face_points,
    slab_geometry,
    solution_positions,
)
from stfr.mesh import Mesh
from stfr.motion import MotionPrescription, march_path
from stfr.physics import (
    Advection1D,
    Advection2D,
    EquationSet,
    ExactSolution,
    _normal_flux,
    _roe_ale,
    euler_primitives,
    exact_state,
    flux,
)


# Krylov vectors kept per GMRES cycle.  Each holds one slab state (12,288
# doubles for euler_vortex_p3 and wave2d_sine_deform), so a cycle holds
# 13 x 12,288 x 8 B = 1.2 MiB beyond the residual's own memory, allocated
# per slab.  At 12 the first wave2d_sine_deform slab converges in one cycle
# and every slab of the k_s = 5 disk converges (one stalls at 8).  Longer
# cycles make a stall dearer: a slab that stalls runs STALL_CYCLES cycles of
# up to 12 products and one true residual each, 40 evaluations at 12.
KRYLOV_RESTART = 12

# Inexact-Newton forcing term for nonlinear (Euler) slabs: each Newton step
# solves its linear system to this fraction of the current residual.
NEWTON_FORCING = 1e-3

# A slab solve has stalled once STALL_CYCLES successive steps each leave the
# RMS residual above STALL_RATIO of its value before the step.  The bundled
# cases cut it by at least half in every step.
STALL_RATIO = 0.9
STALL_CYCLES = 3

# Step ratios of the RMS residual a PseudoConvergenceError carries.
RATIO_TAIL = 5

# Round-off floor of the RMS slab residual, in units of the state's RMS times
# the operator's fastest rate (`SlabOperator.march`): it short-circuits the
# relative drop for slabs whose initial guess is exact.
ABS_FLOOR = 1e-14

# Relative step of the finite-difference Jacobian products, sqrt(eps).
_FD_STEP = math.sqrt(np.finfo(float).eps)


class PseudoConvergenceError(RuntimeError):
    """A slab solve diverged, stalled or ran out of residual evaluations.

    Carries the residual it reached and the ratios of the RMS residual
    after to before each of the last (at most RATIO_TAIL) steps; the
    message names both, and `motion.march_path` prefixes the slab index
    and start time.
    """

    def __init__(self, reason, achieved_drop, iterations, residual, ratios):
        super().__init__(reason)
        self.achieved_drop = achieved_drop
        self.iterations = iterations
        self.residual = residual
        self.ratios = tuple(ratios[-RATIO_TAIL:])

    def __str__(self):
        tail = ""
        if self.ratios:
            tail = "; last step ratios " + ", ".join(f"{q:.3g}" for q in self.ratios)
        return (f"{self.args[0]}: residual {self.residual:.3e} "
                f"(drop {self.achieved_drop:.2f} orders) after "
                f"{self.iterations} residual evaluations{tail}")


@dataclass
class PseudoControls:
    """Slab-solve controls.

    drop_orders is the required reduction of the RMS slab residual;
    max_iters caps the residual evaluations per slab.
    """

    drop_orders: float = 10.0
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.drop_orders >= 1:  # also catches nan
            raise ValueError(f"drop_orders must be >= 1, got {self.drop_orders!r}")
        if not math.isfinite(self.drop_orders):  # JSON reads 1e400 as inf
            raise ValueError(f"drop_orders must be finite, got {self.drop_orders!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass
class StateField:
    """Nodal coefficients, variables first: a slab's (n_vars, n_elems, k_t+1,
    (k_s+1)^dim), C-ordered over (tau level, spatial point), or a MOL state's
    (n_vars, n_elems, (k_s+1)^dim); spatial points are x-fastest."""

    values: np.ndarray


@dataclass
class SlabStats:
    iterations: int            # residual evaluations
    initial_residual: float
    final_residual: float
    jump: float                # RMS(u_bot - inflow) of the converged slab


def _contract(a, table):
    """table (s, t), C-contiguous (Euler reads column blocks), on a (..., s)
    viewed as rows of s values: one GEMM, (rows, s) @ table.  A transposed
    table ran at half speed (21 vs 11 us, (768, 16) rows, OpenBLAS 0.3.31)."""
    return a.reshape(-1, table.shape[0]) @ table


def _traces_all_edges(u, ks, dim):
    """Solution traces of u (nV, nE, nT, nS) on every side face, (nV, nE,
    nT, n_edges, nFs)."""
    extrap, _ = _edge_tables(ks, dim)
    return _contract(u, extrap).reshape(u.shape[:3] + (2 * dim, -1))


def _weights(eq, M):
    """What the flux kernels read of unnormalized space-time vectors M
    (..., dim+1): for advection the speed (c, 1) . M through them, one
    GEMV over the flattened last axis, for Euler M itself."""
    if isinstance(eq, Advection1D):
        c = (eq.c, 1.0)
    elif isinstance(eq, Advection2D):
        c = (eq.c1, eq.c2, 1.0)
    else:
        return M
    return (M.reshape(-1, len(c)) @ np.array(c)).reshape(M.shape[:-1])


def _transformed_normal_flux(eq, Q, w):
    """M . F_st(Q) of Euler states Q (nV, ...) for an unnormalized outward
    space-time vector M, given as its `_weights` w (M itself)."""
    _, u, v, p = euler_primitives(eq, Q)
    return _normal_flux(Q, u, v, p, w[..., 0], w[..., 1], -w[..., 2])


def _transformed_common_flux(eq, QL, QR, w):
    """Roe-ALE common flux of Euler states QL, QR (nV, ...) through the
    unnormalized space-time vector w = M: ||M|| times the unit-normal one."""
    sig = np.hypot(w[..., 0], w[..., 1])
    mx = w[..., 0] / sig
    my = w[..., 1] / sig
    vgn = -w[..., 2] / sig
    return sig * _roe_ale(eq, QL, QR, mx, my, vgn)


# -- FR kernels shared by the space-time and method-of-lines operators ------


class LevelPlan:
    """The spatial operator of a geometry: its tables at every temporal
    level (axis 1) and the three FR kernels that read them, on
    variables-first states (nV, nE, nT, nS), run at all levels or, given a
    slice `at`, at those levels alone, in place.

    M and d_M are the `_weights` of the outward vectors of each face's left
    element and of each Dirichlet face, for advection their speed w split
    into (min(w, 0), max(w, 0)) and min(w, 0); d_ext the analytic states at
    the Dirichlet flux points, variables-first (d_M and d_ext are None
    without Dirichlet faces), weights the `_weights` of the metric rows,
    which the advection divergence contracts (for Euler the rows themselves,
    uncopied, which the wave speeds read), and jac the |J| that divides the
    residual.  For Euler, components holds the rows component-major, (dim+1,
    dim, nE, nT, nS), read-only, so that each component M_dir[c] is one
    plane the divergence broadcasts over the variables; it is None for
    advection.  eq, ks and dim are those of the equation, the geometry and
    the mesh.
    """

    def __init__(self, mesh: Mesh, geom: SlabGeometry, eq: EquationSet,
                 bc: ExactSolution | None):
        self.mesh, self.eq, self.ks, self.dim = mesh, eq, geom.ks, mesh.dim
        self.flipped, d_e, d_edge = mesh.face_sides()
        advection = isinstance(eq, (Advection1D, Advection2D))
        M = _weights(eq, geom.face_m[mesh.faces.elem_l, mesh.faces.edge_l])
        self.M = np.stack([np.minimum(M, 0.0), np.maximum(M, 0.0)]) if advection else M
        self.d_M = self.d_ext = None
        if len(d_e):
            if bc is None:
                raise ValueError("mesh has dirichlet faces but no analytic bc")
            self.d_ext = exact_state(bc, *face_points(geom, d_e, d_edge),
                                     t=geom.times[:, None])
            d_M = _weights(eq, geom.face_m[d_e, d_edge])
            self.d_M = np.minimum(d_M, 0.0) if advection else d_M
        self.weights = _weights(eq, geom.rows)
        self.components = None
        if not advection:
            self.components = np.ascontiguousarray(np.moveaxis(geom.rows, -1, 0))
            self.components.setflags(write=False)
        self.jac = geom.jac

    def spatial_divergence(self, u, at=slice(None)):
        """sum_dir M_dir . d_dir F_st(u) at the solution points, chain-rule
        form, for u (nV, nE, nT, nS) at the levels `at`.

        Excludes the temporal-direction term, which only the space-time
        operator has.  Advection takes every reference derivative in one
        GEMM with `_derivative_table`; Euler takes each flux component F_c
        of (f, g, Q) in turn, differentiates it along each direction by one
        GEMM with that direction's columns of the table, scales the derivative
        in place by its metric component M_dir[c], broadcast over the
        variables, and adds it to the output, so no stacked copy of the
        components is made.
        """
        nS = u.shape[3]
        table = _derivative_table(self.ks, self.dim)
        if isinstance(self.eq, (Advection1D, Advection2D)):
            du = _contract(u, table).reshape(u.shape[1:3] + (self.dim, nS))
            return np.einsum("dets,etds->ets", self.weights[:, :, at], du)[None]
        out = np.zeros_like(u)
        for F, rows in zip((*flux(self.eq, u), u), self.components[:, :, :, at]):
            for d, M in enumerate(rows):
                dF = _contract(F, table[:, d * nS:(d + 1) * nS]).reshape(u.shape)
                dF *= M
                out += dF
        return out

    def face_jumps(self, u, at=slice(None)):
        """Outward flux jumps (common minus local) on every element edge,
        (nV, nE, nT, n_edges, nFs), the traces' layout, for u at the levels
        `at`.

        Each face side gathers its (nF, nT) rows of nFs flux points from the
        traces, viewed per variable as rows (element, level, edge), at the
        mesh's `side_rows` for u's level count; the right side of a flipped
        face runs its flux points in reverse, so it is reversed after the
        gather and again before its jumps are stored.  The jumps of the
        left, right and Dirichlet sides are stacked and gathered back into
        the traces' rows by the `side_rows` order: one `take`, where a
        scatter per side through fancy indexing cost ten times as much.  An
        advection jump is one upwind product (Huynh, AIAA 2007-4079):
        min(w, 0)(QR - QL), max(w, 0)(QR - QL) and min(w, 0)(ext - QB).
        """
        tr = _traces_all_edges(u, self.ks, self.dim)
        rows = tr.reshape(len(tr), -1, tr.shape[-1])
        left, right, bound, order = self.mesh.side_rows(u.shape[2])
        nF = len(left)
        QL, QR = rows.take(left, axis=1), rows.take(right, axis=1)
        fl = self.flipped
        if fl.size:
            QR[:, fl] = QR[:, fl, :, ::-1]
        jumps = np.empty(QL.shape[:1] + (2 * nF + len(bound),) + QL.shape[2:])
        dL, dR, dB = jumps[:, :nF], jumps[:, nF:2 * nF], jumps[:, 2 * nF:]
        if self.components is None:
            QR -= QL
            np.multiply(self.M[0, :, at], QR, out=dL)
            np.multiply(self.M[1, :, at], QR, out=dR)
        else:
            M = self.M[:, at]
            com = _transformed_common_flux(self.eq, QL, QR, M)
            np.subtract(com, _transformed_normal_flux(self.eq, QL, M), out=dL)
            np.subtract(_transformed_normal_flux(self.eq, QR, M), com, out=dR)
        if fl.size:
            dR[:, fl] = dR[:, fl, :, ::-1]
        if bound.size:
            QB = rows.take(bound, axis=1)
            d_M, ext = self.d_M[:, at], self.d_ext[:, :, at]
            if self.components is None:
                np.multiply(d_M, np.subtract(ext, QB, out=QB), out=dB)
            else:
                np.subtract(_transformed_common_flux(self.eq, QB, ext, d_M),
                            _transformed_normal_flux(self.eq, QB, d_M), out=dB)
        return jumps.reshape(rows.shape).take(order, axis=1).reshape(tr.shape)

    def lift(self, delta):
        """Correction field (nV, nE, nT, nS) from face jumps (nV, nE, nT,
        n_edges, nFs): one GEMM with the lift of `_edge_tables`."""
        _, lift = _edge_tables(self.ks, self.dim)
        return _contract(delta, lift).reshape(delta.shape[:3] + (-1,))


@lru_cache(maxsize=None)
def _derivative_table(ks: int, dim: int):
    """Reference derivatives of nodal values as a `_contract` table, the
    directions side by side: D^T in 1D, [I (x) D^T, D^T (x) I] (nS, 2 nS) in
    2D, the xi columns first (spatial points are (eta, xi), xi fastest)."""
    D = make_basis(ks).diff.T
    eye = np.eye(ks + 1)
    table = D.copy() if dim == 1 else np.hstack([np.kron(eye, D), np.kron(D, eye)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _edge_tables(ks: int, dim: int):
    """`_contract` tables: extrapolation (nS, n_edges * nFs) to every edge's
    flux points, and lift (n_edges * nFs, nS) of edge jumps into the
    correction field: -g'_L on minus, +g'_R on plus faces, constant along a face."""
    b = make_basis(ks)

    def per_edge(minus, plus):  # (nS, n_edges * nFs); edges W, E or S, E, N, W
        lo, hi = minus[:, None], plus[:, None]
        if dim == 1:
            return np.hstack([lo, hi])
        eye = np.eye(b.n)  # spatial points are (eta, xi), xi fastest
        cols = [np.kron(lo, eye), np.kron(eye, hi), np.kron(hi, eye), np.kron(eye, lo)]
        return np.stack(cols, axis=1).reshape(b.n ** 2, -1)

    tables = (per_edge(b.extrap_left, b.extrap_right),
              np.ascontiguousarray(per_edge(-b.corr_deriv_left, b.corr_deriv_right).T))
    for t in tables:
        t.setflags(write=False)
    return tables


def gmres(matvec, b, tol, V):
    """One GMRES cycle (Saad & Schultz 1986) for A x = b, from x = 0.

    matvec(v) returns A v for a flat vector v.  The cycle fills the
    caller's buffer V (m + 1, b.size) with at most m = len(V) - 1 Arnoldi
    vectors (modified Gram-Schmidt), one product each, and keeps the
    least-squares problem triangular with Givens rotations; it ends early
    once the residual estimate |b - A x| is at or below tol.  Restarts are
    the caller's: `SlabOperator.march` runs one cycle per step, all in one
    buffer.
    """
    beta = np.linalg.norm(b)
    if beta <= tol:
        return np.zeros_like(b, dtype=float)
    m = len(V) - 1
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = b / beta
    k = 0
    while k < m and abs(g[k]) > tol:
        w = np.array(matvec(V[k]), dtype=float)
        for j in range(k + 1):
            H[j, k] = V[j] @ w
            w -= H[j, k] * V[j]
        H[k + 1, k] = np.linalg.norm(w)
        if H[k + 1, k] > 0:
            V[k + 1] = w / H[k + 1, k]
        for j in range(k):  # earlier rotations on the new column
            H[j, k], H[j + 1, k] = (cs[j] * H[j, k] + sn[j] * H[j + 1, k],
                                    cs[j] * H[j + 1, k] - sn[j] * H[j, k])
        rho = np.hypot(H[k, k], H[k + 1, k])
        cs[k], sn[k] = H[k, k] / rho, H[k + 1, k] / rho
        H[k, k], H[k + 1, k] = rho, 0.0
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        k += 1
    return V[:k].T @ np.linalg.solve(H[:k, :k], g[:k])


@lru_cache(maxsize=None)
def _kron_tables(k: int):
    """1D tables of the Kronecker-sum preconditioner for degree k.

    C and S split the upwind FR operator of a scalar with speed v into
    v C + |v| S: v (D - g'_L l_L^T) for v > 0, v (D - g'_R l_R^T) for v < 0.
    lam, V and V^-1 diagonalize the causal temporal operator D - g'_L l_L^T,
    complex for k >= 1.  Built on first use, so a process that solves no
    slab makes no eigendecomposition.
    """
    b = make_basis(k)
    left = np.outer(b.corr_deriv_left, b.extrap_left)
    right = np.outer(b.corr_deriv_right, b.extrap_right)
    lam, V = np.linalg.eig(b.diff - left)
    tables = (b.diff - 0.5 * (left + right), 0.5 * (right - left),
              lam, V, np.linalg.inv(V))
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=32)
def _shared_bases(ks: int, kt: int, dim: int, rho: tuple):
    """Tables of the preconditioner apply for the distinct rho of a slab,
    lists indexed like rho: the eigenvalues mu (m, n) of rho_j C + S, the
    (forward, backward) xi transforms (Vi_re; Vi_im) and (V_re, -V_im) of
    the complex eigenvectors V = E[j], and the (forward, backward) outer
    transforms, the interleaved `_real_form` of T (x) E[j], tau (x) eta, or
    in 1D of T alone, at index 0.  Advection repeats a few keys (rho in -1,
    0, 1); every Euler slab brings a key of its own, its median rho per
    direction.  The cache keeps the 32 most recent keys, about 20 KB each
    at k_s = 3 and k_t = 2 in 2D; the arrays are read-only.
    """
    C, S = _kron_tables(ks)[:2]
    _, V_t, Vi_t = _kron_tables(kt)[2:]
    mu, V = np.linalg.eig(np.array(rho)[:, None, None] * C + S)
    Vi = np.linalg.inv(V)
    outer = [_real_form(np.stack([np.kron(T, e) for e in E]) if dim == 2 else T[None])
             for T, E in ((Vi_t, Vi), (V_t, V))]
    tables = (np.concatenate([Vi.real, Vi.imag], axis=1),
              np.concatenate([V.real, -V.imag], axis=2), *outer)
    for t in (mu, *tables):
        t.setflags(write=False)  # before the views below, which inherit it
    return (mu, *map(list, tables))


def _real_form(M):
    """Interleaved real (..., 2n, 2n) form of complex M (..., n, n), acting
    on a vector stored as one (re, im) pair per index."""
    R = np.stack([np.stack([M.real, -M.imag]), np.stack([M.imag, M.real])])
    R = np.moveaxis(R, (0, 1), (-3, -1))
    return R.reshape(M.shape[:-2] + (2 * M.shape[-2], 2 * M.shape[-1]))


def _shared_along(bases, z):
    """Shared matrices applied to the (K, X) blocks of z, whose last axis,
    viewed as (..., nE), is the element.  bases holds (B, mask) pairs: the
    first B, whose mask is None, goes to every element, and each further B
    (where a direction has two or three bases) replaces that product on
    the elements its mask (nE,) selects."""
    out = np.matmul(bases[0][0], z)
    for B, mask in bases[1:]:
        np.copyto(out.reshape(-1, mask.size), np.matmul(B, z).reshape(-1, mask.size),
                  where=mask)
    return out


def _complex_scale(z, s_re, s_im):
    """Multiply z, whose axis 1 holds the (re, im) parts, in place by
    s_re + i s, where s_im holds (-s, s) stacked the same way."""
    swapped = z[:, ::-1] * s_im
    z *= s_re
    z += swapped


class KroneckerPreconditioner:
    """Approximate inverse of the slab Jacobian, one element block at a time.

    Each element block is approximated by a Kronecker sum of 1D operators
    (Diosady & Murman, JCP 330 (2017) 296):

        B_e = -(a_tau Dc (x) I (x) I + I (x) A_eta (x) I + I (x) I (x) A_xi) / |J|_e

    a_tau and |J|_e are the element means of js and jac, Dc = D - g'_L l_L^T
    is the causal temporal operator, and A_dir = lam_e (rho C + S)
    (`_kron_tables`).  lam_e = |v_e| + s_e, with v_e the element mean of
    the convective speed through M_dir and s_e that of the acoustic part of
    the spectral radius.  Advection has s_e = 0 and rho = v_e / lam_e in
    {-1, 0, 1}: A_dir = v_e C + |v_e| S is the upwind operator of the
    faces, so on a still, uniform mesh B_e is the exact element block.
    Where s_e > 0 (Euler), rho is the slab's median of v_e / lam_e along
    the direction, one value for every element.  B_e is inverted by fast
    diagonalization (Lynch, Rice & Thomas 1964): with A = V diag(lam) V^-1
    in every direction,

        B_e^-1 = -|J|_e V diag(1 / (a_tau lam_tau + lam_eta + lam_xi)) V^-1

    where V is the Kronecker product of the directions' eigenvectors.
    Every variable gets the same inverse.

    A direction's eigenvectors depend on rho alone, so the elements share
    at most three bases per direction (one for Euler), built by
    `_shared_bases`.  The apply runs on the element-last layout (nT,
    [n_eta,] re/im, n_xi, nV, nE), one transpose in and one out, and each
    transform is one real matmul per basis used along it, shared by every
    element (`_shared_along`): xi in real form on (re/im, n_xi) merged,
    then tau (x) eta, the outer transform (tau alone in 1D), in interleaved
    real form on (nT, [n_eta,] re/im) merged, at index 0 in 1D.  The
    eigenvectors stay complex until `_shared_bases` forms these real tables:
    a complex matmul of these shapes is about 3x slower than the real one
    of twice the size.
    """

    def __init__(self, geom: SlabGeometry, speeds, shape):
        nV, nE, nT, _ = shape
        dim = len(speeds)
        n = geom.ks + 1
        v_e = np.stack([v.mean(axis=(1, 2)) for v, _ in speeds], axis=1)
        s_e = np.stack([s.mean(axis=(1, 2)) for _, s in speeds], axis=1)
        lam_e = np.abs(v_e) + s_e
        rho = np.divide(v_e, lam_e, out=np.zeros_like(v_e), where=lam_e > 0)
        # the median per direction; np.median, like np.unique without
        # indices, imports numpy.ma on first use, 1.2 MB of resident memory
        r = np.sort(rho, axis=0)
        rho = np.where(s_e > 0, 0.5 * (r[(nE - 1) // 2] + r[nE // 2]), rho)
        rho, idx = np.unique(rho, return_inverse=True)
        idx = idx.reshape(v_e.shape)
        mu, fwd_xi, bwd_xi, fwd_outer, bwd_outer = _shared_bases(
            geom.ks, geom.kt, dim, tuple(rho.tolist()))
        lam = lam_e[..., None] * mu[idx]  # (nE, dim, n), dim ordered (xi, eta)
        # a_tau lam_tau + lam_eta + lam_xi on (nE, nT, [n_eta,] n_xi)
        den = geom.js.mean(axis=(1, 2))[:, None] * _kron_tables(geom.kt)[2]
        for d in reversed(range(dim)):
            den = den[..., None] + lam[:, d].reshape(
                (nE,) + (1,) * (den.ndim - 1) + (n,))
        jac = geom.jac.mean(axis=(1, 2)).reshape((nE,) + (1,) * (dim + 1))
        # the scaling is on z (lead, re/im, n_xi nV nE), lead = nT [n_eta],
        # with the (re, im) parts of -|J|_e / den repeated over nV
        lead = nT * n ** (dim - 1)
        s = np.moveaxis(-jac / den, 0, -1).reshape(lead, 1, n, 1, nE)
        s = s.repeat(nV, axis=3).reshape(lead, 1, -1)
        self.scale_re = s.real.repeat(2, axis=1)
        self.scale_im = np.concatenate([-s.imag, s.imag], axis=1)
        self.n = n

        def bases(d):
            """(index, mask) of each basis the elements use along direction
            d, the first for every element; eta is absent in 1D, and its one
            entry (0, None) is tau alone."""
            used = np.flatnonzero(np.bincount(idx[:, d])) if d < dim else [0]
            return [(j, None if i == 0 else idx[:, d] == j)
                    for i, j in enumerate(used)]

        # (forward, backward) bases of xi and of the outer transform
        xi, eta = bases(0), bases(1)
        self.inner = ([(fwd_xi[j], m) for j, m in xi],
                      [(bwd_xi[j], m) for j, m in xi])
        self.outer = ([(fwd_outer[j], m) for j, m in eta],
                      [(bwd_outer[j], m) for j, m in eta])

    def __call__(self, v):
        """B^-1 v for a flat slab vector v."""
        n, lead = self.n, self.scale_re.shape[0]
        z = np.ascontiguousarray(v.reshape(-1, lead * n).T).reshape(lead, n, -1)
        z = _shared_along(self.inner[0], z)
        z = _shared_along(self.outer[0], z.reshape(2 * lead, -1))
        _complex_scale(z.reshape(lead, 2, -1), self.scale_re, self.scale_im)
        z = _shared_along(self.outer[1], z)
        z = _shared_along(self.inner[1], z.reshape(lead, 2 * n, -1))
        return z.reshape(lead * n, -1).T.ravel()


class SlabOperator:
    """Precomputed residual operator for one slab.

    Holds the slab's `LevelPlan` at its Gauss levels, so a residual
    evaluation reduces to the shared FR kernels plus the temporal-direction
    terms.
    """

    def __init__(self, mesh: Mesh, geom: SlabGeometry, eq: EquationSet,
                 inflow: np.ndarray, bc: ExactSolution | None = None):
        self.geom = geom
        self.eq = eq
        self.inflow = inflow  # (nV, nE, nS)
        self.bt = make_basis(geom.kt)
        self.plan = LevelPlan(mesh, geom, eq, bc)
        # `_contract` tables on (nV nE, ...) rows: the bottom trace
        # kron(l_L, I) and the correction's spread kron(-g'_L, I)
        eye = np.eye(inflow.shape[2])
        self.bottom = np.kron(self.bt.extrap_left[:, None], eye)
        self.spread = np.kron(-self.bt.corr_deriv_left[None, :], eye)
        self.bottom.flags.writeable = self.spread.flags.writeable = False

    def _interior(self, u):
        """|J| * div_st(F) at solution points, chain-rule form."""
        out = self.plan.spatial_divergence(u)
        du_tau = np.matmul(self.bt.diff, u.reshape((-1,) + u.shape[2:]))
        out += self.geom.js * du_tau.reshape(u.shape)
        return out

    def _side_deltas(self, u):
        return self.plan.face_jumps(u)

    def _lift(self, delta):
        return self.plan.lift(delta)

    def _bottom_jump(self, u):
        """u_bot - inflow (nV, nE, nS) of a slab state u."""
        return _contract(u, self.bottom).reshape(self.inflow.shape) - self.inflow

    def _temporal_correction(self, u):
        """Causal bottom-face correction from the slab inflow."""
        d_out = self.geom.js_bot * self._bottom_jump(u)
        return _contract(d_out, self.spread).reshape(u.shape)

    def residual(self, u):
        """R_st = -(P(div_st F) + correction field) / |J| at the solution
        points of u (nV, nE, nT, nS), in u's layout."""
        total = self._interior(u)
        total += self._lift(self._side_deltas(u))
        total += self._temporal_correction(u)
        return np.divide(total, -self.plan.jac, out=total)

    # -- slab solve --------------------------------------------------------

    def _wave_speeds(self, u):
        """Per reference direction, the pointwise convective speed v through
        the metric row M_dir and the acoustic part s of the spectral radius
        |v| + s, at state u.  Advection has v = c . M_dir and s = 0; Euler
        has v = (u, v, 1) . M_dir and s = a |M_xy|."""
        eq = self.eq
        if isinstance(eq, (Advection1D, Advection2D)):  # s = 0, one per element
            return [(w, np.zeros_like(w[:, :1, :1])) for w in self.plan.weights]
        rho, uu, vv, p = euler_primitives(eq, u)
        a = np.sqrt(eq.gamma * p / rho)
        return [(uu * M[..., 0] + vv * M[..., 1] + M[..., 2],
                 a * np.hypot(M[..., 0], M[..., 1])) for M in self.plan.weights]

    def march(self, u0, controls: PseudoControls):
        """Solve R(u) = 0 for the slab by Newton-Krylov iteration.

        Each step linearizes R at the current iterate and runs one GMRES
        cycle on J du = -R(u); every product J v is one residual evaluation.
        Advection is affine, J v = R(u + v) - R(u) exactly, and the steps
        are the restart cycles of one GMRES solve to the target.  Euler
        takes finite-difference products (R(u + eps v) - R(u)) / eps and
        solves each Newton step to NEWTON_FORCING times the current
        residual.  After each step the true RMS residual is recomputed; the
        slab has converged once it has dropped by drop_orders, or sits at
        the round-off floor.

        GMRES is right-preconditioned: it solves J P y = -R(u) and the step
        is du = P y, so its residual estimate is that of the unpreconditioned
        system and the stopping rule is unchanged.  P is the
        `KroneckerPreconditioner` of the slab, built once before the first
        step.  For Euler its speeds are frozen at u0, the iterate the solve
        starts from; `advance_slab` seeds u0 with the inflow at every tau
        level, so P is linearized about the slab's inflow state and is not
        rebuilt as Newton moves u.  P is applied outside `residual`, so it
        adds nothing to the residual evaluations counted per slab.

        Returns (u, SlabStats).  The stats hold the temporal jump J =
        RMS(u_bot - inflow) of the converged slab, the standard error
        indicator of DG in time: it falls as dt^(k_t+1).  Raises
        PseudoConvergenceError when the residual turns non-finite or grows
        1e8-fold, when STALL_CYCLES successive steps each leave it above
        STALL_RATIO of its value before the step, or when max_iters
        residual evaluations do not reach the drop.
        """
        affine = isinstance(self.eq, (Advection1D, Advection2D))
        u = u0.copy()
        r = self.residual(u)
        evals = 1
        r0 = float(np.sqrt(np.mean(r * r)))
        speeds = self._wave_speeds(u0)
        # round-off-aware absolute floor: the residual of an exact solution
        # assembles to eps times the operator's fastest rate, the largest
        # space-time wave speed over |J|
        rate = np.abs(self.geom.js)
        for v, s in speeds:
            rate = rate + np.abs(v) + s
        urms = float(np.sqrt(np.mean(u0 * u0)))
        floor = ABS_FLOOR * max(
            1.0, urms * float(np.max(rate / self.geom.jac)))
        target = max(r0 * 10.0 ** (-controls.drop_orders), floor)
        rnorm = r0
        ratios = []  # RMS residual after each step over before it
        stalled = 0  # successive steps that cut the residual too little
        scale = np.sqrt(r.size)  # RMS to 2-norm
        if rnorm > target:  # a slab already at its floor needs no steps
            precond = KroneckerPreconditioner(self.geom, speeds, u0.shape)
            basis = np.empty((KRYLOV_RESTART + 1, u.size))  # all cycles fill it

        def jv(v):  # J v at the current (u, r), one residual evaluation
            nonlocal evals
            evals += 1
            v = v.reshape(u.shape)
            if affine:
                return (self.residual(u + v) - r).ravel()
            h = _FD_STEP * u_scale / np.linalg.norm(v)
            return ((self.residual(u + h * v) - r) / h).ravel()

        while rnorm > target:
            budget = min(KRYLOV_RESTART, controls.max_iters - evals - 1)
            if budget < 1:
                raise PseudoConvergenceError(
                    f"max_iters={controls.max_iters} reached before a "
                    f"{controls.drop_orders:g}-order residual drop",
                    _drop(r0, rnorm), evals, rnorm, ratios)
            tol = target if affine else max(NEWTON_FORCING * rnorm, target)
            u_scale = 1.0 + np.linalg.norm(u)  # u is fixed over the cycle
            du = precond(gmres(lambda v: jv(precond(v)), -r.ravel(),
                               tol * scale, basis[:budget + 1]))
            u = u + du.reshape(u.shape)
            r = self.residual(u)
            evals += 1
            before, rnorm = rnorm, float(np.sqrt(np.mean(r * r)))
            ratios.append(rnorm / before)
            if not rnorm <= 1e8 * r0:  # also catches nan and inf
                raise PseudoConvergenceError("slab solve diverged",
                                             _drop(r0, rnorm), evals, rnorm, ratios)
            stalled = stalled + 1 if rnorm > STALL_RATIO * before else 0
            if stalled == STALL_CYCLES:
                raise PseudoConvergenceError("slab solve stalled",
                                             _drop(r0, rnorm), evals, rnorm, ratios)
        jump = self._bottom_jump(u)
        return u, SlabStats(evals, r0, rnorm, float(np.sqrt(np.mean(jump * jump))))


def _drop(r0, r):
    """Orders of magnitude by which the residual fell from r0 to r."""
    return math.log10(r0 / r) if 0 < r < math.inf else -math.inf


def advance_slab(inflow: np.ndarray, mesh: Mesh, coords_n, coords_n1,
                 dt: float, t_n: float, eq: EquationSet,
                 basis_s: BasisSet, basis_t: BasisSet,
                 bc: ExactSolution | None = None,
                 controls: PseudoControls | None = None):
    """Build one slab, seed it from the inflow (nV, nE, nS), converge it,
    and hand back (slab values (nV, nE, nT, nS), SlabGeometry, top-face
    values (nV, nE, nS), SlabStats)."""
    controls = controls or PseudoControls()
    u0 = np.repeat(inflow[:, :, None], basis_t.n, axis=2)
    geom = slab_geometry(mesh, coords_n, coords_n1, dt, basis_s, basis_t, t_n)
    u, stats = SlabOperator(mesh, geom, eq, inflow, bc).march(u0, controls)
    top = np.einsum("t,vets->ves", basis_t.extrap_right, u)
    return u, geom, top, stats


@dataclass
class MarchResult:
    """The final state and node coordinates of `march`, `march_mol` or
    `stfv.march_stfv`.  Only `march` fills geom (the last slab's geometry),
    top (its top face, (nV, nE, nS)) and stats (one SlabStats per slab)."""

    field: StateField
    coords_final: np.ndarray
    geom: SlabGeometry | None = None
    top: np.ndarray | None = None
    stats: list = field(default_factory=list)


def initial_condition(mesh: Mesh, coords0, basis_s: BasisSet,
                      sol: ExactSolution) -> np.ndarray:
    """Exact solution (nV, nE, nS) at the spatial solution points at t = 0."""
    return exact_state(sol, *solution_positions(mesh, coords0, basis_s.degree),
                       t=0.0)


def march(mesh: Mesh, motion: MotionPrescription, eq: EquationSet,
          sol: ExactSolution, ks: int, kt: int, dt: float, n_steps: int,
          controls: PseudoControls | None = None,
          slab_callback=None) -> MarchResult:
    """March n_steps slabs from the exact initial condition at t = 0.

    `sol` also supplies the analytic boundary states where the mesh has
    dirichlet faces.  slab_callback(u, geom, top) runs after each
    converged slab, on its values (nV, nE, nT, nS).
    """
    controls = controls or PseudoControls()
    bs, bt = make_basis(ks), make_basis(kt)
    result = MarchResult(field=None, coords_final=None)

    def slab(k, inflow, coords_n, coords_n1):
        u, result.geom, top, stats = advance_slab(
            inflow, mesh, coords_n, coords_n1, dt, k * dt, eq, bs, bt,
            bc=sol, controls=controls)
        result.field = StateField(u)
        result.stats.append(stats)
        if slab_callback is not None:
            slab_callback(u, result.geom, top)
        return top

    result.top, result.coords_final = march_path(
        motion, mesh, dt, n_steps,
        lambda coords0: initial_condition(mesh, coords0, bs, sol), slab, "slab")
    return result
