"""The Kronecker-sum preconditioner of the slab solve: its 1D tables, the
fast-diagonalization apply, and the exact element inverse it is on a still,
uniform mesh."""

import numpy as np
import pytest

from stfr.basis import make_basis
from stfr.geometry import slab_geometry
from stfr.mesh import disk_mesh, interval_mesh, rect_mesh
from stfr.motion import SineDeformation
from stfr.physics import (Advection1D, Advection2D, Euler2D, IsentropicVortex,
                           SineWave2D)
from stfr.st_solver import (KroneckerPreconditioner, SlabOperator, _kron_tables,
                            _shared_bases, initial_condition)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("v", [0.7, -1.3])
def test_upwind_split(k, v):
    b = make_basis(k)
    C, S = _kron_tables(k)[:2]
    if v > 0:
        upwind = b.diff - np.outer(b.corr_deriv_left, b.extrap_left)
    else:
        upwind = b.diff - np.outer(b.corr_deriv_right, b.extrap_right)
    assert np.abs(v * C + abs(v) * S - v * upwind).max() <= 1e-14


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_temporal_eigendecomposition(k):
    b = make_basis(k)
    lam, V, Vi = _kron_tables(k)[2:]
    n = k + 1
    causal = b.diff - np.outer(b.corr_deriv_left, b.extrap_left)
    assert np.abs(causal @ V - V * lam).max() <= 1e-11
    assert np.abs(V @ Vi - np.eye(n)).max() <= 1e-12
    assert np.linalg.cond(V) <= 1e3
    assert lam.real.min() > 0  # causal: no zero divisor in the apply


def _interleaved(M):
    """Interleaved real form of complex M, built block by block: the (a, b)
    entry becomes [[re, -im], [im, re]]."""
    return np.kron(M.real, np.eye(2)) + np.kron(M.imag, [[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("dim,rho", [(1, (-1.0,)), (2, (0.25,)),
                                     (2, (-1.0, 0.0, 1.0))])
def test_shared_bases_real_forms(dim, rho):
    # each table is the real form of the complex one it stands for: the xi
    # transforms diagonalize rho_j C + S, and the outer transforms are
    # T (x) E[j], T alone in 1D
    ks, kt, n = 3, 2, 4
    C, S = _kron_tables(ks)[:2]
    _, V_t, Vi_t = _kron_tables(kt)[2:]
    mu, fwd, bwd, fwd_outer, bwd_outer = _shared_bases(ks, kt, dim, rho)
    assert len(fwd) == len(bwd) == len(rho)
    assert len(fwd_outer) == len(bwd_outer) == (len(rho) if dim == 2 else 1)
    for j, r in enumerate(rho):
        assert fwd[j].shape == (2 * n, n) and bwd[j].shape == (n, 2 * n)
        Vi = fwd[j][:n] + 1j * fwd[j][n:]
        V = bwd[j][:, :n] - 1j * bwd[j][:, n:]
        assert np.abs(V @ Vi - np.eye(n)).max() <= 1e-12
        assert np.abs((V * mu[j]) @ Vi - (r * C + S)).max() <= 1e-12
        E = (Vi, V) if dim == 2 else (np.ones((1, 1)),) * 2  # kron(T, 1) = T
        for table, T, E in zip((fwd_outer, bwd_outer), (Vi_t, V_t), E):
            assert np.abs(table[j] - _interleaved(np.kron(T, E))).max() <= 1e-12
        eye = np.eye(len(fwd_outer[j]))
        assert np.abs(fwd_outer[j] @ bwd_outer[j] - eye).max() <= 1e-12


def _moving_operator(eq, inflow_fn, moving_path, ks=3, kt=2):
    m = rect_mesh(3, 3, -1.0, 1.0, -1.0, 1.0)
    presc = SineDeformation(length=(2.0, 2.0), n=(3.0, 3.0))
    path = moving_path(presc, m, 0.05, 3)
    bs, bt = make_basis(ks), make_basis(kt)
    geom = slab_geometry(m, path[2], path[3], 0.05, bs, bt, t_n=0.1)
    inflow = inflow_fn(m, path[2], bs)
    return m, geom, SlabOperator(m, geom, eq, inflow), inflow


def _kron_sum_dense(geom, speeds, e):
    """The element's Kronecker sum a_tau Dc (x) I (x) I + I (x) A_eta (x) I
    + I (x) I (x) A_xi, assembled densely from the 1D tables.  A_dir is
    v_e C + |v_e| S, or, where the element has an acoustic part s_e > 0,
    lam_e (rho C + S) with lam_e = |v_e| + s_e and rho the median of
    v / lam over the slab's elements."""
    C, S = _kron_tables(geom.ks)[:2]
    b = make_basis(geom.kt)
    causal = b.diff - np.outer(b.corr_deriv_left, b.extrap_left)
    dim = len(speeds)
    ops = []
    for v, s in speeds:  # xi, then eta
        v_all, s_all = v.mean(axis=(1, 2)), s.mean(axis=(1, 2))
        lam = np.abs(v_all) + s_all
        if s_all[e] > 0:
            ops.append(lam[e] * (np.median(v_all / lam) * C + S))
        else:
            ops.append(v_all[e] * C + lam[e] * S)
    eye_s, eye_t = np.eye(geom.ks + 1), np.eye(geom.kt + 1)
    K = geom.js[e].mean() * np.kron(causal, np.eye((geom.ks + 1) ** dim))
    if dim == 1:
        return K + np.kron(eye_t, ops[0])
    return (K + np.kron(eye_t, np.kron(ops[1], eye_s))
            + np.kron(eye_t, np.kron(eye_s, ops[0])))


def _ones(m, coords, bs):
    return np.ones((m.n_elems, bs.n ** m.dim, 1))


def _still_operator(m, eq, ks=3, kt=2):
    bs, bt = make_basis(ks), make_basis(kt)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt)
    inflow = _ones(m, m.nodes, bs)
    return m, geom, SlabOperator(m, geom, eq, inflow, bc=SineWave2D()), inflow


def _preconditioner_input(built):
    """(geom, speeds, shape) of an operator built by one of the above, its
    speeds at the inflow."""
    m, geom, op, inflow = built
    u0 = np.repeat(inflow[:, None], geom.kt + 1, axis=1)
    return geom, op._wave_speeds(u0), u0.shape


def _three_eta_bases(moving_path):
    """A still rect mesh whose eta speeds are set by element to 0, +0.3 and
    -0.3: rho takes all three values along eta.  Two variables, which get
    the same inverse."""
    geom, speeds, shape = _preconditioner_input(
        _still_operator(rect_mesh(3, 3), Advection2D(0.5, 0.0)))
    v, s = speeds[1]
    v = np.repeat([0.0, 0.3, -0.3], 3)[:, None, None] * np.ones_like(v)
    return geom, [speeds[0], (v, s)], shape[:-1] + (2,)


def _vortex(m, coords, bs):
    return initial_condition(m, coords, bs, IsentropicVortex(period=2.0))


# case -> per reference direction (xi, eta), the number of bases its
# elements share, and the preconditioner's input
CASES = {
    "advection2d": ((1, 1), lambda mp: _preconditioner_input(
        _moving_operator(Advection2D(0.6, -0.4), _ones, mp))),
    "advection2d_kt0": ((1, 1), lambda mp: _preconditioner_input(
        _moving_operator(Advection2D(0.6, -0.4), _ones, mp, kt=0))),
    # the disk's blocks turn xi and eta both ways: rho = -1 and +1
    "disk": ((2, 2), lambda mp: _preconditioner_input(
        _still_operator(disk_mesh(1), Advection2D(0.5, 0.5)))),
    # no flow along eta, but the metric's round-off (1e-20) gives the eta
    # speed both signs, not zero
    "still_rect_c2_0": ((1, 2), lambda mp: _preconditioner_input(
        _still_operator(rect_mesh(3, 3), Advection2D(0.5, 0.0)))),
    "three_eta_bases": ((1, 3), _three_eta_bases),
    "interval": ((1,), lambda mp: _preconditioner_input(
        _still_operator(interval_mesh(5), Advection1D(-0.8)))),
    # every element has an acoustic part: one median rho per direction
    "euler2d": ((1, 1), lambda mp: _preconditioner_input(
        _moving_operator(Euler2D(), _vortex, mp))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_diagonalization_matches_dense_solve(case, moving_path):
    bases, build = CASES[case]
    geom, speeds, shape = build(moving_path)
    P = KroneckerPreconditioner(geom, speeds, shape)
    # the outer transform is tau (x) eta, tau alone in 1D
    assert (len(P.inner[0]), len(P.outer[0])) == (bases + (1,))[:2]
    r = np.random.default_rng(5).standard_normal(shape)
    out = P(r.ravel()).reshape(r.shape)
    nE, nT, nS, nV = r.shape
    for e in range(nE):
        K = _kron_sum_dense(geom, speeds, e)
        ref = -geom.jac[e].mean() * np.linalg.solve(K, r[e].reshape(-1, nV))
        assert np.abs(out[e].reshape(-1, nV) - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rebuild_shares_cached_bases(case, moving_path):
    # a second build on the same slab reuses the shared-basis matrices of
    # the first, read-only, and applies bit-identically
    geom, speeds, shape = CASES[case][1](moving_path)
    first = KroneckerPreconditioner(geom, speeds, shape)
    before = _shared_bases.cache_info()
    second = KroneckerPreconditioner(geom, speeds, shape)
    after = _shared_bases.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1
    pairs = [(a, b) for side in ("inner", "outer")
             for one, two in zip(getattr(first, side), getattr(second, side))
             for (a, _), (b, _) in zip(one, two)]
    assert all(a is b and not a.flags.writeable for a, b in pairs)
    r = np.random.default_rng(7).standard_normal(int(np.prod(shape)))
    assert np.array_equal(first(r), second(r))


def _element_block(op, shape, e):
    """Jacobian of element e's residual with respect to its own values,
    probed one column at a time with every other value and the inflow zero."""
    n = int(np.prod(shape[1:]))
    cols = []
    for j in range(n):
        u = np.zeros(shape)
        u[e].flat[j] = 1.0
        cols.append(op.residual(u)[e].ravel())
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_exact_inverse_on_still_uniform_mesh(dim):
    if dim == 1:
        m, eq, nS = interval_mesh(5), Advection1D(-0.8), 4
    else:
        m, eq, nS = rect_mesh(3, 3), Advection2D(0.5, -0.3), 16
    bs, bt = make_basis(3), make_basis(2)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt)
    shape = (m.n_elems, bt.n, nS, 1)
    op = SlabOperator(m, geom, eq, np.zeros((m.n_elems, nS, 1)))
    P = KroneckerPreconditioner(geom, op._wave_speeds(np.zeros(shape)), shape)
    for e in (0, m.n_elems - 1):
        B = _element_block(op, shape, e)
        PB = np.empty_like(B)
        for j in range(B.shape[1]):
            v = np.zeros(shape)
            v[e] = B[:, j].reshape(shape[1:])
            PB[:, j] = P(v.ravel()).reshape(shape)[e].ravel()
        assert np.abs(PB - np.eye(B.shape[0])).max() <= 1e-10
