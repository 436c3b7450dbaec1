"""The shared FR kernels against plain einsum and per-face references.

`LevelPlan.spatial_divergence`, `_traces_all_edges`, `LevelPlan.face_jumps`
and `LevelPlan.lift` run their contractions as single GEMMs or batched
matmuls over row-indexed gathers.  Here each is recomputed from the 1D
basis tables with einsum, face by face, on the disk mesh of
`wave2d_circle_p2`, which has flipped and Dirichlet faces, for advection
and Euler, on a slab plan at all its levels (nT = 3) and at one level
picked by a slice (nT = 1, as the method of lines runs it).  The Euler
divergence is also checked against its batched-matmul form on the first
slab of `euler_vortex_p3`.
"""

import tracemalloc

import numpy as np
import pytest

from stfr import cli
from stfr.basis import make_basis
from stfr.geometry import face_points, slab_geometry
from stfr.mesh import rect_mesh
from stfr.motion import motion_path
from stfr.physics import (
    Advection1D,
    Advection2D,
    Euler2D,
    exact_for,
    exact_state,
    flux,
)
from stfr.st_solver import (
    LevelPlan,
    _traces_all_edges,
    _transformed_common_flux,
    _transformed_normal_flux,
    _weights,
    _xi_table,
    initial_condition,
)

RTOL = 1e-13


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


@pytest.fixture(scope="module", params=[("advection", 3), ("advection", 1),
                                        ("euler", 3), ("euler", 1)],
                ids=lambda p: f"{p[0]}-nT{p[1]}")
def setup(request):
    physics, nT = request.param
    cfg = cli.load_case("wave2d_circle_p2")
    mesh = cli.build_mesh(cfg)
    assert mesh.faces.flip.any() and len(mesh.dirichlet)
    if physics == "advection":
        eq = cli.build_equation(cfg)
        sol = cli.build_exact(cfg, eq)
    else:
        eq = Euler2D()
        sol = exact_for(eq, "isentropic_vortex")
    bs, bt = make_basis(cfg.k_s), make_basis(2)
    path = motion_path(cli.build_motion(cfg), mesh, cfg.dt, 2)
    geom = slab_geometry(mesh, path[1], path[2], cfg.dt, bs, bt, t_n=cfg.dt)
    plan = LevelPlan(mesh, geom, eq, sol)
    levels = slice(0, 3) if nT == 3 else slice(1, 2)
    rng = np.random.default_rng(2409)
    u = initial_condition(mesh, path[1], bs, sol)[:, None].repeat(nT, axis=1)
    u = u * (1.0 + 0.01 * rng.standard_normal(u.shape))
    return eq, sol, mesh, geom, plan, levels, cfg.k_s, u


def _reference_derivatives(D, a):
    """d/dxi and d/deta of nodal a (nE, nT, nS, ...), points (eta, xi)."""
    n1 = D.shape[0]
    a4 = a.reshape(a.shape[:2] + (n1, n1) + a.shape[3:])
    dxi = np.einsum("ij,etaj...->etai...", D, a4)
    deta = np.einsum("ij,etjb...->etib...", D, a4)
    return [d.reshape(a.shape) for d in (dxi, deta)]


def _reference_traces(b, u):
    """Traces on edges (S, E, N, W) = (eta -1, xi +1, eta +1, xi -1)."""
    nE, nT, _, nV = u.shape
    u4 = u.reshape(nE, nT, b.n, b.n, nV)
    return np.stack([np.einsum("j,etjiv->etiv", b.extrap_left, u4),
                     np.einsum("j,etijv->etiv", b.extrap_right, u4),
                     np.einsum("j,etjiv->etiv", b.extrap_right, u4),
                     np.einsum("j,etijv->etiv", b.extrap_left, u4)], axis=2)


def test_spatial_divergence(setup):
    eq, _, _, _, plan, levels, ks, u = setup
    D = make_basis(ks).diff
    weights = plan.weights[:, :, levels]
    if eq.n_vars == 1:
        ref = sum(w[..., None] * du for w, du in
                  zip(weights, _reference_derivatives(D, u)))
    else:
        fx, gy = flux(eq, u)
        F = np.stack([fx, gy, u], axis=-2)
        ref = sum(np.einsum("etsc,etscv->etsv", M, dF) for M, dF in
                  zip(weights, _reference_derivatives(D, F)))
    _close(plan.spatial_divergence(u, levels), ref)


def test_euler_divergence_allocates_no_stacked_flux():
    # one flux component at a time: the divergence's peak allocation on
    # the first slab of `euler_vortex_p3` stays within 6 state arrays
    # (a stacked (f, g, Q) with its stacked derivatives took 13)
    cfg = cli.load_case("euler_vortex_p3")
    mesh, eq = cli.build_mesh(cfg), cli.build_equation(cfg)
    sol = cli.build_exact(cfg, eq)
    bs, bt = make_basis(cfg.k_s), make_basis(cfg.k_t)
    path = motion_path(cli.build_motion(cfg), mesh, cfg.dt, 1)
    geom = slab_geometry(mesh, path[0], path[1], cfg.dt, bs, bt, t_n=0.0)
    plan = LevelPlan(mesh, geom, eq, sol)
    u = initial_condition(mesh, path[0], bs, sol)[:, None].repeat(bt.n, axis=1)
    plan.spatial_divergence(u)  # warm the caches
    tracemalloc.start()
    try:
        plan.spatial_divergence(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * u.nbytes


@pytest.fixture(scope="module")
def vortex():
    """The plan of the first slab of `euler_vortex_p3`, its geometry and a
    perturbed initial state at its levels."""
    cfg = cli.load_case("euler_vortex_p3")
    mesh, eq = cli.build_mesh(cfg), cli.build_equation(cfg)
    sol = cli.build_exact(cfg, eq)
    bs, bt = make_basis(cfg.k_s), make_basis(cfg.k_t)
    path = motion_path(cli.build_motion(cfg), mesh, cfg.dt, 1)
    geom = slab_geometry(mesh, path[0], path[1], cfg.dt, bs, bt, t_n=0.0)
    u = initial_condition(mesh, path[0], bs, sol)[:, None].repeat(bt.n, axis=1)
    u = u * (1.0 + 0.01 * np.random.default_rng(30).standard_normal(u.shape))
    return LevelPlan(mesh, geom, eq, sol), geom, u


def _batched_divergence(eq, D, rows, u):
    """The Euler divergence with every derivative a batched matmul and
    every scaling a broadcast of the metric rows (dim, nE, nT, nS, dim+1)."""
    nE, nT = u.shape[:2]
    out = np.zeros_like(u)
    for c, F in enumerate((*flux(eq, u), u)):
        for M, n_rows in ((rows[0], nE * nT * len(D)), (rows[1], nE * nT)):
            dF = np.matmul(D, F.reshape(n_rows, len(D), -1)).reshape(u.shape)
            out += dF * M[..., c, None]
    return out


def test_euler_divergence_equals_the_batched_form(vortex):
    # at all levels, as a slab runs it, and at each level alone, as a MOL
    # stage runs it
    plan, geom, u = vortex
    D = make_basis(plan.ks).diff
    cases = [(u, slice(None))] + [(u[:, j:j + 1].copy(), slice(j, j + 1))
                                  for j in range(u.shape[1])]
    for v, at in cases:
        ref = _batched_divergence(plan.eq, D, geom.rows[:, :, at], v)
        got = plan.spatial_divergence(v, at)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_plan_repeats_the_metric_for_euler_only(vortex, setup):
    # Euler holds each metric component repeated over the variables, and
    # the cached xi table, read-only; advection holds no repeated array
    plan, geom, u = vortex
    M = plan.metric
    assert M.shape == (2, 3) + u.shape and not M.flags.writeable
    assert not _xi_table(plan.ks, 4).flags.writeable
    for d, c in np.ndindex(2, 3):
        assert np.array_equal(M[d, c], np.repeat(geom.rows[d][..., c, None], 4, axis=-1))
    eq, plan = setup[0], setup[4]
    assert (plan.metric is None) == (eq.n_vars == 1)


def test_traces(setup):
    _, _, _, _, _, _, ks, u = setup
    _close(_traces_all_edges(u, ks, 2), _reference_traces(make_basis(ks), u))


def test_face_jumps(setup):
    eq, sol, mesh, geom, plan, levels, ks, u = setup
    tr = _reference_traces(make_basis(ks), u)
    ref = np.full_like(tr, np.nan)
    f = mesh.faces
    for eL, gL, eR, gR, flip in zip(f.elem_l, f.edge_l, f.elem_r, f.edge_r, f.flip):
        w = _weights(eq, geom.face_m[eL, gL, levels])
        QL, QR = tr[eL, :, gL], tr[eR, :, gR]
        if flip:
            QR = QR[:, ::-1]
        com = _transformed_common_flux(eq, QL, QR, w)
        dR = _transformed_normal_flux(eq, QR, w) - com
        ref[eL, :, gL] = com - _transformed_normal_flux(eq, QL, w)
        ref[eR, :, gR] = dR[:, ::-1] if flip else dR
    for e, g in mesh.dirichlet:
        w = _weights(eq, geom.face_m[e, g, levels])
        ext = exact_state(sol, *face_points(geom, [e], [g])[:, 0, levels],
                          t=geom.times[levels, None])
        ref[e, :, g] = (_transformed_common_flux(eq, tr[e, :, g], ext, w)
                        - _transformed_normal_flux(eq, tr[e, :, g], w))
    assert not np.isnan(ref).any()  # every edge is a face side
    _close(plan.face_jumps(u, levels), ref)


def test_lift(setup):
    _, _, _, _, plan, _, ks, u = setup
    b = make_basis(ks)
    rng = np.random.default_rng(7)
    nE, nT, _, nV = u.shape
    delta = rng.standard_normal((nE, nT, 4, b.n, nV))
    gl, gr = b.corr_deriv_left, b.corr_deriv_right
    # -g'_L on minus faces, +g'_R on plus faces, constant along the face
    ref = (-np.einsum("a,etbv->etabv", gl, delta[:, :, 0])
           + np.einsum("b,etav->etabv", gr, delta[:, :, 1])
           + np.einsum("a,etbv->etabv", gr, delta[:, :, 2])
           - np.einsum("b,etav->etabv", gl, delta[:, :, 3]))
    _close(plan.lift(delta), ref.reshape(nE, nT, -1, nV))



def test_euler_plan_keeps_the_geometry_rows_uncopied():
    # Euler's divergence reads the metric rows as they are, so the plan
    # holds the geometry's own array and adds no copy of it to the peak
    mesh = rect_mesh(2, 2)
    b = make_basis(2)
    geom = slab_geometry(mesh, mesh.nodes, mesh.nodes + 0.01, 0.1, b, b)
    assert LevelPlan(mesh, geom, Euler2D(), None).weights is geom.rows


@pytest.mark.parametrize("eq", [Advection1D(-0.7), Advection2D(0.5, -1.3)],
                         ids=["1d", "2d"])
def test_weights_is_the_speed_sum(eq):
    # the one GEMV equals c . M_x + M_t term by term, to round-off relative
    # to the terms, on contiguous arrays and on strided views alike
    c = np.array([eq.c] if isinstance(eq, Advection1D) else [eq.c1, eq.c2])
    rng = np.random.default_rng(14)
    M = rng.standard_normal((5, 3, 7, len(c) + 1))
    for a in (M, M[:, ::2], M.transpose(1, 0, 2, 3)):
        terms = np.concatenate([c * a[..., :-1], a[..., -1:]], axis=-1)
        ref = terms[..., 0].copy()
        for k in range(1, len(c) + 1):
            ref += terms[..., k]
        w = _weights(eq, a)
        assert w.shape == a.shape[:-1]
        assert np.all(np.abs(w - ref) <= 1e-15 * np.abs(terms).sum(-1))
    assert _weights(Euler2D(), M) is M
