"""The shared FR kernels against plain einsum and per-face references.

`LevelPlan.spatial_divergence`, `_traces_all_edges`, `LevelPlan.face_jumps`
and `LevelPlan.lift` run variables-first, (nV, nE, nT, nS), their
contractions single GEMMs over row-indexed gathers.  Here each is
recomputed in the public layout (nE, nT, nS, nV) from the 1D basis tables
with einsum, face by face, on the disk mesh of `wave2d_circle_p2`, which
has flipped and Dirichlet faces, for advection and Euler, on a slab plan at
all its levels (nT = 3) and at one level picked by a slice (nT = 1, as the
method of lines runs it); `_first` and `_last` move the variable axis
between the layouts.  The whole slab and MOL residuals are checked against
the same references, and the Euler divergence against its batched-matmul
form, also on the first slab of `euler_vortex_p3`.
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
from stfr.mol_solver import MolOperator
from stfr.st_solver import (
    LevelPlan,
    SlabOperator,
    _traces_all_edges,
    _transformed_common_flux,
    _transformed_normal_flux,
    _vars_first,
    _weights,
    initial_condition,
)

RTOL = 1e-13


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


def _first(a):
    """The variables-first view (nV, ...) of a (..., nV)."""
    return np.moveaxis(a, -1, 0)


def _last(a):
    """The (..., nV) view of a variables-first a (nV, ...)."""
    return np.moveaxis(a, 0, -1)


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


def _reference_divergence(eq, D, weights, u):
    """sum_dir M_dir . d_dir F_st(u) from the metric rows' `_weights`."""
    if eq.n_vars == 1:
        return sum(w[..., None] * du for w, du in
                   zip(weights, _reference_derivatives(D, u)))
    fx, gy = (_last(F) for F in flux(eq, _first(u)))
    F = np.stack([fx, gy, u], axis=-2)
    return sum(np.einsum("etsc,etscv->etsv", M, dF) for M, dF in
               zip(weights, _reference_derivatives(D, F)))


def _reference_jumps(eq, sol, mesh, geom, levels, tr):
    """Outward flux jumps on every edge, face by face, from traces tr
    (nE, nT, n_edges, nFs, nV) at the levels `levels`."""
    def common(QL, QR, w):
        return _last(_transformed_common_flux(eq, _first(QL), _first(QR), w))

    def normal(Q, w):
        return _last(_transformed_normal_flux(eq, _first(Q), w))

    ref = np.full_like(tr, np.nan)
    f = mesh.faces
    for eL, gL, eR, gR, flip in zip(f.elem_l, f.edge_l, f.elem_r, f.edge_r, f.flip):
        w = _weights(eq, geom.face_m[eL, gL, levels])
        QL, QR = tr[eL, :, gL], tr[eR, :, gR]
        if flip:
            QR = QR[:, ::-1]
        com = common(QL, QR, w)
        dR = normal(QR, w) - com
        ref[eL, :, gL] = com - normal(QL, w)
        ref[eR, :, gR] = dR[:, ::-1] if flip else dR
    for e, g in mesh.dirichlet:
        w = _weights(eq, geom.face_m[e, g, levels])
        ext = exact_state(sol, *face_points(geom, [e], [g])[:, 0, levels],
                          t=geom.times[levels, None])
        ref[e, :, g] = common(tr[e, :, g], ext, w) - normal(tr[e, :, g], w)
    assert not np.isnan(ref).any()  # every edge is a face side
    return ref


def _reference_lift(b, delta):
    """Correction field (nE, nT, nS, nV) of edge jumps (nE, nT, 4, nFs, nV):
    -g'_L on minus faces, +g'_R on plus faces, constant along the face."""
    nE, nT, _, _, nV = delta.shape
    gl, gr = b.corr_deriv_left, b.corr_deriv_right
    ref = (-np.einsum("a,etbv->etabv", gl, delta[:, :, 0])
           + np.einsum("b,etav->etabv", gr, delta[:, :, 1])
           + np.einsum("a,etbv->etabv", gr, delta[:, :, 2])
           - np.einsum("b,etav->etabv", gl, delta[:, :, 3]))
    return ref.reshape(nE, nT, -1, nV)


def _reference_spatial(eq, sol, mesh, geom, levels, u):
    """Divergence plus correction field of the shared kernels, u at the
    levels `levels`."""
    b = make_basis(geom.ks)
    jumps = _reference_jumps(eq, sol, mesh, geom, levels,
                             _reference_traces(b, u))
    return (_reference_divergence(eq, b.diff, _weights(eq, geom.rows)[:, :, levels], u)
            + _reference_lift(b, jumps))


def _check_residuals(eq, sol, mesh, geom, u):
    """The slab residual at all levels of u and the MOL residual of each
    level alone against the einsum references."""
    bt = make_basis(geom.kt)
    inflow = u[:, 0] * 1.01
    total = _reference_spatial(eq, sol, mesh, geom, slice(None), u)
    total += geom.js[..., None] * np.einsum("tj,ejsv->etsv", bt.diff, u)
    ubot = np.einsum("t,etsv->esv", bt.extrap_left, u)
    d_out = geom.js_bot[..., None] * (ubot - inflow)
    total -= np.einsum("esv,t->etsv", d_out, bt.corr_deriv_left)
    _close(SlabOperator(mesh, geom, eq, inflow, sol).residual(u),
           -total / geom.jac[..., None])
    op = MolOperator(mesh, eq, sol).bind_degree(geom)
    for j in range(u.shape[1]):
        total = _reference_spatial(eq, sol, mesh, geom, slice(j, j + 1), u[:, j:j + 1])
        _close(op.residual(u[:, j], j), -total[:, 0] / geom.jac[:, j, :, None])


def test_spatial_divergence(setup):
    eq, _, _, _, plan, levels, ks, u = setup
    ref = _reference_divergence(eq, make_basis(ks).diff,
                                plan.weights[:, :, levels], u)
    _close(_last(plan.spatial_divergence(_first(u), levels)), ref)


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
    u = _vars_first(initial_condition(mesh, path[0], bs, sol)[:, None].repeat(bt.n, axis=1))
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
    for c, F in enumerate((*(_last(F) for F in flux(eq, _first(u))), u)):
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
        got = _last(plan.spatial_divergence(_first(v), at))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_plan_holds_no_array_repeated_over_the_variables(setup):
    # the divergence broadcasts each metric component over the variables,
    # so no table of the plan repeats one value per variable; Euler holds
    # the metric rows component-major, read-only
    eq, _, _, geom, plan, _, _, _ = setup
    nV = eq.n_vars
    tables = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    assert tables
    for a in tables:
        for axis in np.flatnonzero(np.array(a.shape) == nV) if nV > 1 else []:
            first = np.take(a, [0], axis=axis)
            assert not np.array_equal(np.broadcast_to(first, a.shape), a)
    if nV == 1:
        assert plan.components is None
    else:
        assert not plan.components.flags.writeable
        assert np.array_equal(plan.components, np.moveaxis(geom.rows, -1, 0))


def test_vars_first_is_a_view_for_one_variable():
    # for nV = 1 the two layouts are the same memory: the residuals'
    # entry transpose copies nothing; a system gets a contiguous copy
    u = np.random.default_rng(3).standard_normal((5, 3, 9, 1))
    v = _vars_first(u)
    assert v.shape == (1, 5, 3, 9) and v.flags.c_contiguous
    assert np.shares_memory(v, u)
    w = _vars_first(np.repeat(u, 4, axis=-1))
    assert w.shape == (4, 5, 3, 9) and w.flags.c_contiguous
    assert np.array_equal(w[2], u[..., 0])


def test_residuals_equal_the_einsum_reference(setup):
    # on the disk, with flipped and Dirichlet faces: the slab residual at
    # all levels and the MOL residual at each level alone; the one-level
    # setups run the slab from their level repeated
    eq, sol, mesh, geom, _, _, _, u = setup
    if u.shape[1] == 1:
        u = u.repeat(3, axis=1) * np.array([0.99, 1.0, 1.01])[:, None, None]
    _check_residuals(eq, sol, mesh, geom, u)


def test_euler_residuals_equal_the_einsum_reference_on_the_vortex(vortex):
    plan, geom, u = vortex
    _check_residuals(plan.eq, None, plan.mesh, geom, u)


def test_traces(setup):
    _, _, _, _, _, _, ks, u = setup
    _close(_last(_traces_all_edges(_first(u), ks, 2)),
           _reference_traces(make_basis(ks), u))


def test_face_jumps(setup):
    eq, sol, mesh, geom, plan, levels, ks, u = setup
    ref = _reference_jumps(eq, sol, mesh, geom, levels,
                           _reference_traces(make_basis(ks), u))
    _close(_last(plan.face_jumps(_first(u), levels)), ref)


def test_lift(setup):
    _, _, _, _, plan, _, ks, u = setup
    b = make_basis(ks)
    rng = np.random.default_rng(7)
    nE, nT, _, nV = u.shape
    delta = rng.standard_normal((nE, nT, 4, b.n, nV))
    _close(_last(plan.lift(_first(delta))), _reference_lift(b, delta))


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
