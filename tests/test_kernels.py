"""The shared FR kernels against plain einsum and per-face references.

`LevelPlan.spatial_divergence`, `_traces_all_edges`, `LevelPlan.face_jumps`
and `LevelPlan.lift` run on the solvers' states, (nV, nE, nT, nS), their
contractions single GEMMs over row-indexed gathers.  Here each is
recomputed in the same layout from the 1D basis tables with einsum, face
by face, on the disk mesh of `wave2d_circle_p2`, which has flipped and
Dirichlet faces, for advection and Euler, on a slab plan at all its levels
(nT = 3) and at one level picked by a slice (nT = 1, as the method of
lines runs it).  The whole slab and MOL residuals are checked against
the same references, and the Euler divergence against its batched-matmul
form, also on the first slab of `euler_vortex_p3`.  Every table the
residuals hand `_contract` is checked for the layout its GEMM reads: rows
in, columns out, C-contiguous (or a column block of such a table), never a
transposed view.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from stfr import cli, st_solver
from stfr.basis import make_basis
from stfr.geometry import face_points, slab_geometry
from stfr.mesh import interval_mesh, rect_mesh
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
    _derivative_table,
    _edge_tables,
    _traces_all_edges,
    _transformed_common_flux,
    _transformed_normal_flux,
    _weights,
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
    u = initial_condition(mesh, path[1], bs, sol)[:, :, None].repeat(nT, axis=2)
    u = u * (1.0 + 0.01 * rng.standard_normal(u.shape))
    return eq, sol, mesh, geom, plan, levels, cfg.k_s, u


def _reference_derivatives(D, a):
    """d/dxi and d/deta of nodal a (..., nS), points (eta, xi)."""
    n1 = D.shape[0]
    a4 = a.reshape(a.shape[:-1] + (n1, n1))
    dxi = np.einsum("ij,...aj->...ai", D, a4)
    deta = np.einsum("ij,...jb->...ib", D, a4)
    return [d.reshape(a.shape) for d in (dxi, deta)]


def _reference_traces(b, u):
    """Traces on edges (S, E, N, W) = (eta -1, xi +1, eta +1, xi -1)."""
    u4 = u.reshape(u.shape[:-1] + (b.n, b.n))
    return np.stack([np.einsum("j,...ji->...i", b.extrap_left, u4),
                     np.einsum("j,...ij->...i", b.extrap_right, u4),
                     np.einsum("j,...ji->...i", b.extrap_right, u4),
                     np.einsum("j,...ij->...i", b.extrap_left, u4)], axis=-2)


def _reference_divergence(eq, D, weights, u):
    """sum_dir M_dir . d_dir F_st(u) from the metric rows' `_weights`."""
    if eq.n_vars == 1:
        return sum(w * du for w, du in zip(weights, _reference_derivatives(D, u)))
    F = np.stack([*flux(eq, u), u])
    return sum(np.einsum("etsc,cvets->vets", M, dF) for M, dF in
               zip(weights, _reference_derivatives(D, F)))


def _reference_jumps(eq, sol, mesh, geom, levels, tr):
    """Outward flux jumps on every edge, face by face, from traces tr
    (nV, nE, nT, n_edges, nFs) at the levels `levels`: the common flux
    minus the local one, advection's the upwind max(w, 0) QL + min(w, 0) QR
    and w Q of its outward speed w, Euler's the Roe-ALE flux and M . F_st."""
    def common(QL, QR, w):
        if eq.n_vars == 1:
            return np.maximum(w, 0.0) * QL + np.minimum(w, 0.0) * QR
        return _transformed_common_flux(eq, QL, QR, w)

    def normal(Q, w):
        return w * Q if eq.n_vars == 1 else _transformed_normal_flux(eq, Q, w)

    ref = np.full_like(tr, np.nan)
    f = mesh.faces
    for eL, gL, eR, gR, flip in zip(f.elem_l, f.edge_l, f.elem_r, f.edge_r, f.flip):
        w = _weights(eq, geom.face_m[eL, gL, levels])
        QL, QR = tr[:, eL, :, gL], tr[:, eR, :, gR]
        if flip:
            QR = QR[..., ::-1]
        com = common(QL, QR, w)
        dR = normal(QR, w) - com
        ref[:, eL, :, gL] = com - normal(QL, w)
        ref[:, eR, :, gR] = dR[..., ::-1] if flip else dR
    for e, g in mesh.dirichlet:
        w = _weights(eq, geom.face_m[e, g, levels])
        ext = exact_state(sol, *face_points(geom, [e], [g])[:, 0, levels],
                          t=geom.times[levels, None])
        QB = tr[:, e, :, g]
        ref[:, e, :, g] = common(QB, ext, w) - normal(QB, w)
    assert not np.isnan(ref).any()  # every edge is a face side
    return ref


def _reference_lift(b, delta):
    """Correction field (nV, nE, nT, nS) of edge jumps (nV, nE, nT, 4, nFs):
    -g'_L on minus faces, +g'_R on plus faces, constant along the face."""
    gl, gr = b.corr_deriv_left, b.corr_deriv_right
    ref = (-np.einsum("a,...b->...ab", gl, delta[..., 0, :])
           + np.einsum("b,...a->...ab", gr, delta[..., 1, :])
           + np.einsum("a,...b->...ab", gr, delta[..., 2, :])
           - np.einsum("b,...a->...ab", gl, delta[..., 3, :]))
    return ref.reshape(delta.shape[:3] + (-1,))


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
    inflow = u[:, :, 0] * 1.01
    total = _reference_spatial(eq, sol, mesh, geom, slice(None), u)
    total += geom.js * np.einsum("tj,vejs->vets", bt.diff, u)
    ubot = np.einsum("t,vets->ves", bt.extrap_left, u)
    d_out = geom.js_bot * (ubot - inflow)
    total -= np.einsum("ves,t->vets", d_out, bt.corr_deriv_left)
    _close(SlabOperator(mesh, geom, eq, inflow, sol).residual(u),
           -total / geom.jac)
    op = MolOperator(mesh, eq, sol).bind_degree(geom)
    for j in range(u.shape[2]):
        total = _reference_spatial(eq, sol, mesh, geom, slice(j, j + 1),
                                   u[:, :, j:j + 1])
        _close(op.residual(u[:, :, j], j), -total[:, :, 0] / geom.jac[:, j])


def test_spatial_divergence(setup):
    eq, _, _, _, plan, levels, ks, u = setup
    ref = _reference_divergence(eq, make_basis(ks).diff,
                                plan.weights[:, :, levels], u)
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
    u = initial_condition(mesh, path[0], bs, sol)[:, :, None].repeat(bt.n, axis=2)
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
    u = initial_condition(mesh, path[0], bs, sol)[:, :, None].repeat(bt.n, axis=2)
    u = u * (1.0 + 0.01 * np.random.default_rng(30).standard_normal(u.shape))
    return LevelPlan(mesh, geom, eq, sol), geom, u


def _batched_divergence(eq, D, rows, u):
    """The Euler divergence with every derivative a batched matmul and
    every scaling a broadcast of the metric rows (dim, nE, nT, nS, dim+1)."""
    n = len(D)
    out = np.zeros_like(u)
    for c, F in enumerate((*flux(eq, u), u)):
        F3 = F.reshape(-1, n, n)  # (nV nE nT, eta, xi)
        for M, dF in ((rows[0], np.matmul(F3, D.T)), (rows[1], np.matmul(D, F3))):
            out += dF.reshape(u.shape) * M[..., c]
    return out


def test_euler_divergence_equals_the_batched_form(vortex):
    # at all levels, as a slab runs it, and at each level alone, as a MOL
    # stage runs it
    plan, geom, u = vortex
    D = make_basis(plan.ks).diff
    cases = [(u, slice(None))] + [(u[:, :, j:j + 1].copy(), slice(j, j + 1))
                                  for j in range(u.shape[2])]
    for v, at in cases:
        ref = _batched_divergence(plan.eq, D, geom.rows[:, :, at], v)
        got = plan.spatial_divergence(v, at)
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


def test_residuals_equal_the_einsum_reference(setup):
    # on the disk, with flipped and Dirichlet faces: the slab residual at
    # all levels and the MOL residual at each level alone; the one-level
    # setups run the slab from their level repeated
    eq, sol, mesh, geom, _, _, _, u = setup
    if u.shape[2] == 1:
        u = u.repeat(3, axis=2) * np.array([0.99, 1.0, 1.01])[:, None]
    _check_residuals(eq, sol, mesh, geom, u)


def test_euler_residuals_equal_the_einsum_reference_on_the_vortex(vortex):
    plan, geom, u = vortex
    _check_residuals(plan.eq, None, plan.mesh, geom, u)


def test_traces(setup):
    _, _, _, _, _, _, ks, u = setup
    _close(_traces_all_edges(u, ks, 2), _reference_traces(make_basis(ks), u))


def test_face_jumps(setup):
    eq, sol, mesh, geom, plan, levels, ks, u = setup
    ref = _reference_jumps(eq, sol, mesh, geom, levels,
                           _reference_traces(make_basis(ks), u))
    _close(plan.face_jumps(u, levels), ref)


def test_lift(setup):
    _, _, _, _, plan, _, ks, u = setup
    b = make_basis(ks)
    rng = np.random.default_rng(7)
    delta = rng.standard_normal(u.shape[:3] + (4, b.n))
    _close(plan.lift(delta), _reference_lift(b, delta))


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


def _assert_gemm_layout(table):
    """A `_contract` table is read as stored: C-contiguous, or a column
    block of a C-contiguous table, so its columns run at unit stride, which
    a transposed view of a table of several columns never does; read-only."""
    whole = table if table.base is None else table.base
    assert whole.flags.c_contiguous and table.strides[-1] == table.itemsize
    assert not table.flags.writeable


@pytest.mark.parametrize("dim", [1, 2])
def test_contract_tables_are_stored_the_way_the_gemm_reads_them(dim):
    # each cached table is (rows in, columns out): contracting the nodal
    # values of xi gives its derivative 1 along xi and 0 along eta, and
    # the constant 1 extrapolates to 1 on every flux point and on the slab
    # bottom; the lift and the temporal spread take an edge's or a spatial
    # point's values into the nS or nT nS solution points
    ks, kt = 3, 2
    b, bt = make_basis(ks), make_basis(kt)
    nS, nFs = b.n ** dim, b.n ** (dim - 1)
    xi = np.tile(b.nodes, nS // b.n)
    table = _derivative_table(ks, dim)
    assert table.shape == (nS, dim * nS)
    assert np.allclose(xi @ table, np.repeat([1.0, 0.0][:dim], nS), atol=1e-12)
    extrap, lift = _edge_tables(ks, dim)
    assert extrap.shape == (nS, 2 * dim * nFs) and lift.shape == (2 * dim * nFs, nS)
    assert np.allclose(np.ones(nS) @ extrap, 1.0)
    mesh = rect_mesh(2, 2) if dim == 2 else interval_mesh(2)
    geom = slab_geometry(mesh, mesh.nodes, mesh.nodes, 0.1, b, bt)
    eq = Advection2D(0.5, 0.2) if dim == 2 else Advection1D(0.5)
    op = SlabOperator(mesh, geom, eq, np.zeros((1, mesh.n_elems, nS)))
    assert op.bottom.shape == (bt.n * nS, nS) and op.spread.shape == (nS, bt.n * nS)
    assert np.allclose(np.ones(bt.n * nS) @ op.bottom, 1.0)
    for t in (table, extrap, lift, op.bottom, op.spread):
        _assert_gemm_layout(t)


def test_contract_is_one_gemm_on_the_stored_table():
    # rows in, columns out, bit for bit the GEMM of the rows with the table
    # as stored: no transposed view of it reaches the matmul
    rng = np.random.default_rng(8)
    a, table = rng.standard_normal((4, 6, 5)), rng.standard_normal((5, 3))
    assert np.array_equal(st_solver._contract(a, table), a.reshape(-1, 5) @ table)
    assert ".T" not in inspect.getsource(st_solver._contract).split('"""')[-1]


def test_residuals_hand_contract_only_stored_tables(setup, monkeypatch):
    # every table a slab or MOL residual contracts with, advection and
    # Euler, is read in its stored layout, and its rows match a trailing
    # block of the contracted array
    eq, sol, mesh, geom, _, _, _, u = setup
    seen = []
    contract = st_solver._contract

    def spy(a, table):
        seen.append(table)
        assert table.shape[0] in {int(np.prod(a.shape[k:])) for k in range(a.ndim)}
        return contract(a, table)

    monkeypatch.setattr(st_solver, "_contract", spy)
    if u.shape[2] == 1:
        MolOperator(mesh, eq, sol).bind_degree(geom).residual(u[:, :, 0], 1)
    else:
        SlabOperator(mesh, geom, eq, u[:, :, 0], sol).residual(u)
    assert len(seen) >= 3
    for table in seen:
        _assert_gemm_layout(table)
