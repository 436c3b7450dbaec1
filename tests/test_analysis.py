import math

import numpy as np
import pytest

from stfr import cli
from stfr.analysis import (
    ConvergenceReport,
    _quadrature,
    _rule,
    l2_error_final,
    l2_error_nodal,
    l2_error_slab,
)
from stfr.basis import make_basis
from stfr.geometry import _evaluate, _point_sets, slab_geometry
from stfr.mesh import interval_mesh, rect_mesh
from stfr.motion import SineDeformation, motion_path
from stfr.physics import Advection1D, SineWave1D, SineWave2D, exact_state
from stfr.st_solver import StateField, initial_condition, march


def _exact_field_1d(mesh, geom, ks, kt, sol):
    bs, bt = make_basis(ks), make_basis(kt)
    x, _, _ = _evaluate(*_point_sets(ks, 1, tuple(bt.nodes)), geom.corners_n,
                        geom.disp)
    t = geom.t_n + (1 + bt.nodes)[:, None] / 2 * geom.dt
    vals = exact_state(sol, x[0].reshape(geom.js.shape), t=t)
    return StateField(vals)


def test_exact_resolvable_field_error_machine_zero(moving_path):
    # a field that coincides with the exact solution at every quadrature
    # point (here: a constant state) measures as zero in both norms
    from stfr.physics import Constant

    m = rect_mesh(4, 4)
    bs, bt = make_basis(2), make_basis(1)
    path = moving_path(SineDeformation(n=(3.0, 3.0)), m, 0.05, 2)
    geom = slab_geometry(m, path[1], path[2], 0.05, bs, bt, t_n=0.05)
    sol = Constant((1.7,))
    vals = np.full((16, 2, 9, 1), 1.7)
    fld = StateField(vals)
    assert l2_error_final(fld, geom, m, path[2], sol, 0.15) <= 1e-14
    assert l2_error_slab(fld, geom, sol) <= 1e-14


def test_interpolated_exact_field_error_small():
    m = interval_mesh(8)
    bs, bt = make_basis(3), make_basis(2)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt, t_n=0.95)
    sol = SineWave1D(1.0)
    fld = _exact_field_1d(m, geom, 3, 2, sol)
    # bounded by the P3 interpolation error of the sine, far below O(1)
    e = l2_error_final(fld, geom, m, m.nodes, sol, 1.0)
    assert e < 5e-4


def test_constant_offset_exactly_measured(moving_path):
    # interpolate the constant itself: error must be exactly 0.01; the
    # second slab, since the first step of a sine deformation moves nothing
    m = rect_mesh(3, 3)
    bs, bt = make_basis(2), make_basis(1)
    path = moving_path(SineDeformation(), m, 0.04, 2)
    geom = slab_geometry(m, path[1], path[2], 0.04, bs, bt, t_n=0.04)
    vals = np.full((9, 2, 9, 1), 0.01)
    fld = StateField(vals)
    from stfr.physics import Constant

    zero = Constant((0.0,))
    assert abs(l2_error_final(fld, geom, m, path[2], zero, 0.08) - 0.01) <= 1e-12
    assert abs(l2_error_slab(fld, geom, zero) - 0.01) <= 1e-12


def test_norm_quadrature_refinement_invariance():
    m = interval_mesh(16)
    sol = SineWave1D(1.0)
    res = march(m, SineDeformation(amp=(0.1,), n=(4.0,)), Advection1D(1.0),
                sol, ks=2, kt=2, dt=0.02, n_steps=2)
    e1 = l2_error_final(res.field, res.geom, m, res.coords_final, sol, 0.04)
    e2 = l2_error_final(res.field, res.geom, m, res.coords_final, sol, 0.04,
                        n_q=2 + 4)
    assert abs(e1 - e2) <= 1e-3 * e1


def test_norm_element_relabel_invariance():
    m = interval_mesh(8)
    sol = SineWave1D(1.0)
    bs, bt = make_basis(2), make_basis(1)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 2, 3, 1))
    fld = StateField(vals)
    e1 = l2_error_final(fld, geom, m, m.nodes, sol, 0.05)
    # relabel: permute elements consistently in mesh and field
    perm = rng.permutation(8)
    import copy

    m2 = copy.deepcopy(m)
    m2.elems = m.elems[perm]
    # rebuild faces for the permuted element order
    from stfr.mesh import _build_faces

    m2.faces, m2.dirichlet = _build_faces(1, m2.elems, [(np.where(perm == 7)[0][0], 1, np.where(perm == 0)[0][0], 0, False)], None)
    geom2 = slab_geometry(m2, m2.nodes, m2.nodes, 0.05, bs, bt)
    fld2 = StateField(vals[perm])
    e2 = l2_error_final(fld2, geom2, m2, m2.nodes, sol, 0.05)
    assert abs(e1 - e2) <= 1e-13


def _einsum_l2(values, sol, w, jac, x, t, interp):
    """The norms' reference: every variable interpolated by einsum, the
    first measured."""
    uq = np.einsum("qp,epv->eqv", interp, values)
    diff2 = (uq[..., 0] - exact_state(sol, *x, t=t)[..., 0]) ** 2
    return math.sqrt(np.einsum("q,eq->", w, jac * diff2)
                     / np.einsum("q,eq->", w, jac))


def test_norms_read_only_the_first_variable():
    # the norms measure density alone: NaN momentum and energy change
    # nothing, and the values match the einsum over every variable; on
    # the first slab of `euler_vortex_p3`, perturbed off the exact field
    cfg = cli.load_case("euler_vortex_p3")
    m, eq = cli.build_mesh(cfg), cli.build_equation(cfg)
    sol = cli.build_exact(cfg, eq)
    ks, kt, dt = cfg.k_s, cfg.k_t, cfg.dt
    bs, bt = make_basis(ks), make_basis(kt)
    path = motion_path(cli.build_motion(cfg), m, dt, 1)
    geom = slab_geometry(m, path[0], path[1], dt, bs, bt, t_n=0.0)
    u = initial_condition(m, path[0], bs, sol)[:, None].repeat(bt.n, axis=1)
    u = u * (1.0 + 0.01 * np.random.default_rng(19).standard_normal(u.shape))
    poisoned = u.copy()
    poisoned[..., 1:] = np.nan
    nE, _, _, nV = u.shape
    top = np.einsum("t,etsv->esv", bt.extrap_right, u)
    C0, C1 = m.elem_corners(path[0]), m.elem_corners(path[1])
    w, interp, x, js, _ = _quadrature(ks, None, ks + 2, C1, np.zeros_like(C1))
    w0, interp0, x0, js0, _ = _quadrature(ks, None, ks + 2, C0,
                                          np.zeros_like(C0))
    ws, interps, xs, jss, b1 = _quadrature(ks, kt, ks + 2, geom.corners_n,
                                           geom.disp)
    cases = [
        (lambda v: l2_error_slab(StateField(v), geom, sol),
         _einsum_l2(u.reshape(nE, -1, nV), sol, ws, dt / 2 * jss, xs,
                    b1 * dt, interps)),
        (lambda v: l2_error_final(StateField(v), geom, m, path[1], sol, dt),
         _einsum_l2(top, sol, w, js, x, dt, interp)),
        (lambda v: l2_error_nodal(v[:, 0], ks, m, path[0], sol, 0.0),
         _einsum_l2(u[:, 0], sol, w0, js0, x0, 0.0, interp0)),
    ]
    for norm, ref in cases:
        got = norm(u)
        assert 0 < got < 1
        assert norm(poisoned) == got
        assert abs(got - ref) <= 1e-14 * ref


def test_second_norm_call_builds_no_table():
    # the rules and point tables are cached per process: each norm, called
    # again on a new field of the same slab, misses no cache
    m = rect_mesh(4, 4)
    bs, bt = make_basis(3), make_basis(2)
    path = motion_path(SineDeformation(n=(3.0, 3.0)), m, 0.05, 2)
    geom = slab_geometry(m, path[1], path[2], 0.05, bs, bt, t_n=0.05)
    sol = SineWave2D()
    caches = (_rule, _point_sets, make_basis)

    def norms(scale):
        fld = StateField(np.full((16, 3, 16, 1), scale))
        l2_error_slab(fld, geom, sol)
        l2_error_final(fld, geom, m, path[2], sol, 0.1)
        l2_error_nodal(fld.values[:, 0], 3, m, path[1], sol, 0.05)

    norms(1.0)
    misses = [c.cache_info().misses for c in caches]
    norms(2.0)
    assert [c.cache_info().misses for c in caches] == misses


def _orders(errors, sizes):
    """order_final of each row of a report over (size, error) rows."""
    rep = ConvergenceReport()
    return [rep.add(s, e, e).order_final for e, s in zip(errors, sizes)]


def test_observed_orders_examples():
    o = _orders([3.24e-3, 7.34e-4], [1 / 8, 1 / 16])
    assert o[1] == pytest.approx(2.14, abs=0.01)
    o = _orders([2.04e-4, 2.67e-5], [1 / 8, 1 / 16])
    assert o[1] == pytest.approx(2.93, abs=0.01)
    o = _orders([1e-3, 1e-3], [1 / 8, 1 / 16])
    assert o[1] == 0.0


def test_observed_orders_power_law_exact():
    sizes = [0.2, 0.1, 0.05, 0.025]
    errors = [3.0 * s**2.75 for s in sizes]
    o = _orders(errors, sizes)
    assert np.allclose(o[1:], 2.75, atol=1e-12)


def test_observed_orders_undefined_marker():
    o = _orders([1e-3, 0.0], [0.1, 0.05])
    assert math.isnan(o[1])


def test_observed_orders_first_row_and_equal_resolution():
    # no order without a previous row, nor between two equal resolutions
    o = _orders([1e-3, 5e-4], [0.1, 0.1])
    assert math.isnan(o[0]) and math.isnan(o[1])


def test_report_csv_and_plot(tmp_path):
    rep = ConvergenceReport()
    rep.add(0.125, 3.24e-3, 2.0e-3, walltime_s=0.5)
    rep.add(0.0625, 7.34e-4, 4.0e-4, walltime_s=1.0, evals_per_slab=17.4,
            jump_max=2.5e-3)
    p = tmp_path / "r.csv"
    rep.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == ("resolution,error_final,error_slab,order_final,"
                        "order_slab,walltime_s,evals_per_slab,jump_max")
    assert len(lines) == 3
    assert lines[1].split(",")[3] == ""  # first row has no order
    assert float(lines[2].split(",")[3]) == pytest.approx(2.14, abs=0.01)
    assert lines[1].split(",")[6] == ""  # no slab solve recorded
    assert lines[2].split(",")[6] == "17.40"
    assert lines[1].split(",")[7] == ""
    assert float(lines[2].split(",")[7]) == 2.5e-3
    rep.to_plot_data(tmp_path / "r.dat")
    dat = (tmp_path / "r.dat").read_text().strip().splitlines()
    assert len(dat) == 2


def test_report_empty_raises(tmp_path):
    rep = ConvergenceReport()
    with pytest.raises(ValueError):
        rep.to_csv(tmp_path / "x.csv")
