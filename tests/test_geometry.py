import numpy as np
import pytest

from stfr.basis import make_basis
from stfr.geometry import (
    GeometryDegeneracyError,
    _evaluate,
    _metric_rows,
    corner_shapes,
    face_points,
    gcl_residual,
    slab_geometry,
    spatial_face_points,
    spatial_geometry,
    spatial_points,
)
from stfr.mesh import disk_mesh, interval_mesh, rect_mesh
from stfr.motion import (
    CircleDeformation,
    RigidOscillation,
    SineDeformation,
    Stationary,
    motion_path,
    node_positions,
)

B2 = make_basis(2)
B1 = make_basis(1)


def test_stationary_1d_jacobian():
    m = interval_mesh(2, 0.0, 1.0)  # elements of length 0.5
    g = slab_geometry(m, m.nodes, m.nodes, 0.1, B2, B1)
    assert np.allclose(g.jac, 0.0125)


def test_rigid_1d_face_normal():
    m = interval_mesh(2, 0.0, 1.0)
    g = slab_geometry(m, m.nodes, m.nodes + 0.02, 0.1, B2, B1)
    n = g.face_m[0, 0, 0, 0]
    n = n / np.linalg.norm(n)
    expect = np.array([-0.1, 0.02]) / np.sqrt(0.0104)
    assert np.allclose(n, expect, atol=1e-14)


def test_stationary_2d_no_temporal_metrics():
    m = rect_mesh(3, 3)
    g = slab_geometry(m, m.nodes, m.nodes, 0.2, B2, B2)
    assert np.abs(g.rows[..., 2]).max() <= 1e-14
    assert np.abs(g.jac - g.jac[:, :1]).max() <= 1e-14


def test_degenerate_geometry_raises():
    m = interval_mesh(2)
    coords1 = m.nodes.copy()
    coords1[1, 0] = -0.6  # crosses the left neighbor: inverted element
    # the first offending volume point, in (element, tau, space) order
    with pytest.raises(GeometryDegeneracyError, match=r"in element 0 at "
                       r"solution point \(tau index 1, spatial index 0\)"):
        slab_geometry(m, m.nodes, coords1, 0.1, B1, B1)


def _mapping_at(Cn, disp, dt, xi, eta, tau):
    """Space-time position (x, y, t), metric rows [M_xi; M_eta; M_tau] and
    |J| of the one-element slab from t = 0 at one reference point."""
    b1 = (1 + tau) / 2
    x, js, tangents = _evaluate(corner_shapes([xi], [eta]), np.array([b1]),
                                Cn, disp)
    rows = _metric_rows(tangents, dt)
    M = np.vstack([rows[:, 0, 0], [0.0, 0.0, js[0, 0]]])
    return np.append(x[:, 0, 0], b1 * dt), M, dt / 2 * js[0, 0]


def _fd_metric_check(mesh, c0, c1, dt, seed):
    """Metric rows vs central finite differences of the inverse mapping."""
    rng = np.random.default_rng(seed)
    Cn = mesh.elem_corners(c0)
    disp = mesh.elem_corners(c1) - Cn
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        e = int(rng.integers(0, mesh.n_elems))
        xi, eta, tau = rng.uniform(-0.9, 0.9, 3)
        _, m_rows, jac = _mapping_at(Cn[e:e + 1], disp[e:e + 1], dt, xi, eta, tau)

        def xmap(a, b, c):
            return _mapping_at(Cn[e:e + 1], disp[e:e + 1], dt, a, b, c)[0]

        # forward jacobian by finite differences, then invert
        J = np.zeros((3, 3))
        for j, d in enumerate(np.eye(3)):
            J[:, j] = (xmap(xi + eps * d[0], eta + eps * d[1], tau + eps * d[2])
                       - xmap(xi - eps * d[0], eta - eps * d[1], tau - eps * d[2])) / (2 * eps)
        fd_rows = np.linalg.det(J) * np.linalg.inv(J)
        worst = max(worst, np.abs(fd_rows - m_rows).max(),
                    abs(np.linalg.det(J) - jac))
    return worst


@pytest.mark.parametrize("presc", [
    Stationary(),
    RigidOscillation(),
    CircleDeformation(),
])
def test_metric_identities_vs_finite_differences(presc):
    mesh = disk_mesh(0) if isinstance(presc, CircleDeformation) else rect_mesh(4, 4)
    c0 = node_positions(presc, mesh, 0.1)
    c1 = node_positions(presc, mesh, 0.15)
    worst = _fd_metric_check(mesh, c0, c1, 0.05, seed=42)
    assert worst <= 1e-7


def test_metric_identities_sine_deformation(moving_path):
    mesh = rect_mesh(4, 4)
    path = moving_path(SineDeformation(n=(3.0, 3.0)), mesh, 0.02, 4)
    worst = _fd_metric_check(mesh, path[3], path[4], 0.02, seed=7)
    assert worst <= 1e-7


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gcl_all_prescriptions(k, moving_path):
    b = make_basis(k)
    cases = []
    m = rect_mesh(4, 4)
    cases.append((m, m.nodes, m.nodes))
    cases.append((m, node_positions(RigidOscillation(), m, 0.0),
                  node_positions(RigidOscillation(), m, 0.05)))
    path = moving_path(SineDeformation(n=(3.0, 3.0)), m, 0.02, 3)
    cases.append((m, path[2], path[3]))
    d = disk_mesh(0)
    cases.append((d, node_positions(CircleDeformation(), d, 0.3),
                  node_positions(CircleDeformation(), d, 0.4)))
    for mesh, c0, c1 in cases:
        g = slab_geometry(mesh, c0, c1, 0.05, b, b)
        assert np.abs(gcl_residual(g)).max() <= 1e-12


def test_gcl_random_motion_1d():
    rng = np.random.default_rng(0)
    m = interval_mesh(6)
    c0 = m.nodes + 0.02 * rng.standard_normal(m.nodes.shape)
    c1 = c0 + 0.03 * rng.standard_normal(m.nodes.shape)
    for k in (1, 2, 3):
        b = make_basis(k)
        g = slab_geometry(m, c0, c1, 0.1, b, b)
        assert np.abs(gcl_residual(g)).max() <= 1e-12


def test_gcl_random_motion_2d():
    rng = np.random.default_rng(1)
    m = rect_mesh(3, 3)
    c0 = m.nodes + 0.02 * rng.standard_normal(m.nodes.shape)
    c1 = c0 + 0.04 * rng.standard_normal(m.nodes.shape)
    for k in (1, 2, 3, 4):
        b = make_basis(k)
        g = slab_geometry(m, c0, c1, 0.1, b, b)
        assert np.abs(gcl_residual(g)).max() <= 1e-12


def test_circle_t0_is_reference():
    d = disk_mesh(1)
    pos = node_positions(CircleDeformation(), d, 0.0)
    assert np.abs(pos - d.nodes).max() <= 1e-14


def test_face_normals_watertight():
    # outward vectors of the two sides of every interior face must cancel
    for mesh, motion in ((rect_mesh(3, 3), SineDeformation()),
                         (disk_mesh(0), CircleDeformation())):
        if isinstance(motion, SineDeformation):
            path = motion_path(motion, mesh, 0.02, 2)
            c0, c1 = path[1], path[2]
        else:
            c0 = node_positions(motion, mesh, 0.2)
            c1 = node_positions(motion, mesh, 0.3)
        g = slab_geometry(mesh, c0, c1, 0.1, B2, B2)
        f = mesh.faces
        ML = g.face_m[f.elem_l, f.edge_l]
        MR = g.face_m[f.elem_r, f.edge_r]
        MRf = np.where(f.flip[:, None, None, None], MR[:, :, ::-1, :], MR)
        # periodic faces share shape, not location: compare vectors only
        assert np.abs(ML + MRf).max() <= 1e-12


def test_spatial_geometry_matches_slab_bottom():
    # MOL/space-time consistency: a MOL stage at the slab's node positions
    # x(tau_j), with the slab's grid velocity, has the slab's geometry at
    # level tau_j, metric rows and face vectors divided by t_tau = dt/2
    dt, t_n = 0.02, 0.02
    for mesh, motion in ((rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0))),
                         (disk_mesh(0), CircleDeformation())):
        path = motion_path(motion, mesh, dt, 2)
        x_n, x_n1 = path[1], path[2]
        disp = x_n1 - x_n
        g = slab_geometry(mesh, x_n, x_n1, dt, B2, B2, t_n)
        sg = spatial_geometry(mesh, x_n, x_n1, dt, B2, t_n)
        assert np.allclose(sg.js[:, 0], g.js_bot, atol=1e-14)
        for j, tau in enumerate(B2.nodes):
            b1 = (1 + tau) / 2
            x_j = x_n + b1 * disp
            sg = spatial_geometry(mesh, x_j, x_j + disp, dt, B2, t_n + b1 * dt)
            pairs = [(sg.js[:, 0], g.js[:, j]),
                     (sg.rows[:, :, 0], g.rows[:, :, j] / (dt / 2)),
                     (sg.face_m[:, :, 0], g.face_m[:, :, j] / (dt / 2)),
                     (_all_face_points(sg)[:, :, :, 0],
                      _all_face_points(g)[:, :, :, j]),
                     (sg.times[0], g.times[j])]
            for mol, slab in pairs:
                assert np.abs(mol - slab).max() <= 1e-13


def test_spatial_geometry_levels_are_stage_geometries():
    # the three RK3 stages of one MOL step, built in one call at the levels
    # tau = s - 1, equal the single-level geometry at x_n + s V_g, t_n + s;
    # n = 3, since the default n = 4 leaves every node of a 4 x 4 mesh still
    dt, t_n = 0.02, 0.02
    fractions = (0.0, 1.0, 0.5)
    for mesh, motion in ((rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0))),
                         (disk_mesh(0), CircleDeformation())):
        path = motion_path(motion, mesh, dt, 2)
        x_n, x_n1 = path[1], path[2]
        g = spatial_geometry(mesh, x_n, x_n1, dt, B2, t_n, fractions)
        assert g.js.shape[1] == len(fractions)
        for j, f in enumerate(fractions):
            x_s = x_n + f * (x_n1 - x_n)
            sg = spatial_geometry(mesh, x_s, x_s + (x_n1 - x_n), dt, B2,
                                  t_n + f * dt)
            pairs = [(g.js[:, j], sg.js[:, 0]),
                     (g.rows[:, :, j], sg.rows[:, :, 0]),
                     (g.face_m[:, :, j], sg.face_m[:, :, 0]),
                     (_all_face_points(g)[:, :, :, j],
                      _all_face_points(sg)[:, :, :, 0]),
                     (g.times[j], sg.times[0])]
            for level, single in pairs:
                assert np.abs(level - single).max() <= 1e-13


def _all_face_points(g):
    """`face_points` of every (element, edge), (dim, nE, n_edges, nT, nFs)."""
    nE, n_edges = g.face_m.shape[:2]
    x = face_points(g, np.repeat(np.arange(nE), n_edges),
                    np.tile(np.arange(n_edges), nE))
    return x.reshape((g.dim, nE, n_edges) + x.shape[2:])


def _at_levels(points, levels):
    """Flat spatial points (xi, eta) repeated at every tau level."""
    xi, eta = points
    n = len(levels)
    return (np.tile(xi, n), None if eta is None else np.tile(eta, n),
            np.repeat(np.asarray(levels, dtype=float), xi.size))


def _owns_buffer(a):
    """True unless `a` is a view into a buffer larger than itself."""
    base = a
    while base.base is not None:
        base = base.base
    return base.nbytes == a.nbytes


def _check_build(g, mesh, Cn, disp, dt, t_n, bs, levels):
    """Every array of the one-evaluation build equals `_evaluate` on its
    own point set, is C-contiguous and owns its buffer."""
    dim, nT = mesh.dim, len(levels)
    shape = (mesh.n_elems, nT, -1)

    def at(points, taus):  # x, js, rows on flat points at every tau level
        xi, eta, tau = _at_levels(points, taus)
        x, js, tangents = _evaluate(corner_shapes(xi, eta), (1 + tau) / 2,
                                    Cn, disp)
        return x, js, _metric_rows(tangents, dt)

    _, js, rows = at(spatial_points(bs.nodes, dim), levels)
    pairs = [(g.jac, dt / 2 * js.reshape(shape)), (g.js, js.reshape(shape)),
             (g.rows, rows.reshape((dim,) + shape + (dim + 1,))),
             (g.times, t_n + (1 + np.asarray(levels)) * dt / 2)]
    for edge in range(2 * dim):
        x, _, rows = at(spatial_face_points(bs, dim, edge), levels)
        normal = rows[0 if dim == 1 or edge % 2 else 1]
        sign = 1.0 if edge in (1, 2) else -1.0
        pairs.append((g.face_m[:, edge],
                      sign * normal.reshape(shape + (dim + 1,))))
        pairs.append((_all_face_points(g)[:, :, edge],
                      x.reshape((dim,) + shape)))
    pairs.append((g.js_bot, at(spatial_points(bs.nodes, dim), [-1.0])[1]))
    for built, ref in pairs:
        assert built.shape == ref.shape
        assert np.abs(built - ref).max() <= 1e-15
    arrays = {k: v for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 8
    for name, a in arrays.items():
        assert a.flags.c_contiguous, name
        assert _owns_buffer(a), name


def _moving_1d_2d(moving_path):
    """(mesh, path) of a 1D and a 2D mesh whose second step moves."""
    m1 = interval_mesh(6)
    m2 = rect_mesh(4, 4)
    sine_1d = SineDeformation(amp=(0.1,), n=(3.0,))
    return [(m1, moving_path(sine_1d, m1, 0.02, 2)),
            (m2, moving_path(SineDeformation(n=(3.0, 3.0)), m2, 0.02, 2))]


@pytest.mark.parametrize("kt", [0, 1, 2])
def test_slab_geometry_one_evaluation_layout(kt, moving_path):
    dt, t_n = 0.02, 0.02
    bt = make_basis(kt)
    for mesh, path in _moving_1d_2d(moving_path):
        g = slab_geometry(mesh, path[1], path[2], dt, B2, bt, t_n)
        Cn = mesh.elem_corners(path[1])
        _check_build(g, mesh, Cn, mesh.elem_corners(path[2]) - Cn, dt, t_n,
                     B2, bt.nodes)


def test_spatial_geometry_one_evaluation_layout(moving_path):
    dt, t_n = 0.02, 0.02
    fractions = (0.0, 1.0, 0.5)  # the SSP-RK3 stage fractions
    for mesh, path in _moving_1d_2d(moving_path):
        g = spatial_geometry(mesh, path[1], path[2], dt, B2, t_n, fractions)
        Cn = mesh.elem_corners(path[1])
        vel = (path[2] - path[1]) / dt
        _check_build(g, mesh, Cn, 2.0 * mesh.elem_corners(vel), 2.0, t_n,
                     B2, [f * dt - 1.0 for f in fractions])


@pytest.mark.parametrize("mol", [False, True], ids=["slab", "mol"])
def test_face_points_match_evaluate(mol, moving_path):
    # any faces, in any order and repeated: each (elem, edge) gets the
    # `_evaluate` positions of its edge's flux points at every level
    dt, t_n = 0.02, 0.02
    rng = np.random.default_rng(22)
    for mesh, path in _moving_1d_2d(moving_path):
        dim = mesh.dim
        if mol:
            fractions = (0.0, 1.0, 0.5)
            g = spatial_geometry(mesh, path[1], path[2], dt, B2, t_n, fractions)
            levels = [f * dt - 1.0 for f in fractions]
        else:
            g = slab_geometry(mesh, path[1], path[2], dt, B2, B1, t_n)
            levels = B1.nodes
        elem = rng.integers(0, mesh.n_elems, 12)
        edge = rng.integers(0, 2 * dim, 12)
        x = face_points(g, elem, edge)
        assert x.shape == (dim, 12, len(levels), 1 if dim == 1 else B2.n)
        for i, (e, ed) in enumerate(zip(elem, edge)):
            xi, eta, tau = _at_levels(spatial_face_points(B2, dim, ed), levels)
            ref, _, _ = _evaluate(corner_shapes(xi, eta), (1 + tau) / 2,
                                  g.corners_n[e:e + 1], g.disp[e:e + 1])
            assert np.abs(x[:, i] - ref.reshape(x[:, i].shape)).max() <= 1e-15
