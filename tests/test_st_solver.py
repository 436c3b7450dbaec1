import numpy as np
import pytest

from stfr.analysis import ConvergenceReport, l2_error_final
from stfr.basis import diff_matrix, gauss_legendre, interp_matrix, make_basis
from stfr import cli
from stfr.cli import main
from stfr.geometry import _evaluate, _point_sets, slab_geometry, spatial_geometry
from stfr.mesh import disk_mesh, interval_mesh, rect_mesh
from stfr.motion import (
    CircleDeformation,
    RigidOscillation,
    SineDeformation,
    Stationary,
    motion_path,
    node_positions,
)
from stfr.physics import (
    Advection1D,
    Advection2D,
    Constant,
    Euler2D,
    IsentropicVortex,
    SineWave1D,
    SineWave2D,
    exact_state,
)
from stfr.mol_solver import MolOperator, march_mol
from stfr.st_solver import (
    LevelPlan,
    PseudoControls,
    PseudoConvergenceError,
    SlabOperator,
    _traces_all_edges,
    _weights,
    advance_slab,
    initial_condition,
    march,
)


EULER_FREESTREAM = (1.0, 0.5, 0.5, 1.0 / 0.4 + 0.25)


def test_constant_field_stationary_zero_residual():
    m = interval_mesh(8)
    bs = bt = make_basis(2)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt)
    inflow = np.full((1, 8, 3), 0.7)
    u = np.full((1, 8, 3, 3), 0.7)
    r = SlabOperator(m, geom, Advection1D(1.0), inflow).residual(u)
    assert np.abs(r).max() <= 1e-13


@pytest.mark.parametrize("presc", [
    Stationary(), RigidOscillation(), SineDeformation()])
def test_freestream_residual_advection(presc):
    m = rect_mesh(6, 6)
    bs = bt = make_basis(2)
    path = motion_path(presc, m, 0.02, 3) if isinstance(presc, SineDeformation) \
        else np.stack([node_positions(presc, m, t) for t in (0.04, 0.06)])
    c0, c1 = path[-2], path[-1]
    geom = slab_geometry(m, c0, c1, 0.02, bs, bt)
    inflow = np.full((1, 36, 9), 2.0)
    u = np.full((1, 36, 3, 9), 2.0)
    r = SlabOperator(m, geom, Advection2D(), inflow).residual(u)
    assert np.abs(r).max() <= 1e-12


def test_freestream_residual_euler_moving(moving_path):
    m = rect_mesh(4, 4)
    bs = bt = make_basis(2)
    path = moving_path(SineDeformation(n=(3.0, 3.0)), m, 0.02, 2)
    geom = slab_geometry(m, path[1], path[2], 0.02, bs, bt)
    q = np.array(EULER_FREESTREAM)[:, None, None]
    inflow = np.tile(q, (1, 16, 9))
    u = np.tile(q[..., None], (1, 16, 3, 9))
    r = SlabOperator(m, geom, Euler2D(), inflow).residual(u)
    assert np.abs(r).max() <= 1e-11


def test_states_lead_with_the_variable_axis():
    # on Euler, where nV = 4 tells the layouts apart, every state the
    # solvers take or return is (nV, nE, ...): the exact and initial states,
    # a slab and its top face, a MOL state, and both residuals
    m = rect_mesh(3, 2, -2.0, 2.0, -2.0, 2.0)
    eq, sol = Euler2D(), IsentropicVortex(period=4.0)
    bs, bt, dt = make_basis(2), make_basis(1), 0.05
    x = np.zeros((6, 9))
    assert exact_state(sol, x, x).shape == (4, 6, 9)
    u0 = initial_condition(m, m.nodes, bs, sol)
    assert u0.shape == (4, 6, 9)
    assert np.all((0.8 < u0[0]) & (u0[0] <= 1.0)) and np.all(u0[3] > 1.5)
    res = march(m, Stationary(), eq, sol, 2, 1, dt, 1)
    assert res.field.values.shape == (4, 6, 2, 9)
    assert res.top.shape == (4, 6, 9)
    assert march_mol(m, Stationary(), eq, sol, 2, dt, 1).field.values.shape == (4, 6, 9)
    u = res.field.values
    geom = slab_geometry(m, m.nodes, m.nodes, dt, bs, bt)
    assert SlabOperator(m, geom, eq, u0).residual(u).shape == u.shape
    mol = MolOperator(m, eq).bind_degree(spatial_geometry(m, m.nodes, m.nodes, dt, bs, 0.0))
    assert mol.residual(u0).shape == u0.shape


def test_p1_exact_linear_solution_residual(monkeypatch):
    # u = x - c t solves the PDE; with analytic-boundary data the degree-1
    # space-time scheme must resolve it to round-off
    def linear_exact(sol, x, y=None, t=0.0):
        return np.asarray(x - 1.0 * np.asarray(t))[None]

    m = interval_mesh(1, periodic=False)
    bs = bt = make_basis(1)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.1, bs, bt)
    x, _, _ = _evaluate(*_point_sets(1, 1, tuple(bt.nodes)), geom.corners_n,
                        geom.disp)
    xs = x[0].reshape(geom.js.shape)
    ts = geom.t_n + (1 + bt.nodes)[:, None] / 2 * geom.dt
    vals = (xs - ts)[None]
    bot_x = 0.5 * (1 + bs.nodes)  # element [0,1] spatial points
    inflow = bot_x[None, None, :]

    monkeypatch.setattr("stfr.st_solver.exact_state", linear_exact)
    op = SlabOperator(m, geom, Advection1D(1.0), inflow, bc=SineWave1D())
    r = op.residual(vals)
    assert np.abs(r).max() <= 1e-12


def test_residual_linearity_advection():
    m = interval_mesh(8)
    bs = bt = make_basis(2)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.05, bs, bt)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((1, 8, 3, 3))
    v = rng.standard_normal((1, 8, 3, 3))
    iu = rng.standard_normal((1, 8, 3))
    iv = rng.standard_normal((1, 8, 3))
    eq = Advection1D(1.0)

    def r(vals, infl):
        return SlabOperator(m, geom, eq, infl).residual(vals)

    a, b = 1.7, -0.6
    lhs = r(a * u + b * v, a * iu + b * iv)
    rhs = a * r(u, iu) + b * r(v, iv)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_pseudo_march_freestream_immediate():
    m = rect_mesh(4, 4)
    bs = bt = make_basis(1)
    geom = slab_geometry(m, m.nodes, m.nodes, 0.1, bs, bt)
    inflow = np.full((1, 16, 4), 1.0)
    op = SlabOperator(m, geom, Advection2D(), inflow)
    u, stats = op.march(np.full((1, 16, 2, 4), 1.0), PseudoControls())
    assert stats.iterations <= 1


def test_march_convergence_contract():
    m = interval_mesh(16)
    res = march(m, Stationary(), Advection1D(1.0), SineWave1D(1.0),
                ks=2, kt=2, dt=1 / 32, n_steps=1)
    st = res.stats[0]
    assert st.final_residual <= st.initial_residual * 1e-10


def test_march_max_iters_raises():
    m = interval_mesh(16)
    with pytest.raises(PseudoConvergenceError) as exc:
        march(m, Stationary(), Advection1D(1.0), SineWave1D(1.0),
              ks=2, kt=2, dt=1 / 32, n_steps=1,
              controls=PseudoControls(max_iters=5))
    assert exc.value.achieved_drop < 10
    assert exc.value.iterations == 5


def test_invalid_controls(capsys):
    # the pseudo step of the explicit iteration is gone with it
    assert main(["run", "compare_sine_deform_p2",
                 "--set", "pseudo.sigma_cfl=0.1"]) == 1
    assert "pseudo.sigma_cfl: unknown key" in capsys.readouterr().err
    with pytest.raises(ValueError):
        PseudoControls(drop_orders=0.5)


def test_advance_slab_constant_top(moving_path):
    m = rect_mesh(4, 4)
    path = moving_path(SineDeformation(n=(3.0, 3.0)), m, 0.02, 2)
    inflow = np.full((1, 16, 9), 3.0)
    u, geom, top, stats = advance_slab(
        inflow, m, path[1], path[2], 0.02, 0.02, Advection2D(),
        make_basis(2), make_basis(2))
    assert np.abs(top - 3.0).max() <= 1e-12


def test_temporal_interp_weights_kt1():
    b = make_basis(1)
    assert np.allclose(b.extrap_right, [-0.3660254, 1.3660254], atol=1e-7)


def test_two_slabs_vs_one_both_valid():
    m = interval_mesh(8)
    r1 = march(m, Stationary(), Advection1D(1.0), SineWave1D(1.0),
               ks=2, kt=1, dt=0.125, n_steps=2)
    r2 = march(m, Stationary(), Advection1D(1.0), SineWave1D(1.0),
               ks=2, kt=1, dt=0.25, n_steps=1)
    assert np.all(np.isfinite(r1.top)) and np.all(np.isfinite(r2.top))


@pytest.mark.parametrize("ks,kt", [(1, 1), (2, 2), (3, 3)])
def test_freestream_marching_all_prescriptions(ks, kt, moving_path):
    eq2 = Advection2D()
    const = Constant((1.0,))
    cases = [
        (rect_mesh(4, 4), Stationary(), "periodic"),
        (rect_mesh(4, 4), RigidOscillation(), "periodic"),
        (rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0)), "periodic"),
        (disk_mesh(0), CircleDeformation(), "dirichlet"),
    ]
    for mesh, presc, bckind in cases:
        if not isinstance(presc, Stationary):
            moving_path(presc, mesh, 0.04, 5)
        res = march(mesh, presc, eq2, const, ks=ks, kt=kt, dt=0.04, n_steps=5)
        assert np.abs(res.top - 1.0).max() <= 1e-11, (presc, ks, kt)


def test_conservation_periodic_advection(mass):
    # integral of u over the deformed domain is constant across slabs
    m = rect_mesh(6, 6)
    eq = Advection2D()
    sol = SineWave2D()
    # mass at each slab boundary, from the slab callback
    path = motion_path(SineDeformation(), m, 0.02, 4)
    vals = {"masses": []}

    def cb2(u, geom, top):
        k = len(vals["masses"]) + 1
        vals["masses"].append(mass(m, path[k], geom.ks, top))

    march(m, SineDeformation(), eq, sol, ks=2, kt=2, dt=0.02, n_steps=4,
          slab_callback=cb2)
    masses = np.array(vals["masses"])
    assert np.abs(masses - masses[0]).max() <= 1e-10


def test_conservation_periodic_advection_1d(mass):
    m = interval_mesh(12)
    sol = SineWave1D(1.0)
    path = motion_path(SineDeformation(amp=(0.1,), n=(4.0,)), m, 0.02, 5)
    vals = []

    def cb(u, geom, top):
        vals.append(mass(m, path[len(vals) + 1], geom.ks, top))

    march(m, SineDeformation(amp=(0.1,), n=(4.0,)), Advection1D(1.0), sol,
          ks=2, kt=2, dt=0.02, n_steps=5, slab_callback=cb)
    vals = np.array(vals)
    assert np.abs(vals - vals[0]).max() <= 1e-10


def test_mass_balance_on_the_disk(mass):
    # every boundary face of the disk is Dirichlet: per slab, the change of
    # mass equals minus the space-time integral of the upwind flux through
    # the boundary, w QB + min(w, 0) (ext - QB) of the outward speed w at the
    # Dirichlet faces and the plan's Dirichlet states
    cfg = cli.load_case("wave2d_circle_p2")
    mesh, eq = cli.build_mesh(cfg), cli.build_equation(cfg)
    motion, sol = cli.build_motion(cfg), cli.build_exact(cfg, eq)
    bs, bt = make_basis(cfg.k_s), make_basis(cfg.k_t)
    n_steps = 4
    path = motion_path(motion, mesh, cfg.dt, n_steps)

    masses = [mass(mesh, path[0], cfg.k_s,
                   initial_condition(mesh, path[0], bs, sol))]
    defects = []

    def balance(u, geom, top):
        plan = LevelPlan(mesh, geom, eq, sol)
        tr = _traces_all_edges(u, cfg.k_s, mesh.dim)
        bound = mesh.side_rows(tr.shape[2])[2]
        QB = tr.reshape(len(tr), -1, tr.shape[-1]).take(bound, axis=1)
        w = _weights(eq, geom.face_m[tuple(mesh.dirichlet.T)])
        flux = w * QB + np.minimum(w, 0.0) * (plan.d_ext - QB)
        outflow = np.einsum("t,f,dtf->", bt.weights, bs.weights, flux[0])
        masses.append(mass(mesh, path[len(masses)], cfg.k_s, top))
        defects.append(masses[-1] - masses[-2] + outflow)

    march(mesh, motion, eq, sol, cfg.k_s, cfg.k_t, cfg.dt, n_steps,
          controls=cli.build_pseudo(cfg), slab_callback=balance)
    assert len(defects) == n_steps
    assert np.abs(np.diff(masses)).min() >= 1e-3  # the balance is not 0 = 0
    assert np.abs(defects).max() <= 1e-12


@pytest.mark.parametrize("ks, kt, dts", [
    (7, 1, (1 / 8, 1 / 16, 1 / 32)),
    (9, 2, (1 / 4, 1 / 8, 1 / 16)),
])
def test_temporal_superconvergence_moving_mesh(ks, kt, dts):
    # error_final converges as dt^(2 kt + 1) on an oscillating 1D mesh; k_s
    # is high enough that the spatial error stays below the temporal one
    m = interval_mesh(8)
    motion = RigidOscillation(amp=(0.05,), omega=(2 * np.pi,))
    sol = SineWave1D(1.0)
    report = ConvergenceReport()
    for dt in dts:
        res = march(m, motion, Advection1D(1.0), sol, ks, kt, dt,
                    int(round(0.5 / dt)))
        e = l2_error_final(res.field, res.geom, m, res.coords_final, sol, 0.5)
        report.add(dt, e, e)
    assert abs(report.rows[-1].order_final - (2 * kt + 1)) <= 0.3


@pytest.mark.parametrize("ks, kt", [(7, 1), (9, 2)])
def test_temporal_jump_order(ks, kt):
    # the largest slab jump J = RMS(u_bot - inflow) falls as dt^(kt + 1)
    # on the oscillating 1D mesh above, over each halving of dt
    m = interval_mesh(8)
    motion = RigidOscillation(amp=(0.05,), omega=(2 * np.pi,))
    jumps = []
    for dt in (1 / 8, 1 / 16, 1 / 32):
        res = march(m, motion, Advection1D(1.0), SineWave1D(1.0), ks, kt, dt,
                    int(round(0.5 / dt)))
        jumps.append(max(st.jump for st in res.stats))
    orders = np.log2(np.array(jumps[:-1]) / jumps[1:])
    assert np.all(np.abs(orders - (kt + 1)) <= 0.3), orders


def test_run_reports_the_largest_jump(tmp_path, capsys):
    # the result line and the CSV carry the largest slab jump of the run
    cfg = cli.load_case("wave1d_stationary_p2p2")
    cfg.t_final, cfg.output_dir = 0.125, str(tmp_path)
    eq = cli.build_equation(cfg)
    res = march(cli.build_mesh(cfg), cli.build_motion(cfg), eq,
                cli.build_exact(cfg, eq), cfg.k_s, cfg.k_t, cfg.dt, 4)
    jump = max(st.jump for st in res.stats)
    assert jump > 0
    row = cli.run_case(cfg)
    assert row.jump_max == jump
    lines = (tmp_path / f"{cfg.name}.csv").read_text().splitlines()
    assert lines[0].endswith(",jump_max")
    assert float(lines[1].split(",")[-1]) == pytest.approx(jump, rel=1e-6)
    assert main(["run", "wave1d_stationary_p2p2", "--set", "t_final=0.125"]) == 0
    assert f"jump_max={jump:.3e} " in capsys.readouterr().out


def _dg_in_time_amplification(kt: int, mu: complex) -> complex:
    """Dense DG-in-time solve for du/dtau = mu u, independent assembly."""
    b = make_basis(kt)
    xq, wq = gauss_legendre(kt + 3)
    L = interp_matrix(b.nodes, xq)
    be = make_basis(kt + 2)
    to_e = interp_matrix(b.nodes, be.nodes)
    De = diff_matrix(be.nodes)
    from_e = interp_matrix(be.nodes, xq)
    dL = from_e @ (De @ to_e)
    lp, lm = b.extrap_right, b.extrap_left
    K = np.einsum("q,qi,qj->ij", wq, dL, L)   # K_ij = int L_i' L_j
    M = np.einsum("q,qi,qj->ij", wq, L, L)
    A = (-K + np.outer(lp, lp) - mu * M).astype(complex)
    u = np.linalg.solve(A, lm.astype(complex))
    return complex(lp @ u)


def _slab_temporal_operator(kt: int):
    """A single stationary 1D element with c = 0 advection reduces the slab
    residual to its temporal operator: R(u) = r0 + A u on tau == t."""
    m = interval_mesh(1, periodic=True)
    bs, b = make_basis(0), make_basis(kt)
    geom = slab_geometry(m, m.nodes, m.nodes, 2.0, bs, b)  # tau == t
    op = SlabOperator(m, geom, Advection1D(0.0), np.ones((1, 1, 1)))
    n = kt + 1
    r0 = op.residual(np.zeros((1, 1, n, 1)))[0, 0, :, 0]
    A = np.stack([op.residual(e.reshape(1, 1, n, 1))[0, 0, :, 0] - r0
                  for e in np.eye(n)], axis=1)
    return A, r0, b


def test_slab_operator_matches_temporal_amplification():
    # the homogeneous part of the slab residual is the temporal FR operator
    # (nodal derivative with the causal bottom-face correction g'_L)
    A, _, b = _slab_temporal_operator(2)
    expect = -(b.diff - np.outer(b.corr_deriv_left, b.extrap_left))
    assert np.abs(A - expect).max() <= 1e-13


@pytest.mark.parametrize("kt", [1, 2, 3])
def test_dg_gauss_amplification_match(kt):
    # FR in time on Gauss points is the DG-Gauss scheme (Huynh 2023): the
    # slab's amplification for du/dtau = mu u matches a dense DG-in-time solve
    A, r0, b = _slab_temporal_operator(kt)
    n = kt + 1
    for mu in (0.25, -0.8, 1.5, 0.5j, 2.0j, -1.0 + 0.7j, 0.4, -1.0, 0.9j):
        g_fr = b.extrap_right @ np.linalg.solve(A + mu * np.eye(n), -r0)
        assert abs(g_fr - _dg_in_time_amplification(kt, mu)) <= 1e-12
