import numpy as np
import pytest

from stfr.basis import make_basis
from stfr.geometry import spatial_geometry
from stfr.mesh import disk_mesh, interval_mesh, rect_mesh
from stfr.motion import (
    CircleDeformation,
    RigidOscillation,
    SineDeformation,
    Stationary,
    motion_path,
)
from stfr.physics import (
    Advection1D,
    Advection2D,
    Constant,
    Euler2D,
    IsentropicVortex,
    SineWave1D,
    SineWave2D,
)
from stfr.mol_solver import (
    STAGE_OFFSETS,
    MolOperator,
    march_mol,
    mol_stable_dt,
    rk3_physical_step,
    ssp_rk3_step,
)
from stfr.analysis import l2_error_nodal
from stfr.st_solver import initial_condition


def mol_residual(u, ks, mesh, coords_n, coords_n1, dt, eq, t_n=0.0, bc=None):
    """du/dt of the degree-ks values u at t_n with the nodes moving from
    `coords_n` to `coords_n1` over dt, from the operator built the way
    `rk3_physical_step` builds it, at one level."""
    geom = spatial_geometry(mesh, coords_n, coords_n1, dt, make_basis(ks), t_n)
    return MolOperator(mesh, eq, bc).bind_degree(geom).residual(u)


def test_grid_velocity_trivia():
    # spatial_geometry forms V_g = (x_{n+1} - x_n) / dt from the step's end
    # positions: the face vectors of one 1D element read (n, -V_g n)
    m = interval_mesh(1, 0.5, 1.0)
    c0 = m.nodes
    bs = make_basis(2)
    g = spatial_geometry(m, c0, c0 + 0.02, 0.1, bs, 0.0)
    n = g.face_m[0, :, 0, 0, 0]
    assert np.allclose(n, [-1.0, 1.0])
    assert np.allclose(g.face_m[0, :, 0, 0, 1], -0.2 * n)
    g = spatial_geometry(m, c0, c0, 0.1, bs, 0.0)
    assert np.allclose(g.face_m[..., 1], 0.0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            spatial_geometry(m, c0, c0 + 0.02, dt, bs, 0.0)


def test_freestream_any_velocity_field():
    m = rect_mesh(5, 5)
    rng = np.random.default_rng(2)
    vel = 0.3 * rng.standard_normal(m.nodes.shape)
    u = np.full((25, 9, 1), 4.0)
    r = mol_residual(u, 2, m, m.nodes, m.nodes + vel, 1.0, Advection2D())
    assert np.abs(r).max() <= 1e-12


def _static_fr_residual_1d(u, ks, n_elems, h, c):
    """Independent 1D static upwind FR residual, plain loops."""
    b = make_basis(ks)
    D, gl, gr = b.diff, b.corr_deriv_left, b.corr_deriv_right
    el, er = b.extrap_left, b.extrap_right
    out = np.zeros_like(u)
    for e in range(n_elems):
        du = D @ u[e]
        uin = er @ u[(e - 1) % n_elems]  # upwind trace for c > 0
        corr = (c * uin - c * (el @ u[e])) * gl
        out[e] = -(2.0 / h) * (c * du + corr)
    return out


def test_static_mesh_matches_independent_fr_1d():
    n, ks, c = 7, 3, 1.0
    m = interval_mesh(n)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((n, ks + 1, 1))
    r = mol_residual(u, ks, m, m.nodes, m.nodes, 1.0, Advection1D(c))
    oracle = _static_fr_residual_1d(u[..., 0], ks, n, 1.0 / n, c)
    assert np.abs(r[..., 0] - oracle).max() <= 1e-13


def _static_fr_residual_2d(u4, ks, nx, ny, hx, hy, c1, c2):
    """Independent 2D static upwind FR residual on a uniform periodic grid."""
    b = make_basis(ks)
    D, gl, gr = b.diff, b.corr_deriv_left, b.corr_deriv_right
    el, er = b.extrap_left, b.extrap_right
    n1 = ks + 1
    out = np.zeros_like(u4)
    for ey in range(ny):
        for ex in range(nx):
            ue = u4[ey, ex]  # (ny_pts, nx_pts)
            dudx = ue @ D.T
            dudy = D @ ue
            # upwind inflow traces (c1, c2 > 0: from the left/south)
            left = u4[ey, (ex - 1) % nx] @ er
            south = el @ ue
            north_in = er @ u4[(ey - 1) % ny, ex]
            corr = np.zeros_like(ue)
            corr += c1 * np.outer(np.ones(n1), gl) * (left - ue @ el)[:, None]
            corr += c2 * np.outer(gl, np.ones(n1)) * (north_in - south)[None, :]
            out[ey, ex] = -(2.0 / hx) * c1 * dudx - (2.0 / hy) * c2 * dudy \
                - (2.0 / hx) * corr * 0  # placeholder, assembled below
            out[ey, ex] = -(c1 * dudx * (2 / hx) + c2 * dudy * (2 / hy)
                            + (2 / hx) * c1 * np.outer(np.ones(n1), gl)
                            * (left - ue @ el)[:, None]
                            + (2 / hy) * c2 * np.outer(gl, np.ones(n1))
                            * (north_in - south)[None, :])
    return out


def test_static_mesh_matches_independent_fr_2d():
    nx = ny = 3
    ks, c1, c2 = 2, 0.5, 0.5
    m = rect_mesh(nx, ny)
    rng = np.random.default_rng(12)
    n1 = ks + 1
    u = rng.standard_normal((nx * ny, n1 * n1, 1))
    r = mol_residual(u, ks, m, m.nodes, m.nodes, 1.0, Advection2D(c1, c2))
    u4 = u[..., 0].reshape(ny, nx, n1, n1)
    oracle = _static_fr_residual_2d(u4, ks, nx, ny, 1 / nx, 1 / ny, c1, c2)
    r4 = r[..., 0].reshape(ny, nx, n1, n1)
    assert np.abs(r4 - oracle).max() <= 1e-13


def test_galilean_frame_shift_identity():
    # ALE residual with uniform V and speed c equals the static residual
    # with speed c - V on the same nodal data
    m = rect_mesh(4, 4)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((16, 9, 1))
    V = np.array([0.3, -0.2])
    vel = np.tile(V, (m.n_nodes, 1))
    r_ale = mol_residual(u, 2, m, m.nodes, m.nodes + vel, 1.0,
                         Advection2D(0.5, 0.5))
    r_static = mol_residual(u, 2, m, m.nodes, m.nodes, 1.0,
                            Advection2D(0.5 - 0.3, 0.5 + 0.2))
    assert np.abs(r_ale - r_static).max() <= 1e-12


def test_rk3_step_frozen_residual():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((5, 4))
    r = rng.standard_normal((5, 4))
    out = ssp_rk3_step(u, lambda w, k: r, 0.2)
    assert np.allclose(out, u + 0.2 * r, atol=1e-14)


def test_freestream_deforming_100_steps():
    m = rect_mesh(6, 6)
    res = march_mol(m, SineDeformation(), Advection2D(), Constant((1.0,)),
                    ks=2, dt=0.002, n_steps=100)
    assert np.abs(res.field.values - 1.0).max() <= 1e-11


def test_freestream_rigid_oscillation():
    m = rect_mesh(4, 4)
    res = march_mol(m, RigidOscillation(), Advection2D(), Constant((1.0,)),
                    ks=3, dt=0.001, n_steps=50)
    assert np.abs(res.field.values - 1.0).max() <= 1e-11


def test_temporal_order_three():
    m = interval_mesh(12)
    sol = SineWave1D(1.0)
    errs = []
    for dt in (1 / 192, 1 / 384, 1 / 768):
        res = march_mol(m, Stationary(), Advection1D(1.0), sol, ks=5,
                        dt=dt, n_steps=int(round(1 / dt)))
        errs.append(l2_error_nodal(res.field.values, 5, m, res.coords_final,
                                   sol, 1.0))
    p = np.log(errs[0] / errs[1]) / np.log(2)
    q = np.log(errs[1] / errs[2]) / np.log(2)
    assert abs(p - 3.0) <= 0.2 and abs(q - 3.0) <= 0.2


@pytest.mark.parametrize("dt", [0.004, 0.002])
def test_conservation_on_moving_mesh(dt, mass):
    # stage-frozen velocities with per-stage metrics make the RK3 stage
    # quadrature (Simpson) exact for the linear-geometry flux balance, so
    # mass drift sits at round-off; asserting 1e-12 subsumes the nominal
    # third-order-shrink expectation
    m = interval_mesh(10)
    presc = SineDeformation(amp=(0.1,), n=(4.0,))
    sol = SineWave1D(1.0)
    n = int(round(0.2 / dt))
    path = motion_path(presc, m, dt, n)
    masses = []

    def cb(u):
        masses.append(mass(m, path[len(masses) + 1], 3, u))

    march_mol(m, presc, Advection1D(1.0), sol, ks=3, dt=dt, n_steps=n,
              step_callback=cb)
    drift = np.abs(np.array(masses) - masses[0]).max()
    assert drift <= 1e-12


def test_conservation_on_moving_mesh_2d(mass):
    # periodic sine-deforming 2D mesh (n = 3: the default n = 4 leaves every
    # node of a 4 x 4 mesh still); a mean of 1 makes the mass 1, not 0.
    # Unlike in 1D, the mass drifts as dt^3 (4.8e-8 at dt = 0.004 over 50
    # steps), not at round-off; a wrong stage geometry breaks the order
    m = rect_mesh(4, 4)
    presc = SineDeformation(n=(3.0, 3.0))
    ks, t_end = 3, 0.2
    drifts = []
    for dt in (0.004, 0.002):
        n = int(round(t_end / dt))
        path = motion_path(presc, m, dt, n)
        u0 = initial_condition(m, path[0], make_basis(ks), SineWave2D()) + 1.0
        u, masses = u0, []
        for k in range(n + 1):
            if k:
                u = rk3_physical_step(u, m, path[k - 1], path[k], dt,
                                      (k - 1) * dt, Advection2D(),
                                      make_basis(ks))
            masses.append(mass(m, path[k], ks, u))
        assert masses[0] == pytest.approx(1.0, abs=1e-12)
        drifts.append(np.abs(np.array(masses) - masses[0]).max())
    assert drifts[0] <= 1e-7
    assert abs(np.log2(drifts[0] / drifts[1]) - 3.0) <= 0.2


def test_one_geometry_build_per_step(monkeypatch):
    import stfr.mol_solver as mol

    fractions = []

    def counting(*args):
        fractions.append(args[6])
        return spatial_geometry(*args)

    monkeypatch.setattr(mol, "spatial_geometry", counting)
    dt = 0.01
    march_mol(rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0)), Advection2D(),
              SineWave2D(), ks=2, dt=dt, n_steps=4)
    assert fractions == [(0.0, 1.0, 0.5)] * 4


def test_one_level_plan_per_step(monkeypatch):
    # the three stages of a step read one LevelPlan, each at its own level;
    # counted in __new__, which a copy of a plan calls as well
    import stfr.mol_solver as mol

    built = []

    class Counted(mol.LevelPlan):
        def __new__(cls, *args):
            built.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(mol, "LevelPlan", Counted)
    march_mol(rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0)), Advection2D(),
              SineWave2D(), ks=2, dt=0.01, n_steps=4)
    assert len(built) == 4


def test_stages_read_the_geometry_in_place():
    # for Euler `_weights` returns the geometry's metric rows uncopied, and
    # the bound operator reads them, and |J|, from the geometry itself
    mesh = rect_mesh(2, 2)
    geom = spatial_geometry(mesh, mesh.nodes, mesh.nodes + 0.01, 0.1,
                            make_basis(2), 0.0, STAGE_OFFSETS)
    op = MolOperator(mesh, Euler2D(), None).bind_degree(geom)
    assert np.shares_memory(op.plan.weights, geom.rows)
    assert np.shares_memory(op.plan.jac, geom.jac)


def test_mol_stable_dt_reasonable():
    m = interval_mesh(12)
    dt = mol_stable_dt(m, m.nodes, Advection1D(1.0), 5)
    assert 0 < dt < 0.01


def test_rk3_rejects_bad_dt():
    m = interval_mesh(4)
    with pytest.raises(ValueError):
        rk3_physical_step(np.zeros((4, 3, 1)), m, m.nodes, m.nodes, 0.0, 0.0,
                          Advection1D(1.0), make_basis(2))


def _signature(a):
    """(norm, fixed random projection): pins a whole array to round-off."""
    w = np.random.default_rng(0).standard_normal(a.shape)
    return [float(np.linalg.norm(a)), float(np.sum(w * a))]


@pytest.mark.parametrize("mesh, presc, eq, sol, dt, n_steps, pins", [
    # 8 dirichlet faces and 4 flipped faces on a deforming disk
    (disk_mesh(0), CircleDeformation(), Advection2D(0.5, 0.5),
     SineWave2D(0.5, 0.5), 0.01, 8,
     ([37.52355604311179, -56.62453532706195],
      [10.737149403429699, -27.02132715503531])),
    # Roe-ALE face fluxes and the stacked-flux interior on a deforming mesh
    (rect_mesh(4, 4, -2, 2, -2, 2),
     SineDeformation(amp=(0.05, 0.05), length=(4.0, 4.0), n=(2.0, 2.0),
                     t_max=0.5),
     Euler2D(), IsentropicVortex(period=4.0), 0.02, 6,
     ([5.575991058292718, 4.9237223589362635],
      [37.979225627647125, -13.329632915967231])),
], ids=["disk_circle_advection", "sine_deform_euler"])
def test_characterization_pins(mesh, presc, eq, sol, dt, n_steps, pins):
    ks = 3
    path = motion_path(presc, mesh, dt, 2)
    u0 = initial_condition(mesh, path[1], make_basis(ks), sol)
    r = mol_residual(u0, ks, mesh, path[1], path[2], dt, eq, t_n=dt, bc=sol)
    res = march_mol(mesh, presc, eq, sol, ks=ks, dt=dt, n_steps=n_steps)
    pin_r, pin_u = pins
    assert _signature(r) == pytest.approx(pin_r, rel=1e-12)
    assert _signature(res.field.values) == pytest.approx(pin_u, rel=1e-12)
