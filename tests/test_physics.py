import numpy as np
import pytest

from stfr.basis import make_basis
from stfr.geometry import slab_geometry
from stfr.mesh import interval_mesh, rect_mesh
from stfr.motion import SineDeformation, motion_path
from stfr.physics import (
    Advection1D,
    Advection2D,
    Constant,
    Euler2D,
    IsentropicVortex,
    NonPhysicalStateError,
    SineWave1D,
    SineWave2D,
    _roe_ale,
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
)

GAMMA = 1.4


def random_admissible_state(rng):
    rho = rng.uniform(0.4, 2.0)
    u = rng.uniform(-1.0, 1.0)
    v = rng.uniform(-1.0, 1.0)
    p = rng.uniform(0.4, 2.0)
    return np.array([rho, rho * u, rho * v,
                     p / (GAMMA - 1) + 0.5 * rho * (u * u + v * v)])


def random_admissible_states(rng, shape):
    """Admissible states of shape shape + (4,), drawn like
    `random_admissible_state`."""
    rho = rng.uniform(0.4, 2.0, shape)
    u = rng.uniform(-1.0, 1.0, shape)
    v = rng.uniform(-1.0, 1.0, shape)
    p = rng.uniform(0.4, 2.0, shape)
    return np.stack([rho, rho * u, rho * v,
                     p / (GAMMA - 1) + 0.5 * rho * (u * u + v * v)], axis=-1)


def random_st_normal(rng, min_spatial=0.15):
    while True:
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        if np.hypot(n[0], n[1]) > min_spatial:
            return n


def test_flux_euler_at_rest():
    Q = np.array([1.0, 0.0, 0.0, 1.0 / (GAMMA - 1)])
    f, g = flux(Euler2D(), Q)
    assert np.allclose(f, [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(g, [0, 0, 1, 0], atol=1e-15)


def test_flux_rejects_nonphysical():
    """Negative, zero, NaN and infinite density or pressure (an infinite
    energy makes an infinite pressure), alone and as one bad point among
    admissible ones."""
    good = random_admissible_states(np.random.default_rng(4), (3, 5))
    for Q, quantity in [([-1.0, 0.0, 0.0, 1.0], "density"),
                        ([1.0, 10.0, 0.0, 1.0], "pressure"),
                        ([np.nan, 0.0, 0.0, 2.5], "density"),
                        ([np.inf, 0.0, 0.0, 2.5], "density"),
                        ([0.0, 0.0, 0.0, 2.5], "density"),
                        ([1.0, 0.0, 0.0, np.nan], "pressure"),
                        ([1.0, 0.0, 0.0, np.inf], "pressure")]:
        states = good.copy()
        states[1, 2] = Q
        for bad in (np.array(Q), states):
            with pytest.raises(NonPhysicalStateError, match=quantity):
                flux(Euler2D(), np.moveaxis(bad, -1, 0))


def test_st_normal_flux_pure_directions():
    eq = Euler2D()
    Q = np.array([1.0, 0.2, -0.1, 2.0])
    f, g = flux(eq, Q)
    nflux = _transformed_normal_flux
    assert np.allclose(nflux(eq, Q, np.array([0.0, 0.0, 1.0])), Q)
    assert np.allclose(nflux(eq, Q, np.array([1.0, 0.0, 0.0])), f)
    assert np.allclose(nflux(eq, Q, np.array([0.0, 1.0, 0.0])), g)


def _face_sides(eq, state):
    """Advection on the second slab of a sine-deforming periodic mesh (5
    intervals or 3 x 3 quads, k_s = 2, k_t = 1) at the variables-first
    slab state state(shape): per face, at every level and flux point, the
    outward speed w of its left element, the traces QL and QR and the left
    and right jumps of `LevelPlan.face_jumps`, the right side's points in
    the left side's order, each (nF, nT, nFs)."""
    mesh = interval_mesh(5) if isinstance(eq, Advection1D) else rect_mesh(3, 3)
    motion = SineDeformation(amp=(0.1,) * mesh.dim, n=(2.0,) * mesh.dim)
    path = motion_path(motion, mesh, 0.1, 2)
    geom = slab_geometry(mesh, path[1], path[2], 0.1, make_basis(2), make_basis(1),
                         t_n=0.1)
    u = state((1, mesh.n_elems, 2, 3 ** mesh.dim))
    left, right = mesh.side_rows(2)[:2]
    flipped = mesh.face_sides()[0]
    sides = []
    for a in (_traces_all_edges(u, 2, mesh.dim), LevelPlan(mesh, geom, eq, None).face_jumps(u)):
        rows = a.reshape(-1, a.shape[-1])
        L, R = rows[left], rows[right]
        R[flipped] = R[flipped, :, ::-1]
        sides += [L, R]
    return (_weights(eq, geom.face_m[mesh.faces.elem_l, mesh.faces.edge_l]), *sides)


def test_st_normal_flux_moving_1d_face():
    # the local flux of the advection jumps is w Q, w = (c, 1) . M:
    # n = (-dt, dx)/l recovers -dt (f - u v_g)/l with v_g = dx/dt
    c, u, dt, dx = 1.0, 0.7, 0.1, 0.02
    ell = np.hypot(dt, dx)
    n = np.array([-dt, dx]) / ell
    val = _weights(Advection1D(c), n) * u
    v_g = dx / dt
    assert val * ell == pytest.approx(-dt * (c * u - u * v_g), abs=1e-15)


def test_upwind_basic():
    # w >= 0 takes the left state: a zero left jump and the right jump
    # w (QR - QL); w <= 0 the mirror image.  The deforming faces outrun
    # c = 0.2 in places, so the outward speeds take both signs
    rng = np.random.default_rng(11)
    w, QL, QR, dL, dR = _face_sides(Advection1D(c=0.2), rng.standard_normal)
    assert (w > 0).any() and (w < 0).any()
    pos, neg = w >= 0, w <= 0
    assert np.all(dL[pos] == 0) and np.all(dR[neg] == 0)
    assert np.allclose(dR[pos], (w * (QR - QL))[pos], rtol=1e-14, atol=1e-14)
    assert np.allclose(dL[neg], (w * (QR - QL))[neg], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("eq", [
    Advection1D(c=1.3), Advection2D(0.5, -0.7), Euler2D()])
def test_flux_consistency_random(eq):
    # equal states give the local flux: advection's face jumps vanish
    rng = np.random.default_rng(123)
    if not isinstance(eq, Euler2D):
        for q in rng.standard_normal(10):
            _, _, _, dL, dR = _face_sides(eq, lambda shape: np.full(shape, q))
            assert max(np.abs(dL).max(), np.abs(dR).max()) <= 1e-12 * abs(q)
        return
    for _ in range(100):
        Q = random_admissible_state(rng)
        n = random_st_normal(rng)
        com = _transformed_common_flux(eq, Q, Q, _weights(eq, n))
        loc = _transformed_normal_flux(eq, Q, _weights(eq, n))
        assert np.abs(com - loc).max() <= 1e-12


def test_roe_antisymmetry_50_pairs():
    eq = Euler2D()
    rng = np.random.default_rng(7)
    for _ in range(50):
        QL = random_admissible_state(rng)
        QR = random_admissible_state(rng)
        n = random_st_normal(rng)
        a = _transformed_common_flux(eq, QL, QR, n)
        b = _transformed_common_flux(eq, QR, QL, -n)
        assert np.abs(a + b).max() <= 1e-12


def test_roe_static_reduction():
    # n_t = 0 must agree with the standard static Roe flux
    eq = Euler2D()
    rng = np.random.default_rng(9)
    QL = random_admissible_state(rng)
    QR = random_admissible_state(rng)
    n3 = np.array([0.6, 0.8, 0.0])
    out = _transformed_common_flux(eq, QL, QR, n3)
    assert np.all(np.isfinite(out))
    # consistency of the static reduction: equal states give F . n
    same = _transformed_common_flux(eq, QL, QL, n3)
    f, g = flux(eq, QL)
    assert np.allclose(same, 0.6 * f + 0.8 * g, atol=1e-13)


def test_upwind_monotone_bracketing():
    # the common flux the jumps imply, w QL + dL = w QR - dR, lies between
    # the local fluxes of the two sides
    rng = np.random.default_rng(5)
    for eq in (Advection1D(c=0.2), Advection2D(0.2, -0.1)):
        w, QL, QR, dL, dR = _face_sides(eq, rng.standard_normal)
        assert (w > 0).any() and (w < 0).any()
        com = w * QL + dL
        assert np.allclose(com, w * QR - dR, rtol=0, atol=1e-12)
        assert np.all(np.minimum(w * QL, w * QR) - 1e-12 <= com)
        assert np.all(com <= np.maximum(w * QL, w * QR) + 1e-12)


# -- oracles: the stacked forms the component-form kernels replaced ----------


def _stacked_flux(Q):
    """(f, g) of Euler states, stacked component by component."""
    rho = Q[..., 0]
    u, v = Q[..., 1] / rho, Q[..., 2] / rho
    p = (GAMMA - 1.0) * (Q[..., 3] - 0.5 * rho * (u * u + v * v))
    rhoE = Q[..., 3]
    f = np.stack([rho * u, rho * u * u + p, rho * u * v, u * (rhoE + p)], axis=-1)
    g = np.stack([rho * v, rho * u * v, rho * v * v + p, v * (rhoE + p)], axis=-1)
    return f, g


def _stacked_normal_flux(Q, w):
    """w0 f + w1 g + w2 Q for an unnormalized space-time vector w."""
    f, g = _stacked_flux(Q)
    return w[..., 0:1] * f + w[..., 1:2] * g + w[..., 2:3] * Q


def _stacked_roe_ale(QL, QR, mx, my, vgn):
    """Roe-ALE flux from the stacked eigenvector columns r1..r4."""
    def prims(Q):
        rho = Q[..., 0]
        u, v = Q[..., 1] / rho, Q[..., 2] / rho
        return rho, u, v, (GAMMA - 1.0) * (Q[..., 3] - 0.5 * rho * (u * u + v * v))

    rhoL, uL, vL, pL = prims(QL)
    rhoR, uR, vR, pR = prims(QR)
    HL = (QL[..., 3] + pL) / rhoL
    HR = (QR[..., 3] + pR) / rhoR
    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    wL = sL / (sL + sR)
    wR = 1.0 - wL
    u = wL * uL + wR * uR
    v = wL * vL + wR * vR
    H = wL * HL + wR * HR
    a2 = (GAMMA - 1.0) * (H - 0.5 * (u * u + v * v))
    a = np.sqrt(a2)
    qn = u * mx + v * my
    drho = QR[..., 0] - QL[..., 0]
    dp = pR - pL
    du = uR - uL
    dv = vR - vL
    dqn = du * mx + dv * my
    rho_bar = np.sqrt(rhoL * rhoR)
    a1 = (dp - rho_bar * a * dqn) / (2 * a2)
    a2w = drho - dp / a2
    a3 = (dp + rho_bar * a * dqn) / (2 * a2)
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
        return col(rho * rel, Q[..., 1] * rel + p * mx,
                   Q[..., 2] * rel + p * my, Q[..., 3] * rel + p * qnl)

    return 0.5 * (phi(QL, rhoL, uL, vL, pL) + phi(QR, rhoR, uR, vR, pR)) - 0.5 * diss


def random_st_vectors(rng, shape):
    """Unnormalized space-time vectors (shape + (3,)) of lengths 0.1-10,
    each with a spatial part and a time component of at least 0.15 of
    its length, so the face moves (vgn != 0)."""
    n = rng.standard_normal(shape + (3,))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    bad = (np.hypot(n[..., 0], n[..., 1]) < 0.15) | (np.abs(n[..., 2]) < 0.15)
    while bad.any():
        m = rng.standard_normal((bad.sum(), 3))
        n[bad] = m / np.linalg.norm(m, axis=-1, keepdims=True)
        bad = (np.hypot(n[..., 0], n[..., 1]) < 0.15) | (np.abs(n[..., 2]) < 0.15)
    return n * 10.0 ** rng.uniform(-1.0, 1.0, shape + (1,))


def _assert_close_rel(new, ref, rtol=1e-14):
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(new - ref) <= rtol * scale)


@pytest.mark.parametrize("shape", [(), (10, 5, 4)], ids=["single", "faces"])
def test_component_kernels_match_stacked_forms(shape):
    """200 random admissible states, one at a time and as one (nF, nT,
    nFs, 4) array: the component-form Roe-ALE, normal flux and (f, g),
    which take and return states variables-first, agree with the stacked
    forms to 1e-14 relative."""
    eq = Euler2D()
    rng = np.random.default_rng(200)
    draws = 200 if shape == () else 1
    for _ in range(draws):
        QL = random_admissible_states(rng, shape)
        QR = random_admissible_states(rng, shape)
        w = random_st_vectors(rng, shape)
        sig = np.hypot(w[..., 0], w[..., 1])
        mx, my, vgn = w[..., 0] / sig, w[..., 1] / sig, -w[..., 2] / sig
        assert np.all(vgn != 0)
        qL, qR = np.moveaxis(QL, -1, 0), np.moveaxis(QR, -1, 0)
        _assert_close_rel(np.moveaxis(_roe_ale(eq, qL, qR, mx, my, vgn), 0, -1),
                          _stacked_roe_ale(QL, QR, mx, my, vgn))
        _assert_close_rel(np.moveaxis(_transformed_common_flux(eq, qL, qR, w), 0, -1),
                          sig[..., None] * _stacked_roe_ale(QL, QR, mx, my, vgn))
        _assert_close_rel(np.moveaxis(_transformed_normal_flux(eq, qL, w), 0, -1),
                          _stacked_normal_flux(QL, w))
        for new, ref in zip(flux(eq, qR), _stacked_flux(QR)):
            _assert_close_rel(np.moveaxis(new, 0, -1), ref)


def test_vortex_far_field():
    v = IsentropicVortex()
    st = exact_state(v, np.array([100 * v.b]), np.array([0.0]), 0.0)
    rho = st[0, 0]
    u, w = st[1, 0] / rho, st[2, 0] / rho
    p = (GAMMA - 1) * (st[3, 0] - 0.5 * rho * (u * u + w * w))
    assert abs(rho - 1.0) < 1e-10
    assert abs(u - 0.5) < 1e-10 and abs(w - 0.5) < 1e-10
    assert abs(p - 1 / GAMMA) < 1e-10


def test_vortex_core_values():
    st = exact_state(IsentropicVortex(), np.array([0.0]), np.array([0.0]), 0.0)
    rho = st[0, 0]
    u, w = st[1, 0] / rho, st[2, 0] / rho
    p = (GAMMA - 1) * (st[3, 0] - 0.5 * rho * (u * u + w * w))
    assert abs(rho - (1 - 0.2 * 0.0625 * np.e) ** 2.5) < 1e-12
    assert abs(p - (1 / 1.4) * (1 - 0.2 * 0.0625 * np.e) ** 3.5) < 1e-12


def test_vortex_isentropy():
    v = IsentropicVortex()
    r = np.linspace(0.0, 1.0, 20)
    st = exact_state(v, r, np.zeros_like(r), 0.0)
    rho = st[0]
    u = st[1] / rho
    w = st[2] / rho
    p = (GAMMA - 1) * (st[3] - 0.5 * rho * (u**2 + w**2))
    s = p / rho**GAMMA
    assert np.abs(s - s[0]).max() < 1e-10


def test_vortex_energy_closure():
    v = IsentropicVortex()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 30)
    y = rng.uniform(-1, 1, 30)
    st = exact_state(v, x, y, 0.3)
    rho = st[0]
    u = st[1] / rho
    w = st[2] / rho
    p = (GAMMA - 1) * (st[3] - 0.5 * rho * (u**2 + w**2))
    rhoE = p / (GAMMA - 1) + 0.5 * rho * (u**2 + w**2)
    assert np.abs(rhoE - st[3]).max() < 1e-12


def test_vortex_periodic_wrap():
    v = IsentropicVortex(period=4.0)
    # center at t=4 is (2,2) == (-2,-2): the wrapped state must see it
    a = exact_state(v, np.array([-1.9]), np.array([-1.9]), 4.0)
    b = exact_state(IsentropicVortex(), np.array([2.1]), np.array([2.1]), 4.0)
    assert np.allclose(a, b, atol=1e-12)


def test_inadmissible_euler_exact_states_are_rejected():
    # the vortex core state at r = 0 has density (1 - 0.5 (gamma - 1)
    # u_max^2 e)^(1 / (gamma - 1)): the largest u_max below the limit keeps
    # it positive, the limit and anything above it are refused
    limit = np.sqrt(2.0 / ((GAMMA - 1) * np.e))
    below = np.nextafter(limit, 0.0)
    core = exact_state(IsentropicVortex(u_max=below), np.zeros(1), np.zeros(1))
    assert core[0, 0] > 0
    for u_max in (limit, 10.0, np.nan):
        with pytest.raises(ValueError, match="u_max"):
            IsentropicVortex(u_max=u_max)
    # a constant Euler state needs a positive density and pressure
    for value, quantity in [((1.0, 0.0, 0.0, -1.0), "pressure"),
                            ((1.0, 3.0, 0.0, 2.5), "pressure"),
                            ((-1.0, 0.0, 0.0, 2.5), "density"),
                            ((0.0, 0.0, 0.0, 2.5), "density")]:
        with pytest.raises(ValueError, match=quantity):
            exact_for(Euler2D(), "constant", value=value)
    assert exact_for(Euler2D(), "constant", value=(1.0, 0.0, 0.0, 2.5))


def test_sine_waves():
    s = SineWave1D(c=1.0)
    assert exact_state(s, np.array([0.25]), t=0.25)[0, 0] == pytest.approx(0.0, abs=1e-15)
    s2 = SineWave2D(0.5, 0.5)
    val = exact_state(s2, np.array([0.3]), np.array([0.4]), 0.2)[0, 0]
    expect = np.sin(2 * np.pi * 0.2) * np.sin(2 * np.pi * 0.3)
    assert val == pytest.approx(expect, abs=1e-14)


def test_constant_state():
    c = Constant((2.5,))
    out = exact_state(c, np.zeros((3, 4)), t=1.0)
    assert out.shape == (1, 3, 4) and np.all(out == 2.5)
    out = exact_state(Constant((1.0, 0.5, 0.25, 2.5)), np.zeros((3, 4)))
    assert out.shape == (4, 3, 4) and np.array_equal(out[:, 1, 2], [1.0, 0.5, 0.25, 2.5])
