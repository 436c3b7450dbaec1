import numpy as np
import pytest

from stfr.stfv import (
    CellInversionError,
    Fv1dState,
    _interface_fluxes,
    march_stfv,
    stfv_step_explicit,
)


def fvmol_step(state: Fv1dState, c: float = 1.0) -> np.ndarray:
    """Oracle: forward-Euler FV method of lines of u_t + c u_x = 0 on the
    moving mesh, d(ubar V)/dt + (F_2 - F_1) = 0, with the new cell volume
    V^{n+1} taken from the discrete GCL dV/dt = v_g,2 - v_g,1, not from the
    new interface positions."""
    V_n = np.diff(state.x_n)
    v_g = (state.x_np1 - state.x_n) / state.dt
    V_np1 = V_n + state.dt * np.diff(v_g)
    if np.any(V_np1 <= 0):
        raise CellInversionError("cell inversion at t + dt")
    F = _interface_fluxes(state, c)
    return (state.ubar * V_n - state.dt * (F[1:] - F[:-1])) / V_np1


def test_state_validation():
    with pytest.raises(CellInversionError):
        Fv1dState(np.zeros(2), np.array([0.0, 0.5, 0.4]),
                  np.array([0.0, 0.5, 1.0]), 0.1)
    for dt in (-0.1, np.nan):
        with pytest.raises(ValueError):
            Fv1dState(np.zeros(2), np.array([0.0, 0.5, 1.0]),
                      np.array([0.0, 0.5, 1.0]), dt)


def test_hand_checked_two_cells():
    # x = (0, 0.5, 1) -> (0, 0.55, 1), dt = 0.1: v_g = (0, 0.5, 0) at the
    # interfaces; ubar = (1, 0).  c = 1 takes every upwind state from the
    # left, u* = (0, 1, 0), F = (0, 0.5, 0); c = -1 from the right,
    # u* = (1, 0, 1), F = (-1, 0, -1)
    st = Fv1dState(np.array([1.0, 0.0]), np.array([0.0, 0.5, 1.0]),
                   np.array([0.0, 0.55, 1.0]), 0.1)
    for c, expect in [(1.0, [0.45 / 0.55, 0.05 / 0.45]),
                      (-1.0, [0.4 / 0.55, 0.1 / 0.45])]:
        assert np.allclose(stfv_step_explicit(st, c), expect, rtol=0, atol=1e-15)


def test_stationary_reduces_to_forward_euler_upwind():
    n, c, dt = 16, 1.0, 0.01
    x = np.linspace(0, 1, n + 1)
    u = np.sin(2 * np.pi * (x[:-1] + x[1:]) / 2)
    st = Fv1dState(u, x, x, dt)
    out = stfv_step_explicit(st, c)
    dx = 1.0 / n
    expect = u - (dt / dx) * (c * u - c * np.roll(u, 1))
    assert np.allclose(out, expect, atol=1e-15)


def test_constant_preserved_any_motion():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 9)
    pert = 0.02 * rng.uniform(-1, 1, 9)
    pert[0] = pert[-1] = 0.0
    st = Fv1dState(np.full(8, 3.3), x, x + pert, 0.05)
    assert np.abs(stfv_step_explicit(st) - 3.3).max() <= 1e-14
    assert np.abs(fvmol_step(st) - 3.3).max() <= 1e-14


def test_equivalence_200_random_cases():
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(2, 14))
        x = np.sort(rng.uniform(0, 1, n + 1))
        x[0], x[-1] = 0.0, 1.0
        if np.diff(x).min() < 0.01:
            continue
        pert = 0.3 * np.diff(x).min() * rng.uniform(-1, 1, n + 1)
        pert[0] = pert[-1] = 0.0
        st = Fv1dState(rng.standard_normal(n), x, x + pert,
                       float(rng.uniform(0.01, 0.2)))
        c = float(rng.uniform(-2, 2))
        a = stfv_step_explicit(st, c)
        b = fvmol_step(st, c)
        worst = max(worst, float(np.abs(a - b).max()))
        count += 1
    assert worst <= 1e-14


def test_mass_conserved_periodic():
    rng = np.random.default_rng(1)
    n = 12
    x = np.linspace(0, 1, n + 1)
    pert = 0.02 * rng.uniform(-1, 1, n + 1)
    pert[0] = pert[-1] = 0.0
    u = rng.standard_normal(n)
    st = Fv1dState(u, x, x + pert, 0.03)
    out = stfv_step_explicit(st)
    m0 = np.sum(u * np.diff(x))
    m1 = np.sum(out * np.diff(x + pert))
    assert abs(m1 - m0) <= 1e-14


def test_first_order_convergence_moving_mesh():
    from stfr.analysis import l2_error_cells
    from stfr.mesh import interval_mesh
    from stfr.motion import SineDeformation
    from stfr.physics import Advection1D, SineWave1D

    presc = SineDeformation(amp=(0.1,), n=(4.0,), t_max=0.2)
    sol = SineWave1D(1.0)
    errs = []
    for n in (64, 128, 256):
        mesh = interval_mesh(n)
        dt = 0.2 / (4 * n)  # CFL-limited explicit steps
        res = march_stfv(mesh, presc, Advection1D(1.0), sol, dt,
                         int(round(0.2 / dt)))
        errs.append(l2_error_cells(res.field.values, mesh, res.coords_final,
                                   sol, 0.2))
    p = np.log(errs[0] / errs[1]) / np.log(2)
    q = np.log(errs[1] / errs[2]) / np.log(2)
    assert abs(p - 1.0) <= 0.2 and abs(q - 1.0) <= 0.2


def test_cell_inversion_detected():
    st = Fv1dState(np.ones(2), np.array([0.0, 0.5, 1.0]),
                   np.array([0.0, 0.5, 1.0]), 0.1)
    st.x_np1 = np.array([0.6, 0.5, 1.0])  # mutate past validation
    with pytest.raises(CellInversionError):
        stfv_step_explicit(st)
