import math

import numpy as np
import pytest

from stfr.mesh import disk_mesh, rect_mesh
from stfr.motion import (
    CircleDeformation,
    PeriodicMotionError,
    RigidOscillation,
    SineDeformation,
    Stationary,
    circle_alpha,
    circle_fg,
    circle_psi,
    circle_theta,
    deform_step,
    eta_perturbation,
    march_path,
    motion_path,
    node_positions,
)


def test_stationary_positions():
    m = rect_mesh(3, 3)
    assert np.array_equal(node_positions(Stationary(), m, 2.7), m.nodes)


def test_rigid_oscillation_at_zero():
    m = rect_mesh(2, 2)
    p = RigidOscillation(amp=(0.1, 0.1), omega=(2 * math.pi, 2 * math.pi))
    pos = node_positions(p, m, 0.0)
    assert np.allclose(pos, m.nodes + 0.1)
    # quarter period: cos(pi/2) = 0, back to reference
    pos = node_positions(p, m, 0.25)
    assert np.allclose(pos, m.nodes, atol=1e-15)


def test_circle_helpers_values():
    assert abs(circle_alpha(1.0) - 0.3125) < 1e-15
    assert abs(circle_psi(1.0) - 1.15625) < 1e-15
    assert circle_alpha(0.0) == 0.0 and circle_psi(0.0) == 1.0


def test_eta_zero():
    for om, tau in ((1.0, 0.7), (10.0, 0.7), (3.3, 0.1)):
        assert eta_perturbation(0.0, om, tau) == 0.0


def test_circle_identity_at_t0():
    m = disk_mesh(0)
    pos = node_positions(CircleDeformation(), m, 0.0)
    assert np.abs(pos - m.nodes).max() <= 1e-14


def test_circle_theta_boundary_radius():
    # at r0 = 0.5 the cos(32 pi r0^4) - 1 factor vanishes (full turn)
    val = circle_theta(0.5, 0.3, 0.8)
    fg = circle_fg(0.5, 0.3, 0.8)
    t6 = 0.8**6
    expect = t6 / (t6 + 0.01) * 1.0 * eta_perturbation(0.3, 1.0, 0.7)
    assert abs(fg - expect) < 1e-14
    assert abs(val - (0.3 + 0.15 * fg)) < 1e-15


def test_node_positions_rejects_sine_deformation():
    m = rect_mesh(2, 2)
    with pytest.raises(ValueError, match="incremental"):
        node_positions(SineDeformation(), m, 0.1)


def test_deform_step_zero_at_t0():
    m = rect_mesh(4, 4)
    out = deform_step(SineDeformation(), m.nodes, t=0.0, dt=0.01)
    assert np.array_equal(out, m.nodes)


def test_deform_step_sine_zeros():
    p = SineDeformation()
    c = np.array([[0.25, 0.37]])  # sin(4 pi 0.25) = sin(pi) = 0
    out = deform_step(p, c, t=0.1, dt=0.01)
    assert abs(out[0, 0] - 0.25) < 1e-16


def test_deform_step_example_value():
    p = SineDeformation()
    c = np.array([[0.125, 0.125]])
    out = deform_step(p, c, t=0.1, dt=0.01)
    dx = out[0, 0] - 0.125
    assert abs(dx - 3.5355339e-3) < 1e-9
    assert abs(out[0, 1] - 0.125 - dx) < 1e-15


def test_deform_step_boundary_fixed():
    # integer n_x, n_y pin the domain-boundary nodes of [0,1]^2
    m = rect_mesh(4, 4)
    out = deform_step(SineDeformation(), m.nodes, t=0.1, dt=0.01)
    onb = ((np.isclose(m.nodes[:, 0], 0) | np.isclose(m.nodes[:, 0], 1))
           | (np.isclose(m.nodes[:, 1], 0) | np.isclose(m.nodes[:, 1], 1)))
    assert np.abs(out[onb] - m.nodes[onb]).max() < 1e-15


def test_deform_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        deform_step(SineDeformation(), np.zeros((2, 2)), 0.1, 0.0)


@pytest.mark.parametrize("bad", [{"t_max": 0.0}, {"t_max": math.nan},
                                 {"length": (1.0, 0.0)}, {"length": (-1.0,)},
                                 {"length": (math.nan, 1.0)}])
def test_sine_deformation_rejects_non_positive_scales(bad):
    # t_max and each length divide the increment's frequencies
    with pytest.raises(ValueError):
        SineDeformation(**bad)


def test_deform_half_step_consistency():
    # one full step vs two half steps differ at O(dt^2): ratio ~ 4 under halving
    m = rect_mesh(6, 6)
    p = SineDeformation()
    t = 0.07

    def diff(dt):
        full = deform_step(p, m.nodes, t, dt)
        half = deform_step(p, deform_step(p, m.nodes, t, dt / 2), t + dt / 2, dt / 2)
        return np.abs(full - half).max()

    d1 = diff(0.02)
    d2 = diff(0.01)
    assert 3.0 < d1 / d2 < 5.0


def test_motion_path_accumulates():
    m = rect_mesh(4, 4)
    p = SineDeformation()
    path = motion_path(p, m, 0.01, 5)
    assert path.shape == (6, m.n_nodes, 2)
    step = deform_step(p, path[2], 0.02, 0.01)
    assert np.allclose(path[3], step)


def test_motion_path_closed_form():
    m = rect_mesh(2, 2)
    p = RigidOscillation()
    path = motion_path(p, m, 0.05, 3)
    assert np.allclose(path[2], node_positions(p, m, 0.1))


def test_negative_time_rejected():
    m = rect_mesh(2, 2)
    with pytest.raises(ValueError):
        node_positions(Stationary(), m, -0.5)


def test_march_path_keeps_periodic_partners_together():
    # on [-2, 2]^2, length 4 and n = 3 move the nodes x = -2 and x = 2 in
    # opposite directions: refused before the seed, unless the mesh is not
    # periodic; with length 1 on the unit square the partners move together
    presc = SineDeformation(length=(4.0, 4.0), n=(3.0, 3.0), t_max=0.5)
    seeded = []
    with pytest.raises(PeriodicMotionError,
                       match=r"SineDeformation\(.* apart by 3\.898e-01 at t = 0\.5"):
        march_path(presc, rect_mesh(4, 4, -2, 2, -2, 2), 0.125, 4,
                   seeded.append, None)
    assert seeded == []
    for mesh, motion in ((rect_mesh(4, 4, -2, 2, -2, 2, periodic=False), presc),
                         (rect_mesh(4, 4), SineDeformation(n=(3.0, 3.0)))):
        u, _ = march_path(motion, mesh, 0.125, 4, lambda x: 0.0,
                          lambda k, u, x0, x1: u + 1.0)
        assert u == 4.0
