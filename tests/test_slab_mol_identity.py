"""The space-time slab is FR in time over the method-of-lines operator.

On Gauss-Legendre temporal points, temporal FR with the causal bottom-face
correction is DG-Gauss IRK (Huynh, J Sci Comput 96 (2023) 51) applied to
the ALE-FR spatial operator.  The slab residual at level i is

    R_st(u)_i = L(u_i, tau_i)
        - (2/dt) [ (D_tau u)_i - g'_L,i (js_bot / js_i) (u_bot - inflow) ]

with L the MOL residual at the time offset s_i = dt (tau_i + 1) / 2, so the
two solvers share one spatial operator.
"""

import numpy as np
import pytest

from stfr import cli
from stfr.basis import make_basis
from stfr.geometry import slab_geometry, spatial_geometry
from stfr.mol_solver import MolOperator
from stfr.motion import motion_path
from stfr.st_solver import SlabOperator, initial_condition


@pytest.mark.parametrize("case", ["wave2d_sine_deform", "wave2d_circle_p2",
                                  "euler_vortex_p3"])
def test_slab_residual_is_fr_in_time_over_mol_residual(case):
    cfg = cli.load_case(case)
    eq, mesh = cli.build_equation(cfg), cli.build_mesh(cfg)
    sol = cli.build_exact(cfg, eq)
    bc = sol if len(mesh.dirichlet) else None
    bs, bt = make_basis(cfg.k_s), make_basis(cfg.k_t)
    dt = cfg.dt
    path = motion_path(cli.build_motion(cfg), mesh, dt, 2)
    # slab 1: the first step of a sine deformation moves no node
    moves = not np.array_equal(path[1], path[2])
    assert moves or cfg.motion["type"] == "stationary"

    inflow = initial_condition(mesh, path[1], bs, sol)
    rng = np.random.default_rng(14005)
    u = np.repeat(inflow[:, :, None], bt.n, axis=2)
    u *= 1.0 + 0.01 * rng.standard_normal(u.shape)

    geom = slab_geometry(mesh, path[1], path[2], dt, bs, bt, t_n=dt)
    r_st = SlabOperator(mesh, geom, eq, inflow, bc).residual(u)

    fractions = tuple((bt.nodes + 1.0) / 2.0)
    mol = MolOperator(mesh, eq, bc).bind_degree(
        spatial_geometry(mesh, path[1], path[2], dt, bs, dt, fractions))
    L = np.stack([mol.residual(np.ascontiguousarray(u[:, :, i]), i)
                  for i in range(bt.n)], axis=2)

    du_tau = np.matmul(bt.diff, u.reshape((-1,) + u.shape[2:])).reshape(u.shape)
    u_bot = np.einsum("t,vets->ves", bt.extrap_left, u)
    ratio = geom.js_bot[:, None] / geom.js
    jump = ratio * (u_bot - inflow)[:, :, None]
    temporal = du_tau - bt.corr_deriv_left[:, None] * jump
    expected = L - (2.0 / dt) * temporal

    assert np.abs(r_st - expected).max() <= 1e-12 * np.abs(r_st).max()
