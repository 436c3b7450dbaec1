"""The Newton-Krylov slab solve: GMRES on its own, the residual evaluations
a slab costs, and slabs close to the Euler admissibility limit."""

import numpy as np
import pytest

from stfr.basis import make_basis
from stfr.cli import (build_equation, build_exact, build_mesh, build_motion,
                      load_case, main, run_case)
from stfr.mesh import rect_mesh
from stfr.physics import (Euler2D, IsentropicVortex, NonPhysicalStateError,
                          euler_primitives)
from stfr.st_solver import (PseudoConvergenceError, SlabOperator, advance_slab,
                            gmres, initial_condition, march)


@pytest.mark.parametrize("m", [12])
def test_gmres_dense_nonsymmetric(m):
    rng = np.random.default_rng(3)
    n = 12
    A = n * np.eye(n) + rng.standard_normal((n, n))
    assert np.abs(A - A.T).max() > 1.0
    b = rng.standard_normal(n)
    x = gmres(lambda v: A @ v, b, tol=1e-14 * np.linalg.norm(b),
              V=np.empty((m + 1, n)))
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-10


def test_gmres_respects_product_budget():
    """A cycle of m makes at most m products, however far it is from tol."""
    rng = np.random.default_rng(4)
    A = 8 * np.eye(8) + rng.standard_normal((8, 8))
    products = []

    def matvec(v):
        products.append(1)
        return A @ v

    gmres(matvec, rng.standard_normal(8), tol=0.0, V=np.empty((6, 8)))
    assert len(products) == 5


# ceilings on the mean residual evaluations per slab over a full run of the
# bundled case; the preconditioned solve takes 16.8, 37.0 and 31.0, the
# unpreconditioned GMRES it replaced 77.2, 170.4 and 75.8
MEAN_EVALS = {"wave2d_sine_deform": 25, "wave2d_circle_p2": 50,
              "euler_vortex_p3": 40}

# exact residual evaluations of the leading slabs: a preconditioner defect
# that only slows convergence changes them
LEADING_EVALS = {"wave2d_sine_deform": [11, 13], "wave2d_circle_p2": [24],
                 "euler_vortex_p3": [32, 31, 31, 30, 31, 31, 31, 31]}


def _count_residuals(monkeypatch):
    calls = []
    residual = SlabOperator.residual

    def counted(self, u):
        calls.append(1)
        return residual(self, u)

    monkeypatch.setattr(SlabOperator, "residual", counted)
    return calls


@pytest.mark.parametrize("case", sorted(MEAN_EVALS))
def test_slab_residual_evaluations_ceiling(case, monkeypatch):
    cfg = load_case(case)
    eq = build_equation(cfg)
    calls = _count_residuals(monkeypatch)
    n_steps = round(cfg.t_final / cfg.dt)
    res = march(build_mesh(cfg), build_motion(cfg), eq, build_exact(cfg, eq),
                cfg.k_s, cfg.k_t, cfg.dt, n_steps=n_steps)
    evals = [st.iterations for st in res.stats]
    assert sum(evals) == len(calls) and len(evals) == n_steps
    assert evals[:len(LEADING_EVALS[case])] == LEADING_EVALS[case]
    assert np.mean(evals) <= MEAN_EVALS[case]
    for st in res.stats:
        assert st.final_residual <= st.initial_residual * 1e-10


def test_first_slab_converges_in_one_gmres_cycle(monkeypatch):
    """The first wave2d_sine_deform slab reaches its 10-order drop within one
    restart length: one `gmres` call."""
    cycles = []

    def counted(*args):
        cycles.append(1)
        return gmres(*args)

    monkeypatch.setattr("stfr.st_solver.gmres", counted)
    cfg = load_case("wave2d_sine_deform")
    eq = build_equation(cfg)
    march(build_mesh(cfg), build_motion(cfg), eq, build_exact(cfg, eq),
          cfg.k_s, cfg.k_t, cfg.dt, n_steps=1)
    assert len(cycles) == 1


def test_disk_k_s_5_converges_every_slab():
    """The k_s = 5 disk: every slab reaches its 10-order drop (a slab that
    stalls or runs out of evaluations exits 2)."""
    assert main(["run", "wave2d_circle_p2", "--set", "k_s=5"]) == 0


def test_large_dt_single_slab(monkeypatch):
    """wave2d_sine_deform as one slab of dt = 0.2, ten times the bundled
    step: the slab converges in few evaluations and to the pinned error."""
    cfg = load_case("wave2d_sine_deform")
    cfg.dt = cfg.t_final = 0.2
    calls = _count_residuals(monkeypatch)
    row = run_case(cfg)
    assert len(calls) <= 50
    assert row.error_final == pytest.approx(1.7985245e-4, rel=1e-6, abs=0)


@pytest.mark.parametrize("pressure_left", [1e-2, 1e-3])
def test_euler_slab_near_admissibility_limit(pressure_left):
    """A vortex whose pressure is cut to a small fraction either converges
    to an admissible slab or ends in a named error, never a floating-point
    fault."""
    eq = Euler2D()
    m = rect_mesh(4, 4, -2.0, 2.0, -2.0, 2.0)
    bs = bt = make_basis(2)
    inflow = initial_condition(m, m.nodes, bs, IsentropicVortex(period=4.0))
    p = euler_primitives(eq, np.moveaxis(inflow, -1, 0))[3]
    inflow[..., 3] -= (1.0 - pressure_left) * p / (eq.gamma - 1.0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, _, top, st = advance_slab(inflow, m, m.nodes, m.nodes, 0.25,
                                         0.0, eq, bs, bt)
    except (NonPhysicalStateError, PseudoConvergenceError):
        return
    assert st.final_residual <= st.initial_residual * 1e-10
    assert euler_primitives(eq, np.moveaxis(top, -1, 0))[3].min() > 0
