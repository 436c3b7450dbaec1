"""Smoke test of `tools/bench_counts.py`, the script that writes the
committed count trajectory `BENCH_<n>.json`."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from stfr import analysis, cli, st_solver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_counts.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_measure_counts_wave1d(tool):
    rec = tool.measure("wave1d_stationary_p2p2")
    assert rec["solver"] == "spacetime"
    assert rec["steps"] == 32 and rec["dof"] == 144
    assert rec["evals_mean"] == 9.0 and rec["evals_max"] == 9
    assert rec["geometry_calls"] == 32
    assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] >= 0
    assert rec["precond_applies_mean"] == 8.0 and rec["us_per_precond_apply"] > 0
    for name in ("interior", "side_deltas", "lift", "temporal_correction",
                 "traces", "common_flux", "normal_flux"):
        assert rec[f"us_{name}"] > 0


def test_measure_reports_the_mol_layers(tool):
    # the method of lines' residual layers come from the mol_solver spans;
    # it has no temporal correction
    rec = tool.measure("mol_sine_deform_p2")
    assert rec["solver"] == "mol" and rec["precond_applies_mean"] is None
    for name in ("interior", "side_deltas", "lift", "traces", "common_flux",
                 "normal_flux"):
        assert rec[f"us_{name}"] > 0
    assert rec["us_temporal_correction"] is None


def test_measure_counts_the_fv_scheme_like_the_others(tool):
    # the FV march is counted for page faults and its norm is timed; it has
    # no residual operator
    rec = tool.measure("stfv_moving_1d")
    assert rec["solver"] == "stfv" and rec["steps"] == 100
    assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] >= 0
    assert rec["error_norms_s"] > 0
    assert rec["dof"] is None and rec["evals_mean"] is None


def test_every_case_starts_from_cold_caches(tool):
    # a case measured twice in one process builds its norm rule both times:
    # the second run reads the first's cache statistics, misses and no hits
    # carried over, as a fresh `stfr run` would (cache_clear also resets
    # the statistics)
    tool.measure("wave1d_stationary_p2p2")
    first = analysis._rule.cache_info()
    tool.measure("wave1d_stationary_p2p2")
    assert first.misses >= 1
    assert analysis._rule.cache_info() == first


def test_traced_counts_match_slab_stats(tool):
    # the evaluations the tool gives each slab are those the slab solve
    # counts itself; this case's slabs take 25 to 59 evaluations each,
    # and one preconditioner apply fewer
    cfg = cli.load_case("wave2d_circle_p2")
    eq = cli.build_equation(cfg)
    res, spans = tool.trace(lambda: st_solver.march(
        cli.build_mesh(cfg), cli.build_motion(cfg), eq,
        cli.build_exact(cfg, eq), cfg.k_s, cfg.k_t, cfg.dt,
        round(cfg.t_final / cfg.dt), controls=cli.build_pseudo(cfg)))
    evals, applies = tool.per_unit(spans)
    assert evals == [s.iterations for s in res.stats]
    assert len(set(evals)) > 1
    assert applies == [n - 1 for n in evals]
