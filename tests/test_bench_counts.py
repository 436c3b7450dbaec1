"""Smoke test of `tools/bench_counts.py`, the script that writes the
committed count trajectory `BENCH_<n>.json`."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_counts.py"


def test_measure_counts_wave1d():
    spec = importlib.util.spec_from_file_location("bench_counts", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(tool)
    rec = tool.measure("wave1d_stationary_p2p2")
    assert rec["solver"] == "spacetime"
    assert rec["steps"] == 32
    assert rec["evals_mean"] == 9.0 and rec["evals_max"] == 9
    assert rec["geometry_calls"] == 32
    assert rec["precond_applies_mean"] == 8.0 and rec["us_per_precond_apply"] > 0
    for name in ("interior", "side_deltas", "lift", "temporal_correction"):
        assert rec[f"us_{name}"] > 0
