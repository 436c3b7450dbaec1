"""Tests of the benchmark itself, on reduced-length runs.

    python3 -m pytest stfrbench
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import manifest
import run
import spec
import tracer

# slabs or RK3 steps of the reduced runs
SHORT = {"st_adv_deform": 1, "st_euler_vortex": 1, "mol_adv_deform": 20}

COUNTS = ["st_solver.slabs", "st_solver.residual.calls",
          "st_solver.pseudo_iters_per_slab", "st_solver.pseudo_iters_max",
          "physics.euler_primitives.calls_per_residual",
          "geometry.slab_geometry.calls", "geometry.spatial_geometry.calls",
          "mol_solver.operator_builds", "mol_solver.residual.calls"]


@pytest.fixture(scope="module", params=sorted(SHORT))
def traced_pair(request):
    """Two traced reduced runs of one workload, each one solve of each kind."""
    name = request.param
    return name, [run.run(name, seed=1, seconds=0, trace=True,
                          n_steps=SHORT[name]) for _ in range(2)]


def test_manifest_matches_spec_and_limits():
    on_disk = json.loads(manifest.PATH.read_text())
    assert on_disk == manifest.manifest()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in on_disk["workloads"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_zero_is_the_bundled_case():
    for wl in spec.WORKLOADS.values():
        cfg = {"dt": 0.5, "equation": {}, "exact": {}, "motion": {}}
        assert spec.overrides(cfg, wl, 0) == [f"t_final={wl.n_steps * 0.5}"]
        assert spec.overrides(cfg, wl, 7) == spec.overrides(cfg, wl, 7)
        assert len(spec.overrides(cfg, wl, 7)) == 1 + len(wl.perturbed)


def test_untraced_run_emits_end_to_end_metrics():
    result, details, spans = run.run("mol_adv_deform", seed=1, seconds=0,
                                     trace=False, n_steps=SHORT["mol_adv_deform"])
    assert result["correct"] and result["failed"] == 0 and not spans
    assert list(result["metrics"]) == [n for n, *_ in spec.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"numpy", "blas", "blas_threads", "nproc"} <= set(details["env"])


def test_traced_run_emits_every_layer_metric(traced_pair):
    _, runs = traced_pair
    for result, details, _ in runs:
        assert result["correct"] and result["attempted"] == 2
        assert list(result["metrics"]) == [n for n, *_ in spec.PER_LAYER]
        assert details["missing"] == []
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_counts_repeat_exactly(traced_pair):
    name, ((first, _, _), (second, _, _)) = traced_pair
    for metric in COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    euler = first["metrics"]["physics.euler_primitives.calls_per_residual"]
    assert euler["value"] == (5.0 if name == "st_euler_vortex" else 0.0)


def test_children_fit_inside_their_parent(traced_pair):
    _, runs = traced_pair
    for _, _, traced in runs:
        for spans in traced:
            child_sum = [0.0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    child_sum[parent] += end - start
            for (_, start, end, _), inside in zip(spans, child_sum):
                assert inside <= end - start
            assert min(tracer.self_times(spans)) >= 0.0


def test_named_layers_cover_the_solve(traced_pair):
    _, runs = traced_pair
    for result, _, _ in runs:
        assert result["metrics"]["trace.layer_share"]["value"] >= 0.9


def test_missing_target_is_reported_not_zero(monkeypatch):
    run.load_stfr()
    from stfr import physics

    monkeypatch.delattr(physics, "_roe_ale")
    tr = tracer.Tracer()
    tr.install()
    tr.remove()
    assert tr.missing == ["physics.roe_ale"]
    spans = [["solve", 0.0, 1.0, -1], ["st_solver.residual", 0.1, 0.9, 0]]
    facts = {"dof": 10, "pseudo_iters": [3], "drop_orders": [10.0]}
    values = tracer.per_layer([(spans, facts)], tr.missing, overhead=0.0)
    assert values["physics.roe_ale.us_per_call"] is None
    assert values["st_solver.residual.calls"] == 1


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.ROOT / "stfrbench", tmp_path / "stfrbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(manifest.PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "stfrbench/run.py", "--workload", "st_adv_deform",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
