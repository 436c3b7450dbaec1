import csv
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import stfr
from stfr.cli import (
    TYPED,
    CaseConfig,
    ConfigError,
    _accepted_keys,
    apply_overrides,
    build_mesh,
    emit_reports,
    load_case,
    main,
    run_case,
    sweep,
    validate,
)
from stfr.mesh import disk_mesh, interval_mesh, rect_mesh, write_mesh
from stfr.st_solver import STALL_CYCLES, STALL_RATIO


def test_bundled_case_loads_and_validates():
    cfg = load_case("wave1d_stationary_p2p2")
    validate(cfg)
    assert cfg.solver == "spacetime" and cfg.k_s == 2


def test_bundled_smoke_run():
    cfg = load_case("wave1d_stationary_p2p2")
    cfg.dt = 0.125  # shrink for test speed
    cfg.t_final = 0.25
    row = run_case(cfg)
    assert math.isfinite(row.error_final) and row.error_final > 0
    assert math.isfinite(row.error_slab)


def test_freestream_bundled_case():
    cfg = load_case("freestream_sine_deform")
    cfg.k_s = cfg.k_t = 1
    row = run_case(cfg)
    assert row.error_final <= 1e-11


def test_validation_reports_every_field():
    cfg = CaseConfig(k_s=-1, k_t=-2, dt=-0.5, solver="bogus")
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    msg = str(exc.value)
    assert "k_s" in msg and "k_t" in msg and "dt" in msg and "solver" in msg


def test_validation_dt_multiple():
    cfg = CaseConfig(dt=0.3, t_final=1.0)
    with pytest.raises(ConfigError, match="integer multiple"):
        validate(cfg)


def test_validation_stfv_equation():
    cfg = CaseConfig(solver="stfv",
                     equation={"type": "advection2d"},
                     mesh={"type": "rect", "nx": 4, "ny": 4})
    with pytest.raises(ConfigError, match="stfv"):
        validate(cfg)


def test_sweep_levels_validation():
    cfg = load_case("wave1d_stationary_p2p2")
    with pytest.raises(ConfigError, match="levels"):
        sweep(cfg, "space", 1)
    with pytest.raises(ConfigError, match="axis"):
        sweep(cfg, "diagonal", 2)


def test_space_sweep_orders(tmp_path):
    cfg = load_case("wave1d_stationary_p2p2")
    cfg.mesh["n"] = 8
    cfg.t_final = 0.5
    cfg.dt = 0.125
    cfg.output_dir = str(tmp_path)
    rep = sweep(cfg, "space", 3)
    assert len(rep.rows) == 3
    assert rep.rows[-1].order_final == pytest.approx(3.0, abs=0.4)
    csv_path = tmp_path / f"{cfg.name}_space.csv"
    assert csv_path.exists()
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "resolution"
    # the levels write nothing of their own
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [f"{cfg.name}_space.csv", f"{cfg.name}_space.dat"]


@pytest.mark.acceptance
def test_space_sweep_order_on_deforming_mesh():
    # spatial order k_s+1 = 3 on a sine-deforming mesh: four levels give
    # orders of about 2.22, 2.68 and 2.83; the last must be within 0.3 of 3
    rep = sweep(load_case("compare_sine_deform_p2"), "space", 4)
    orders = [r.order_final for r in rep.rows[1:]]
    assert orders[-1] >= 2.7, orders


def test_overrides_dotted_paths():
    cfg = load_case("wave1d_stationary_p2p2")
    out = apply_overrides(cfg, ["mesh.n=32", "k_s=3", "pseudo.drop_orders=8",
                                "name=custom"])
    assert out.mesh["n"] == 32 and out.k_s == 3
    assert out.pseudo["drop_orders"] == 8
    assert out.name == "custom"


def test_cli_main_run_exit_codes(tmp_path, capsys):
    case = {
        "name": "tiny",
        "equation": {"type": "advection1d", "c": 1.0},
        "exact": {"type": "sine_wave"},
        "mesh": {"type": "interval", "n": 8},
        "motion": {"type": "stationary"},
        "bc": "periodic",
        "solver": "spacetime",
        "k_s": 1, "k_t": 1,
        "dt": 0.125, "t_final": 0.25,
    }
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(case))
    assert main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    assert "error_final" in out

    case["k_s"] = -3
    p.write_text(json.dumps(case))
    assert main(["run", str(p)]) == 1

    case["k_s"] = 1
    case["pseudo"] = {"max_iters": 2}
    p.write_text(json.dumps(case))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "slab 0" in err and "t = 0" in err


def test_stalled_slab_stops_early(capsys):
    # a k_s = 7 vortex slab at dt = 0.25 cuts its residual by 3% in the
    # first step and not at all after; it stops after three such steps
    # instead of running to max_iters
    assert main(["run", "euler_vortex_p3", "--set", "k_s=7", "--set",
                 "dt=0.25", "--set", "t_final=0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slab 0 at t = 0: slab solve stalled: ")
    assert int(err.split(" after ")[1].split()[0]) <= 40
    # the message shows the step ratios that stopped the solve
    ratios = [float(q) for q in err.split("last step ratios ")[1].split(", ")]
    assert sum(q > STALL_RATIO for q in ratios) >= STALL_CYCLES


def test_cli_unknown_case():
    assert main(["run", "no_such_case_anywhere"]) == 1


@pytest.mark.parametrize("overrides, bad", [
    (["mesh.foo=1"], ["mesh.foo"]),
    (["pseudo.bogus=1", "pseudo.other=2"], ["pseudo.bogus", "pseudo.other"]),
    (['equation.type="euler2d"'], ["equation.c1", "equation.c2"]),
    (["motion.amp=[0.1, 0.1]", "motion.type=\"stationary\""], ["motion.amp"]),
    (['mesh={"type": "rect", "nx": 4}'], ["mesh.ny"]),
    (["exact=3"], ["exact"]),
    (["equation.type=[1]"], ["equation.type"]),
    (["pseudo.type=1"], ["pseudo.type"]),
    # the equation's variable count and dimension are not parameters
    (["equation.n_vars=1", "equation.dim=1"], ["equation.n_vars", "equation.dim"]),
    # values of the wrong kind for their parameter's default
    (['equation.c1="x"', 'motion.n_t="x"'], ["equation.c1", "motion.n_t"]),
    (['motion={"type": "rigid_oscillation", "omega": ["a", "b"]}'],
     ["motion.omega"]),
    (['exact={"type": "constant", "value": "a"}'], ["exact.value"]),
    (['equation={"type": "euler2d"}',
      'exact={"type": "isentropic_vortex", "U0": "x", "period": "x"}'],
     ["exact.U0", "exact.period"]),
    (["pseudo.max_iters=1.5", "pseudo.drop_orders=true"],
     ["pseudo.max_iters", "pseudo.drop_orders"]),
    # required keys are checked against their parameter's annotation too
    (['mesh.nx="a"'], ["mesh.nx"]),
])
def test_cli_bad_section_keys_exit_1(capsys, overrides, bad):
    args = ["run", "compare_sine_deform_p2"]
    for pair in overrides:
        args += ["--set", pair]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert all(f"{name}:" in err for name in bad)


@pytest.mark.parametrize("case, overrides, bad", [
    ("wave1d_stationary_p2p2", ["k_s=true", "k_t=true", "t_final=0.0625"],
     ["k_s", "k_t"]),
    ("compare_sine_deform_p2", ["mesh.nx=true", "mesh.ny=true", "t_final=0.02"],
     ["mesh.nx", "mesh.ny"]),
    ("wave1d_stationary_p2p2", ["dt=true", "t_final=true"], ["dt", "t_final"]),
    ("wave1d_stationary_p2p2", ["output_dir=3"], ["output_dir"]),
    ("wave1d_stationary_p2p2", ["name=3", "dump_solution=1"],
     ["name", "dump_solution"]),
    # path 0 would read the mesh from standard input
    ("wave1d_stationary_p2p2", ['mesh={"type": "file", "path": 0}'],
     ["mesh.path"]),
])
def test_cli_wrong_kind_exits_1_before_solve(monkeypatch, capsys, case,
                                             overrides, bad):
    # a value of the wrong kind for its field or parameter stops the run in
    # validate, before any mesh is read or any solver runs
    import stfr.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    for name in ("march", "march_mol"):
        monkeypatch.setattr(cli, name, no_solve)
    args = ["run", case]
    for pair in overrides:
        args += ["--set", pair]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert all(f"\n  {name}: must be " in err for name in bad)


@pytest.mark.parametrize("pair", ["dt=Infinity", "t_final=Infinity", "dt=NaN"])
def test_non_finite_times_exit_1(capsys, pair):
    assert main(["run", "wave1d_stationary_p2p2", "--set", pair]) == 1
    err = capsys.readouterr().err
    assert f"\n  {pair.partition('=')[0]}: must be finite and > 0" in err


@pytest.mark.parametrize("case, pair, key", [
    ("wave2d_circle_p2", "mesh.radius=1e400", "mesh.radius"),
    pytest.param("wave2d_circle_p2", "mesh.radius=1" + "0" * 400, "mesh.radius",
                 id="wave2d_circle_p2-mesh.radius=10**400-mesh.radius"),
    ("wave2d_stationary_p2p2", "mesh.xmax=1e400", "mesh.xmax"),
    ("wave2d_stationary_p2p2", "mesh.ymin=-Infinity", "mesh.ymin"),
    ("wave1d_stationary_p2p2", "equation.c=1e400", "equation.c"),
    ("wave1d_stationary_p2p2", "equation.c=NaN", "equation.c"),
    ("wave1d_stationary_p2p2", 'exact={"type": "constant", "value": [1e400]}',
     "exact.value"),
    ("wave2d_circle_p2", "motion.a_a=1e400", "motion.a_a"),
    ("wave1d_stationary_p2p2",
     'motion={"type": "sine_deformation", "amp": [1e400]}', "motion.amp"),
    ("compare_sine_deform_p2", "motion.n=[2, NaN]", "motion.n"),
    ("compare_sine_deform_p2", "motion.t_max=NaN", "motion.t_max"),
])
def test_non_finite_section_numbers_exit_1(monkeypatch, capsys, case, pair, key):
    # a number the builders would take as inf or nan stops the run in
    # validate, before any builder or solver runs and before NumPy warns
    import warnings

    import stfr.cli as cli

    def not_reached(*args, **kwargs):
        raise AssertionError("builder or solver reached")

    for name in ("build_equation", "build_mesh", "march", "march_mol"):
        monkeypatch.setattr(cli, name, not_reached)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", case, "--set", pair]) == 1
    err = capsys.readouterr().err
    assert f"\n  {key}: must be a " in err and "finite number" in err
    assert not caught and "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("pair, message", [
    # nan compared below 1 is False, and a nan drop target skipped every solve
    ("pseudo.drop_orders=NaN", "error: pseudo: drop_orders must be >= 1"),
    ("pseudo.max_iters=0", "error: pseudo: max_iters must be >= 1"),
    # the basis tables of this degree would take terabytes
    ("k_s=1000000", "\n  k_s: must be >= 0 and <= 20, got 1000000"),
    ("k_t=21", "\n  k_t: must be >= 0 and <= 20, got 21"),
])
def test_out_of_range_controls_exit_1_before_solve(monkeypatch, capsys, pair,
                                                  message):
    import stfr.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    for name in ("march", "march_mol"):
        monkeypatch.setattr(cli, name, no_solve)
    assert main(["run", "wave1d_stationary_p2p2", "--set", pair]) == 1
    assert message in capsys.readouterr().err


def test_degree_bound_is_inclusive():
    cfg = load_case("wave1d_stationary_p2p2")
    cfg.k_s = cfg.k_t = 20
    validate(cfg)


@pytest.fixture
def no_path(monkeypatch):
    """Every motion path and solver raises: a step count that got past
    validate would otherwise stack one node array per step until memory
    runs out."""
    import stfr.cli as cli
    import stfr.motion as motion

    def not_reached(*args, **kwargs):
        raise AssertionError("motion path or solver reached")

    for owner, name in ((motion, "motion_path"), (motion, "node_positions"),
                        (cli, "march"), (cli, "march_mol"), (cli, "march_stfv")):
        monkeypatch.setattr(owner, name, not_reached)
    return not_reached


@pytest.mark.parametrize("dt, steps", [
    # t_final / dt is an integer in floating point
    ("1e-300", "5e+299"),
    # t_final / dt overflows to inf, which round() cannot take
    ("5e-324", "inf"),
])
def test_absurd_step_count_exits_1(no_path, capsys, dt, steps):
    assert main(["run", "euler_vortex_p3", "--set", f"dt={dt}"]) == 1
    err = capsys.readouterr().err
    assert f"\n  dt: t_final/dt = {steps} steps, more than MAX_STEPS = 100000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case, steps", [
    ("wave1d_stationary_p2p2", "3.2e-19"),
    ("mol_sine_deform_p2", "5e-17"),
    ("stfv_moving_1d", "5e-18"),
])
def test_run_shorter_than_one_step_exits_1(no_path, capsys, case, steps):
    # t_final/dt rounds to 0 steps: no solver reports the initial state's
    # error as if it had solved
    assert main(["run", case, "--set", "t_final=1e-20"]) == 1
    err = capsys.readouterr().err
    assert f"\n  dt: t_final/dt = {steps} is less than one step" in err
    assert "Traceback" not in err


def test_step_bound_is_inclusive():
    cfg = load_case("wave1d_stationary_p2p2")
    cfg.dt = cfg.t_final / 100_000
    validate(cfg)
    cfg.dt = cfg.t_final / 100_001
    with pytest.raises(ConfigError, match="100001 steps"):
        validate(cfg)


@pytest.mark.parametrize("levels", ["40", "100000"])
def test_time_sweep_checks_its_finest_level_first(monkeypatch, no_path, capsys,
                                                 levels):
    # no level runs when the finest would take too many steps (or its dt
    # underflows to zero)
    import stfr.cli as cli

    monkeypatch.setattr(cli, "run_case", no_path)
    args = ["sweep", "wave1d_stationary_p2p2", "--axis", "time", "--levels", levels]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: finest time level {int(levels) - 1}: "
                          "invalid configuration:\n  dt: ")
    assert "Traceback" not in err


def test_every_settable_value_has_a_checked_kind():
    import types

    from stfr.cli import FIELD_KINDS, KINDS, SECTIONS

    kinds = list(FIELD_KINDS.values())
    for section in SECTIONS:
        for kind in (TYPED[section] if section in TYPED else [None]):
            kinds += _accepted_keys(section, kind)[2].values()
    for kind in kinds:
        if isinstance(kind, types.UnionType):
            kind = kind.__args__[0]
        assert kind in KINDS


@pytest.mark.parametrize("case, overrides, section", [
    ("compare_sine_deform_p2", ["pseudo.drop_orders=0.5"], "pseudo"),
    ("compare_sine_deform_p2", ["mesh.nx=0"], "mesh"),
    ("euler_vortex_p3", ["equation.gamma=1.0"], "equation"),
    ("compare_sine_deform_p2", ["bad mesh file"], "mesh"),
    ("compare_sine_deform_p2", ["missing mesh file"], "mesh"),
    ("compare_sine_deform_p2", ["motion.amp=[0.1]"], "motion"),
    ("euler_vortex_p3", ['exact={"type": "constant", "value": [1, 1, 1]}'],
     "exact"),
    ("wave1d_stationary_p2p2", ['exact={"type": "constant", "value": []}'],
     "exact"),
    ("euler_vortex_p3", ["exact.b=0"], "exact"),
    ("euler_vortex_p3", ["exact.period=0"], "exact"),
    ("wave1d_stationary_p2p2", ["mesh.xmax=0"], "mesh"),
    ("wave2d_stationary_p2p2", ["mesh.xmax=-2"], "mesh"),
    ("wave2d_stationary_p2p2", ["mesh.ymax=-3"], "mesh"),
    ("wave2d_circle_p2", ["mesh.radius=0"], "mesh"),
    # the dimension of a file mesh is known once it is read
    ("wave2d_stationary_p2p2", ["1D mesh file", "t_final=0.25"], "mesh"),
    ("wave1d_stationary_p2p2", ["2D mesh file"], "mesh"),
    # boundary lines on an interior edge or on no element edge are read
    # errors, not a failure of the solver's face tables
    ("wave2d_stationary_p2p2", ["interior-edge mesh file", "bc=dirichlet"], "mesh"),
    ("wave2d_stationary_p2p2", ["diagonal mesh file", "bc=dirichlet"], "mesh"),
    # one positive value per mesh dimension, no more
    ("compare_sine_deform_p2", ["motion.amp=[0.1,0.1,0.1]"], "motion"),
    ("compare_sine_deform_p2", ["motion.length=[0,0]"], "motion"),
    ("stfv_moving_1d", ["motion.length=[0]"], "motion"),
    ("compare_sine_deform_p2", ["motion.t_max=0"], "motion"),
    # a case file that cannot be read, is not UTF-8 JSON or is not an
    # object: the error names the file
    ("malformed case file", [], "case"),
    ("case directory", [], "case"),
    ("non-UTF-8 case file", [], "case"),
    ("number case file", [], "case"),
    ("null case file", [], "case"),
    ("list case file", [], "case"),
    # a non-finite node is a read error, not a degenerate Jacobian
    ("wave2d_stationary_p2p2", ["non-finite mesh file", "bc=dirichlet"], "mesh"),
    # a negative boundary-face count, once read as a one-quad mesh with
    # every edge dirichlet
    ("wave2d_stationary_p2p2", ["negative-count mesh file", "bc=dirichlet"], "mesh"),
    # stfv treats its interfaces as periodic: a dirichlet end is refused
    ("stfv_moving_1d", ["bc=dirichlet"], "solver"),
    # a line after the counted ones, and an element naming a node twice
    ("wave2d_stationary_p2p2", ["extra-line mesh file", "bc=dirichlet"], "mesh"),
    ("wave2d_stationary_p2p2", ["repeated-node mesh file", "bc=dirichlet"], "mesh"),
    # two corners at one point; and stfv on elements that leave a gap
    ("wave2d_stationary_p2p2", ["coincident-corner mesh file", "bc=dirichlet"], "mesh"),
    ("stfv_moving_1d", ["gapped 1D mesh file"], "mesh"),
    # JSON reads 1e400 as inf, which would solve every slab to round-off
    ("euler_vortex_p3", ["t_final=0.0625", "pseudo.drop_orders=1e400"], "pseudo"),
])
def test_cli_build_errors_exit_1(tmp_path, capsys, case, overrides, section):
    bad = tmp_path / "bad.mesh"
    bad.write_text("2 4 1 0\n0 0\n1 0\n")  # header promises more lines
    files = {"bad mesh file": bad, "missing mesh file": tmp_path / "none.mesh",
             "1D mesh file": tmp_path / "1d.mesh", "2D mesh file": tmp_path / "2d.mesh",
             "interior-edge mesh file": tmp_path / "interior.mesh",
             "diagonal mesh file": tmp_path / "diagonal.mesh"}
    write_mesh(interval_mesh(8), files["1D mesh file"])
    write_mesh(rect_mesh(4, 4), files["2D mesh file"])
    # two quads side by side; their left edge 0 3 is the line added below
    quads = ("2 6 2 7\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 1 4 3\n1 2 5 4\n"
             + "".join(f"{a} {b} dirichlet\n" for a, b in [(0, 1), (1, 2), (2, 5),
                                                         (5, 4), (4, 3)]))
    files["interior-edge mesh file"].write_text(quads + "1 4 periodic:a\n0 3 periodic:a\n")
    files["diagonal mesh file"].write_text(quads + "3 0 dirichlet\n0 4 dirichlet\n")
    files["non-finite mesh file"] = tmp_path / "nan.mesh"
    files["non-finite mesh file"].write_text(
        quads.replace("2 6 2 7\n0 0\n1 0\n", "2 6 2 6\n0 0\n1 nan\n") + "3 0 dirichlet\n")
    files["negative-count mesh file"] = tmp_path / "count.mesh"
    files["negative-count mesh file"].write_text("2 4 1 -3\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n")
    quad = "2 4 1 0\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n"
    files["extra-line mesh file"] = tmp_path / "extra.mesh"
    files["extra-line mesh file"].write_text(quad + "extra junk\n")
    files["repeated-node mesh file"] = tmp_path / "twice.mesh"
    files["repeated-node mesh file"].write_text(quad.replace("0 1 2 3", "0 1 2 2"))
    files["coincident-corner mesh file"] = tmp_path / "coincident.mesh"
    files["coincident-corner mesh file"].write_text(quad.replace("1 1", "1 0"))
    # elements [0, 0.5] and [0.6, 1], every end tagged periodic
    files["gapped 1D mesh file"] = tmp_path / "gap.mesh"
    files["gapped 1D mesh file"].write_text(
        "1 4 2 4\n0\n0.5\n0.6\n1\n0 1\n2 3\n"
        "0 periodic:a\n3 periodic:a\n1 periodic:b\n2 periodic:b\n")
    cases = {"malformed case file": b'{"name": ', "non-UTF-8 case file": b'{"name": "\xff"}',
             "number case file": b"5", "null case file": b"null",
             "list case file": b"[1, 2]"}
    for name, text in cases.items():
        files[name] = tmp_path / f"{name.replace(' ', '_')}.json"
        files[name].write_bytes(text)
    files["case directory"] = tmp_path / "case_dir"
    files["case directory"].mkdir()
    if case in files:
        case = str(files[case])
        section = f"case {case!r}"
    args = ["run", case]
    for pair in overrides:
        if pair in files:
            pair = f'mesh={{"type": "file", "path": "{files[pair]}"}}'
        args += ["--set", pair]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {section}:" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", [["run"], ["sweep", "--axis", "time", "--levels", "2"]])
def test_unusable_output_dir_exits_1_before_solve(monkeypatch, tmp_path, capsys, verb):
    import stfr.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    for name in ("march", "march_mol"):
        monkeypatch.setattr(cli, name, no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [verb[0], "wave1d_stationary_p2p2", *verb[1:], "--out", str(blocker / "x")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output_dir: ") and "Traceback" not in err
    assert str(blocker / "x") in err


def test_usage_errors_exit_1(capsys):
    # argparse's own message, exit 1 (exit 2 means a slab did not converge)
    assert main(["check"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'check'" in err and "'run'" in err and "'sweep'" in err
    assert main(["sweep", "wave1d_stationary_p2p2", "--axis", "space",
                 "--levels", "abc"]) == 1
    assert "--levels: invalid int value: 'abc'" in capsys.readouterr().err


def test_help_exits_0_and_lists_run_and_sweep(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{run,sweep}" in out and "check" not in out


def test_file_disk_runs_the_circle_deformation(tmp_path, capsys):
    # a 2D file mesh takes a 2D motion, and the disk read back from its file
    # gives the errors of the disk built in memory
    path = tmp_path / "disk.mesh"
    write_mesh(disk_mesh(1), path)
    args = ["run", "wave2d_circle_p2", "--set", "t_final=0.125"]
    assert main(args + ["--set", f'mesh={{"type": "file", "path": "{path}"}}']) == 0
    from_file = capsys.readouterr().out
    assert main(args) == 0
    built = capsys.readouterr().out
    assert from_file.split("walltime")[0] == built.split("walltime")[0]


def test_motion_that_breaks_periodicity_exits_1(capsys):
    # a length-4 sine deformation with n = 3 on the vortex's [-2, 2]^2
    # moves the two sides of every periodic pair in opposite directions
    motion = ('motion={"type": "sine_deformation", "amp": [0.1, 0.1], '
              '"length": [4, 4], "n": [3, 3], "t_max": 0.5}')
    assert main(["run", "euler_vortex_p3", "--set", "dt=0.125",
                 "--set", motion]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: motion: SineDeformation(")
    assert "periodic partner nodes" in err and "Traceback" not in err


@pytest.mark.parametrize("case, overrides, message", [
    ("compare_sine_deform_p2", ["motion.amp=[3.0,3.0]"],
     "slab 2 at t = 0.04: non-positive space-time Jacobian"),
    ("euler_vortex_p3", ["t_final=0.0625", "exact.u_max=1.0"],
     "slab 0 at t = 0: non-positive pressure"),
    ("stfv_moving_1d", ["motion.amp=[10.0]"],
     "step 47 at t = 0.094: interfaces must be strictly"),
    ("mol_sine_deform_p2", ["motion.amp=[3.0,3.0]"],
     "step 204 at t = 0.0408: non-positive space-time Jacobian"),
    # unstable runs: the state overflows instead of failing a check
    ("stfv_moving_1d", ["motion.amp=[3.0]"],
     "step 94 at t = 0.188: non-finite solution values"),
    ("mol_sine_deform_p2",
     ["dt=0.04", "t_final=24.0", "motion.amp=[0.01,0.01]"],
     "step 480 at t = 19.2: non-finite solution values"),
])
def test_cli_solver_state_errors_exit_3(capsys, case, overrides, message):
    args = ["run", case]
    for pair in overrides:
        args += ["--set", pair]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("case, overrides, step", [
    ("stfv_moving_1d", ["motion.amp=[3.0]"], "step 94"),
    ("mol_sine_deform_p2",
     ["dt=0.04", "t_final=24.0", "motion.amp=[0.01,0.01]"], "step 480"),
])
def test_cli_unstable_run_prints_one_line(case, overrides, step):
    # the overflow of an unstable run is reported by the named error only,
    # with no NumPy warning ahead of it on stderr
    args = [sys.executable, "-m", "stfr.cli", "run", case]
    for pair in overrides:
        args += ["--set", pair]
    env = dict(os.environ, PYTHONPATH=str(Path(stfr.__file__).parents[1]))
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: {step} at t = ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("pair, message", [
    # the vortex core would have no positive density
    ("exact.u_max=10", "IsentropicVortex requires 0.5 (gamma - 1) u_max^2 e < 1"),
    ('exact={"type":"constant","value":[1,0,0,-1]}',
     "a constant Euler state needs pressure > 0, got -0.4"),
    ('exact={"type":"constant","value":[-1,0,0,2.5]}',
     "a constant Euler state needs density > 0, got -1"),
], ids=["u_max=10", "constant-pressure", "constant-density"])
def test_inadmissible_euler_exact_state_exits_1(monkeypatch, capsys, pair,
                                                message):
    # a state with no positive density or pressure is a config error, named
    # on one line before any solver runs and before NumPy warns
    import warnings

    import stfr.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "march", no_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "euler_vortex_p3", "--set", pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: exact: {message}") and err.count("\n") == 1
    assert not caught


# config mutations the fuzz test draws from: each ends a run in exit 0-3
FUZZ_MUTATIONS = [
    'equation.c="x"', 'exact.U0="x"', 'motion.n_t="x"', 'motion.omega=["a","b"]',
    'exact={"type":"constant","value":"a"}', 'exact={"type":"constant","value":[]}',
    'exact={"type":"constant","value":[1.0,1.0,1.0]}', "exact.b=0",
    "exact.period=0", "equation.n_vars=1", "equation.dim=1", "mesh.n=0",
    "mesh.nx=-1", "mesh.level=-1", "mesh.xmax=0", "mesh.xmax=-2",
    "mesh.ymax=-3", "mesh.radius=0", "motion.t_max=0",
    "motion.amp=[3.0,3.0]", "motion.n=[0,0]", "dt=-1", "k_t=-1",
    "equation.gamma=1", "equation.c=0", "exact.u_max=10", "k_s=1000000",
]


def _fits(cfg, pair):
    """False for a key that only another type of the case's section takes:
    it would stop every run at the unknown-key check."""
    section, _, name = pair.partition("=")[0].partition(".")
    if not name:
        return True

    def takes(kind):
        return name in _accepted_keys(section, kind)[0]
    return takes(getattr(cfg, section)["type"]) or not any(map(takes, TYPED[section]))


@pytest.mark.parametrize("seed", range(30))
def test_seeded_fuzz_exits_cleanly(capsys, seed):
    """A bundled case with two random mutations that fit its section types,
    run for one slab or step, ends in a stable exit code: no exception
    escapes `main`."""
    cases = sorted(p.name.removesuffix(".json") for p in
                   resources.files("stfr").joinpath("cases").iterdir()
                   if p.name.endswith(".json"))
    rng = random.Random(seed)
    cfg = load_case(rng.choice(cases))
    args = ["run", cfg.name, "--set", f"t_final={cfg.dt}"]
    for pair in rng.sample([m for m in FUZZ_MUTATIONS if _fits(cfg, m)], 2):
        args += ["--set", pair]
    assert main(args) in (0, 1, 2, 3), args
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case, exact", [
    ("euler_vortex_p3", "sine_wave"),
    ("compare_sine_deform_p2", "isentropic_vortex"),
])
def test_exact_type_must_solve_equation(capsys, case, exact):
    assert main(["run", case, "--set", f'exact={{"type": "{exact}"}}']) == 1
    assert f"exact.type: '{exact}' does not solve" in capsys.readouterr().err


def test_determinism_identical_rows():
    cfg = load_case("wave1d_stationary_p2p2")
    cfg.dt = 0.125
    cfg.t_final = 0.25
    r1 = run_case(cfg)
    r2 = run_case(cfg)
    # identical apart from wall time
    assert r1.error_final == r2.error_final
    assert r1.error_slab == r2.error_slab
    assert r1.resolution == r2.resolution


def test_emit_reports(tmp_path):
    from stfr.analysis import ConvergenceReport

    rep = ConvergenceReport()
    rep.add(0.1, 1e-3, 1e-3)
    rep.add(0.05, 1e-4, 1e-4)
    files = emit_reports(rep, tmp_path, name="demo")
    assert [f.name for f in files] == ["demo.csv", "demo.dat"]
    assert all(f.exists() for f in files)
    with pytest.raises(ValueError):
        emit_reports(ConvergenceReport(), tmp_path)


def test_run_case_writes_outputs(tmp_path):
    # every solver writes its report and one dump: its final values (a
    # slab, a MOL state, variables first, the FV cell averages) and node
    # coordinates
    for case, values in [("wave1d_stationary_p2p2", (1, 16, 3, 3)),
                         ("mol_sine_deform_p2", (1, 64, 9)),
                         ("stfv_moving_1d", (64,))]:
        cfg = load_case(case)
        cfg.t_final = 2 * cfg.dt
        cfg.output_dir = str(tmp_path)
        cfg.dump_solution = True
        run_case(cfg)
        assert (tmp_path / f"{cfg.name}.csv").exists()
        with np.load(tmp_path / f"{cfg.name}_solution.npz") as dump:
            assert sorted(dump) == ["coords", "values"]
            assert dump["values"].shape == values
            assert dump["coords"].shape == build_mesh(cfg).nodes.shape


def test_stfv_case_runs():
    cfg = load_case("stfv_moving_1d")
    cfg.mesh["n"] = 32
    cfg.dt = 0.004
    row = run_case(cfg)
    assert math.isfinite(row.error_final)
    assert math.isnan(row.error_slab)


def test_stfv_takes_its_cells_from_the_elements(tmp_path):
    # a node that no element names is no interface: the run equals the
    # one on the file without it, whatever the order of the node lines
    texts = {"clean": "1 3 2 2\n0\n0.5\n1\n0 1\n1 2\n0 periodic:a\n2 periodic:a\n",
             "stray": "1 4 2 2\n0\n0.5\n1\n5\n0 1\n1 2\n0 periodic:a\n2 periodic:a\n",
             "reversed": "1 4 2 2\n1\n5\n0.5\n0\n2 3\n0 2\n3 periodic:a\n0 periodic:a\n"}
    errors = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.mesh"
        path.write_text(text)
        cfg = load_case("stfv_moving_1d")
        cfg.mesh = {"type": "file", "path": str(path)}
        cfg.t_final = 0.1
        errors.append(run_case(cfg).error_final)
    assert errors[0] == pytest.approx(8.904491e-02, rel=1e-6)
    assert errors[1] == errors[0] and errors[2] == errors[0]


def test_mol_case_runs():
    cfg = load_case("mol_sine_deform_p2")
    cfg.mesh = {"type": "rect", "nx": 4, "ny": 4}
    cfg.dt = 0.001
    cfg.t_final = 0.02
    row = run_case(cfg)
    assert math.isfinite(row.error_final)
