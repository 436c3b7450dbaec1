"""Case configuration, run orchestration, convergence sweeps, and reports.

Verbs:
    stfr run <case> [--set key.path=value ...] [--out DIR]
    stfr sweep <case> --axis space|time --levels N [--set ...] [--out DIR]

<case> is a JSON file path or the name of a bundled case (see `cases/`).
A run marches one of three solvers (`march`, `march_mol`, `march_stfv`),
each to a `MarchResult`, and measures it with its `analysis` norm.
Exit codes: 0 success, 1 usage or validation error, 2 solver non-convergence,
3 inadmissible solver state (a non-positive Jacobian, an inverted cell, a
non-physical flow state or a non-finite solution).
"""

import argparse
import inspect
import json
import math
import sys
import time
import types
from dataclasses import dataclass, field, fields
from functools import lru_cache, wraps
from importlib import resources
from pathlib import Path

import numpy as np

from stfr import analysis, mesh as meshmod, motion as motionmod, physics, stfv
from stfr.analysis import ConvergenceReport
from stfr.geometry import GeometryDegeneracyError
from stfr.mol_solver import march_mol, mol_stable_dt
from stfr.st_solver import PseudoControls, PseudoConvergenceError, march
from stfr.stfv import march_stfv


class ConfigError(ValueError):
    """Invalid case configuration; message lists every offending field."""


EQUATIONS = {"advection1d": physics.Advection1D,
             "advection2d": physics.Advection2D,
             "euler2d": physics.Euler2D}
MESHES = {"interval": meshmod.interval_mesh, "rect": meshmod.rect_mesh,
          "disk": meshmod.disk_mesh, "file": meshmod.read_mesh}
MOTIONS = {"stationary": motionmod.Stationary,
           "rigid_oscillation": motionmod.RigidOscillation,
           "sine_deformation": motionmod.SineDeformation,
           "circle_deformation": motionmod.CircleDeformation}
# exact-solution kind -> the class whose parameters its section may set
EXACTS = {"sine_wave": physics.SineWave2D,
          "isentropic_vortex": physics.IsentropicVortex,
          "constant": physics.Constant}
TYPED = {"equation": EQUATIONS, "mesh": MESHES, "motion": MOTIONS,
         "exact": EXACTS}
SECTIONS = ("equation", "exact", "mesh", "motion", "pseudo")
# highest k_s and k_t: the eigenvector matrices the Kronecker preconditioner
# diagonalizes by have condition numbers 1.6e5 at k = 10, 7.7e10 at k = 20
# and 5.6e13 at k = 25, and a huge degree would ask for huge basis tables
MAX_DEGREE = 20
# most steps t_final / dt of a run: the motion path holds (n_steps + 1)
# n_nodes dim doubles, 130 MB for the 81 nodes of an 8x8 rect mesh at this
# cap, and an absurdly small dt would ask for more memory than there is
MAX_STEPS = 100_000
# parameters that a builder fills in rather than the config
FIXED = {"mesh": ("periodic",),                   # from bc
         "exact": ("c", "c1", "c2", "gamma")}     # from the equation


@dataclass
class CaseConfig:
    name: str = "case"
    equation: dict = field(default_factory=lambda: {"type": "advection1d"})
    exact: dict = field(default_factory=lambda: {"type": "sine_wave"})
    mesh: dict = field(default_factory=lambda: {"type": "interval", "n": 16})
    motion: dict = field(default_factory=lambda: {"type": "stationary"})
    bc: str = "periodic"
    solver: str = "spacetime"
    k_s: int = 2
    k_t: int = 2
    dt: float = 0.03125
    t_final: float = 1.0
    pseudo: dict = field(default_factory=dict)
    output_dir: str | None = None
    dump_solution: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "CaseConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def validate(cfg: CaseConfig):
    """Collect every validation failure; raise ConfigError naming them all."""
    bad = {f: want for f, kind in FIELD_KINDS.items()
           if (want := _misfit(getattr(cfg, f), kind))}
    errs = [f"{f}: must be {want}, got {getattr(cfg, f)!r}"
            for f, want in bad.items()]
    if bad.keys() & set(SECTIONS):
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    if "solver" not in bad and cfg.solver not in ("spacetime", "mol", "stfv"):
        errs.append(f"solver: unknown solver {cfg.solver!r}")
    kinds = {}  # section -> its valid type
    for section in SECTIONS:
        d = getattr(cfg, section)
        kind = d.get("type") if section in TYPED else None
        if section in TYPED and not (isinstance(kind, str) and kind in TYPED[section]):
            errs.append(f"{section}.type: unknown {kind!r}")
            continue
        kinds[section] = kind
        names, required, annotations = _accepted_keys(section, kind)
        what = f"for {section} type {kind!r}" if kind else f"in {section}"
        errs += [f"{section}.{k}: unknown key {what}" for k in sorted(d.keys() - names)]
        errs += [f"{section}.{k}: required {what}" for k in required if k not in d]
        table = FINITE_KINDS if section in TYPED else KINDS
        errs += [f"{section}.{k}: must be {want}, got {d[k]!r}"
                 for k in sorted(d.keys() & annotations.keys())
                 if (want := _misfit(d[k], annotations[k], table))]
    eq_kind, ex_kind = kinds.get("equation"), kinds.get("exact")
    if eq_kind and ex_kind and not issubclass(EQUATIONS[eq_kind],
                                              physics.EXACT_KINDS[ex_kind]):
        errs.append(f"exact.type: {ex_kind!r} does not solve equation "
                    f"type {eq_kind!r}")
    if "bc" not in bad and cfg.bc not in ("periodic", "dirichlet"):
        errs.append(f"bc: must be periodic or dirichlet, got {cfg.bc!r}")
    errs += [f"{f}: must be >= 0 and <= {MAX_DEGREE}, got {getattr(cfg, f)!r}"
             for f in ("k_s", "k_t")
             if f not in bad and not 0 <= getattr(cfg, f) <= MAX_DEGREE]
    times = [f for f in ("dt", "t_final") if f not in bad]
    finite = [f for f in times if 0 < getattr(cfg, f) < math.inf]
    errs += [f"{f}: must be finite and > 0, got {getattr(cfg, f)!r}"
             for f in times if f not in finite]
    if len(finite) == 2:
        ratio = cfg.t_final / cfg.dt
        if ratio > MAX_STEPS:
            errs.append(f"dt: t_final/dt = {ratio:.6g} steps, more than "
                        f"MAX_STEPS = {MAX_STEPS}")
        elif round(ratio) < 1:
            errs.append(f"dt: t_final/dt = {ratio:.6g} is less than one step")
        elif abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
            errs.append(f"dt: t_final={cfg.t_final} is not an integer multiple "
                        f"of dt={cfg.dt}")
    if cfg.solver == "stfv" and cfg.equation.get("type") != "advection1d":
        errs.append("solver: stfv requires equation.type == advection1d")
    # build_mesh matches the mesh dimension to the equation's
    if (eq_kind and kinds.get("motion") == "circle_deformation"
            and EQUATIONS[eq_kind].dim != 2):
        errs.append("motion: circle_deformation requires a 2D mesh")
    if cfg.mesh.get("type") == "disk" and cfg.bc != "dirichlet":
        errs.append("bc: disk meshes require analytic dirichlet boundaries")
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return cfg


@lru_cache(maxsize=None)
def _accepted_keys(section: str, kind: str | None):
    """(settable, required, annotations) of a config section of type
    `kind`: the parameters of what it builds, less those its builder fills
    in, those without a default, and the annotation of each.  Cached,
    because inspecting a signature costs more than the rest of validate."""
    target = PseudoControls if section == "pseudo" else TYPED[section][kind]
    params = inspect.signature(target).parameters
    names = [k for k in params if k not in FIXED.get(section, ())]
    required = tuple(k for k in names if params[k].default is params[k].empty)
    annotations = {k: params[k].annotation for k in names}
    return frozenset(names + ["type"] * (section in TYPED)), required, annotations


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:  # False for nan, inf and ints beyond a double
    return _is_number(v) and abs(v) <= sys.float_info.max


# annotation of a config field or builder parameter -> (what a value must
# be to set it, the test of that)
KINDS = {
    int: ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    float: ("a number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    tuple: ("a list of numbers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}
# KINDS for the sections whose builders take the numbers as they are: an
# inf or nan there would only surface as a failed mesh or solve
FINITE_KINDS = {
    **KINDS,
    float: ("a finite number", _is_finite),
    tuple: ("a list of finite numbers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite, v))),
}
FIELD_KINDS = {f.name: f.type for f in fields(CaseConfig)}


def _misfit(value, kind, table=KINDS) -> str | None:
    """What a value must be, by `table`, to set a field or parameter
    annotated `kind` (`X | None` also takes null), or None when it is that."""
    if isinstance(kind, types.UnionType):  # X | None
        want = _misfit(value, kind.__args__[0], table)
        return None if value is None or want is None else f"{want} or null"
    want, fits = table[kind]
    return None if fits(value) else want


def _section_errors(section: str):
    """Decorator: a value the builder of `section` rejects (ValueError,
    TypeError, an unreadable mesh file) becomes a ConfigError naming it."""
    def wrap(build):
        @wraps(build)
        def checked(*args):
            try:
                return build(*args)
            except (ValueError, TypeError, OSError) as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        return checked
    return wrap


@_section_errors("equation")
def build_equation(cfg: CaseConfig) -> physics.EquationSet:
    d = dict(cfg.equation)
    return EQUATIONS[d.pop("type")](**d)


@_section_errors("exact")
def build_exact(cfg: CaseConfig, eq) -> physics.ExactSolution:
    d = dict(cfg.exact)
    kind = d.pop("type")
    return physics.exact_for(eq, kind, **d)


@_section_errors("mesh")
def build_mesh(cfg: CaseConfig) -> meshmod.Mesh:
    d = dict(cfg.mesh)
    kind = d.pop("type")
    if kind in ("interval", "rect"):
        d["periodic"] = cfg.bc == "periodic"
    mesh = MESHES[kind](**d)
    dim = EQUATIONS[cfg.equation["type"]].dim
    if mesh.dim != dim:
        raise ValueError(f"dimension {mesh.dim} does not match the equation's "
                         f"dimension {dim}")
    return mesh


@_section_errors("motion")
def build_motion(cfg: CaseConfig) -> motionmod.MotionPrescription:
    d = dict(cfg.motion)
    kind = d.pop("type")
    dim = EQUATIONS[cfg.equation["type"]].dim  # the mesh's, by build_mesh
    for key in ("amp", "omega", "length", "n"):
        if key in d:
            if not isinstance(d[key], (list, tuple)) or len(d[key]) != dim:
                raise ValueError(f"{key} needs one value per mesh dimension "
                                 f"({dim}), got {d[key]!r}")
            d[key] = tuple(d[key])
    return MOTIONS[kind](**d)


@_section_errors("pseudo")
def build_pseudo(cfg: CaseConfig) -> PseudoControls:
    return PseudoControls(**cfg.pseudo)


def mesh_resolution(cfg: CaseConfig) -> float:
    """Characteristic element size used as the sweep resolution descriptor."""
    m = cfg.mesh
    if m["type"] == "interval":
        return (m.get("xmax", 1.0) - m.get("xmin", 0.0)) / m["n"]
    if m["type"] == "rect":
        return (m.get("xmax", 1.0) - m.get("xmin", 0.0)) / m["nx"]
    if m["type"] == "disk":
        return m.get("radius", 0.5) / (2 * 2 ** m.get("level", 0))
    raise ConfigError("mesh: file meshes have no refinement rule")


@_section_errors("output_dir")
def make_output_dir(cfg: CaseConfig) -> Path | None:
    """Create the case's output_dir, if it has one, before any solve."""
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out
    return None


def run_case(cfg: CaseConfig, report: ConvergenceReport | None = None,
             resolution: float | None = None):
    """Execute one case; returns the appended ReportRow.

    Writes `<name>.csv` (and optional solution dump) when output_dir is set.
    """
    validate(cfg)
    eq = build_equation(cfg)
    sol = build_exact(cfg, eq)
    mesh = build_mesh(cfg)
    if cfg.solver == "stfv":  # the meshes march_stfv refuses, before any step
        _section_errors("solver")(stfv.check_mesh)(mesh)
        _section_errors("mesh")(stfv.interfaces)(mesh)
    presc = build_motion(cfg)
    controls = build_pseudo(cfg)
    out = make_output_dir(cfg)
    n_steps = int(round(cfg.t_final / cfg.dt))
    if report is None:
        report = ConvergenceReport()
    if resolution is None:
        try:
            resolution = mesh_resolution(cfg)
        except ConfigError:
            resolution = cfg.dt
    e_slab = evals = jump = math.nan
    t0 = time.perf_counter()
    if cfg.solver == "spacetime":
        res = march(mesh, presc, eq, sol, cfg.k_s, cfg.k_t, cfg.dt, n_steps,
                    controls=controls)
        e_fin = analysis.l2_error_final(res.field, res.geom, mesh,
                                        res.coords_final, sol, cfg.t_final)
        e_slab = analysis.l2_error_slab(res.field, res.geom, sol)
        evals = float(np.mean([st.iterations for st in res.stats]))
        jump = max(st.jump for st in res.stats)
    elif cfg.solver == "mol":
        res = march_mol(mesh, presc, eq, sol, cfg.k_s, cfg.dt, n_steps)
        e_fin = analysis.l2_error_nodal(res.field.values, cfg.k_s, mesh,
                                        res.coords_final, sol, cfg.t_final)
    else:
        res = march_stfv(mesh, presc, eq, sol, cfg.dt, n_steps)
        e_fin = analysis.l2_error_cells(res.field.values, mesh,
                                        res.coords_final, sol, cfg.t_final)
    row = report.add(resolution, e_fin, e_slab,
                     walltime_s=time.perf_counter() - t0, evals_per_slab=evals,
                     jump_max=jump)
    if out:
        report.to_csv(out / f"{cfg.name}.csv")
        if cfg.dump_solution:
            np.savez(out / f"{cfg.name}_solution.npz", values=res.field.values,
                     coords=res.coords_final)
    return row


def sweep(cfg: CaseConfig, axis: str, levels: int) -> ConvergenceReport:
    """Refinement study: `space` halves h per level (with dt kept small
    enough that temporal error stays subdominant), `time` halves dt on the
    fixed mesh.  Returns the filled ConvergenceReport."""
    validate(cfg)
    if axis not in ("space", "time"):
        raise ConfigError(f"axis: must be space or time, got {axis!r}")
    if levels < 2:
        raise ConfigError(f"levels: need at least 2, got {levels}")
    if axis == "space" and cfg.mesh["type"] == "file":
        raise ConfigError("mesh: file meshes cannot be swept in space")
    if axis == "time":  # the finest level is checked before the first runs
        finest = {**cfg.to_dict(), "dt": cfg.dt / 2.0 ** min(levels - 1, 1023)}
        try:
            validate(CaseConfig.from_dict(finest))
        except ConfigError as exc:
            raise ConfigError(f"finest time level {levels - 1}: {exc}") from exc
    make_output_dir(cfg)
    report = ConvergenceReport()
    for lv in range(levels):
        # the levels write nothing; the sweep's files are its report's
        c = CaseConfig.from_dict({**cfg.to_dict(), "output_dir": None})
        if axis == "time":
            c.dt = cfg.dt / 2**lv
            run_case(c, report=report, resolution=c.dt)
        else:
            c.mesh = meshmod.refined_spec(cfg.mesh, lv)
            h = mesh_resolution(c)
            c.dt = _subdominant_dt(cfg, h)
            if c.solver == "mol":
                m = build_mesh(c)
                eq = build_equation(c)
                c.dt = _fit_dt(min(c.dt, mol_stable_dt(m, m.nodes, eq, c.k_s)),
                               cfg.t_final)
            run_case(c, report=report, resolution=h)
    if cfg.output_dir:
        emit_reports(report, cfg.output_dir, f"{cfg.name}_{axis}")
    return report


def _subdominant_dt(cfg: CaseConfig, h: float) -> float:
    """dt such that the superconvergent temporal error (dt)^(2 k_t + 1)
    stays below 1% of the expected spatial error h^(k_s + 1)."""
    target = 0.01 * h ** (cfg.k_s + 1)
    dt = min(cfg.dt, target ** (1.0 / (2 * cfg.k_t + 1)))
    return _fit_dt(dt, cfg.t_final)


def _fit_dt(dt: float, t_final: float) -> float:
    return t_final / int(np.ceil(t_final / dt - 1e-12))


def emit_reports(report: ConvergenceReport, outdir: str,
                 name: str = "report"):
    """Write the CSV and the plot-ready data file; returns both paths."""
    if not report.rows:
        raise ValueError("empty report")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    table, plot = out / f"{name}.csv", out / f"{name}.dat"
    report.to_csv(table)
    report.to_plot_data(plot)
    return [table, plot]


# ---------------------------------------------------------------------------
# command line


def load_case(spec: str) -> CaseConfig:
    """Load a case from a path or a bundled case name; one that cannot be
    read, is not UTF-8 JSON or is not an object is a ConfigError naming it."""
    p = Path(spec)
    if not p.exists():
        p = resources.files("stfr").joinpath("cases", spec.removesuffix(".json") + ".json")
        if not p.is_file():
            raise ConfigError(f"case {spec!r} is neither a file nor a bundled case")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"case {spec!r}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"case {spec!r}: not a JSON text: {exc}") from exc
    if not isinstance(data, dict):
        got = {list: "an array", str: "a string", bool: "a boolean",
               type(None): "null"}.get(type(data), "a number")
        raise ConfigError(f"case {spec!r}: must be a JSON object, got {got}")
    return CaseConfig.from_dict(data)


def apply_overrides(cfg: CaseConfig, pairs: list) -> CaseConfig:
    """Apply --set key.path=value overrides (values parsed as JSON)."""
    d = cfg.to_dict()
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = d
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                target[part] = {}
            target = target[part]
        target[parts[-1]] = value
    return CaseConfig.from_dict(d)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="stfr", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one case")
    run_p.add_argument("case")
    run_p.add_argument("--set", action="append", default=[], dest="overrides")
    run_p.add_argument("--out", default=None)

    sweep_p = sub.add_parser("sweep", help="refinement study")
    sweep_p.add_argument("case")
    sweep_p.add_argument("--axis", choices=("space", "time"), required=True)
    sweep_p.add_argument("--levels", type=int, required=True)
    sweep_p.add_argument("--set", action="append", default=[], dest="overrides")
    sweep_p.add_argument("--out", default=None)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse printed its message; usage is exit 1
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_case(args.case)
        cfg = apply_overrides(cfg, args.overrides)
        if args.out:
            cfg.output_dir = args.out
        if args.verb == "run":
            row = run_case(cfg)
            print(f"{cfg.name}: error_final={row.error_final:.6e} "
                  + ("" if math.isnan(row.error_slab)
                     else f"error_slab={row.error_slab:.6e} ")
                  + ("" if math.isnan(row.evals_per_slab)
                     else f"evals_per_slab={row.evals_per_slab:.1f} ")
                  + ("" if math.isnan(row.jump_max)
                     else f"jump_max={row.jump_max:.3e} ")
                  + f"walltime={row.walltime_s:.2f}s")
            return 0
        report = sweep(cfg, args.axis, args.levels)
        print(f"{cfg.name} ({args.axis} sweep)")
        print(f"{'resolution':>12} {'error_final':>14} {'order':>7}")
        for r in report.rows:
            o = "" if math.isnan(r.order_final) else f"{r.order_final:.2f}"
            print(f"{r.resolution:>12.6g} {r.error_final:>14.6e} {o:>7}")
        return 0
    except (ConfigError, motionmod.PeriodicMotionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PseudoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryDegeneracyError, physics.NonPhysicalStateError,
            stfv.CellInversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
