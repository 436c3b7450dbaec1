"""Residual-evaluation counts and residual cost of every bundled case.

    python3 tools/bench_counts.py 6                      # writes BENCH_6.json
    python3 tools/bench_counts.py 5 --src OTHER/src      # another checkout

Each bundled case runs once at full length through `cli.run_case`, the path
`stfr run <case>` takes, with BLAS pinned to one thread.  For every case the
file records the solver, the slabs (space-time) or steps (method of lines,
space-time FV), the DOF of one slab or step, the residual evaluations per
slab or step (mean and max), the us per DOF per residual evaluation, the
preconditioner applies per slab (mean) and the us per apply, the us per
call of each layer of a residual evaluation (interior divergence, side
deltas, lift and, for a slab, temporal correction) and of the face kernels
inside the side deltas (traces, common flux, normal flux), the solve time,
the errors, the time inside the error norms, the geometry layer (the calls
to, and the time inside, the slab and MOL geometry builds) and the minor
page faults of the solve (`minor_faults`: the process's `ru_minflt` over
the `march`, `march_mol` or `march_stfv` call).  Counts repeat
exactly from run to run; the times and faults come from this one run and
move with the machine, whose description the file also holds.  Every case
starts cold: the package's `functools` caches (basis, kernel and norm
tables) are emptied before it, as in a fresh `stfr run <case>`, so no case
reads tables that an earlier one built.

The counts and times come from the spans of the benchmark's tracer
(`stfrbench/tracer.py`), installed around `cli.run_case`: `st_solver.march`
and `mol_solver.bind_degree` (one per slab or step), the two operators'
`residual`, the layers `interior`, `side_deltas` and `lift` of the operator
the case runs (`st_solver.*` for a slab, `mol_solver.*` for the method of
lines) and the slab's `st_solver.temporal_correction`, the face kernels
`st_solver.traces`, `common_flux` and `normal_flux`, which both FR
operators run, and `geometry.slab_geometry` and `spatial_geometry`.  The
tool adds spans through the tracer's wrapper: `st_solver.precond` around
`KroneckerPreconditioner.__call__`, and `analysis.l2_error_final`,
`l2_error_slab`, `l2_error_nodal` and `l2_error_cells`, whose outermost
spans sum to `error_norms_s` (the final-time norm calls the nodal one).
Each residual evaluation and preconditioner apply counts toward the last
slab or step span that started before it.  Times are inclusive and include the tracer's
wrappers of nested spans, so they read higher than untraced ones: on a
shared 2-core x86_64 VM, `mol_sine_deform_p2` solved in a median 0.97 s
traced against 0.78 s with only the counted calls wrapped (9 runs
each).  The DOF follow from the case: elements x temporal levels x
(k_s+1)^dim x variables.  The space-time FV scheme has no residual operator:
its DOF and evaluation fields are null, as are the preconditioner fields of
every solve without a preconditioner apply, the layer fields of every solve
without a span of that layer (the method of lines has no temporal
correction).
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
from importlib import resources
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # NumPy, imported in main, loads BLAS after this

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "stfrbench"))
import tracer  # the benchmark's, found through the line above

UNITS = ("st_solver.march", "mol_solver.bind_degree")  # one per slab or step
PRECOND = "st_solver.precond"
NORMS = ("l2_error_final", "l2_error_slab", "l2_error_nodal",  # in `analysis`
         "l2_error_cells")
# spans timed per call: the residual's layers, then the face kernels
LAYERS = ("interior", "side_deltas", "lift", "temporal_correction",
          "traces", "common_flux", "normal_flux")


def _finite(x):
    return None if math.isnan(x) else x


def trace(run):
    """Call `run()` under the benchmark's tracer, with the preconditioner
    apply and the error norms spanned as well; returns its value and the
    spans."""
    from stfr import analysis, st_solver

    tr = tracer.Tracer()
    tr.install()
    extra = [(st_solver.KroneckerPreconditioner, "__call__", PRECOND)]
    extra += [(analysis, name, f"analysis.{name}") for name in NORMS]
    for owner, attr, span in extra:
        fn = getattr(owner, attr)
        tr._saved.append((owner, attr, fn))  # `remove` restores it
        setattr(owner, attr, tr._wrap(span, fn))
    try:
        return run(), tr.spans
    finally:
        tr.remove()


def per_unit(spans):
    """Residual evaluations and preconditioner applies of each slab or step:
    each counts toward the last slab or step span that started before it."""
    evals, applies = [], []
    for name, *_ in spans:
        if name in UNITS:
            evals.append(0)
            applies.append(0)
        elif name in tracer.RESIDUALS:
            evals[-1] += 1
        elif name == PRECOND:
            applies[-1] += 1
    return evals, applies


def norm_seconds(spans):
    """Inclusive seconds of the error-norm spans not inside another one;
    None if there is none."""
    names = {f"analysis.{name}" for name in NORMS}
    outer = [end - start for name, start, end, parent in spans
             if name in names and (parent < 0 or spans[parent][0] not in names)]
    return sum(outer) if outer else None


def minor_faults():
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counting_faults(fn, faults):
    """`fn`, appending the minor page faults of each call to `faults`."""
    def counted(*args, **kwargs):
        before = minor_faults()
        try:
            return fn(*args, **kwargs)
        finally:
            faults.append(minor_faults() - before)

    return counted


def clear_caches():
    """Empty every `functools` cache of the imported stfr modules."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stfr":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def measure(case):
    """Run one bundled case under the tracer, from cold caches; returns
    its record."""
    from stfr import cli

    clear_caches()
    cfg = cli.load_case(case)
    faults = []
    solvers = [(name, getattr(cli, name))
               for name in ("march", "march_mol", "march_stfv")]
    for name, fn in solvers:
        setattr(cli, name, counting_faults(fn, faults))
    try:
        row, spans = trace(lambda: cli.run_case(cfg))
    finally:
        for name, fn in solvers:
            setattr(cli, name, fn)
    evals, applies = per_unit(spans)
    stats = tracer.layer_stats(spans)

    def total(*names):
        """Calls and inclusive seconds of the spans `names`, summed."""
        got = [stats.get(n, (0, 0.0, 0.0)) for n in names]
        return sum(g[0] for g in got), sum(g[2] for g in got)

    def us_per_call(*names):
        calls, s = total(*names)
        return 1e6 * s / calls if calls else None

    calls, res_s = total(*tracer.RESIDUALS)
    dof = None
    if calls:
        mesh = cli.build_mesh(cfg)
        levels = cfg.k_t + 1 if cfg.solver == "spacetime" else 1
        dof = (mesh.n_elems * levels * (cfg.k_s + 1) ** mesh.dim
               * cli.build_equation(cfg).n_vars)
    geometry_calls, geometry_s = total("geometry.slab_geometry",
                                       "geometry.spatial_geometry")
    return {
        "solver": cfg.solver,
        "steps": len(evals) or round(cfg.t_final / cfg.dt),
        "dof": dof,
        "evals_mean": sum(evals) / len(evals) if calls else None,
        "evals_max": max(evals) if calls else None,
        "us_per_dof_residual": 1e6 * res_s / calls / dof if calls else None,
        "precond_applies_mean": (sum(applies) / len(applies)
                                 if sum(applies) else None),
        "us_per_precond_apply": us_per_call(PRECOND),
        **{f"us_{name}": us_per_call(f"st_solver.{name}", f"mol_solver.{name}")
           for name in LAYERS},
        "solve_s": row.walltime_s,
        "minor_faults": sum(faults) if faults else None,
        "geometry_calls": geometry_calls,
        "geometry_s": geometry_s,
        "error_norms_s": norm_seconds(spans),
        "error_final": _finite(row.error_final),
        "error_slab": _finite(row.error_slab),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="number of the file, BENCH_<n>.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the stfr package to measure")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default: BENCH_<n>.json at the root)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import stfr

    if Path(stfr.__file__).resolve().parent.parent != args.src.resolve():
        raise SystemExit(f"stfr imported from {stfr.__file__}, not {args.src}")
    cases = sorted(p.name[:-len(".json")]
                   for p in resources.files("stfr").joinpath("cases").iterdir()
                   if p.name.endswith(".json"))
    out = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": os.cpu_count(),
                "blas_threads": 1},
        "cases": {},
    }
    for case in cases:
        out["cases"][case] = rec = measure(case)
        print(case, rec, flush=True)
    path = args.out or ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
