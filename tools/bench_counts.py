"""Residual-evaluation counts and residual cost of every bundled case.

    python3 tools/bench_counts.py 6                      # writes BENCH_6.json
    python3 tools/bench_counts.py 5 --src OTHER/src      # another checkout

Each bundled case runs once at full length through `cli.run_case`, the path
`stfr run <case>` takes, with BLAS pinned to one thread.  For every case the
file records the solver, the slabs (space-time) or steps (method of lines,
space-time FV), the DOF of one slab or step, the residual evaluations per
slab or step (mean and max), the us per DOF per residual evaluation, the
preconditioner applies per slab (mean) and the us per apply, the us per
call of each layer of a slab residual evaluation (interior divergence,
side deltas, lift and temporal correction), the solve time, the errors,
and the geometry layer: the calls to, and the time inside, the slab and
MOL geometry builds.  Counts repeat exactly from
run to run; the times come from this one run and move with the machine,
whose description the file also holds.

The counts are read from outside the package, by wrapping
`SlabOperator.march` and `rk3_physical_step` (one call per slab or step),
the two operators' `residual`, the `SlabOperator` layers `_interior`,
`_side_deltas`, `_lift` and `_temporal_correction`,
`KroneckerPreconditioner.__call__`, and `slab_geometry` and
`spatial_geometry` under the names `st_solver` and `mol_solver` import
them by.  A name that a checkout lacks is not wrapped,
so the script runs unchanged on older checkouts.  The space-time FV scheme
has no residual operator: its evaluation fields are null, as are the
preconditioner fields of every solve without a preconditioner apply and
the layer fields of every solve without a slab residual.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from importlib import resources
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # NumPy, imported in main, loads BLAS after this

ROOT = Path(__file__).resolve().parents[1]

# SlabOperator methods timed per call: the layers of one residual evaluation
LAYERS = ("_interior", "_side_deltas", "_lift", "_temporal_correction")


class Counts:
    """Residual calls grouped by slab or step, and their total time;
    likewise the preconditioner applies; calls and time of each layer."""

    def __init__(self):
        self.groups = []
        self.calls = 0
        self.seconds = 0.0
        self.dof = None
        self.applies = []
        self.apply_s = 0.0
        self.geometry_calls = 0
        self.geometry_s = 0.0
        self.layers = {name: [0, 0.0] for name in LAYERS}

    def unit(self, fn):
        def wrapped(*args, **kwargs):
            self.groups.append(0)
            self.applies.append(0)
            return fn(*args, **kwargs)
        return wrapped

    def apply(self, fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.apply_s += time.perf_counter() - t0
            self.applies[-1] += 1
            return out
        return wrapped

    def residual(self, fn):
        def wrapped(op, u, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(op, u, *args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            self.dof = u.size
            if self.groups:
                self.groups[-1] += 1
            return out
        return wrapped

    def layer(self, name):
        entry = self.layers[name]

        def wrap(fn):
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                entry[1] += time.perf_counter() - t0
                entry[0] += 1
                return out
            return wrapped
        return wrap

    def geometry(self, fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.geometry_s += time.perf_counter() - t0
            self.geometry_calls += 1
            return out
        return wrapped


def _finite(x):
    return None if x is None or math.isnan(x) else x


def measure(case):
    """Run one bundled case; returns its record."""
    from stfr import cli, mol_solver, st_solver

    cfg = cli.load_case(case)
    counts = Counts()
    patches = [(st_solver.SlabOperator, "march", counts.unit),
               (st_solver.SlabOperator, "residual", counts.residual),
               (mol_solver, "rk3_physical_step", counts.unit),
               (mol_solver.MolOperator, "residual", counts.residual),
               (getattr(st_solver, "KroneckerPreconditioner", None), "__call__",
                counts.apply),
               (st_solver, "slab_geometry", counts.geometry),
               (mol_solver, "spatial_geometry", counts.geometry)]
    patches += [(st_solver.SlabOperator, name, counts.layer(name))
                for name in LAYERS]
    patches = [p for p in patches if hasattr(p[0], p[1])]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrap in patches:
            setattr(owner, name, wrap(getattr(owner, name)))
        row = cli.run_case(cfg)
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    groups = counts.groups
    applies = sum(counts.applies)
    return {
        "solver": cfg.solver,
        "steps": len(groups) or round(cfg.t_final / cfg.dt),
        "dof": counts.dof,
        "evals_mean": sum(groups) / len(groups) if counts.calls else None,
        "evals_max": max(groups) if counts.calls else None,
        "us_per_dof_residual": (1e6 * counts.seconds / counts.calls / counts.dof
                                if counts.calls else None),
        "precond_applies_mean": (applies / len(counts.applies)
                                 if applies else None),
        "us_per_precond_apply": 1e6 * counts.apply_s / applies if applies else None,
        **{f"us{name}": 1e6 * s / calls if calls else None
           for name, (calls, s) in counts.layers.items()},
        "solve_s": row.walltime_s,
        "geometry_calls": counts.geometry_calls,
        "geometry_s": counts.geometry_s,
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
