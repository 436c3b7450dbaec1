"""Benchmark of stfr: time to solution of bundled cases, checked against
the analytic solution.

    python3 stfrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports stfr from `src/` there and
never from an installed copy.  One process runs one case at a time in a
closed loop: set up, solve, measure the errors, repeat until S seconds are
spent.  BLAS is pinned to one thread, because on st_adv_deform two OpenBLAS
threads made a solve slower (13.7-15.1 s) than one (10.2-12.4 s) on a
2-core machine.  Times are scaled to a reference machine speed that a probe
measures during every solve; see `SpeedProbe`.

With --trace 0 the last line of stdout reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced solves and reports the
per-layer metrics, and writes the spans to stfrbench/out/.  The line before
it records the environment, the config overrides and the errors.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import spec
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9


def load_stfr():
    """Import stfr from the checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "stfr" / "__init__.py").is_file():
        raise SystemExit(f"error: no stfr sources under {src}")
    sys.dont_write_bytecode = True
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stfr
    from stfr import analysis, cli, mol_solver, st_solver

    if Path(stfr.__file__).resolve().parent != src / "stfr":
        raise SystemExit(f"error: stfr was imported from {stfr.__file__}")
    return SimpleNamespace(analysis=analysis, cli=cli, march=st_solver.march,
                           march_mol=mol_solver.march_mol)


def blas_threads(np):
    """Thread count reported by the OpenBLAS that NumPy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np

    deps = np.__config__.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class SpeedProbe:
    """Measures the machine's speed while a timed block runs.

    On a shared machine the speed of one core drifts by +-25% within
    seconds, and the solver and any other code slow down together.  A fixed
    NumPy job that does not touch stfr runs three times before and after
    the block and, from an interval timer, every PERIOD_S inside it.  Its
    median time gives `speed` = NOMINAL_S / median: the benchmark's times
    are multiplied by it, so they are seconds at the reference speed.
    `clock` is perf_counter minus the time spent in the probe, so the
    probe's own time is not counted in the block.  The job mixes batched
    small matmuls, gathers, elementwise work and stacking on arrays of 1k to
    50k elements with many tiny operations, like the residual evaluations.
    """

    PERIOD_S = 0.1
    NOMINAL_S = 0.007  # the job's time at the reference speed

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._big = rng.standard_normal((768, 4, 16))
        self._mid = rng.standard_normal((128, 3, 4, 4))
        self._small = rng.standard_normal((64, 9))
        self._d = rng.standard_normal((4, 4))
        self._idx = rng.permutation(768)
        self.samples = []
        self.spent = 0.0

    def _job(self):
        np, big, mid, small = self._np, self._big, self._mid, self._small
        t0 = time.perf_counter()
        for _ in range(24):
            c = np.matmul(self._d, big)[self._idx] * 0.5 - big
            np.maximum(c, 0.0, out=c)
            c.sum()
            a = mid[..., 0]
            b = np.sqrt(np.abs(a)) + a * 2.0
            np.stack([a, b, a, b], axis=-1).sum()
            for _ in range(8):
                (small * 1.5 + small).sum()
        return time.perf_counter() - t0

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self._job())
        self.spent += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self.spent

    @contextmanager
    def measure(self, inside=True):
        """Sample the speed around the block and, with `inside`, within it."""
        self.samples = [self._job() for _ in range(3)]
        if inside:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.samples += [self._job() for _ in range(3)]

    def speed(self):
        return self.NOMINAL_S / statistics.median(self.samples)


def setup(stfr, wl, seed):
    """Config to equation, exact solution, mesh, motion and controls."""
    cli = stfr.cli
    cfg = cli.load_case(wl.case)
    sets = spec.overrides(cfg.to_dict(), wl, seed)
    cfg = cli.validate(cli.apply_overrides(cfg, sets))
    eq = cli.build_equation(cfg)
    return SimpleNamespace(cfg=cfg, sets=sets, eq=eq,
                           sol=cli.build_exact(cfg, eq),
                           mesh=cli.build_mesh(cfg),
                           motion=cli.build_motion(cfg),
                           controls=cli.build_pseudo(cfg))


def solve_once(stfr, wl, seed, clock, tr=None):
    """One set-up, solve and error measurement, timed phase by phase."""
    span = tr.span if tr is not None else (lambda name: nullcontext())
    t0 = clock()
    with span("setup"):
        c = setup(stfr, wl, seed)
    t1 = clock()
    cfg = c.cfg
    with span("solve"):
        if cfg.solver == "spacetime":
            res = stfr.march(c.mesh, c.motion, c.eq, c.sol, cfg.k_s, cfg.k_t,
                             cfg.dt, wl.n_steps, controls=c.controls)
        else:
            res = stfr.march_mol(c.mesh, c.motion, c.eq, c.sol, cfg.k_s,
                                 cfg.dt, wl.n_steps)
    t2 = clock()
    an = stfr.analysis
    with span("analysis.error_norms"):
        if cfg.solver == "spacetime":
            errors = {
                "error_final": an.l2_error_final(res.field, res.geom, c.mesh,
                                                 res.coords_final, c.sol,
                                                 cfg.t_final),
                "error_slab": an.l2_error_slab(res.field, res.geom, c.sol),
            }
        else:
            errors = {"error_final": an.l2_error_nodal(
                res.field.values, cfg.k_s, c.mesh, res.coords_final, c.sol,
                cfg.t_final)}
    t3 = clock()
    stats = getattr(res, "stats", [])
    facts = {
        "dof": res.field.values.size,
        "pseudo_iters": [s.iterations for s in stats],
        "drop_orders": [math.log10(s.initial_residual
                                   / max(s.final_residual, 1e-300))
                        for s in stats],
    }
    return SimpleNamespace(setup_s=t1 - t0, solve_s=t2 - t1, wall_s=t3 - t0,
                           errors=errors, facts=facts, sets=c.sets)


def run(workload, seed, seconds, trace, n_steps=None):
    """Solve in a closed loop for `seconds`; returns (result, details, spans).

    With `trace`, solves alternate untraced and traced; the loop runs at
    least one of each.  `n_steps` shortens the run for the benchmark's tests.
    """
    stfr = load_stfr()
    probe = SpeedProbe()
    wl = spec.WORKLOADS[workload]
    if n_steps is not None:
        wl = replace(wl, n_steps=n_steps)
    setups = []
    with probe.measure():
        for _ in range(SETUP_REPS):
            t0 = probe.clock()
            setup(stfr, wl, seed)
            setups.append(probe.clock() - t0)
    setups = [s * probe.speed() for s in setups]

    plain, traced, failures = [], [], []
    missing = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        tr = tracer.Tracer() if trace and attempted % 2 == 1 else None
        attempted += 1
        if tr is not None:
            tr.install()
            missing = tr.missing
        try:
            # no probe inside a traced solve: it would land in the spans
            with probe.measure(inside=tr is None):
                out = solve_once(stfr, wl, seed, probe.clock, tr)
            why = spec.gate(wl, seed, out.errors)
        except Exception:  # a failed solve is counted, never dropped
            traceback.print_exc()
            why = "raised"
        finally:
            if tr is not None:
                tr.remove()
        if why:
            failures.append(why)
            print(f"failed: {why}", file=sys.stderr)
        else:
            out.speed = probe.speed()
            if tr is None:
                plain.append(out)
            else:
                traced.append((tr.spans, out))
        if time.perf_counter() >= deadline and attempted >= 1 + bool(trace):
            break

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": {}}
    done = plain + [o for _, o in traced]
    details = {"workload": workload, "seed": seed,
               "sets": done[0].sets if done else None,
               "errors": done[0].errors if done else None,
               "solves": len(done), "failures": failures,
               "env": environment()}

    def median(outs, key, scaled=True):
        return statistics.median(getattr(o, key) * (o.speed if scaled else 1)
                                 for o in outs)

    if done:
        details["raw_s"] = {k: median(done, k, scaled=False)
                            for k in ("setup_s", "solve_s", "wall_s")}
        details["speed"] = median(done, "speed", scaled=False)
    if trace and plain and traced:
        values = tracer.per_layer(
            [(spans, o.facts) for spans, o in traced], missing,
            overhead=median([o for _, o in traced], "wall_s")
            - median(plain, "wall_s"))
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        details["missing"] = missing
    elif not trace and plain:
        values = {
            "setup_s": statistics.median(setups + [o.setup_s * o.speed
                                                   for o in plain]),
            "solve_s": median(plain, "solve_s"),
            "wall_s": median(plain, "wall_s"),
            "error_final": statistics.median(o.errors["error_final"]
                                             for o in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    else:
        values, units = {}, {}
    for name, unit in units.items():
        value = values[name]
        result["metrics"][name] = {"value": value, "unit": unit} \
            if value is not None else {"value": None, "unit": unit, "missing": True}
    return result, details, [spans for spans, _ in traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    for key in BLAS_ENV:  # before NumPy is imported
        os.environ[key] = "1"
    result, details, spans = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    if spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({**details, "spans": spans}))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
