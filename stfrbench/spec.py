"""What the stfr benchmark runs and what it reports.

Workloads are bundled case configs with a set run length; the seed perturbs
only physical parameters.  The pinned errors, the metric table and the
bounds live here so that `manifest.py` can write `BENCHMARK.json` from them.
"""

import json
import math
import random
from dataclasses import dataclass

# Half width of the relative band in which a seed perturbs each parameter.
# Inside it the pseudo-iteration counts and the slab/step counts do not move,
# and the errors move by well under 1%.
PERTURB_BAND = 0.01

# A seed-0 error must match its pin to this relative tolerance.  Converging a
# slab by 12 instead of 10 orders moves the errors by about 1e-8 relative, so
# a different slab solver reaching the same drop stays well inside it, while
# any change to the discretisation moves the errors by orders more.
PIN_RTOL = 1e-6

# Any other seed must stay below this multiple of the seed-0 error.
CEILING = 1.5


@dataclass(frozen=True)
class Workload:
    case: str          # bundled case name
    n_steps: int       # slabs (space-time) or RK3 steps (MOL) per solve
    why: str
    perturbed: dict    # config path -> bundled value, perturbed by the seed
    pinned: dict       # seed-0 error name -> value at this run length


WORKLOADS = {
    "st_adv_deform": Workload(
        case="wave2d_sine_deform",
        n_steps=2,
        why="space-time p3/p2 advection on a sine-deforming 16x16 mesh; "
            "the residual kernels (interior, traces, lift) take the solve time",
        perturbed={"equation.c1": 0.5, "equation.c2": 0.5,
                   "motion.amp": [0.1, 0.1]},
        pinned={"error_final": 5.273294930457481e-06,
                "error_slab": 5.880457211760761e-06},
    ),
    "st_euler_vortex": Workload(
        case="euler_vortex_p3",
        n_steps=1,
        why="space-time p3/p2 Euler vortex with the Roe-ALE flux; the same "
            "solver path as advection, but the physics layer dominates",
        perturbed={"exact.U0": 0.5, "exact.V0": 0.5},
        pinned={"error_final": 6.213791967123618e-04,
                "error_slab": 5.336378064565093e-04},
    ),
    "mol_adv_deform": Workload(
        case="mol_sine_deform_p2",
        n_steps=400,
        why="ALE-FR method of lines with SSP-RK3: no pseudo-time iteration, "
            "geometry rebuilt at every stage dominates",
        perturbed={"equation.c1": 0.5, "equation.c2": 0.5,
                   "motion.amp": [0.1, 0.1]},
        pinned={"error_final": 1.7676900220148773e-03},
    ),
}


def overrides(cfg_dict: dict, wl: Workload, seed: int) -> list:
    """`--set` strings that turn the bundled case into this run's config.

    Seed 0 keeps every physical parameter as bundled; any other seed scales
    each parameter in `wl.perturbed` by a factor in 1 +- PERTURB_BAND.
    """
    sets = [f"t_final={json.dumps(wl.n_steps * cfg_dict['dt'])}"]
    rng = random.Random(seed)
    for path, bundled in wl.perturbed.items():
        section, key = path.split(".")
        found = cfg_dict[section].get(key, bundled)
        if found != bundled:
            raise ValueError(f"case {wl.case}: {path} is {found!r}, the "
                             f"benchmark expects the bundled {bundled!r}")
        if seed == 0:
            continue
        if isinstance(bundled, list):
            value = [v * (1 + rng.uniform(-PERTURB_BAND, PERTURB_BAND))
                     for v in bundled]
        else:
            value = bundled * (1 + rng.uniform(-PERTURB_BAND, PERTURB_BAND))
        sets.append(f"{path}={json.dumps(value)}")
    return sets


def gate(wl: Workload, seed: int, errors: dict) -> str | None:
    """Why the errors of one solve are wrong, or None if they pass."""
    for name, pin in wl.pinned.items():
        err = errors[name]
        if not math.isfinite(err):
            return f"{name} is not finite ({err})"
        if seed == 0 and abs(err - pin) > PIN_RTOL * pin:
            return f"{name}={err:.10e} differs from the pin {pin:.10e}"
        if seed != 0 and err > CEILING * pin:
            return f"{name}={err:.10e} is above {CEILING} x {pin:.10e}"
    return None


# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.2),
    ("wall_s", "s", "lower", 0.2),
    ("error_final", "l2", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better).  Every `us_per_call` is self time: the span minus the
# child spans inside it.  `residual.us_per_dof` is the whole residual call.
PER_LAYER = [
    ("st_solver.slabs", "count", "lower"),
    ("st_solver.pseudo_iters_per_slab", "count", "lower"),
    ("st_solver.pseudo_iters_max", "count", "lower"),
    ("st_solver.residual.calls", "count", "lower"),
    ("st_solver.residual.calls_per_slab", "count", "lower"),
    ("st_solver.final_drop_orders_min", "orders", "higher"),
    ("st_solver.residual.us_per_call", "us", "lower"),
    ("st_solver.residual.us_per_dof", "us", "lower"),
    ("st_solver.interior.us_per_call", "us", "lower"),
    ("st_solver.side_deltas.us_per_call", "us", "lower"),
    ("st_solver.traces.us_per_call", "us", "lower"),
    ("st_solver.common_flux.us_per_call", "us", "lower"),
    ("st_solver.normal_flux.us_per_call", "us", "lower"),
    ("st_solver.lift.us_per_call", "us", "lower"),
    ("st_solver.temporal_correction.us_per_call", "us", "lower"),
    ("st_solver.march_self_s", "s", "lower"),
    ("physics.euler_primitives.calls_per_residual", "count", "lower"),
    ("physics.euler_primitives.us_per_call", "us", "lower"),
    ("physics.flux.us_per_call", "us", "lower"),
    ("physics.roe_ale.us_per_call", "us", "lower"),
    ("geometry.slab_geometry.calls", "count", "lower"),
    ("geometry.slab_geometry.us_per_call", "us", "lower"),
    ("geometry.spatial_geometry.calls", "count", "lower"),
    ("geometry.spatial_geometry.us_per_call", "us", "lower"),
    ("mol_solver.operator_builds", "count", "lower"),
    ("mol_solver.bind_degree.us_per_call", "us", "lower"),
    ("mol_solver.residual.calls", "count", "lower"),
    ("mol_solver.residual.us_per_call", "us", "lower"),
    ("mol_solver.residual.us_per_dof", "us", "lower"),
    ("mol_solver.interior.us_per_call", "us", "lower"),
    ("mol_solver.side_deltas.us_per_call", "us", "lower"),
    ("mol_solver.lift.us_per_call", "us", "lower"),
    ("motion.motion_path_s", "s", "lower"),
    ("analysis.error_norms_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
]

# Seconds one run measures.  The machine's speed drifts over tens of seconds,
# so a run must span several of those swings for its median to be steady.
RUN_SECONDS = 30
