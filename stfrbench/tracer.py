"""Spans around the layers of stfr, recorded from outside the package.

`Tracer.install` replaces each target function or method by a wrapper that
records a span (name, start, end, parent) and calls the original; `remove`
puts the originals back.  Module-level functions are replaced in every stfr
module that imported them by name, so a call through `st_solver.flux` is
seen as well as one through `physics.flux`.  A target that no longer exists
is reported as missing, never as zero.
"""

import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, class or None, attribute)
TARGETS = [
    ("st_solver.march", "st_solver", "SlabOperator", "march"),
    ("st_solver.residual", "st_solver", "SlabOperator", "residual"),
    ("st_solver.interior", "st_solver", "SlabOperator", "_interior"),
    ("st_solver.side_deltas", "st_solver", "SlabOperator", "_side_deltas"),
    ("st_solver.lift", "st_solver", "SlabOperator", "_lift"),
    ("st_solver.temporal_correction", "st_solver", "SlabOperator",
     "_temporal_correction"),
    ("st_solver.traces", "st_solver", None, "_traces_all_edges"),
    ("st_solver.common_flux", "st_solver", None, "_transformed_common_flux"),
    ("st_solver.normal_flux", "st_solver", None, "_transformed_normal_flux"),
    ("physics.euler_primitives", "physics", None, "euler_primitives"),
    ("physics.flux", "physics", None, "flux"),
    ("physics.roe_ale", "physics", None, "_roe_ale"),
    ("geometry.slab_geometry", "geometry", None, "slab_geometry"),
    ("geometry.spatial_geometry", "geometry", None, "spatial_geometry"),
    ("mol_solver.bind_degree", "mol_solver", "MolOperator", "bind_degree"),
    ("mol_solver.residual", "mol_solver", "MolOperator", "residual"),
    ("mol_solver.interior", "mol_solver", "MolOperator", "_interior"),
    ("mol_solver.side_deltas", "mol_solver", "MolOperator", "_side_deltas"),
    ("mol_solver.lift", "mol_solver", "MolOperator", "_lift"),
    ("motion.motion_path", "motion", None, "motion_path"),
]

RESIDUALS = ("st_solver.residual", "mol_solver.residual")

# Spans a metric is computed from, beyond the one its name starts with.
EXTRA_SOURCES = {
    "mol_solver.operator_builds": ["mol_solver.bind_degree"],
    "physics.euler_primitives.calls_per_residual": list(RESIDUALS),
}


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target that exists; list the others in `missing`."""
        self.missing = []
        stfr_modules = [m for n, m in sys.modules.items()
                        if n.startswith("stfr.") and m is not None]
        for name, module, cls, attr in TARGETS:
            owner = sys.modules.get(f"stfr.{module}")
            if owner is not None and cls is not None:
                owner = vars(owner).get(cls)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            holders = [owner] if cls is not None else \
                [m for m in stfr_modules if vars(m).get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def remove(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_stats(spans):
    """name -> [calls, self seconds, inclusive seconds] over `spans`."""
    own = self_times(spans)
    stats = {}
    for (name, start, end, _), s in zip(spans, own):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s
        entry[2] += end - start
    return stats


def primitives_in_residuals(spans):
    """euler_primitives calls made inside a residual evaluation."""
    inside = [False] * len(spans)
    count = 0
    for i, (name, _, _, parent) in enumerate(spans):
        inside[i] = name in RESIDUALS or (parent >= 0 and inside[parent])
        if name == "physics.euler_primitives" and inside[i]:
            count += 1
    return count


def layer_share(spans, root="solve"):
    """Share of the root span's time covered by its direct children."""
    shares = []
    for i, (name, start, end, _) in enumerate(spans):
        if name == root:
            covered = sum(e - s for _, s, e, p in spans if p == i)
            shares.append(covered / (end - start))
    return statistics.median(shares)


def per_layer(iterations, missing, overhead):
    """Per-layer metrics from the traced iterations.

    `iterations` holds (spans, solve facts) per traced solve; counts come
    from the first one, times are totals over all of them divided by the
    calls.  `overhead` is the traced minus the untraced wall time of a
    solve.  Returns name -> value, None where a source span is missing.
    """
    spans0, facts = iterations[0]
    counts = layer_stats(spans0)
    totals = {}
    for spans, _ in iterations:
        for name, (calls, own, incl) in layer_stats(spans).items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += own
            t[2] += incl
    n_iter = len(iterations)

    def calls(name):
        return counts.get(name, [0])[0]

    def us_per_call(name):
        c, own, _ = totals.get(name, [0, 0.0, 0.0])
        return 1e6 * own / c if c else 0.0

    def per_solve(name, field):
        return totals.get(name, [0, 0.0, 0.0])[field] / n_iter

    def us_per_dof(name):
        c, _, incl = totals.get(name, [0, 0.0, 0.0])
        return 1e6 * incl / c / facts["dof"] if c else 0.0

    st_res = calls("st_solver.residual")
    all_res = st_res + calls("mol_solver.residual")
    iters = facts["pseudo_iters"]
    out = {
        "st_solver.slabs": len(iters),
        "st_solver.pseudo_iters_per_slab": sum(iters) / len(iters) if iters else 0.0,
        "st_solver.pseudo_iters_max": max(iters, default=0),
        "st_solver.residual.calls": st_res,
        "st_solver.residual.calls_per_slab": st_res / len(iters) if iters else 0.0,
        "st_solver.final_drop_orders_min": min(facts["drop_orders"], default=0.0),
        "st_solver.residual.us_per_dof": us_per_dof("st_solver.residual"),
        "st_solver.march_self_s": per_solve("st_solver.march", 1),
        "physics.euler_primitives.calls_per_residual":
            primitives_in_residuals(spans0) / all_res if all_res else 0.0,
        "geometry.slab_geometry.calls": calls("geometry.slab_geometry"),
        "geometry.spatial_geometry.calls": calls("geometry.spatial_geometry"),
        "mol_solver.operator_builds": calls("mol_solver.bind_degree"),
        "mol_solver.residual.calls": calls("mol_solver.residual"),
        "mol_solver.residual.us_per_dof": us_per_dof("mol_solver.residual"),
        "motion.motion_path_s": per_solve("motion.motion_path", 2),
        "analysis.error_norms_s": per_solve("analysis.error_norms", 2),
        "trace.overhead_s": overhead,
        "trace.layer_share": statistics.median(
            [layer_share(spans) for spans, _ in iterations]),
    }
    for name, *_ in TARGETS:
        out[f"{name}.us_per_call"] = us_per_call(name)
    for metric in out:
        sources = EXTRA_SOURCES.get(metric, [])
        if any(n in sources or metric.startswith((n + ".", n + "_"))
               for n in missing):
            out[metric] = None
    return out
