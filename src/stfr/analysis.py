"""Error norms and the convergence report: its rows, the order between
each row and the one before it, and its serialization.

The three L2 norms, one per solver kind, are volume-normalized: the
final-time norm interpolates the slab to its top face and integrates the
squared pointwise error over the deformed spatial domain; the slab norm
integrates over the full space-time slab; the cell norm weighs the error
of the FV cell averages by the cell volumes.  The FR norms use k+2 Gauss
points per direction, enough that the reported values are insensitive to
further refinement for the smooth fields measured here, and integrate
through `_quadrature`: a rule built once per process (`_rule`), and the
mapping at its points from the cached corner shapes of the geometry build
(`geometry._point_sets`).
"""

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from stfr.basis import interp_matrix, make_basis
from stfr.geometry import SlabGeometry, _evaluate, _point_sets
from stfr.mesh import Mesh
from stfr.physics import ExactSolution, exact_state
from stfr.st_solver import StateField
from stfr.stfv import cell_averages, interfaces


@lru_cache(maxsize=None)
def _rule(ks: int, kt: int | None, dim: int, n_q: int) -> tuple:
    """(weights, interp, levels) of the tensor n_q-point Gauss rule,
    read-only: interp maps nodal values of degrees ([kt,] ks) onto its
    points, levels holds its tau points, (-1.0,) for a spatial rule."""
    q = make_basis(n_q - 1)  # the points of `_point_sets(n_q - 1, ...)`
    w, interp = q.weights, interp_matrix(make_basis(ks).nodes, q.nodes)
    if dim == 2:
        w, interp = np.kron(w, w), np.kron(interp, interp)
    if kt is not None:
        w = np.kron(q.weights, w)
        interp = np.kron(interp_matrix(make_basis(kt).nodes, q.nodes), interp)
    for a in (w, interp):
        a.setflags(write=False)
    return w, interp, (-1.0,) if kt is None else tuple(q.nodes)


def _quadrature(ks: int, kt: int | None, n_q: int, corners_n, disp):
    """The `_rule` (weights, interp) with x (dim, nE, nq), js (nE, nq) and
    b1 = (1+tau)/2 (nq,) at its points, on the slab corners_n + b1 disp."""
    dim = corners_n.shape[2]
    w, interp, levels = _rule(ks, kt, dim, n_q)
    shapes, b1 = _point_sets(n_q - 1, dim, levels)
    x, js, _ = _evaluate(shapes, b1, corners_n, disp)
    return w, interp, x, js, b1


def _normalized_l2(values, sol, w, jac, x, t, interp):
    """sqrt(integral of the squared error / integral of 1), first variable:
    nodal values (nE, nP, nV) interpolated by interp onto quadrature points
    at positions x (dim, nE, nq) and times t, with weights w and jacobian
    jac (nE, nq), against the exact solution there.  Only variable 0 is
    read, and interpolated with one GEMM; the others never enter."""
    uq = values[..., 0] @ interp.T
    diff2 = (uq - exact_state(sol, *x, t=t)[..., 0]) ** 2
    num = float(np.einsum("q,eq->", w, jac * diff2))
    vol = float(np.einsum("q,eq->", w, jac))
    return math.sqrt(num / vol)


def l2_error_nodal(values: np.ndarray, ks: int, mesh: Mesh,
                   coords: np.ndarray, sol: ExactSolution, t: float,
                   n_q: int | None = None) -> float:
    """Volume-normalized spatial L2 error of nodal values (nE, nS, nV) on
    the mesh at position `coords`; first conservative variable."""
    C = mesh.elem_corners(coords)
    w, interp, x, js, _ = _quadrature(ks, None, n_q or ks + 2, C,
                                      np.zeros_like(C))
    return _normalized_l2(values, sol, w, js, x, t, interp)


def l2_error_final(fld: StateField, geom: SlabGeometry, mesh: Mesh,
                   coords_final: np.ndarray, sol: ExactSolution,
                   t_final: float, n_q: int | None = None) -> float:
    """Volume-normalized L2 error of the slab's top-face interpolant at
    t_final, measured on the deformed mesh; first conservative variable.
    The degrees are the slab geometry's."""
    bt = make_basis(geom.kt)
    top = np.einsum("t,etsv->esv", bt.extrap_right, fld.values)
    return l2_error_nodal(top, geom.ks, mesh, coords_final, sol, t_final, n_q)


def l2_error_slab(fld: StateField, geom: SlabGeometry, sol: ExactSolution,
                  n_q: int | None = None) -> float:
    """Volume-normalized L2 error over the space-time slab."""
    nE, _, _, nV = fld.values.shape
    n_q = n_q or max(geom.ks, geom.kt) + 2
    w, interp, x, js, b1 = _quadrature(geom.ks, geom.kt, n_q, geom.corners_n,
                                       geom.disp)
    return _normalized_l2(fld.values.reshape(nE, -1, nV), sol, w,
                          (geom.dt / 2.0) * js, x, geom.t_n + b1 * geom.dt,
                          interp)


def l2_error_cells(ubar: np.ndarray, mesh: Mesh, coords: np.ndarray,
                   sol: ExactSolution, t: float) -> float:
    """Volume-normalized L2 error at time t of the FV cell averages ubar (n,)
    against the exact ones, on the cells `stfv.interfaces` at `coords`."""
    x = coords[interfaces(mesh), 0]
    vols = np.diff(x)
    diff2 = (ubar - cell_averages(sol, x, t)) ** 2
    return math.sqrt(float(np.sum(vols * diff2) / np.sum(vols)))


def _order(e_prev, e, s_prev, s):
    """log(e_prev/e) / log(s_prev/s); NaN if either error is <= 0 or the
    two resolutions are equal."""
    if not (e_prev > 0 and e > 0):
        return math.nan
    ratio = math.log(s_prev / s)
    return math.log(e_prev / e) / ratio if ratio != 0 else math.nan


@dataclass
class ReportRow:
    resolution: float
    error_final: float
    error_slab: float
    order_final: float = math.nan
    order_slab: float = math.nan
    walltime_s: float = 0.0
    evals_per_slab: float = math.nan  # mean residual evaluations per slab
    jump_max: float = math.nan  # largest temporal jump J of a slab


@dataclass
class ConvergenceReport:
    """Rows of a refinement sweep."""

    rows: list = field(default_factory=list)

    def add(self, resolution, error_final, error_slab, walltime_s=0.0,
            evals_per_slab=math.nan, jump_max=math.nan):
        row = ReportRow(resolution=float(resolution),
                        error_final=float(error_final),
                        error_slab=float(error_slab),
                        walltime_s=float(walltime_s),
                        evals_per_slab=float(evals_per_slab),
                        jump_max=float(jump_max))
        if self.rows:
            prev = self.rows[-1]
            row.order_final = _order(prev.error_final, row.error_final,
                                     prev.resolution, row.resolution)
            row.order_slab = _order(prev.error_slab, row.error_slab,
                                    prev.resolution, row.resolution)
        self.rows.append(row)
        return row

    def to_csv(self, path: str) -> None:
        if not self.rows:
            raise ValueError("empty report")

        def fmt(v, spec):
            return "" if math.isnan(v) else format(v, spec)

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["resolution", "error_final", "error_slab",
                        "order_final", "order_slab", "walltime_s",
                        "evals_per_slab", "jump_max"])
            for r in self.rows:
                w.writerow([f"{r.resolution:.12g}",
                            fmt(r.error_final, ".12e"),
                            fmt(r.error_slab, ".12e"),
                            fmt(r.order_final, ".4f"),
                            fmt(r.order_slab, ".4f"),
                            f"{r.walltime_s:.3f}",
                            fmt(r.evals_per_slab, ".2f"),
                            fmt(r.jump_max, ".6e")])

    def to_plot_data(self, path: str) -> None:
        """Two-column log10(resolution) vs log10(error_final) file."""
        if not self.rows:
            raise ValueError("empty report")
        with open(path, "w") as fh:
            for r in self.rows:
                if r.error_final > 0:
                    fh.write(f"{math.log10(r.resolution):.8f} "
                             f"{math.log10(r.error_final):.8f}\n")
