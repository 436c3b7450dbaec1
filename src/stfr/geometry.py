"""Space-time element mappings, Jacobians/metrics, and the GCL residual.

A slab element maps the reference cube [-1,1]^(d+1) to physical space-time:

    x(xi, eta, tau) = x_n(xi, eta) + (1+tau)/2 * (x_{n+1} - x_n)(xi, eta)
    t(tau) = t_n + (1+tau) dt/2

with x_n, x_{n+1} the (bi)linear corner maps at the slab's two time levels,
so node trajectories are linear in time (linear space-time elements) and
t_tau = dt/2 is constant.

Metric rows M_dir = |J| grad_st(dir) are evaluated analytically from the
mapping at every point; they are exact pointwise values, never interpolants
of products.  For the 2D spatial case:

    M_xi  = ( y_eta t_tau, -x_eta t_tau, x_eta y_tau - x_tau y_eta)
    M_eta = (-y_xi  t_tau,  x_xi  t_tau, y_xi  x_tau - x_xi  y_tau)
    M_tau = (0, 0, Js),    Js = x_xi y_eta - x_eta y_xi,   |J| = t_tau Js

One evaluator, `_evaluate`, returns positions x (dim, nE, nP), js (nE, nP)
and the mapping's tangents; `_metric_rows` turns the tangents into the
metric rows stacked by direction, (dim, nE, nP, dim+1).  Only the GCL check
and the volume part of a geometry build form rows; the error norms
(`analysis`) read positions and js.  Every evaluation on a tensor grid of
Gauss points reads its corner shapes from one cached table
(`_point_sets`).  A build evaluates no positions.  Its volume part is one
evaluation over the solution points at the levels and, unless the levels
start at tau = -1, at the bottom trace, where only js is kept.  Its faces
read only the outward vector of each flux point, formed from the cached
face table (`_face_table`): the derivative along the edge with the
outward sign folded in, so the vector is that tangent t rotated,
(t_y t_tau, -t_x t_tau, t_x y_tau - x_tau t_y).  Face positions are
evaluated on demand (`face_points`), only where a Dirichlet face reads
its analytic state.
`slab_geometry` builds at the Gauss levels of the temporal basis.
`spatial_geometry` builds the method-of-lines geometry of a whole step
from its end positions: all stages share one grid velocity
V_g = (x_{n+1} - x_n) / dt, so they are the levels tau = s - 1 of the slab
of length 2 from the step-start positions x_n to x_n + 2 V_g, at the stage
time offsets s = f dt.  There t_tau = 1 and x_tau = V_g,
so the metric rows are exactly the ALE vectors (M, -V_g . M) at the
positions x_n + s V_g, |J| = Js, and the level times are t_n + s, with no
division by t_tau.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from stfr.basis import BasisSet, interp_matrix, make_basis
from stfr.mesh import Mesh

# reference corner coordinates per direction, counter-clockwise in 2D
CORNERS = {1: (np.array([-1.0, 1.0]),),
           2: (np.array([-1.0, 1.0, 1.0, -1.0]), np.array([-1.0, -1.0, 1.0, 1.0]))}

JAC_FLOOR = 1e-13


class GeometryDegeneracyError(RuntimeError):
    """Non-positive space-time Jacobian; names the element and point."""


def corner_shapes(xi, eta=None):
    """(Bi)linear corner shape functions N and their derivatives along each
    reference direction at flat points, each (nP, n_corners); 1D if eta is
    None."""
    pts = [xi] if eta is None else [xi, eta]
    cs = CORNERS[len(pts)]
    f = [(1 + np.atleast_1d(np.asarray(x, dtype=float))[:, None] * c) / 2
         for x, c in zip(pts, cs)]
    N = np.prod(f, axis=0)
    dN = [np.prod([np.broadcast_to(c / 2, N.shape)] + f[:k] + f[k + 1:], axis=0)
          for k, c in enumerate(cs)]
    return (N, *dN)


def _over_tau(points, levels):
    """Repeat flat spatial reference points (xi, eta) at every tau level."""
    nT = len(levels)
    xi, eta = points
    return (np.tile(xi, nT), None if eta is None else np.tile(eta, nT),
            np.repeat(levels, xi.size))


def _evaluate(shapes, b1, corners_n, disp, positions=True):
    """Positions x (dim, nE, nP), js (nE, nP) and the tangents (x_xi[,
    x_eta], x_tau), each (dim, nE, nP), that `_metric_rows` builds the
    rows from, at points with corner shape functions `shapes` (N and its
    derivatives, each (nP, nc)) and blend weights b1 = (1+tau)/2 (nP,), for
    corners_n and disp, their displacement over the slab (nE, nc, dim).
    x is None unless `positions`."""
    N, *dN = shapes
    nE, _, dim = corners_n.shape
    cn, cd = _stacked(corners_n), _stacked(disp)
    x_tau = (cd @ N.T).reshape(dim, nE, -1)
    x = None
    if positions:
        x = (cn @ N.T).reshape(dim, nE, -1)
        x += b1 * x_tau
    x_tau *= 0.5
    # x_xi (and x_eta)
    grads = [_blended(cn, cd, dNk, b1).reshape(dim, nE, -1) for dNk in dN]
    if dim == 1:
        return x, grads[0][0], (grads[0], x_tau)
    (x_xi, y_xi), (x_eta, y_eta) = grads
    return x, x_xi * y_eta - x_eta * y_xi, (*grads, x_tau)


def _blended(cn, cd, S, b1):
    """The stacked corners cn + b1 cd (dim nE, nc) through the shape rows
    S (nP, nc), as (dim nE, nP)."""
    f = cd @ S.T
    f *= b1
    f += cn @ S.T
    return f


def _metric_rows(tangents, dt):
    """Metric rows (dim, nE, nP, dim+1), M_xi first, from the tangents of
    `_evaluate` and t_tau = dt/2, filled one component at a time."""
    *grads, tau_tangent = tangents
    dim = len(grads)
    t_tau = dt / 2.0
    rows = np.empty(tau_tangent.shape + (dim + 1,))
    if dim == 1:
        rows[0, ..., 0] = t_tau
        np.negative(tau_tangent[0], out=rows[0, ..., 1])
        return rows
    # M_xi from the eta tangent, M_eta from the xi tangent, opposite sign
    for M, tangent, s in zip(rows, grads[::-1], (1.0, -1.0)):
        _rotated(M, tangent, tau_tangent, t_tau, s)
    return rows


def _rotated(out, tangent, tau_tangent, t_tau, s=1.0):
    """s (v t_tau, -u t_tau, u y_tau - x_tau v) of a 2D tangent (u, v) and
    x_tau = (x_tau, y_tau), written into out (..., 3) one component at a
    time, with no stacked temporaries at the peak of a build."""
    (u, v), (x_tau, y_tau) = tangent, tau_tangent
    np.multiply(v, s * t_tau, out=out[..., 0])
    np.multiply(u, -s * t_tau, out=out[..., 1])
    np.multiply(u * y_tau - x_tau * v, s, out=out[..., 2])


def _stacked(corners):
    """Corners (nE, nc, dim) as coordinate-major rows (dim nE, nc)."""
    return corners.transpose(2, 0, 1).reshape(-1, corners.shape[1])


@lru_cache(maxsize=None)
def _point_sets(k: int, dim: int, levels: tuple) -> tuple:
    """(shapes, b1) for `_evaluate` on the tensor grid of the k+1 Gauss
    points of degree k in every spatial direction, at each tau of
    `levels`, C-order (i_tau, [i_eta,] i_xi), read-only."""
    xi, eta, tau = _over_tau(spatial_points(make_basis(k).nodes, dim),
                             np.array(levels))
    arrays = corner_shapes(xi, eta) + ((1 + tau) / 2,)
    for a in arrays:
        a.setflags(write=False)
    return arrays[:-1], arrays[-1]


@lru_cache(maxsize=None)
def _face_table(ks: int, dim: int, levels: tuple) -> tuple:
    """(N, T, b1) at every edge's flux points at the temporal levels
    `levels`, rows in (edge, level, flux point) order, read-only: the
    corner shape functions N (nP, nc), the shape derivatives T (nP, nc)
    along the edge, counter-clockwise (the outward sign folded in), and
    b1 = (1+tau)/2 (nP,).  In 1D, where an edge is a point, T is the
    outward sign itself (nP,)."""
    b = make_basis(ks)
    parts = []
    for edge in range(2 * dim):
        xi, eta, tau = _over_tau(spatial_face_points(b, dim, edge),
                                 np.array(levels))
        N, *dN = corner_shapes(xi, eta)
        side = _side(edge)
        if dim == 1:
            T = np.full(len(N), side)
        else:  # xi faces (odd edges) run along eta, eta faces against xi
            T = side * dN[1] if edge % 2 else -side * dN[0]
        parts.append((N, T, (1 + tau) / 2))
    arrays = tuple(np.concatenate(a) for a in zip(*parts))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _face_vectors(table, corners_n, disp, dt):
    """Outward face vectors (nE, nP, dim+1) at the rows of a `_face_table`:
    with n the outward normal, the tangent t rotated to (t_y, -t_x) in 2D
    and the sign in 1D, each is (n t_tau, -n . x_tau), the metric row of
    the face's direction signed outward.  Three (dim nE, nc) GEMMs in 2D,
    one in 1D."""
    N, T, b1 = table
    nE, _, dim = corners_n.shape
    cn, cd = _stacked(corners_n), _stacked(disp)
    t_tau = dt / 2.0
    x_tau = (cd @ N.T).reshape(dim, nE, -1)
    x_tau *= 0.5
    out = np.empty((nE, len(N), dim + 1))
    if dim == 1:
        np.multiply(T, t_tau, out=out[..., 0])
        np.multiply(x_tau[0], -T, out=out[..., 1])
        return out
    _rotated(out, _blended(cn, cd, T, b1).reshape(dim, nE, -1), x_tau, t_tau)
    return out


@dataclass
class SlabGeometry:
    """Immutable mapping data of one slab, or of the stages of one MOL step
    (one temporal level each), at solution points and face flux points.
    Face positions are not held: `face_points` evaluates them for the faces
    that read them."""

    dim: int
    ks: int
    kt: int
    dt: float
    t_n: float
    levels: tuple               # (nT,) tau of each temporal level
    corners_n: np.ndarray       # (nE, nc, dim) corners at tau = -1
    disp: np.ndarray            # (nE, nc, dim) their displacement to tau = 1
    jac: np.ndarray             # (nE, nT, nS)
    js: np.ndarray              # (nE, nT, nS)
    rows: np.ndarray            # (dim, nE, nT, nS, dim+1), M_xi first
    face_m: np.ndarray          # (nE, n_edges, nT, nFs, dim+1), outward
    times: np.ndarray           # (nT,) time of each level
    js_bot: np.ndarray          # (nE, nS) spatial jacobian at tau = -1


def _geometry(mesh: Mesh, corners_n, disp, dt: float, t_n: float,
              basis_s: BasisSet, kt: int, levels: tuple) -> SlabGeometry:
    """Volume and face data of the slab from corners_n to corners_n + disp,
    at the temporal levels `levels`: one evaluation without positions at
    the cached solution points of `_point_sets` at the levels and, unless
    the first is tau = -1, at tau = -1, sliced into the volume arrays
    (|J| = t_tau js, the metric rows of the levels only) and the bottom
    trace js_bot (the first level when it is tau = -1), each contiguous,
    and the outward face vectors from `_face_table`.

    Raises:
        GeometryDegeneracyError: if |J| <= 1e-13 anywhere, naming the
            element and point.
    """
    dim, ks = mesh.dim, basis_s.degree
    nT, nS, nFs = len(levels), basis_s.n ** dim, 1 if dim == 1 else basis_s.n
    nV = nT * nS
    bottom = levels[0] == -1.0
    shapes, b1 = _point_sets(ks, dim, levels if bottom else levels + (-1.0,))
    _, js_all, tangents = _evaluate(shapes, b1, corners_n, disp,
                                    positions=False)
    rows = _metric_rows([t[:, :, :nV] for t in tangents], dt)
    del tangents  # not held past the rows, at the peak of the build

    # contiguous copies: no view keeps the batched result alive
    js = js_all[:, :nV].copy().reshape(-1, nT, nS)
    jac = (dt / 2.0) * js
    if not jac.min() > JAC_FLOOR:  # also catches nan
        e, it, s = np.argwhere(~(jac > JAC_FLOOR))[0]
        raise GeometryDegeneracyError(
            f"non-positive space-time Jacobian {jac[e, it, s]:.3e} in element "
            f"{e} at solution point (tau index {it}, spatial index {s})")
    js_bot = (js[:, 0] if bottom else js_all[:, nV:]).copy()
    face_m = _face_vectors(_face_table(ks, dim, levels), corners_n, disp, dt)

    return SlabGeometry(
        dim=dim, ks=ks, kt=kt, dt=dt, t_n=t_n, levels=levels,
        corners_n=corners_n, disp=disp, jac=jac, js=js,
        rows=rows.reshape(dim, -1, nT, nS, dim + 1),
        face_m=face_m.reshape(-1, 2 * dim, nT, nFs, dim + 1),
        times=t_n + (1 + np.array(levels)) / 2 * dt, js_bot=js_bot,
    )


def face_points(geom: SlabGeometry, elem, edge) -> np.ndarray:
    """Positions (dim, n, nT, nFs) of the flux points of the faces
    (elem[i], edge[i]) at every temporal level of geom."""
    N, _, b1 = _face_table(geom.ks, geom.dim, geom.levels)
    x = _blended(_stacked(geom.corners_n[elem]), _stacked(geom.disp[elem]),
                 N, b1).reshape(geom.dim, len(elem), 2 * geom.dim,
                                len(geom.levels), -1)
    return x[:, np.arange(len(elem)), edge]


def slab_geometry(mesh: Mesh, coords_n: np.ndarray, coords_n1: np.ndarray,
                  dt: float, basis_s: BasisSet, basis_t: BasisSet,
                  t_n: float = 0.0) -> SlabGeometry:
    """Build the space-time geometry of one slab at the Gauss levels of
    basis_t.

    Raises:
        GeometryDegeneracyError: if |J| <= 1e-13 anywhere, naming the
            element and point.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    Cn = mesh.elem_corners(coords_n)
    return _geometry(mesh, Cn, mesh.elem_corners(coords_n1) - Cn, dt, t_n,
                     basis_s, basis_t.degree, tuple(basis_t.nodes))


def spatial_geometry(mesh: Mesh, coords_n: np.ndarray, coords_n1: np.ndarray,
                     dt: float, basis_s: BasisSet, t: float,
                     fractions: tuple = (0.0,)) -> SlabGeometry:
    """Geometry of the method-of-lines stages of the step of length dt from
    node positions coords_n at time t to coords_n1: the mesh moves with
    the grid velocity V_g = (coords_n1 - coords_n) / dt, held over the
    step, and is taken at the time offsets s = f dt of the `fractions` f
    (one temporal level each, in order).

    It is the slab geometry at the levels tau = s - 1 (kt = 0) of the slab
    of length 2 from coords_n to coords_n + 2 V_g.  With t_tau = 1 and
    x_tau = V_g at every level, level j holds the mesh at coords_n + s_j V_g:
    its metric rows are the ALE vectors (M, -V_g . M) of the spatial metric
    rows M, the face vectors are the outward (n, -V_g . n), jac = js, and
    its time is t + s_j.

    Raises:
        ValueError: if dt <= 0.
        GeometryDegeneracyError: if the spatial Jacobian is <= 1e-13
            anywhere, naming the element and point.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    vel = (np.asarray(coords_n1) - np.asarray(coords_n)) / dt
    return _geometry(mesh, mesh.elem_corners(coords_n),
                     2.0 * mesh.elem_corners(vel), 2.0, t, basis_s, 0,
                     tuple(f * dt - 1.0 for f in fractions))


def _along(A, a, axis):
    """Matrix A applied along one axis of array a."""
    return np.moveaxis(np.tensordot(A, a, axes=(1, axis)), 0, axis)


def gcl_residual(geom: SlabGeometry) -> np.ndarray:
    """Discrete GCL residual d(Js)/dtau + d(|J| xi_t)/dxi [+ d(|J| eta_t)/deta]
    at the solution points, (nE, nT, nS).

    The metric rows of a linear space-time element are polynomials of degree
    at most 2 per reference direction, so they are differentiated on a grid
    that represents them exactly (degree >= 2 per direction) and the result
    is interpolated back to the solution points.  For linear space-time
    elements this identity cancels to round-off.
    """
    dim, basis_s, basis_t = geom.dim, make_basis(geom.ks), make_basis(geom.kt)
    es, et = make_basis(max(geom.ks, 2)), make_basis(max(geom.kt, 2))
    _, js, tangents = _evaluate(*_point_sets(es.degree, dim, tuple(et.nodes)),
                                geom.corners_n, geom.disp, positions=False)
    rows = _metric_rows(tangents, geom.dt)
    shape = (-1, et.n) + (es.n,) * dim  # (nE, tau, [eta,] xi)
    res = _along(et.diff, js.reshape(shape), 1)
    for axis, M in zip((-1, -2), rows):
        res += _along(es.diff, M[..., dim].reshape(shape), axis)
    res = _along(interp_matrix(et.nodes, basis_t.nodes), res, 1)
    Is = interp_matrix(es.nodes, basis_s.nodes)
    for axis in range(2, dim + 2):
        res = _along(Is, res, axis)
    return res.reshape(res.shape[0], basis_t.n, -1)


def spatial_points(nodes: np.ndarray, dim: int):
    """Flat tensor-product reference coordinates (xi, eta) of 1D points
    `nodes`, xi fastest; eta is None in 1D."""
    if dim == 1:
        return nodes.copy(), None
    Y, X = np.meshgrid(nodes, nodes, indexing="ij")
    return X.ravel(), Y.ravel()


def _side(edge: int) -> float:
    """+1 on the plus faces (E, N), -1 on the minus faces (W, S).

    Edges are (W, E) in 1D and (S, E, N, W) in 2D; odd edges are xi faces.
    """
    return 1.0 if edge in (1, 2) else -1.0


def spatial_face_points(basis_s: BasisSet, dim: int, edge: int):
    """Reference coordinates of one edge's flux points (spatial only)."""
    if dim == 1:
        return np.array([_side(edge)]), None
    xs = basis_s.nodes.copy()
    fixed = np.full_like(xs, _side(edge))
    return (fixed, xs) if edge % 2 else (xs, fixed)


def solution_positions(mesh: Mesh, coords: np.ndarray, ks: int) -> np.ndarray:
    """Positions (dim, nE, nS) of the degree-ks solution points on the mesh
    at `coords`, from the cached shape functions of a geometry build."""
    N = _point_sets(ks, mesh.dim, (-1.0,))[0][0]
    return (_stacked(mesh.elem_corners(coords)) @ N.T).reshape(
        mesh.dim, mesh.n_elems, -1)
