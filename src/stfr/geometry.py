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
metric rows stacked by direction, (dim, nE, nP, dim+1).  Only the geometry
build and the GCL check build rows; the error norms read positions and js.
A build is one evaluation over one cached point set: the solution points,
every edge's flux points and, unless the levels start at tau = -1, the
bottom trace; the GCL check and the error norms evaluate on tensor grids
(`_on_grid`).
`slab_geometry` builds at the Gauss levels of the temporal basis.
`spatial_geometry` builds the method-of-lines geometry of a whole step:
all stages share one grid velocity V_g, so they are the levels tau = s - 1
of the slab of length dt = 2 from the step-start positions x_n to
x_n + 2 V_g, at the stage time offsets s.  There t_tau = 1 and x_tau = V_g,
so the metric rows are exactly the ALE vectors (M, -V_g . M) at the
positions x_n + s V_g, |J| = Js, and the level times are t_n + s, with no
division by t_tau.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from stfr.basis import BasisSet, gauss_legendre, interp_matrix, make_basis
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


def _evaluate(shapes, b1, corners_n, disp):
    """Positions x (dim, nE, nP), js (nE, nP) and the tangents (x_xi[,
    x_eta], x_tau), each (dim, nE, nP), that `_metric_rows` builds the
    rows from, at points with corner shape functions `shapes` (N and its
    derivatives, each (nP, nc)) and blend weights b1 = (1+tau)/2 (nP,), for
    corners_n and disp, their displacement over the slab (nE, nc, dim)."""
    N, *dN = shapes
    nE, _, dim = corners_n.shape
    cn, cd = _stacked(corners_n), _stacked(disp)

    def blended(S):  # corners_n + b1 disp through the shape rows S
        f = cd @ S.T
        f *= b1
        f += cn @ S.T
        return f.reshape(dim, nE, -1)

    x_tau = (cd @ N.T).reshape(dim, nE, -1)
    x = (cn @ N.T).reshape(dim, nE, -1)
    x += b1 * x_tau
    x_tau *= 0.5
    grads = [blended(dNk) for dNk in dN]  # x_xi (and x_eta)
    if dim == 1:
        return x, grads[0][0], (grads[0], x_tau)
    (x_xi, y_xi), (x_eta, y_eta) = grads
    return x, x_xi * y_eta - x_eta * y_xi, (*grads, x_tau)


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
    x_tau, y_tau = tau_tangent
    # in place, no stacked temporaries at the peak: M_xi from the eta
    # tangent (u, v), M_eta from the xi tangent with the opposite sign
    for M, (u, v), s in zip(rows, grads[::-1], (1.0, -1.0)):
        np.multiply(v, s * t_tau, out=M[..., 0])
        np.multiply(u, -s * t_tau, out=M[..., 1])
        np.multiply(u * y_tau - x_tau * v, s, out=M[..., 2])
    return rows


def _stacked(corners):
    """Corners (nE, nc, dim) as coordinate-major rows (dim nE, nc)."""
    return corners.transpose(2, 0, 1).reshape(-1, corners.shape[1])


def _on_grid(corners_n, disp, nodes_s, nodes_t, dim):
    """`_evaluate` on the tensor grid of the 1D points nodes_s in every
    spatial direction and nodes_t in tau, C-order (i_tau, [i_eta,] i_xi)."""
    xi, eta, tau = _over_tau(spatial_points(nodes_s, dim), nodes_t)
    return _evaluate(corner_shapes(xi, eta), (1 + tau) / 2, corners_n, disp)


@lru_cache(maxsize=None)
def _point_sets(ks: int, dim: int, levels: tuple) -> tuple:
    """(shapes, b1) of the one point set of a geometry build, read-only:
    the solution points at the temporal levels `levels`, then each edge's
    flux points at `levels`, then, unless levels[0] == -1, the solution
    points at tau = -1 (the bottom trace); each part C-order (i_tau, j)."""
    b = make_basis(ks)
    vol = spatial_points(b.nodes, dim)
    parts = [_over_tau(pts, np.array(levels)) for pts in [vol] + [
        spatial_face_points(b, dim, edge) for edge in range(2 * dim)]]
    if levels[0] != -1.0:
        parts.append(_over_tau(vol, np.array([-1.0])))
    xi, eta, tau = (None if p[0] is None else np.concatenate(p)
                    for p in zip(*parts))
    arrays = corner_shapes(xi, eta) + ((1 + tau) / 2,)
    for a in arrays:
        a.setflags(write=False)
    return arrays[:-1], arrays[-1]


@dataclass
class SlabGeometry:
    """Immutable mapping data of one slab, or of the stages of one MOL step
    (one temporal level each), at solution and face points."""

    dim: int
    ks: int
    kt: int
    dt: float
    t_n: float
    corners_n: np.ndarray       # (nE, nc, dim) corners at tau = -1
    disp: np.ndarray            # (nE, nc, dim) their displacement to tau = 1
    jac: np.ndarray             # (nE, nT, nS)
    js: np.ndarray              # (nE, nT, nS)
    rows: np.ndarray            # (dim, nE, nT, nS, dim+1), M_xi first
    face_m: np.ndarray          # (nE, n_edges, nT, nFs, dim+1), outward
    face_x: np.ndarray          # (dim, nE, n_edges, nT, nFs) face positions
    times: np.ndarray           # (nT,) time of each level
    js_bot: np.ndarray          # (nE, nS) spatial jacobian at tau = -1


def _geometry(mesh: Mesh, corners_n, disp, dt: float, t_n: float,
              basis_s: BasisSet, kt: int, levels: tuple) -> SlabGeometry:
    """Volume and face data of the slab from corners_n to corners_n + disp,
    at the temporal levels `levels`: one evaluation over the cached point
    set of `_point_sets`, sliced into the volume arrays (|J| = t_tau js),
    the signed face vectors, the positions of the face points only, and the
    bottom trace js_bot (the first level when it is tau = -1), each copied
    contiguous.

    Raises:
        GeometryDegeneracyError: if |J| <= 1e-13 anywhere, naming the
            element and point.
    """
    dim, ks = mesh.dim, basis_s.degree
    nT, nS, nFs = len(levels), basis_s.n ** dim, 1 if dim == 1 else basis_s.n
    nV, nF = nT * nS, 2 * dim * nT * nFs
    shapes, b1 = _point_sets(ks, dim, levels)
    x, js_all, tangents = _evaluate(shapes, b1, corners_n, disp)
    rows = _metric_rows(tangents, dt)
    del tangents  # not held past the rows, at the peak of the build

    # contiguous copies: no view keeps the batched result alive
    js = js_all[:, :nV].copy().reshape(-1, nT, nS)
    jac = (dt / 2.0) * js
    if not jac.min() > JAC_FLOOR:  # also catches nan
        e, it, s = np.argwhere(~(jac > JAC_FLOOR))[0]
        raise GeometryDegeneracyError(
            f"non-positive space-time Jacobian {jac[e, it, s]:.3e} in element "
            f"{e} at solution point (tau index {it}, spatial index {s})")

    # outward face vectors: the metric row normal to each edge, signed
    face = slice(nV, nV + nF)
    fshape = (-1, 2 * dim, nT, nFs, dim + 1)
    sides = np.array([_side(e) for e in range(2 * dim)]).reshape(-1, 1, 1, 1)
    face_m = rows[0][:, face].reshape(fshape) * sides
    if dim == 2:  # the S and N edges are eta faces
        face_m[:, ::2] = rows[1][:, face].reshape(fshape)[:, ::2] * sides[::2]
    js_bot = (js[:, 0] if levels[0] == -1.0 else js_all[:, nV + nF:]).copy()

    return SlabGeometry(
        dim=dim, ks=ks, kt=kt, dt=dt, t_n=t_n, corners_n=corners_n, disp=disp,
        jac=jac, js=js,
        rows=rows[:, :, :nV].copy().reshape(dim, -1, nT, nS, dim + 1),
        face_m=face_m,
        face_x=x[:, :, face].copy().reshape(dim, -1, 2 * dim, nT, nFs),
        times=t_n + (1 + np.array(levels)) / 2 * dt, js_bot=js_bot,
    )


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


def spatial_geometry(mesh: Mesh, coords: np.ndarray, vel_nodes: np.ndarray,
                     basis_s: BasisSet, t: float,
                     offsets: tuple = (0.0,)) -> SlabGeometry:
    """Geometry of method-of-lines stages: the mesh that is at `coords` at
    time t and moves with the per-node grid velocity vel_nodes, taken at
    the time offsets `offsets` (one temporal level each, in order).

    It is the slab geometry at the levels tau = s - 1 (kt = 0) of the slab
    of length dt = 2 from coords to coords + 2 vel_nodes.  With t_tau = 1
    and x_tau = V_g at every level, level j holds the mesh at
    coords + s_j vel_nodes: its metric rows are the ALE vectors
    (M, -V_g . M) of the spatial metric rows M, the face vectors are the
    outward (n, -V_g . n), jac = js, and its time is t + s_j.

    Raises:
        GeometryDegeneracyError: if the spatial Jacobian is <= 1e-13
            anywhere, naming the element and point.
    """
    return _geometry(mesh, mesh.elem_corners(coords),
                     2.0 * mesh.elem_corners(vel_nodes), 2.0, t, basis_s, 0,
                     tuple(s - 1.0 for s in offsets))


def _along(A, a, axis):
    """Matrix A applied along one axis of array a."""
    return np.moveaxis(np.tensordot(A, a, axes=(1, axis)), 0, axis)


def _tensor(a, dim):
    """Tensor product of a 1D weight vector or matrix over dim directions."""
    return a if dim == 1 else np.kron(a, a)


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
    _, js, tangents = _on_grid(geom.corners_n, geom.disp, es.nodes, et.nodes,
                               dim)
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


def st_quadrature_data(geom: SlabGeometry, n_q: int):
    """Mapping data at an n_q-per-direction space-time quadrature grid.

    Returns (weights, jac, x (dim, nE, nq), t (nq,), interp) where interp
    maps nodal solution values (nT, nS) onto the quadrature grid; weights
    are the tensor-product Gauss weights.  Used by the slab error norm.
    """
    xq, wq = gauss_legendre(n_q)
    x, js, _ = _on_grid(geom.corners_n, geom.disp, xq, xq, geom.dim)
    t = np.repeat(geom.t_n + (1 + xq) / 2 * geom.dt, len(xq) ** geom.dim)
    Is = interp_matrix(make_basis(geom.ks).nodes, xq)
    It = interp_matrix(make_basis(geom.kt).nodes, xq)
    return (np.kron(wq, _tensor(wq, geom.dim)), (geom.dt / 2.0) * js, x, t,
            np.kron(It, _tensor(Is, geom.dim)))


def solution_positions(mesh: Mesh, coords: np.ndarray, ks: int) -> np.ndarray:
    """Positions (dim, nE, nS) of the degree-ks solution points on the mesh
    at `coords`, from the cached shape functions of a geometry build."""
    N = _point_sets(ks, mesh.dim, (-1.0,))[0][0][:(ks + 1) ** mesh.dim]
    return (_stacked(mesh.elem_corners(coords)) @ N.T).reshape(
        mesh.dim, mesh.n_elems, -1)


def spatial_quadrature_data(mesh: Mesh, coords: np.ndarray, ks: int, n_q: int):
    """(weights, js, x (dim, nE, nq), interp) on an n_q-per-direction
    spatial grid: the mapping of a resting slab at tau = -1."""
    xq, wq = gauss_legendre(n_q)
    Is = interp_matrix(make_basis(ks).nodes, xq)
    C = mesh.elem_corners(coords)
    x, js, _ = _on_grid(C, np.zeros_like(C), xq, np.array([-1.0]), mesh.dim)
    return _tensor(wq, mesh.dim), js, x, _tensor(Is, mesh.dim)
