"""Space-time element mappings, Jacobians/metrics, and the GCL residual.

A slab element maps the reference cube [-1,1]^(d+1) to physical space-time:

    x(xi, eta, tau) = (1-tau)/2 * x_n(xi, eta) + (1+tau)/2 * x_{n+1}(xi, eta)
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
"""

from dataclasses import dataclass

import numpy as np

from stfr.basis import BasisSet, gauss_legendre, interp_matrix, make_basis
from stfr.mesh import Mesh

CORNER_XI = np.array([-1.0, 1.0, 1.0, -1.0])
CORNER_ETA = np.array([-1.0, -1.0, 1.0, 1.0])

JAC_FLOOR = 1e-13


class GeometryDegeneracyError(RuntimeError):
    """Non-positive space-time Jacobian; names the element and point."""


def shape2d(xi, eta):
    """Bilinear shape functions and derivatives at points, each (nP, 4)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    N = 0.25 * (1 + xi[:, None] * CORNER_XI) * (1 + eta[:, None] * CORNER_ETA)
    dNdxi = 0.25 * CORNER_XI * (1 + eta[:, None] * CORNER_ETA)
    dNdeta = 0.25 * (1 + xi[:, None] * CORNER_XI) * CORNER_ETA
    return N, dNdxi, dNdeta


def shape1d(xi):
    """Linear shape functions and derivatives at points, each (nP, 2)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    N = np.stack([(1 - xi) / 2, (1 + xi) / 2], axis=1)
    dN = np.tile(np.array([-0.5, 0.5]), (xi.size, 1))
    return N, dN


def st_points(basis_s: BasisSet, basis_t: BasisSet, dim: int):
    """Flat reference coordinates of the space-time solution points.

    C-order over (i_tau, i_eta, i_xi); returns (xi, eta, tau) with eta None
    in 1D.  nS = (ks+1)**dim spatial points per temporal level.
    """
    return _over_tau(spatial_points(basis_s, dim), basis_t)


def st_face_points(basis_s: BasisSet, basis_t: BasisSet, dim: int, edge: int):
    """Reference coordinates of one side face's flux points, C-order (i_tau, j)."""
    return _over_tau(spatial_face_points(basis_s, dim, edge), basis_t)


def _over_tau(points, basis_t: BasisSet):
    """Repeat flat spatial reference points (xi, eta) at every tau level."""
    nT = basis_t.n
    xi, eta = points
    return (np.tile(xi, nT), None if eta is None else np.tile(eta, nT),
            np.repeat(basis_t.nodes, xi.size))


def eval_st_mapping(corners_n, corners_n1, dt, t_n, xi, eta, tau):
    """Evaluate the slab mapping and metrics at flat reference points.

    Args:
        corners_n, corners_n1: (nE, nc, dim) element corner coordinates.
        dt, t_n: slab extent and start time.
        xi, eta, tau: flat (nP,) reference coordinates (eta None in 1D).

    Returns:
        dict with coords (nE, nP, dim+1), jac, js (nE, nP), and metric rows
        m_xi (and m_eta in 2D) of shape (nE, nP, dim+1).
    """
    dim = corners_n.shape[2]
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    b0 = (1 - tau) / 2
    b1 = (1 + tau) / 2
    t_tau = dt / 2.0
    if dim == 1:
        N, dN = shape1d(xi)
        xn = np.einsum("pc,ec->ep", N, corners_n[:, :, 0])
        xn1 = np.einsum("pc,ec->ep", N, corners_n1[:, :, 0])
        x = b0 * xn + b1 * xn1
        dxn = np.einsum("pc,ec->ep", dN, corners_n[:, :, 0])
        dxn1 = np.einsum("pc,ec->ep", dN, corners_n1[:, :, 0])
        x_xi = b0 * dxn + b1 * dxn1
        x_tau = (xn1 - xn) / 2.0
        jac = x_xi * t_tau
        m_xi = np.stack([np.broadcast_to(t_tau, x.shape), -x_tau], axis=-1)
        t = np.broadcast_to(t_n + b1 * dt, x.shape)
        coords = np.stack([x, t], axis=-1)
        return {"coords": coords, "jac": jac, "js": x_xi, "m_xi": m_xi}

    N, dNdxi, dNdeta = shape2d(xi, eta)
    xy_n = np.einsum("pc,ecd->epd", N, corners_n)
    xy_n1 = np.einsum("pc,ecd->epd", N, corners_n1)
    xy = b0[None, :, None] * xy_n + b1[None, :, None] * xy_n1
    d_xi = (b0[None, :, None] * np.einsum("pc,ecd->epd", dNdxi, corners_n)
            + b1[None, :, None] * np.einsum("pc,ecd->epd", dNdxi, corners_n1))
    d_eta = (b0[None, :, None] * np.einsum("pc,ecd->epd", dNdeta, corners_n)
             + b1[None, :, None] * np.einsum("pc,ecd->epd", dNdeta, corners_n1))
    d_tau = (xy_n1 - xy_n) / 2.0

    x_xi, y_xi = d_xi[..., 0], d_xi[..., 1]
    x_eta, y_eta = d_eta[..., 0], d_eta[..., 1]
    x_tau, y_tau = d_tau[..., 0], d_tau[..., 1]
    js = x_xi * y_eta - x_eta * y_xi
    jac = t_tau * js
    m_xi = np.stack([y_eta * t_tau, -x_eta * t_tau,
                     x_eta * y_tau - x_tau * y_eta], axis=-1)
    m_eta = np.stack([-y_xi * t_tau, x_xi * t_tau,
                      y_xi * x_tau - x_xi * y_tau], axis=-1)
    t = np.broadcast_to(t_n + b1 * dt, js.shape)
    coords = np.concatenate([xy, t[..., None]], axis=-1)
    return {"coords": coords, "jac": jac, "js": js, "m_xi": m_xi, "m_eta": m_eta}


@dataclass
class SlabGeometry:
    """Immutable per-slab mapping data at solution and face points."""

    dim: int
    ks: int
    kt: int
    dt: float
    t_n: float
    corners_n: np.ndarray       # (nE, nc, dim)
    corners_n1: np.ndarray
    jac: np.ndarray             # (nE, nT, nS)
    js: np.ndarray              # (nE, nT, nS)
    m_xi: np.ndarray            # (nE, nT, nS, dim+1)
    m_eta: np.ndarray | None    # 2D only
    coords: np.ndarray          # (nE, nT, nS, dim+1)
    face_m: np.ndarray          # (nE, n_edges, nT, nFs, dim+1), outward
    face_coords: np.ndarray     # (nE, n_edges, nT, nFs, dim+1)
    js_bot: np.ndarray          # (nE, nS) spatial jacobian at tau = -1

    @property
    def n_elems(self) -> int:
        return self.jac.shape[0]


def _outward(mapping, edge: int):
    """Outward face vector of one edge from the mapping's metric rows.

    Edges are (W, E) in 1D and (S, E, N, W) in 2D.
    """
    if "m_eta" not in mapping:
        return mapping["m_xi"] * (-1.0 if edge == 0 else 1.0)
    m = mapping["m_xi"] if edge in (1, 3) else mapping["m_eta"]
    return m * (1.0 if edge in (1, 2) else -1.0)


def slab_geometry(mesh: Mesh, coords_n: np.ndarray, coords_n1: np.ndarray,
                  dt: float, basis_s: BasisSet, basis_t: BasisSet,
                  t_n: float = 0.0) -> SlabGeometry:
    """Build the space-time geometry of one slab.

    Raises:
        GeometryDegeneracyError: if |J| <= 1e-13 anywhere, naming the
            element and point.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    dim = mesh.dim
    Cn = mesh.elem_corners(coords_n)
    Cn1 = mesh.elem_corners(coords_n1)
    nT = basis_t.n
    nS = basis_s.n ** dim

    xi, eta, tau = st_points(basis_s, basis_t, dim)
    vol = eval_st_mapping(Cn, Cn1, dt, t_n, xi, eta, tau)

    jac = vol["jac"].reshape(-1, nT, nS)
    bad = np.argwhere(jac <= JAC_FLOOR)
    if bad.size:
        e, it, s = bad[0]
        raise GeometryDegeneracyError(
            f"non-positive space-time Jacobian {jac[e, it, s]:.3e} in element "
            f"{e} at solution point (tau index {it}, spatial index {s})")

    n_edges = 2 * dim
    nFs = 1 if dim == 1 else basis_s.n
    face_m = np.empty((mesh.n_elems, n_edges, nT, nFs, dim + 1))
    face_coords = np.empty_like(face_m)
    for edge in range(n_edges):
        fxi, feta, ftau = st_face_points(basis_s, basis_t, dim, edge)
        fv = eval_st_mapping(Cn, Cn1, dt, t_n, fxi, feta, ftau)
        face_m[:, edge] = _outward(fv, edge).reshape(-1, nT, nFs, dim + 1)
        face_coords[:, edge] = fv["coords"].reshape(-1, nT, nFs, dim + 1)

    # spatial jacobian trace on the bottom temporal face (spatial point layout)
    sxi, seta = spatial_points(basis_s, dim)
    bot = eval_st_mapping(Cn, Cn1, dt, t_n, sxi, seta, np.full(nS, -1.0))

    return SlabGeometry(
        dim=dim, ks=basis_s.degree, kt=basis_t.degree, dt=dt, t_n=t_n,
        corners_n=Cn, corners_n1=Cn1,
        jac=jac,
        js=vol["js"].reshape(-1, nT, nS),
        m_xi=vol["m_xi"].reshape(-1, nT, nS, dim + 1),
        m_eta=(vol["m_eta"].reshape(-1, nT, nS, dim + 1) if dim == 2 else None),
        coords=vol["coords"].reshape(-1, nT, nS, dim + 1),
        face_m=face_m, face_coords=face_coords,
        js_bot=bot["js"],
    )


def gcl_residual(geom: SlabGeometry, basis_s: BasisSet | None = None,
                 basis_t: BasisSet | None = None) -> np.ndarray:
    """Discrete GCL residual d(Js)/dtau + d(|J| xi_t)/dxi [+ d(|J| eta_t)/deta]
    at the solution points.

    The metric rows of a linear space-time element are polynomials of degree
    at most 2 per reference direction, so they are differentiated on a grid
    that represents them exactly (degree >= 2 per direction) and the result
    is interpolated back to the solution points.  For linear space-time
    elements this identity cancels to round-off.
    """
    basis_s = basis_s or make_basis(geom.ks)
    basis_t = basis_t or make_basis(geom.kt)
    dim = geom.dim
    ke = max(basis_s.degree, 2)
    kte = max(basis_t.degree, 2)
    es = make_basis(ke)
    et = make_basis(kte)
    Ds, Dt = es.diff, et.diff
    xi, eta, tau = st_points(es, et, dim)
    v = eval_st_mapping(geom.corners_n, geom.corners_n1, geom.dt, geom.t_n,
                        xi, eta, tau)
    nE = geom.n_elems
    nTe, nSe1 = et.n, es.n
    if dim == 1:
        A = v["m_xi"][..., 1].reshape(nE, nTe, nSe1)      # |J| xi_t
        C = v["js"].reshape(nE, nTe, nSe1)                # |J| tau_t
        res = (np.einsum("pq,etq->etp", Ds, A)
               + np.einsum("pq,eqs->eps", Dt, C))
        Is = interp_matrix(es.nodes, basis_s.nodes)
        It = interp_matrix(et.nodes, basis_t.nodes)
        out = np.einsum("ap,bq,epq->eab", It, Is, res)
        return out.reshape(nE, basis_t.n, basis_s.n)
    A = v["m_xi"][..., 2].reshape(nE, nTe, nSe1, nSe1)
    B = v["m_eta"][..., 2].reshape(nE, nTe, nSe1, nSe1)
    C = v["js"].reshape(nE, nTe, nSe1, nSe1)
    res = (np.einsum("pq,etyq->etyp", Ds, A)
           + np.einsum("pq,etqx->etpx", Ds, B)
           + np.einsum("pq,eqyx->epyx", Dt, C))
    Is = interp_matrix(es.nodes, basis_s.nodes)
    It = interp_matrix(et.nodes, basis_t.nodes)
    out = np.einsum("ap,by,cx,epyx->eabc", It, Is, Is, res)
    return out.reshape(nE, basis_t.n, basis_s.n ** 2)


def spatial_points(basis_s: BasisSet, dim: int):
    """Flat reference coordinates of the spatial solution points."""
    if dim == 1:
        return basis_s.nodes.copy(), None
    Y, X = np.meshgrid(basis_s.nodes, basis_s.nodes, indexing="ij")
    return X.ravel(), Y.ravel()


def spatial_face_points(basis_s: BasisSet, dim: int, edge: int):
    """Reference coordinates of one edge's flux points (spatial only)."""
    xs = basis_s.nodes
    if dim == 1:
        v = np.array([-1.0 if edge == 0 else 1.0])
        return v, None
    if edge == 0:
        return xs.copy(), np.full_like(xs, -1.0)
    if edge == 1:
        return np.full_like(xs, 1.0), xs.copy()
    if edge == 2:
        return xs.copy(), np.full_like(xs, 1.0)
    if edge == 3:
        return np.full_like(xs, -1.0), xs.copy()
    raise ValueError(f"bad edge {edge}")


def eval_spatial_mapping(corners, xi, eta):
    """Instantaneous (bi)linear element mapping at flat reference points.

    Returns dict with coords (nE, nP, dim), js (nE, nP), and spatial metric
    rows m_xi (and m_eta in 2D) of shape (nE, nP, dim).
    """
    dim = corners.shape[2]
    if dim == 1:
        N, dN = shape1d(xi)
        x = np.einsum("pc,ec->ep", N, corners[:, :, 0])
        x_xi = np.einsum("pc,ec->ep", dN, corners[:, :, 0])
        return {"coords": x[..., None], "js": x_xi,
                "m_xi": np.ones_like(x)[..., None]}
    N, dNdxi, dNdeta = shape2d(xi, eta)
    xy = np.einsum("pc,ecd->epd", N, corners)
    d_xi = np.einsum("pc,ecd->epd", dNdxi, corners)
    d_eta = np.einsum("pc,ecd->epd", dNdeta, corners)
    x_xi, y_xi = d_xi[..., 0], d_xi[..., 1]
    x_eta, y_eta = d_eta[..., 0], d_eta[..., 1]
    js = x_xi * y_eta - x_eta * y_xi
    m_xi = np.stack([y_eta, -x_eta], axis=-1)
    m_eta = np.stack([-y_xi, x_xi], axis=-1)
    return {"coords": xy, "js": js, "m_xi": m_xi, "m_eta": m_eta}


@dataclass
class SpatialGeometry:
    """Instantaneous element geometry for the method-of-lines solver."""

    dim: int
    ks: int
    js: np.ndarray              # (nE, nS)
    m_xi: np.ndarray            # (nE, nS, dim)
    m_eta: np.ndarray | None
    coords: np.ndarray          # (nE, nS, dim)
    face_m: np.ndarray          # (nE, n_edges, nFs, dim), outward
    face_coords: np.ndarray     # (nE, n_edges, nFs, dim)


def spatial_geometry(mesh: Mesh, coords: np.ndarray,
                     basis_s: BasisSet) -> SpatialGeometry:
    """Geometry of the current mesh position for MOL residuals."""
    dim = mesh.dim
    C = mesh.elem_corners(coords)
    xi, eta = spatial_points(basis_s, dim)
    vol = eval_spatial_mapping(C, xi, eta)
    js = vol["js"]
    bad = np.argwhere(js <= JAC_FLOOR)
    if bad.size:
        e, s = bad[0]
        raise GeometryDegeneracyError(
            f"non-positive spatial Jacobian {js[e, s]:.3e} in element {e} "
            f"at point {s}")
    n_edges = 2 * dim
    nFs = 1 if dim == 1 else basis_s.n
    face_m = np.empty((mesh.n_elems, n_edges, nFs, dim))
    face_coords = np.empty_like(face_m)
    for edge in range(n_edges):
        fxi, feta = spatial_face_points(basis_s, dim, edge)
        fv = eval_spatial_mapping(C, fxi, feta)
        face_m[:, edge] = _outward(fv, edge)
        face_coords[:, edge] = fv["coords"]
    return SpatialGeometry(dim=dim, ks=basis_s.degree, js=js,
                           m_xi=vol["m_xi"],
                           m_eta=vol.get("m_eta"), coords=vol["coords"],
                           face_m=face_m, face_coords=face_coords)


def st_quadrature_data(geom: SlabGeometry, n_q: int):
    """Mapping data at an n_q-per-direction space-time quadrature grid.

    Returns (weights, jac, coords, interp) where interp maps nodal solution
    values (nT, nS) onto the quadrature grid; weights are the tensor-product
    Gauss weights.  Used by the slab error norm.
    """
    xq, wq = gauss_legendre(n_q)
    bs = make_basis(geom.ks)
    bt = make_basis(geom.kt)
    Is = interp_matrix(bs.nodes, xq)
    It = interp_matrix(bt.nodes, xq)
    if geom.dim == 1:
        T, X = np.meshgrid(xq, xq, indexing="ij")
        v = eval_st_mapping(geom.corners_n, geom.corners_n1, geom.dt, geom.t_n,
                            X.ravel(), None, T.ravel())
        w = np.einsum("a,b->ab", wq, wq).ravel()
        interp = np.einsum("ap,bq->abpq", It, Is).reshape(n_q**2, bt.n * bs.n)
        return w, v["jac"], v["coords"], interp
    T, Y, X = np.meshgrid(xq, xq, xq, indexing="ij")
    v = eval_st_mapping(geom.corners_n, geom.corners_n1, geom.dt, geom.t_n,
                        X.ravel(), Y.ravel(), T.ravel())
    w = np.einsum("a,b,c->abc", wq, wq, wq).ravel()
    interp = np.einsum("ap,by,cx->abcpyx", It, Is, Is).reshape(
        n_q**3, bt.n * bs.n * bs.n)
    return w, v["jac"], v["coords"], interp


def spatial_quadrature_data(mesh: Mesh, coords: np.ndarray, ks: int, n_q: int):
    """(weights, js, coords, interp) on an n_q-per-direction spatial grid."""
    xq, wq = gauss_legendre(n_q)
    bs = make_basis(ks)
    Is = interp_matrix(bs.nodes, xq)
    C = mesh.elem_corners(coords)
    if mesh.dim == 1:
        v = eval_spatial_mapping(C, xq, None)
        return wq.copy(), v["js"], v["coords"], Is
    Yq, Xq = np.meshgrid(xq, xq, indexing="ij")
    v = eval_spatial_mapping(C, Xq.ravel(), Yq.ravel())
    w = np.einsum("a,b->ab", wq, wq).ravel()
    interp = np.einsum("by,cx->bcyx", Is, Is).reshape(n_q**2, bs.n**2)
    return w, v["js"], v["coords"], interp
