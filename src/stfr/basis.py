"""One-dimensional polynomial infrastructure.

Gauss-Legendre points and weights, Lagrange interpolation and
differentiation tables, and the derivatives of the DG-recovering (Radau)
correction functions.  The rule and the Legendre series come from
`numpy.polynomial.legendre`; the Lagrange tables are products over the
nodes.  All tensor-product operators of the solvers are assembled from
these 1D tables.  Everything lives on the reference interval [-1, 1].
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


def gauss_legendre(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], each
    of shape (n,), nodes strictly increasing; exact for polynomials of
    degree <= 2n-1.  Raises ValueError if n < 1."""
    if n < 1:
        raise ValueError(f"gauss_legendre requires n >= 1, got {n}")
    return legendre.leggauss(n)


def _check_nodes(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("nodes must be a non-empty 1D array")
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    if np.any(diffs == 0.0):
        raise ValueError("nodes must be pairwise distinct")
    return nodes


def interp_matrix(nodes, targets) -> np.ndarray:
    """Interpolation matrix from nodal values on `nodes` to `targets`.

    A[p, i] = L_i(targets[p]) with the Lagrange polynomial
    L_i(x) = prod_{j != i} (x - tau_j)/(tau_i - tau_j), so A @ values
    interpolates.  The product runs over j in node order.
    """
    nodes = _check_nodes(nodes)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    A = np.ones((targets.size, nodes.size))
    for j, tau in enumerate(nodes):
        others = np.arange(nodes.size) != j
        A[:, others] = A[:, others] * (targets[:, None] - tau) / (nodes[others] - tau)
    return A


def diff_matrix(nodes) -> np.ndarray:
    """Nodal differentiation matrix D[i, j] = L_j'(tau_i).

    Built from barycentric weights; diagonal entries are the negated
    off-diagonal row sums, so rows sum to zero exactly.  Applying D to
    samples of a degree <= n-1 polynomial gives its exact derivative
    at the nodes.
    """
    nodes = _check_nodes(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bw = 1.0 / np.prod(diff, axis=1)  # barycentric weights
    D = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def radau_right(k: int) -> np.ndarray:
    """Legendre coefficients of the right Radau polynomial of degree k+1,
    g_L = (-1)^(k+1) (P_{k+1} - P_k) / 2: value 1 at -1, 0 at +1,
    orthogonal to P^{k-1} on [-1, 1]."""
    c = np.zeros(k + 2)
    c[k], c[k + 1] = -0.5, 0.5
    return (-1.0) ** (k + 1) * c


def correction_derivatives(nodes, k: int):
    """Derivatives of the DG-recovering correction functions at the nodes.

    g_L is the degree-(k+1) right Radau polynomial (g_L(-1)=1, g_L(1)=0,
    orthogonal to P^{k-1}); g_R(tau) = g_L(-tau), so g'_R(x) = -g'_L(-x).
    This choice keeps the collocated scheme on Gauss-Legendre points
    equivalent to nodal DG.  Returns (g'_L, g'_R) at the k+1 `nodes`.
    """
    nodes = _check_nodes(nodes)
    if nodes.size != k + 1:
        raise ValueError(f"expected {k + 1} nodes for degree {k}, got {nodes.size}")
    dgl = legendre.legder(radau_right(k))
    return legendre.legval(nodes, dgl), -legendre.legval(-nodes, dgl)


@dataclass(frozen=True)
class BasisSet:
    """Immutable per-degree table bundle for one reference direction.

    Attributes:
        degree: polynomial degree k >= 0.
        nodes: k+1 Gauss-Legendre points in (-1, 1).
        weights: matching quadrature weights (sum to 2).
        diff: (k+1)x(k+1) nodal differentiation matrix.
        extrap_left / extrap_right: L_j(-1), L_j(+1) evaluation rows.
        corr_deriv_left / corr_deriv_right: g'_L, g'_R at the nodes.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray
    extrap_left: np.ndarray
    extrap_right: np.ndarray
    corr_deriv_left: np.ndarray
    corr_deriv_right: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.diff, self.extrap_left,
                    self.extrap_right, self.corr_deriv_left, self.corr_deriv_right):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.degree + 1


@lru_cache(maxsize=None)
def make_basis(k: int) -> BasisSet:
    """Build (and cache) the BasisSet for polynomial degree k >= 0."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    nodes, weights = gauss_legendre(k + 1)
    dgl, dgr = correction_derivatives(nodes, k)
    left, right = interp_matrix(nodes, (-1.0, 1.0))
    return BasisSet(
        degree=k,
        nodes=nodes,
        weights=weights,
        diff=diff_matrix(nodes),
        extrap_left=left,
        extrap_right=right,
        corr_deriv_left=dgl,
        corr_deriv_right=dgr,
    )
