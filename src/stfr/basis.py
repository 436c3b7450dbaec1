"""One-dimensional polynomial infrastructure.

Gauss-Legendre points/weights, Lagrange interpolation and differentiation,
and the derivatives of the DG-recovering (Radau) correction functions.
All tensor-product operators of the solvers are assembled from these
1D tables.  Everything lives on the reference interval [-1, 1].
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def legendre_and_deriv(n: int, x):
    """Evaluate P_n(x) and P_n'(x) via the three-term recurrence.

    Args:
        n: Polynomial degree, n >= 0.
        x: Evaluation point(s), scalar or array.

    Returns:
        (P_n(x), P_n'(x)) as arrays matching the shape of x.
    """
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    # derivative from the standard identity (1-x^2) P_n' = n (P_{n-1} - x P_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = n * (p_prev - x * p) / (1.0 - x * x)
    # endpoints: P_n'(+-1) = (+-1)^(n-1) n(n+1)/2
    at_end = np.isclose(np.abs(x), 1.0)
    if np.any(at_end):
        endval = np.sign(x) ** (n - 1) * n * (n + 1) / 2.0
        dp = np.where(at_end, endval, dp)
    return p, dp


def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n with the analytic recurrence; converges to
    machine precision for the degrees used here (n <= 12).  The rule
    integrates polynomials of degree <= 2n-1 exactly.

    Args:
        n: Number of points, n >= 1.

    Returns:
        (nodes, weights): arrays of shape (n,), nodes strictly increasing.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"gauss_legendre requires n >= 1, got {n}")
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    # Chebyshev-like initial guesses, descending, then sorted at the end
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre_and_deriv(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # enforce exact symmetry about the origin
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w


def _check_nodes(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("nodes must be a non-empty 1D array")
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    if np.any(diffs == 0.0):
        raise ValueError("nodes must be pairwise distinct")
    return nodes


def lagrange_eval(nodes, i: int, x):
    """Evaluate the i-th Lagrange polynomial on `nodes` at x.

    L_i(x) = prod_{j != i} (x - tau_j)/(tau_i - tau_j), so L_i(tau_j) is
    the Kronecker delta.

    Raises:
        ValueError: for duplicate nodes or i out of range.
    """
    nodes = _check_nodes(nodes)
    if not 0 <= i < nodes.size:
        raise ValueError(f"index i={i} out of range for {nodes.size} nodes")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(nodes.size):
        if j != i:
            out = out * (x - nodes[j]) / (nodes[i] - nodes[j])
    return out if out.ndim else float(out)


def lagrange_row(nodes, x) -> np.ndarray:
    """Values of all Lagrange polynomials on `nodes` at scalar x, shape (n,)."""
    nodes = _check_nodes(nodes)
    return np.array([lagrange_eval(nodes, i, float(x)) for i in range(nodes.size)])


def interp_matrix(nodes, targets) -> np.ndarray:
    """Interpolation matrix from nodal values on `nodes` to `targets`.

    A[p, j] = L_j(targets[p]); A @ values interpolates.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    return np.stack([lagrange_row(nodes, t) for t in targets], axis=0)


def diff_matrix(nodes) -> np.ndarray:
    """Nodal differentiation matrix D[i, j] = L_j'(tau_i).

    Built from barycentric weights; diagonal entries are the negated
    off-diagonal row sums, so rows sum to zero exactly.  Applying D to
    samples of a degree <= n-1 polynomial gives its exact derivative
    at the nodes.
    """
    nodes = _check_nodes(nodes)
    n = nodes.size
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bw = 1.0 / np.prod(diff, axis=1)  # barycentric weights
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (nodes[i] - nodes[j])
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def radau_right(k: int, x):
    """Right Radau polynomial of degree k+1: value 1 at -1, 0 at +1,
    orthogonal to P^{k-1} on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    pk, _ = legendre_and_deriv(k, x)
    pk1, _ = legendre_and_deriv(k + 1, x)
    return (-1.0) ** (k + 1) * 0.5 * (pk1 - pk)


def correction_derivatives(nodes, k: int):
    """Derivatives of the DG-recovering correction functions at the nodes.

    g_L is the degree-(k+1) right Radau polynomial (g_L(-1)=1, g_L(1)=0,
    orthogonal to P^{k-1}); g_R(tau) = g_L(-tau).  This choice keeps the
    collocated scheme on Gauss-Legendre points equivalent to nodal DG.

    Args:
        nodes: the k+1 solution points, symmetric about 0.
        k: polynomial degree; len(nodes) must equal k+1.

    Returns:
        (g'_L at nodes, g'_R at nodes), each shape (k+1,).
    """
    nodes = _check_nodes(nodes)
    if nodes.size != k + 1:
        raise ValueError(f"expected {k + 1} nodes for degree {k}, got {nodes.size}")
    if not np.array_equal(nodes, -nodes[::-1]):
        raise ValueError("nodes must be symmetric about 0")
    _, dpk = legendre_and_deriv(k, nodes)
    _, dpk1 = legendre_and_deriv(k + 1, nodes)
    dgl = (-1.0) ** (k + 1) * 0.5 * (dpk1 - dpk)
    # reflection g_R(tau) = g_L(-tau), so g'_R(x) = -g'_L(-x); the nodes are
    # symmetric, -x_i = x_{k-i}, so g'_L(-x) is g'_L at the nodes reversed
    return dgl, -dgl[::-1]


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
    return BasisSet(
        degree=k,
        nodes=nodes,
        weights=weights,
        diff=diff_matrix(nodes),
        extrap_left=lagrange_row(nodes, -1.0),
        extrap_right=lagrange_row(nodes, 1.0),
        corr_deriv_left=dgl,
        corr_deriv_right=dgr,
    )
