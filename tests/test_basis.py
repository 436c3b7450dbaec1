import numpy as np
import pytest
from numpy.polynomial import Legendre, legendre

from stfr.basis import (
    correction_derivatives,
    diff_matrix,
    gauss_legendre,
    interp_matrix,
    make_basis,
    radau_right,
)


def test_gauss_legendre_small_rules():
    x1, w1 = gauss_legendre(1)
    assert np.allclose(x1, [0.0]) and np.allclose(w1, [2.0])
    x2, w2 = gauss_legendre(2)
    assert np.allclose(x2, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-14)
    assert np.allclose(w2, [1.0, 1.0], atol=1e-14)
    x3, w3 = gauss_legendre(3)
    assert np.allclose(x3, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)], atol=1e-14)
    assert np.allclose(w3, [5 / 9, 8 / 9, 5 / 9], atol=1e-14)


def test_gauss_legendre_rejects_zero():
    with pytest.raises(ValueError):
        gauss_legendre(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_quadrature_exactness(n):
    # n-point rule integrates tau^p exactly for p <= 2n-1
    x, w = gauss_legendre(n)
    for p in range(2 * n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        approx = np.sum(w * x**p)
        assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", range(1, 8))
def test_nodes_symmetric_and_weights(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.allclose(x, -x[::-1], atol=1e-14)
    assert abs(np.sum(w) - 2.0) <= 1e-14
    assert np.all(w > 0)


def test_lagrange_kronecker_and_partition():
    x, _ = gauss_legendre(5)
    assert np.allclose(interp_matrix(x, x), np.eye(5), atol=1e-13)
    assert abs(interp_matrix(x, 0.3).sum() - 1.0) < 1e-13


def test_lagrange_two_point_endpoint_values():
    nodes = np.array([-1 / np.sqrt(3), 1 / np.sqrt(3)])
    v = interp_matrix(nodes, 1.0)
    assert v.shape == (1, 2)
    assert np.allclose(v[0], [-0.3660254, 1.3660254], atol=1e-7)


def test_lagrange_duplicate_nodes_error():
    with pytest.raises(ValueError):
        interp_matrix([0.1, 0.1, 0.5], 0.3)


@pytest.mark.parametrize("k", range(1, 6))
def test_interpolation_exactness(k):
    # interpolating a degree-k polynomial at k+1 nodes reproduces it anywhere
    rng = np.random.default_rng(7 + k)
    coeffs = rng.standard_normal(k + 1)
    x, _ = gauss_legendre(k + 1)
    vals = np.polyval(coeffs, x)
    targets = rng.uniform(-1, 1, 20)
    A = interp_matrix(x, targets)
    assert np.allclose(A @ vals, np.polyval(coeffs, targets), atol=1e-12)


def test_diff_matrix_two_points():
    nodes = np.array([-1 / np.sqrt(3), 1 / np.sqrt(3)])
    D = diff_matrix(nodes)
    s = np.sqrt(3) / 2
    assert np.allclose(D, [[-s, s], [-s, s]], atol=1e-14)


def test_diff_matrix_constant_and_quadratic():
    x, _ = gauss_legendre(3)
    D = diff_matrix(x)
    assert np.allclose(D @ np.ones(3), 0.0, atol=1e-13)
    assert np.allclose(D @ x**2, 2 * x, atol=1e-13)


@pytest.mark.parametrize("k", range(1, 6))
def test_diff_matrix_exact_on_pk(k):
    rng = np.random.default_rng(100 + k)
    coeffs = rng.standard_normal(k + 1)
    dcoeffs = np.polyder(coeffs)
    x, _ = gauss_legendre(k + 1)
    D = diff_matrix(x)
    assert np.allclose(D @ np.polyval(coeffs, x), np.polyval(dcoeffs, x), atol=1e-12)


def test_correction_k0():
    nodes = np.array([0.0])
    dgl, dgr = correction_derivatives(nodes, 0)
    assert np.allclose(dgl, [-0.5]) and np.allclose(dgr, [0.5])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_correction_reflection(k):
    # g'_R(tau_i) = -g'_L(-tau_i), with g'_L built from P_k and P_{k+1} and
    # evaluated at -tau_i directly; shifted nodes are not symmetric
    dgl = ((-1.0) ** (k + 1) * 0.5 * (Legendre.basis(k + 1)
                                      - Legendre.basis(k))).deriv()
    b = make_basis(k)
    for nodes in (b.nodes, b.nodes + 0.01):
        left, right = correction_derivatives(nodes, k)
        assert np.allclose(left, dgl(nodes), atol=1e-13)
        assert np.allclose(right, -dgl(-nodes), atol=1e-13)


def test_radau_orthogonality_k1():
    # integral of g_L against P^0 must vanish (5-point quadrature oracle)
    x, w = gauss_legendre(5)
    val = np.sum(w * legendre.legval(x, radau_right(1)))
    assert abs(val) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_radau_orthogonal_to_lower_space(k):
    x, w = gauss_legendre(k + 3)
    g = legendre.legval(x, radau_right(k))
    for p in range(k):
        assert abs(np.sum(w * g * x**p)) < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_correction_endpoint_conditions(k):
    # integrate the returned derivative samples' interpolant and compare
    # against an independently evaluated g_L: endpoint values 1 and 0
    b = make_basis(k)
    # g'_L is degree k, exactly represented on the k+1 nodes; integrate it
    xq, wq = gauss_legendre(k + 2)
    A = interp_matrix(b.nodes, xq)
    dgl_q = A @ b.corr_deriv_left
    total = np.sum(wq * dgl_q)
    assert abs(total - (-1.0)) < 1e-13  # g_L(1) - g_L(-1) = -1
    g_ends = legendre.legval([-1.0, 1.0], radau_right(k))
    assert abs(g_ends[0] - 1.0) < 1e-13 and abs(g_ends[1]) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_basisset_invariants(k):
    b = make_basis(k)
    assert np.allclose(np.sum(b.weights), 2.0, atol=1e-14)
    assert np.allclose(b.diff @ np.ones(k + 1), 0.0, atol=1e-13)
    assert abs(np.sum(b.extrap_left) - 1.0) < 1e-13
    assert abs(np.sum(b.extrap_right) - 1.0) < 1e-13
    assert not b.nodes.flags.writeable


def _loop_tables(nodes, targets):
    """Reference interpolation and differentiation tables, one entry at a
    time: L_i(x) as a product over j in node order, and the barycentric
    D[i, j] with negated row sums on the diagonal."""
    n = len(nodes)
    A = np.ones((len(targets), n))
    for p, x in enumerate(targets):
        for i in range(n):
            for j in range(n):
                if j != i:
                    A[p, i] = A[p, i] * (x - nodes[j]) / (nodes[i] - nodes[j])
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bw = 1.0 / np.prod(diff, axis=1)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (nodes[i] - nodes[j])
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return A, D


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_tables_equal_loop_reference(n):
    # the array forms keep the loop's order of operations per entry, so the
    # tables are equal, not merely close
    rng = np.random.default_rng(n)
    targets = np.concatenate([[-1.0, 1.0], rng.uniform(-1.2, 1.2, 9)])
    for nodes in (gauss_legendre(n)[0], np.sort(rng.uniform(-1, 1, n))):
        A, D = _loop_tables(nodes, targets)
        assert np.array_equal(interp_matrix(nodes, targets), A)
        assert np.array_equal(diff_matrix(nodes), D)
