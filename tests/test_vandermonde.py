import numpy as np
import pytest

from vandinv import (
    NodeSet,
    NumericalError,
    SingularityError,
    barycentric_weights,
    build_vandermonde,
    compute_inverse,
    generate_nodes,
    inverse_closed_form,
    inverse_elimination_baseline,
    inverse_wa_product,
    stanley_matrix,
)
from vandinv.vandermonde import real_part

from conftest import matrix_rel_gap, random_node_set


def roots(n):
    return generate_nodes("roots_of_unity", n)


def rel_entrywise(a, b):
    scale = np.maximum(np.abs(b), 1.0)
    return (np.abs(a - b) / scale).max()


# ---------------------------------------------------------------- build

def test_build_square_two_nodes():
    v = build_vandermonde(NodeSet([1, 2]))
    np.testing.assert_array_equal(v, [[1, 1], [1, 2]])


def test_build_rectangular_powers():
    v = build_vandermonde(NodeSet([2]), num_rows=3)
    np.testing.assert_array_equal(v, [[1], [2], [4]])


def test_build_roots4_is_unitary_up_to_scale():
    v = build_vandermonde(roots(4))
    np.testing.assert_allclose(v @ v.conj().T, 4 * np.eye(4), atol=1e-12)


def test_build_row_recurrence(rng):
    ns = random_node_set(rng, 7)
    v = build_vandermonde(ns)
    np.testing.assert_allclose(v[0], np.ones(7), atol=0)
    for r in range(1, 7):
        np.testing.assert_allclose(v[r], v[r - 1] * ns.values, rtol=1e-15)


# ---------------------------------------------------------------- weights

def test_barycentric_two_nodes():
    np.testing.assert_allclose(barycentric_weights(NodeSet([1, 2])), [-1, 1], atol=0)


def test_barycentric_three_nodes():
    np.testing.assert_allclose(barycentric_weights(NodeSet([0, 1, 2])), [2, -1, 2], atol=0)


def test_barycentric_roots4():
    ns = roots(4)
    lam = barycentric_weights(ns)
    np.testing.assert_allclose(lam, 4 * ns.values**3, atol=1e-12)
    np.testing.assert_allclose(np.abs(lam), 4.0, atol=1e-12)


def test_barycentric_underflow_raises():
    ns = NodeSet([0.0, 1e-160, 2e-160])
    with pytest.raises(SingularityError):
        barycentric_weights(ns)


def test_barycentric_overflow_names_the_weight():
    # |lambda_1| = 119! * (2000 / 119)^119, about 4e342
    ns = NodeSet(np.linspace(-1e3, 1e3, 120))
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        barycentric_weights(ns)
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        compute_inverse(ns, "closed_form", "traub")


# ---------------------------------------------------------------- stanley

def test_stanley_two_nodes():
    m = stanley_matrix(NodeSet([1, 2]))
    np.testing.assert_allclose(m[1:, 0], [-3], atol=1e-12)
    np.testing.assert_allclose(m, [[1, 0], [-3, 1]], atol=1e-12)


def test_stanley_roots_of_unity_vanishing():
    m = stanley_matrix(roots(12))
    np.testing.assert_allclose(m[1:, 0], np.zeros(11), atol=1e-12)


def test_stanley_three_nodes():
    m = stanley_matrix(NodeSet([1, 2, 3]))
    np.testing.assert_allclose(m[1:, 0], [-6, 11], atol=1e-12)


def test_stanley_rejects_mikkawy():
    with pytest.raises(ValueError):
        stanley_matrix(NodeSet([1, 2]), esp_backend="mikkawy")


# ---------------------------------------------------------------- inverses

EXPECTED_2x2 = np.array([[2, -1], [-1, 1]], dtype=complex)


def test_closed_form_two_nodes():
    inv = inverse_closed_form(NodeSet([1, 2]))
    np.testing.assert_allclose(inv, EXPECTED_2x2, atol=1e-14)


def test_closed_form_last_column_is_inverse_weights():
    inv = inverse_closed_form(NodeSet([1, 2]))
    assert abs(inv[0, 1] - (-1)) < 1e-14


def test_closed_form_three_nodes_first_row():
    inv = inverse_closed_form(NodeSet([1, 2, 3]))
    np.testing.assert_allclose(inv[0], [3, -2.5, 0.5], atol=1e-12)


def test_wa_product_two_nodes():
    inv = inverse_wa_product(NodeSet([1, 2]))
    np.testing.assert_allclose(inv, EXPECTED_2x2, atol=1e-14)


def test_factorization_equivalence(rng):
    for n in (2, 5, 9, 15):
        ns = random_node_set(rng, n)
        a = inverse_closed_form(ns)
        b = inverse_wa_product(ns)
        assert matrix_rel_gap(a, b) < 1e-12


def test_baseline_two_nodes():
    inv = inverse_elimination_baseline(NodeSet([1, 2]))
    np.testing.assert_allclose(inv, EXPECTED_2x2, atol=1e-12)


def test_baseline_roots4_conjugate_transpose():
    ns = roots(4)
    inv = inverse_elimination_baseline(ns)
    v = build_vandermonde(ns)
    np.testing.assert_allclose(inv, v.conj().T / 4, atol=1e-12)


def test_baseline_identity_on_chebyshev():
    # the LU route is limited by kappa(V) * eps, a few orders looser than
    # the closed form on the same nodes
    ns = generate_nodes("chebyshev", 20)
    inv = inverse_elimination_baseline(ns)
    v = build_vandermonde(ns)
    residual = np.linalg.norm(inv @ v - np.eye(20)) / np.linalg.norm(np.eye(20))
    assert residual < 1e-5


def test_baseline_singular_pivot_raises():
    with pytest.raises(SingularityError):
        inverse_elimination_baseline(NodeSet([0.0, 1e-160, 2e-160]))


@pytest.mark.parametrize("kind", ["equidistant", "chebyshev", "extended_chebyshev", "gauss_lobatto", "roots_of_unity"])
def test_identity_residual_all_families(kind):
    for n in (5, 12, 20):
        ns = generate_nodes(kind, n)
        inv = inverse_closed_form(ns, "proposed")
        v = build_vandermonde(ns)
        residual = np.linalg.norm(inv @ v - np.eye(n)) / np.linalg.norm(np.eye(n))
        limit = 1e-12 if kind == "roots_of_unity" else 1e-8
        assert residual < limit, f"{kind} n={n}: {residual:.3e}"


def test_baseline_agreement_on_roots():
    for n in (5, 18, 30):
        ns = roots(n)
        closed = inverse_closed_form(ns)
        factored = inverse_wa_product(ns)
        baseline = inverse_elimination_baseline(ns)
        assert np.abs(closed - baseline).max() < 1e-8
        assert np.abs(factored - baseline).max() < 1e-8


def test_scaling_covariance(rng):
    for n in (3, 6, 10):
        ns = random_node_set(rng, n)
        alpha = 1.7
        scaled = NodeSet(alpha * ns.values)
        base = inverse_closed_form(ns)
        stretched = inverse_closed_form(scaled)
        j = np.arange(1, n + 1)
        predicted = base * alpha ** (-(j - 1))[None, :]
        assert rel_entrywise(stretched, predicted) < 1e-9


def test_first_column_sums_to_one(rng):
    for n in (2, 6, 11):
        ns = random_node_set(rng, n)
        inv = inverse_closed_form(ns)
        assert abs(inv[:, 0].sum() - 1.0) < 1e-8
        v = build_vandermonde(ns)
        e1 = np.zeros(n)
        e1[0] = 1.0
        np.testing.assert_allclose((inv @ v)[:, 0], e1, atol=1e-8)


def test_closed_form_singularity_raises():
    with pytest.raises(SingularityError):
        inverse_closed_form(NodeSet([0.0, 1e-160, 2e-160]))


def test_compute_inverse_dispatch_and_validation():
    # the three routes differ in their last bits on these nodes, so bitwise
    # equality names the route that ran
    ns = NodeSet([0.5, 1.5, 2.5, 4.0])
    for route, inverse in (
        ("closed_form", inverse_closed_form(ns)),
        ("wa_product", inverse_wa_product(ns)),
        ("elimination_baseline", inverse_elimination_baseline(ns)),
    ):
        assert np.array_equal(compute_inverse(ns, route), inverse)
    with pytest.raises(ValueError):
        compute_inverse(ns, "lu")
    with pytest.raises(ValueError):
        compute_inverse(ns, "closed_form", "newton")


@pytest.mark.parametrize("route", ["closed_form", "elimination_baseline"])
def test_compute_inverse_names_the_route_that_overflowed(route):
    # lambda_k and the high powers of 120 nodes on [-1e3, 1e3] pass 1e308
    ns = NodeSet(np.linspace(-1e3, 1e3, 120))
    with pytest.raises(NumericalError, match=f"^{route} inverse"):
        compute_inverse(ns, route, "traub")


def test_as_real_strips_rounding_noise():
    inv = inverse_closed_form(NodeSet([0.5, 1.5, 2.5]))
    real = real_part(inv)
    assert real.dtype == np.float64
    np.testing.assert_allclose(real, inv.real, atol=0)


def test_as_real_rejects_genuinely_complex():
    inv = inverse_closed_form(roots(4))
    with pytest.raises(ValueError):
        real_part(inv)

