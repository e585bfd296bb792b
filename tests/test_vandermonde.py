import itertools
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vandinv import (
    ESP_BACKENDS,
    NodeSet,
    NumericalError,
    SingularityError,
    barycentric_weights,
    build_vandermonde,
    compute_inverse,
    esp_dropped,
    generate_nodes,
    inverse_closed_form,
    inverse_elimination_baseline,
    inverse_wa_product,
    perturb_roots_of_unity,
    stanley_matrix,
)
from vandinv import vandermonde as vandermonde_module
from vandinv.vandermonde import REAL_STRIP_RTOL, real_part

from conftest import elimination_reference, matrix_rel_gap, random_node_set
from test_esp import same_bits


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


def test_build_past_double_range_raises_without_a_warning():
    # 1e200 squared leaves double range in the last row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericalError, match=r"^Vandermonde matrix: 3 of 9 entries overflowed to inf or NaN$"
        ):
            build_vandermonde(NodeSet([1e200, -1e200, 5e199]))
        with pytest.raises(
            NumericalError,
            match=r"^elimination_baseline inverse: Vandermonde matrix: 3 of 9 entries",
        ):
            compute_inverse(NodeSet([1e200, -1e200, 5e199]), "elimination_baseline")


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


# the full text of the two weight guards, for weight 1
OVERFLOW_1 = (
    "barycentric weight 1 overflowed the range of a complex division "
    "(|lambda| >= 2^1021); the nodes span too wide a range"
)
UNDERFLOW_1 = (
    "barycentric weight 1 underflowed (|lambda| < 1e-300); nodes are numerically coincident"
)


def test_barycentric_underflow_raises():
    ns = NodeSet([0.0, 1e-160, 2e-160])
    with pytest.raises(SingularityError) as info:
        barycentric_weights(ns)
    assert str(info.value) == UNDERFLOW_1
    with pytest.raises(SingularityError) as info:
        inverse_closed_form(ns)
    assert str(info.value) == UNDERFLOW_1


def test_barycentric_overflow_names_the_weight():
    # |lambda_1| = 119! * (2000 / 119)^119, about 4e342
    ns = NodeSet(np.linspace(-1e3, 1e3, 120))
    with pytest.raises(SingularityError) as info:
        barycentric_weights(ns)
    assert str(info.value) == OVERFLOW_1
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        compute_inverse(ns, "closed_form", "traub")


@pytest.mark.parametrize("route", ["closed_form", "wa_product"])
def test_a_weight_too_large_to_divide_by_is_refused(route):
    # lambda_1 = 1e308 - 1e308j is finite, but numpy's complex division by
    # it overflows inside and zeroes the quotient
    # compute_inverse puts the route before the guard's text
    with pytest.raises(SingularityError, match=re.escape(OVERFLOW_1) + "$"):
        compute_inverse(NodeSet([1e308, 1e308j]), route)
    # lambda_1 = 1e308j, lambda_2 = -1e308 - 1e308j: a finite sigma(3, 2) = 1e308 - 1e308j
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        compute_inverse(NodeSet([1e154, 1e154 - 1e154j, 0]), route)


def test_a_gap_past_double_range_names_the_overflowed_weight():
    ns = NodeSet([1e308, -1e308])  # a gap of 2e308 is inf: distinct
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        compute_inverse(ns)
    ns = NodeSet([1.5e308 + 1.5e308j, 0])  # |v_1|, the gap and lambda_1 are inf
    with pytest.raises(SingularityError, match="weight 1 overflowed"):
        compute_inverse(ns)


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


def test_closed_form_one_node():
    # V = [1], so its inverse is [1] whatever the node: the dropped sweep is
    # the empty set's sigma(0, 0) = 1, over lambda = 1
    for esp in ESP_BACKENDS:
        assert same_bits(inverse_closed_form(NodeSet([5]), esp), [[1 + 0j]])
        listed = inverse_closed_form([NodeSet([5]), NodeSet([2j])], esp)
        assert type(listed) is list and len(listed) == 2
        assert all(same_bits(inv, [[1 + 0j]]) for inv in listed)


@pytest.mark.parametrize("method", ESP_BACKENDS)
def test_a_closed_form_batch_is_the_list_of_its_single_inverses(method):
    # one container rule: a batch gives a list on the direct call as through
    # compute_inverse, each inverse with the bits and memory order it has alone
    batch = [NodeSet([0.5, 1.5, 2.5, 4.0]), generate_nodes("chebyshev", 4), roots(4)]
    listed = inverse_closed_form(batch, method)
    routed = compute_inverse(batch, "closed_form", method)
    assert type(listed) is list and type(routed) is list
    for ns, inv, via in zip(batch, listed, routed, strict=True):
        single = inverse_closed_form(ns, method)
        for other in (via, single):
            assert same_bits(inv, other) and inv.flags.f_contiguous == other.flags.f_contiguous


def test_wa_product_two_nodes():
    inv = inverse_wa_product(NodeSet([1, 2]))
    np.testing.assert_allclose(inv, EXPECTED_2x2, atol=1e-14)


def test_factorization_equivalence(rng):
    for n in (2, 5, 9, 15):
        ns = random_node_set(rng, n)
        a = inverse_closed_form(ns)
        b = inverse_wa_product(ns)
        assert matrix_rel_gap(a, b) < 1e-12


def test_wa_product_needs_no_finite_full_product():
    # sigma(2, 2) = 1e400 overflows, but the Toeplitz factor never uses it
    ns = NodeSet([1e200, 1e200 + 1e190])
    wa = compute_inverse(ns, "wa_product")
    np.testing.assert_allclose(wa, compute_inverse(ns, "closed_form"), rtol=1e-12)
    np.testing.assert_allclose(wa.real, [[1e10, -1e-190], [-1e10, 1e-190]], rtol=1e-5)


def mp_inverse(values, digits=80):
    """The inverse of the Vandermonde matrix of the exact double nodes,
    by mpmath LU at ``digits`` decimal digits, rounded to complex."""
    with mpmath.workdps(digits):
        v = [mpmath.mpc(complex(x)) for x in values]
        matrix = mpmath.matrix([[x**r for x in v] for r in range(len(v))])
        inverse = mpmath.inverse(matrix)
        return np.array(inverse.tolist(), dtype=np.complex128)


@pytest.mark.parametrize("ns", [roots(37), perturb_roots_of_unity(37, 0.2, 0.1, 1)],
                         ids=["roots", "perturbed"])
def test_closed_form_matches_an_extended_precision_inverse_at_n37(ns):
    # past the N = 25 reach of the brute-force oracle; measured 1.4e-15 and 1.6e-15
    reference = mp_inverse(ns.values)
    error = np.linalg.norm(compute_inverse(ns) - reference) / np.linalg.norm(reference)
    assert error < 1e-14


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


def elimination_cases():
    """Node sets on both sides of the pivot floor and of its proof from the
    inverse, each with a label."""
    rng = np.random.default_rng(7)
    for kind in ("equidistant", "chebyshev", "extended_chebyshev", "gauss_lobatto",
                 "roots_of_unity"):
        for n in (*range(2, 61), 150):
            yield f"{kind} {n}", generate_nodes(kind, n)
    for n in (5, 10, 20, 37, 60):
        for seed, (shift, mag) in enumerate(((0.1, 0.1), (0.2, 0.1), (0.3, 0.5))):
            yield f"perturbed {n} {shift} {mag}", perturb_roots_of_unity(n, shift, mag, seed)
        chebyshev = generate_nodes("chebyshev", n).values
        for scale in (1e-3, 3.0, 1e3):
            yield f"chebyshev {n} x {scale:g}", NodeSet(scale * chebyshev)
        draws = {"uniform(1, 2)": rng.uniform(1, 2, n)}
        for center, spread in itertools.product((0.0, 1.0), (1e-2, 1e-5)):
            draws[f"{center} +- {spread:g}"] = center + spread * rng.uniform(-1, 1, n)
        for name, values in draws.items():
            try:
                ns = NodeSet(values)
            except ValueError:  # a draw below the distinctness floor
                continue
            yield f"{name} {n}", ns
    yield "[0, 1e-160, 2e-160]", NodeSet([0.0, 1e-160, 2e-160])
    yield "[0, 1e-170, 2e-170] (exactly singular)", NodeSet([0.0, 1e-170, 2e-170])


def baseline_against_reference(ns, label):
    """Run the baseline with scipy's lu_factor watched and check it against
    `elimination_reference`: the same error, or the same inverse bits in
    Fortran order.  Where it returns without reading getrf's U diagonal, the
    reference's pivots must clear the floor.  Returns the outcome's name and,
    for an inverse, whether getrf was skipped."""
    try:
        want, pivot_over_floor = elimination_reference(ns)
    except NumericalError as exc:
        want = exc
    with mock.patch("scipy.linalg.lu_factor", wraps=scipy.linalg.lu_factor) as lu_factor:
        try:
            got = inverse_elimination_baseline(ns)
        except NumericalError as exc:
            got = exc
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), label
        return type(want).__name__, False
    assert isinstance(got, np.ndarray), f"{label}: {got}"
    assert got.flags.f_contiguous, label
    assert same_bits(got, want), label
    if not lu_factor.called:
        assert pivot_over_floor >= 1, label
    return "inverse", not lu_factor.called


def test_baseline_matches_the_scipy_route_and_proves_its_floor():
    # np.linalg.inv runs the getrf and getrs of scipy's lu_factor and
    # lu_solve; where the inverse or a QR of V proves the pivot floor,
    # getrf's U diagonal is not read, and the reference's pivots must clear
    # the floor
    outcomes, skipped = set(), set()
    for label, ns in elimination_cases():
        outcome, skips = baseline_against_reference(ns, label)
        outcomes.add(outcome)
        if skips:
            skipped.add(label)
    assert outcomes == {"inverse", "SingularityError"}
    # the inverse alone proves 230 of these sets; the QR proves equidistant
    # nodes to N = 60 (their inverse, to N = 32)
    assert len(skipped) >= 260
    assert {f"equidistant {n}" for n in range(2, 61)} <= skipped


@st.composite
def pivot_floor_sets(draw):
    """Real, complex-disk and clustered node sets of N = 2..80, on both sides
    of the pivot floor and of its proofs; a clustered set is a real one whose
    first half lies 1e-8..1e-2 above its second."""
    n = draw(st.integers(2, 80))
    kind = draw(st.sampled_from(["real", "disk", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "disk":
        values = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    else:
        values = rng.uniform(-1, 1, n)
    if kind == "clustered":
        half = n // 2
        values[:half] = values[half:2 * half] + 10.0 ** rng.uniform(-8, -2, half)
    try:
        return f"{kind} {n}", NodeSet(values)
    except ValueError:  # a draw below the distinctness floor
        assume(False)


@settings(max_examples=300, deadline=None)
@given(pivot_floor_sets())
def test_baseline_skips_getrf_only_where_the_pivots_clear_the_floor(case):
    # neither proof may skip getrf on a set whose pivots fall below the
    # floor: there the baseline must raise the reference's SingularityError
    baseline_against_reference(case[1], case[0])


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


@pytest.mark.parametrize("method", ESP_BACKENDS)
def test_compute_inverse_hands_esp_dropped_the_callers_own_argument(method):
    # the benchmark tracer tags each esp_dropped call by its first argument
    seen = []

    def spy(nodes, *args):
        seen.append(nodes)
        return esp_dropped(nodes, *args)

    ns = NodeSet([0.5, 1.5, 2.5, 4.0])
    batch = [ns, generate_nodes("chebyshev", 4)]
    with mock.patch.object(vandermonde_module, "esp_dropped", spy):
        single = compute_inverse(ns, "closed_form", method)
        listed = compute_inverse(batch, "closed_form", method)
    assert seen[0] is ns and seen[1] is batch and len(seen) == 2
    assert same_bits(single, inverse_closed_form(ns, method))
    assert same_bits(listed[0], single)


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


def test_as_real_takes_a_norm_that_leaves_double_range_again_scaled():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning may escape
        # entries near 4e159 square past double range, so the plain norm is
        # inf; the limit must stay finite and refuse imaginary parts of 2e159
        inv = inverse_closed_form(NodeSet([1e-80j, 2e-80, 3e-80]))
        with pytest.raises(ValueError, match="up to 2.000e\\+159 exceed 5.657e\\+147"):
            real_part(inv)
        inv = inverse_closed_form(NodeSet([1e-80, 2e-80, 3e-80]))
        assert same_bits(real_part(inv), inv.real)
        # entries near 1e-170 square to 0, so the plain norm is 0; the limit
        # must stay nonzero and pass an imaginary part 1e-30 times the real one
        tiny = np.array([[1e-170 + 1e-200j, 2e-170]])
        assert same_bits(real_part(tiny), tiny.real)
        with pytest.raises(ValueError, match="up to 1.000e-170 exceed"):
            real_part(np.array([[1e-170 + 1e-170j, 2e-170]]))
        # an all-zero matrix: a zero limit, and nothing to strip
        assert same_bits(real_part(np.zeros((3, 3), np.complex128)), np.zeros((3, 3)))


@st.composite
def real_matrices(draw):
    """Real matrices of up to 6 x 6 entries of either sign, magnitudes
    1e-150..1e150 (mixed in one matrix), and one entry's index."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    exponents = draw(st.lists(st.floats(-150, 150), min_size=rows * cols,
                              max_size=rows * cols))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=rows * cols,
                          max_size=rows * cols))
    matrix = (np.array(signs) * 10.0 ** np.array(exponents)).reshape(rows, cols)
    return matrix, draw(st.integers(0, rows * cols - 1))


@settings(max_examples=200, deadline=None)
@given(real_matrices())
def test_real_part_limit_has_the_bits_of_the_plain_norm(case):
    # the limit is taken on the matrix scaled by a power of two; where the
    # plain norm's squares are normal doubles, as on 1e-150..1e150, it must
    # keep that norm's bits. An imaginary part exactly at the plain limit
    # strips, and one the next double past it raises: so the two limits are
    # the same double. Its square, ~1e-24 of the norm's, leaves the norm alone.
    matrix, k = case
    at_limit = matrix.astype(np.complex128)  # a real array's norm sums in another order
    limit = REAL_STRIP_RTOL * np.linalg.norm(at_limit)
    assert np.isfinite(limit) and limit > 0
    at_limit.flat[k] += 1j * limit
    assert same_bits(real_part(at_limit), matrix)
    at_limit.flat[k] = complex(matrix.flat[k], np.nextafter(limit, np.inf))
    with pytest.raises(ValueError, match="genuinely complex"):
        real_part(at_limit)


def test_real_part_limit_is_exact_where_the_plain_squares_go_subnormal():
    # 3e-160 squares to a subnormal, so the plain norm read 2.99998e-160 and
    # refused an imaginary part of exactly 1e-12 times the entry; the scaled
    # norm is the entry itself
    limit = REAL_STRIP_RTOL * 3e-160
    assert REAL_STRIP_RTOL * np.linalg.norm([3e-160]) < limit
    assert same_bits(real_part(np.array([[complex(3e-160, limit)]])), [[3e-160]])
    with pytest.raises(ValueError, match="genuinely complex"):
        real_part(np.array([[complex(3e-160, np.nextafter(limit, 1.0))]]))
    # a subnormal largest magnitude: 2^-e would overflow, so e stops at -1021
    assert same_bits(real_part(np.array([[1e-310 + 0j, 2e-310]])), [[1e-310, 2e-310]])
    with pytest.raises(ValueError, match="up to 1.000e-311 exceed 9.881e-323"):
        real_part(np.array([[1e-310 + 1e-311j]]))
