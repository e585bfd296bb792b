import numpy as np
import pytest

from vandinv import (
    NodeSet,
    evaluate_superresolved,
    fit_coefficients,
    generate_nodes,
    interp_experiment,
    nmse,
    sample_function,
)


def roots(n):
    return generate_nodes("roots_of_unity", n)


# ---------------------------------------------------------------- sampling

def test_cosine_at_zero():
    val = sample_function("cosine", 1.0, NodeSet([0.0, 0.5]))
    assert abs(val[0] - 1.0) < 1e-15


def test_exponential_with_zero_parameter():
    val = sample_function("exponential", 0.0, NodeSet([0.3, -0.7, 2.0]))
    np.testing.assert_allclose(val, 1.0, atol=0)


def test_tanh_is_odd_at_zero():
    val = sample_function("tanh", 1.0, NodeSet([0.0, 1.0]))
    assert val[0] == 0.0


def test_function_defaults():
    assert interp_experiment("cosine", "chebyshev", 16).t == 2.0
    assert interp_experiment("tanh", "chebyshev", 16).t == 8.0
    assert interp_experiment("exponential", "chebyshev", 16).t == 1.0


def test_unknown_function_kind():
    with pytest.raises(ValueError, match="unknown function kind 'sinc'"):
        interp_experiment("sinc", "chebyshev", 16)


# ---------------------------------------------------------------- fitting

@pytest.mark.parametrize(
    "nodes, samples, expected",
    [
        ([1, 2], [1, 2], [0, 1]),
        ([1, 2], [1, 1], [1, 0]),
        ([0, 1, 2], [1, 2, 5], [1, 0, 1]),
        ([1, 2], [1, 2, 3], ValueError),
    ],
    ids=["identity_polynomial", "constant", "quadratic", "rejects_bad_rhs_length"],
)
def test_fit_coefficients_solves_the_dual_system(nodes, samples, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="length 2"):
            fit_coefficients(NodeSet(nodes), samples)
    else:
        np.testing.assert_allclose(fit_coefficients(NodeSet(nodes), samples), expected, atol=1e-12)


def test_fit_exact_quadratic():
    ns = NodeSet([0, 1, 2])
    samples = ns.values**2
    for backend in ("closed_form", "elimination_baseline"):
        c = fit_coefficients(ns, samples, inverse_backend=backend)
        np.testing.assert_allclose(c, [0, 0, 1], atol=1e-12)


def test_fit_monomial_on_roots():
    ns = roots(4)
    c = fit_coefficients(ns, ns.values**3)
    np.testing.assert_allclose(c, [0, 0, 0, 1], atol=1e-12)


def test_fit_affine():
    c = fit_coefficients(NodeSet([1, 2]), [3, 5])
    np.testing.assert_allclose(c, [1, 2], atol=1e-12)


# ---------------------------------------------------------------- evaluation

def test_evaluate_constant_polynomial():
    dense = NodeSet([0.1, 0.4, 0.9, 1.3])
    out = evaluate_superresolved([1.0, 0.0], dense)
    np.testing.assert_allclose(out, 1.0, atol=0)


def test_evaluate_identity_polynomial():
    dense = NodeSet([0, 0.5, 1, 1.5])
    out = evaluate_superresolved([0.0, 1.0], dense)
    np.testing.assert_allclose(out, [0, 0.5, 1, 1.5], atol=0)


def test_evaluate_requires_doubled_count():
    with pytest.raises(ValueError):
        evaluate_superresolved([1.0, 2.0], NodeSet([0, 1, 2]))


def test_evaluate_quadratic_pointwise():
    fit = NodeSet([0, 1, 2])
    c = fit_coefficients(fit, fit.values**2)
    dense = NodeSet(np.linspace(-1, 2, 6))
    out = evaluate_superresolved(c, dense)
    np.testing.assert_allclose(out, dense.values**2, atol=1e-12)


# ---------------------------------------------------------------- pipeline

BACKEND_COMBOS = [
    ("closed_form", "proposed"),
    ("closed_form", "traub"),
    ("closed_form", "yang"),
    ("closed_form", "mikkawy"),
    ("wa_product", "proposed"),
    ("wa_product", "traub"),
    ("wa_product", "yang"),
    ("elimination_baseline", "proposed"),
]


@pytest.mark.parametrize("inverse_backend,esp_backend", BACKEND_COMBOS)
def test_polynomial_exactness_all_backends(inverse_backend, esp_backend):
    n = 12
    fit_nodes = generate_nodes("chebyshev", n)
    poly = lambda z: 0.5 - z + 2 * z**3  # degree < N
    c = fit_coefficients(fit_nodes, poly(fit_nodes.values), inverse_backend, esp_backend)
    dense = generate_nodes("chebyshev", 2 * n)
    out = evaluate_superresolved(c, dense)
    ref = poly(dense.values)
    assert nmse(out, ref) < 1e-10


def test_wa_product_rejects_dropped_only_backend():
    ns = generate_nodes("chebyshev", 6)
    with pytest.raises(ValueError):
        fit_coefficients(ns, ns.values, "wa_product", "mikkawy")


def test_backend_consistency_on_roots():
    n = 30
    ns = roots(n)
    samples = sample_function("exponential", 1.0, ns)
    c_closed = fit_coefficients(ns, samples, "closed_form", "proposed")
    c_base = fit_coefficients(ns, samples, "elimination_baseline")
    assert np.abs(c_closed - c_base).max() < 1e-8


def test_experiment_report_shapes():
    report = interp_experiment("cosine", "chebyshev", 16)
    assert report.coefficients.size == 16
    assert report.evaluations.size == 32
    assert report.reference.size == 32
    assert report.excluded_count_per_side == 7
    assert report.n == 16
    assert report.nmse_after_exclusion >= 0


def test_experiment_roots_uses_whole_domain():
    report = interp_experiment("cosine", "roots_of_unity", 24)
    assert report.excluded_count_per_side == 0


def test_experiment_exclusion_leaves_enough_points():
    with pytest.raises(ValueError):
        interp_experiment("cosine", "chebyshev", 7)
    # 2*8 - 14 = 2 points is the smallest legal interior
    report = interp_experiment("cosine", "chebyshev", 8)
    assert report.nmse_after_exclusion >= 0


def test_experiment_baseline_reports_no_esp():
    report = interp_experiment(
        "cosine", "chebyshev", 12, inverse_backend="elimination_baseline"
    )
    assert report.esp_backend is None


def test_cosine_on_roots_is_machine_accurate():
    # the default cosine needs N comfortably past its frequency before the
    # truncated tail drops below rounding; 60 nodes is deep in that regime
    report = interp_experiment("cosine", "roots_of_unity", 60)
    assert report.nmse_after_exclusion < 1e-10


def test_exclusion_monotone_when_boundary_residuals_dominate():
    report = interp_experiment("tanh", "equidistant", 37)
    resid = np.abs(report.evaluations - report.reference)
    e = report.excluded_count_per_side
    boundary = np.concatenate([resid[:e], resid[-e:]])
    interior = resid[e:-e]
    # precondition of the claim: the trimmed residuals are the dominant ones
    assert boundary.max() > interior.max()
    full = nmse(report.evaluations, report.reference)
    assert report.nmse_after_exclusion <= full
