import warnings

import numpy as np
import pytest

import vandinv.nodes as nodes_mod
from vandinv import (
    NodeCollisionError,
    NodeSet,
    NumericalError,
    generate_nodes,
    perturb_roots_of_unity,
    validate_pairwise_distinct,
)

EPS = np.finfo(float).eps


def family(kind, n):
    return generate_nodes(kind, n).values


def test_equidistant_three_points():
    np.testing.assert_allclose(family("equidistant", 3), [-1, 0, 1], atol=1e-15)


def test_roots_of_unity_quarter_turns():
    np.testing.assert_allclose(family("roots_of_unity", 4), [1j, -1, -1j, 1], atol=1e-15)


def test_gauss_lobatto_three_points():
    np.testing.assert_allclose(family("gauss_lobatto", 3), [1, 0, -1], atol=1e-15)


def test_chebyshev_excludes_endpoints():
    x = family("chebyshev", 9).real
    assert np.abs(x).max() < 1.0


def test_extended_chebyshev_hits_endpoints():
    x = family("extended_chebyshev", 9).real
    assert x[0] == 1.0
    assert x[-1] == -1.0


def test_gauss_lobatto_includes_both_endpoints():
    x = family("gauss_lobatto", 8).real
    assert x[0] == 1.0
    assert x[-1] == -1.0


@pytest.mark.parametrize("kind", ["equidistant", "chebyshev", "extended_chebyshev", "gauss_lobatto"])
def test_interval_families_stay_in_unit_interval(kind):
    for n in (2, 5, 16, 37):
        x = family(kind, n)
        assert np.abs(x.imag).max() == 0.0
        assert np.abs(x.real).max() <= 1.0


def test_roots_of_unity_on_the_circle():
    for n in (2, 7, 37, 70):
        v = family("roots_of_unity", n)
        assert np.abs(np.abs(v) - 1.0).max() <= 2 * EPS


def test_generation_is_deterministic():
    for kind in ("equidistant", "chebyshev", "extended_chebyshev", "gauss_lobatto", "roots_of_unity"):
        a = family(kind, 12)
        b = family(kind, 12)
        np.testing.assert_array_equal(a, b)


def test_endpoint_families_need_two_nodes():
    for kind in ("equidistant", "gauss_lobatto"):
        with pytest.raises(ValueError):
            generate_nodes(kind, 1)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        generate_nodes("fekete", 5)


COLLISION = r" are closer than 1e-12 \* max\|v\|$"


def test_validate_pairwise_distinct_examples():
    assert validate_pairwise_distinct([1, 2, 3]) is None
    with pytest.raises(ValueError, match="^nodes 1 and 2" + COLLISION):
        validate_pairwise_distinct([1, 1 + 1e-15])
    assert validate_pairwise_distinct(family("roots_of_unity", 70)) is None


def test_nodeset_rejects_near_duplicates():
    with pytest.raises(ValueError):
        NodeSet([1.0, 1.0 + 1e-15, 2.0])


@pytest.mark.parametrize("values", [[], [[1, 2], [3, 4]]], ids=["empty", "2-D"])
def test_nodeset_needs_a_one_dimensional_non_empty_sequence(values):
    with pytest.raises(ValueError, match="^a NodeSet needs a one-dimensional, non-empty"):
        NodeSet(values)


def test_nodeset_names_a_nan_node():
    with pytest.raises(ValueError, match=r"node 2 is not finite: \(nan"):
        NodeSet([1, np.nan, 3])


def test_nodeset_names_an_infinite_node():
    with pytest.raises(ValueError, match=r"node 3 is not finite: \(-inf"):
        NodeSet([1, 2, -np.inf, 4])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_validate_pairwise_distinct_names_a_non_finite_value(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"node 1 is not finite"):
            validate_pairwise_distinct([bad, 0])


def test_nodeset_takes_a_gap_past_double_range_as_distinct():
    # the gap 1e308 - (-1e308) overflows to inf, with no warning
    assert len(NodeSet([1e308, -1e308])) == 2
    with pytest.raises(ValueError, match="^nodes 1 and 3" + COLLISION):
        validate_pairwise_distinct([1e308, -1e308, 1e308])


def test_nodeset_takes_a_node_whose_magnitude_overflows():
    # |1.5e308 + 1.5e308j| is inf, so the threshold and every gap were inf
    # and the closest pair fell on the diagonal
    big = 1.5e308 + 1.5e308j
    assert len(NodeSet([big, 0])) == 2
    with pytest.raises(ValueError, match="^nodes 1 and 3" + COLLISION):
        validate_pairwise_distinct([big, 0, big * (1 + 1e-14)])
    assert validate_pairwise_distinct([big, 0, big * (1 + 1e-11)]) is None


def test_nodeset_values_are_read_only():
    ns = NodeSet([1, 2, 3])
    with pytest.raises(ValueError):
        ns.values[0] = 9.0


def test_perturbation_zero_noise_is_exact():
    v = perturb_roots_of_unity(12, 0.0, 0.0, 42).values
    np.testing.assert_array_equal(v, family("roots_of_unity", 12))


def test_perturbation_same_seed_identical():
    a = perturb_roots_of_unity(37, 0.2, 0.1, 987654321).values
    b = perturb_roots_of_unity(37, 0.2, 0.1, 987654321).values
    np.testing.assert_array_equal(a, b)


def test_perturbation_different_seeds_differ():
    a = perturb_roots_of_unity(37, 0.2, 0.1, 1).values
    b = perturb_roots_of_unity(37, 0.2, 0.1, 2).values
    assert not np.array_equal(a, b)


def test_perturbation_phase_mode_keeps_unit_magnitude():
    v = perturb_roots_of_unity(16, 0.3, 0.0, 5).values
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)


def test_perturbation_negative_sigma_rejected():
    with pytest.raises(ValueError, match="sigma_shift must be finite and non-negative"):
        perturb_roots_of_unity(8, -0.1, 0.0, 1)
    # the sigmas are checked before N
    with pytest.raises(ValueError, match="sigma_mag must be finite and non-negative"):
        perturb_roots_of_unity(1, 0.0, np.nan, 1)


def test_perturbation_collision_names_the_pair_and_the_seed(monkeypatch):
    calls = {"n": 0}

    def always_collides(values):
        calls["n"] += 1
        raise ValueError("nodes 1 and 2 are closer than 1e-12 * max|v|")

    monkeypatch.setattr(nodes_mod, "validate_pairwise_distinct", always_collides)
    message = "^nodes 1 and 2" + COLLISION[:-1] + r" \(seed 3\)$"
    with pytest.raises(NodeCollisionError, match=message):
        perturb_roots_of_unity(8, 0.1, 0.1, 3)
    assert calls["n"] == 1  # one draw, validated once, never redrawn


@pytest.mark.parametrize(
    "sigma_shift, sigma_mag, seed",
    # the third is trial 2 of `noise-sweep --n 6 --seed 6 --sigma-mag-axis 1e308`
    [(0.0, 1e308, 3), (1e308, 0.0, 2), (0.0, 1e308, 5123204308243685402)],
)
def test_perturbation_past_double_range_is_a_numerical_error_not_a_collision(
    sigma_shift, sigma_mag, seed
):
    # pytest turns every RuntimeWarning into an error here
    message = rf"^perturbed nodes \(seed {seed}\): \d of 6 entries overflowed"
    with pytest.raises(NumericalError, match=message) as info:
        perturb_roots_of_unity(6, sigma_shift, sigma_mag, seed)
    assert not isinstance(info.value, NodeCollisionError)
