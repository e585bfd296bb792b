import numpy as np
import pytest

import vandinv.stability as stability_mod
from vandinv import (
    NodeCollisionError,
    NodeSet,
    companion_identity_nmse,
    compute_inverse,
    derive_seed,
    esp_dropped,
    generate_nodes,
    inverse_closed_form,
    inverse_elimination_baseline,
    nmse,
    noise_sweep,
    shifted_identity_block,
)

from conftest import unit_circle_deviation


def roots(n):
    return generate_nodes("roots_of_unity", n)


# ---------------------------------------------------------------- nmse

def test_nmse_zero_for_equal_inputs(rng):
    m = rng.standard_normal((4, 4))
    assert nmse(m, m) == 0.0


def test_nmse_doubling_gives_one(rng):
    m = rng.standard_normal((3, 5))
    assert abs(nmse(2 * m, m) - 1.0) < 1e-15


def test_nmse_linear_in_error_norm(rng):
    ref = rng.standard_normal((6, 6))
    err = rng.standard_normal((6, 6))
    err *= 0.1 * np.linalg.norm(ref) / np.linalg.norm(err)
    assert abs(nmse(ref + err, ref) - 0.1) < 1e-12


def test_nmse_scale_invariant(rng):
    ref = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    est = ref + 0.01 * rng.standard_normal((4, 4))
    for alpha in (2.0, -3.5, 1j):
        assert abs(nmse(alpha * est, alpha * ref) - nmse(est, ref)) < 1e-13


def test_nmse_rejects_zero_reference():
    with pytest.raises(ValueError):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_nmse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nmse(np.ones((2, 2)), np.ones((3, 2)))


# ------------------------------------------------------------- companion

def test_companion_exact_two_nodes():
    ns = NodeSet([1, -1])
    assert companion_identity_nmse(ns, inverse_elimination_baseline(ns)) <= 1e-15


def test_companion_metric_vanishes_for_good_inverse():
    for kind, n in (("chebyshev", 8), ("equidistant", 10)):
        ns = generate_nodes(kind, n)
        assert companion_identity_nmse(ns, inverse_elimination_baseline(ns)) < 1e-10


def test_companion_roots50_backend_split():
    ns = roots(50)
    prop = companion_identity_nmse(ns, inverse_closed_form(ns, "proposed"))
    traub = companion_identity_nmse(ns, inverse_closed_form(ns, "traub"))
    assert prop < 1e-13
    assert traub > 1e-7


def test_companion_rejects_mismatched_inverse():
    ns = NodeSet([1, 2, 3])
    wrong = inverse_elimination_baseline(NodeSet([1, 2]))
    with pytest.raises(ValueError):
        companion_identity_nmse(ns, wrong)


def test_shifted_identity_block_shape():
    block = shifted_identity_block(4)
    np.testing.assert_array_equal(
        block, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )


# ------------------------------------------------------------ unit circle

def test_unit_circle_orders_and_length():
    # one value per order 0..N-1 of the N-1 remaining nodes
    values = esp_dropped(roots(10), 1, "proposed")
    assert values.shape == (10,)


def test_unit_circle_proposed_stays_on_circle():
    assert unit_circle_deviation(esp_dropped(roots(50), 1, "proposed")) < 1e-6


def test_unit_circle_traub_deviates_at_64():
    assert unit_circle_deviation(esp_dropped(roots(64), 1, "traub")) > 1e-3


def test_unit_circle_70_maps_to_few_points():
    # without v_1 the sweep is exactly (-v_1)**j, which cycles over 35 points
    values = esp_dropped(roots(70), 1, "proposed")
    exact = (-roots(70).values[0]) ** np.arange(70)
    assert np.abs(values - exact).max() < 1e-12


def test_unit_circle_stable_for_any_drop_at_70():
    for drop in (1, 35, 70):
        deviation = unit_circle_deviation(esp_dropped(roots(70), drop, "proposed"))
        assert deviation < 1e-6, f"drop {drop}"


# ------------------------------------------------------------- sweep

def test_sweep_zero_noise_grid_is_flat():
    grid = noise_sweep(8, [0.0, 0.0], [0.0], trials=2, seed=7)
    assert not grid.failed.any()
    vals = grid.log10_nmse.ravel()
    np.testing.assert_allclose(vals, vals[0], atol=1e-12)
    assert vals[0] < -12


def test_sweep_is_deterministic():
    a = noise_sweep(9, [0.0, 0.2], [0.0, 0.1], trials=3, seed=11)
    b = noise_sweep(9, [0.0, 0.2], [0.0, 0.1], trials=3, seed=11)
    np.testing.assert_array_equal(a.log10_nmse, b.log10_nmse)
    np.testing.assert_array_equal(a.failed, b.failed)


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        noise_sweep(8, [], [0.1], trials=2, seed=0)
    with pytest.raises(ValueError):
        noise_sweep(8, [0.1], [0.1], trials=0, seed=0)


def test_sweep_marks_cells_failed_when_all_trials_collapse(monkeypatch):
    def always_collides(n, sigma_shift, sigma_mag, seed):
        raise NodeCollisionError("forced")

    monkeypatch.setattr(stability_mod, "perturb_roots_of_unity", always_collides)
    grid = noise_sweep(8, [0.1], [0.2], trials=3, seed=1)
    assert grid.failed.all()
    assert np.isnan(grid.log10_nmse).all()


def test_sweep_averages_surviving_trials(monkeypatch):
    real = stability_mod.perturb_roots_of_unity
    calls = {"n": 0}

    def flaky(n, sigma_shift, sigma_mag, seed):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NodeCollisionError("forced first-trial failure")
        return real(n, sigma_shift, sigma_mag, seed)

    monkeypatch.setattr(stability_mod, "perturb_roots_of_unity", flaky)
    grid = noise_sweep(8, [0.05], [0.05], trials=3, seed=2)
    assert not grid.failed.any()
    assert np.isfinite(grid.log10_nmse).all()


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(5, 1, 2, 3)
    b = derive_seed(5, 1, 2, 3)
    c = derive_seed(5, 1, 2, 4)
    assert a == b
    assert a != c


def test_sweep_gap_between_backends_small_case():
    # desk-scale echo of the acceptance comparison at a single noisy cell
    prop = noise_sweep(12, [0.2], [0.1], trials=4, seed=3, esp_backend="proposed")
    traub = noise_sweep(12, [0.2], [0.1], trials=4, seed=3, esp_backend="traub")
    assert prop.log10_nmse[0, 0] < traub.log10_nmse[0, 0]
