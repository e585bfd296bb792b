import math
import tracemalloc
import warnings

import numpy as np
import pytest

import vandinv.esp as esp_module
import vandinv.stability as stability_mod
from vandinv import (
    ESP_BACKENDS,
    INVERSE_BACKENDS,
    NodeCollisionError,
    NodeSet,
    NumericalError,
    companion_identity_nmse,
    compute_inverse,
    derive_seed,
    esp_dropped,
    generate_nodes,
    inverse_closed_form,
    inverse_elimination_baseline,
    nmse,
    noise_sweep,
    perturb_roots_of_unity,
)

from conftest import sweep_reference, unit_circle_deviation
from test_esp import same_bits


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
    with pytest.raises(ValueError, match="^reference norm is zero"):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^reference norm is zero"):
        nmse([1e-170, 0], [0, 0])


def test_nmse_of_a_nonzero_reference_whose_norm_underflows_is_a_numerical_error():
    # the squares of 1e-170 underflow to 0: the reference is not zero, and
    # the NMSE (~0.707) is not undefined, so this is no caller error
    with pytest.raises(NumericalError, match="^NMSE: the nonzero reference's norm underflowed"):
        nmse([1e-170, 0], [1e-170, 1e-170])


def test_nmse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nmse(np.ones((2, 2)), np.ones((3, 2)))


def test_nmse_past_double_range_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning may escape
        with pytest.raises(NumericalError, match="^NMSE: 1 of 1 entries overflowed"):
            nmse([1e308] * 2, [-1e308] * 2)


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


def test_companion_takes_an_inverse_as_nested_lists():
    ns = roots(6)
    inverse = inverse_closed_form(ns)
    assert companion_identity_nmse(ns, inverse.tolist()) == companion_identity_nmse(ns, inverse)


def test_companion_rejects_mismatched_inverse():
    ns = NodeSet([1, 2, 3])
    wrong = inverse_elimination_baseline(NodeSet([1, 2]))
    with pytest.raises(ValueError):
        companion_identity_nmse(ns, wrong)


def test_companion_names_a_non_finite_inverse_entry():
    # argument misuse, not a score that left double range
    ns = NodeSet([1, 2, 3])
    with pytest.raises(ValueError, match=r"^inverse entry 1, 1 is not finite: nan$"):
        companion_identity_nmse(ns, np.full((3, 3), np.nan))
    inverse = inverse_elimination_baseline(ns)
    inverse[1, 2] = np.inf
    with pytest.raises(ValueError, match=r"^inverse entry 2, 3 is not finite: \(inf"):
        companion_identity_nmse(ns, inverse)


def test_companion_needs_two_nodes():
    ns = NodeSet([5])
    with pytest.raises(ValueError, match="^companion check needs N >= 2$"):
        companion_identity_nmse(ns, inverse_closed_form(ns))


def test_companion_score_past_double_range_raises():
    ns = perturb_roots_of_unity(9, 0.0, 1e30, derive_seed(5, 0, 0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning may escape
        with pytest.raises(NumericalError, match="^NMSE: 1 of 1 entries overflowed"):
            companion_identity_nmse(ns, inverse_closed_form(ns))


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


def test_sweep_validates_arguments(monkeypatch):
    monkeypatch.setattr(stability_mod, "compute_inverse", None)  # nothing is inverted
    for args, message in [
        ((8, [], [0.1], 2, 0), r"^sigma_shift axis must be a non-empty 1-D .*, got \[\]$"),
        ((5, [[0.1, 0.2]], [0.1], 1, 0), r"^sigma_shift axis .*, got \[\[0\.1, 0\.2\]\]$"),
        # the sigmas of a late cell are checked before the first batch runs
        ((5, [0.1], [0.1, 0.2, -1e-3], 1, 0), r"^sigma_mag axis .*, got \[0\.1, 0\.2, -0\.001\]$"),
        ((5, [0.1, np.nan], [0.1], 1, 0), r"^sigma_shift axis .*, got \[0\.1, nan\]$"),
        ((5, [0.1], [np.inf], 1, 0), r"^sigma_mag axis .*, got \[inf\]$"),
        ((1, [0.1], [0.1], 1, 0), "^node count must be an integer >= 2, got 1$"),
        ((8, [0.1], [0.1], 0, 0), "^trials must be an integer >= 1, got 0$"),
    ]:
        with pytest.raises(ValueError, match=message):
            noise_sweep(*args)


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


def test_sweep_fails_the_trials_whose_score_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning may escape
        # every score of the 1e30 cell leaves double range, none of the 0.1 cell's
        grid = noise_sweep(9, [0.0], [1e30, 0.1], trials=3, seed=5)
        np.testing.assert_array_equal(grid.failed, [[True, False]])
        assert f"{grid.log10_nmse[0, 1]:.2f}" == "-15.44"
        # at N = 2 two of the 1e200 cell's three scores overflow: it reads the third
        grid = noise_sweep(2, [0.0], [1e200, 0.1], trials=3, seed=5)
        np.testing.assert_array_equal(grid.failed, [[False, False]])
        ns = perturb_roots_of_unity(2, 0.0, 1e200, derive_seed(5, 0, 0, 2))
        score = companion_identity_nmse(ns, inverse_closed_form(ns))
        assert grid.log10_nmse[0, 0] == math.log10(score)


def test_sweep_memory_does_not_grow_with_the_trials():
    # one batch of draws is alive at a time: holding all 3000 draws at N = 37
    # would add ~2.4 MB to the peak at 300
    def peak(trials):
        tracemalloc.start()
        try:
            noise_sweep(37, [0.1], [0.1], trials=trials, seed=0, esp_backend="traub")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(300)  # warm-up
    assert peak(3000) - peak(300) < 0.5 * 2**20


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


# 2 x 3 cells of 3 trials: 18 draws, whose rows go to the ESP kernel in
# batches of 1, 2 or 5 sets (three of 5 and a short last batch of 3).
# Every draw at sigma_mag 1e100 has a weight past 2^1021 from N = 9 on, so
# failing trials sit mid-batch beside survivors; at N = 2 only the
# elimination baseline refuses them.
SWEEP_SHIFTS = [0.0, 0.2]
SWEEP_MAGS = [0.0, 1e100, 0.1]


@pytest.mark.parametrize("sets_per_batch", [1, 2, 5])
@pytest.mark.parametrize("n", [2, 9, 37])
@pytest.mark.parametrize(
    "esp_backend, inverse_backend",
    [(esp, "closed_form") for esp in ESP_BACKENDS]
    + [("traub", "wa_product"), ("proposed", "elimination_baseline")],
)
def test_sweep_is_bit_identical_to_the_per_set_loop(
    monkeypatch, esp_backend, inverse_backend, n, sets_per_batch
):
    monkeypatch.setattr(stability_mod, "_BATCH_BYTES", sets_per_batch * 16 * n * (n - 1))
    args = (n, SWEEP_SHIFTS, SWEEP_MAGS, 3, 5, esp_backend, inverse_backend)
    cells, failed = sweep_reference(*args)
    grid = noise_sweep(*args)
    assert same_bits(grid.log10_nmse, cells)
    np.testing.assert_array_equal(grid.failed, failed)
    assert not failed.all()
    assert failed.any() or n == 2


@pytest.mark.parametrize("inverse_backend", INVERSE_BACKENDS)
def test_sweep_inverts_each_batch_in_one_compute_inverse_call(monkeypatch, inverse_backend):
    calls = []

    def spy(batch, *args):
        calls.append(len(batch))
        return compute_inverse(batch, *args)

    monkeypatch.setattr(stability_mod, "compute_inverse", spy)
    noise_sweep(37, [0.0, 0.1], [0.0, 0.1, 0.2], 3, 4, "traub", inverse_backend)
    # 18 draws of 21 KB of node rows each, 6 under the 128 KB budget
    assert calls == [6, 6, 6]
    calls.clear()
    # at N = 9 the 6 draws fit one batch, which the three 1e100 draws fail,
    # so it runs again set by set
    noise_sweep(9, [0.0], [1e100, 0.1], 3, 4, "traub", inverse_backend)
    assert calls == [6, 1, 1, 1, 1, 1, 1]


def kernel_spy(monkeypatch, method):
    """Record the node-row bytes and row count of every call of a kernel."""
    calls = []
    rule, kernel = esp_module._KERNELS[method]

    def spy(w, orders):
        calls.append((w.nbytes, w.shape[0]))
        return kernel(w, orders)

    monkeypatch.setitem(esp_module._KERNELS, method, (rule, spy))
    return calls


@pytest.mark.parametrize("method", ["proposed", "traub"])
def test_sweep_batches_hold_no_more_node_rows_than_the_budget(monkeypatch, method):
    calls = kernel_spy(monkeypatch, method)
    noise_sweep(37, [0.0, 0.1], [0.0, 0.1, 0.2], trials=3, seed=4, esp_backend=method)
    # 18 draws of 37 rows each: 21 KB of node rows a set, 380 KB in all
    assert sum(rows for _, rows in calls) == 18 * 37
    assert max(nbytes for nbytes, _ in calls) <= stability_mod._BATCH_BYTES
    assert max(rows for _, rows in calls) > 37  # several sets share a call


def test_sweep_sends_a_set_past_the_budget_alone(monkeypatch):
    calls = kernel_spy(monkeypatch, "traub")
    monkeypatch.setattr(stability_mod, "_BATCH_BYTES", 16 * 9 * 8 - 1)
    noise_sweep(9, [0.0], [0.0, 0.1], trials=3, seed=4, esp_backend="traub")
    assert [rows for _, rows in calls] == [9] * 6
