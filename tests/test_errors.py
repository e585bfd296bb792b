"""The argument policy: every public entry refuses a bad name or a
non-integer, out-of-range count, order, index or seed with a ValueError that
names the argument, and never truncates a float.  The result policy: every
public numerical result is finite, or the call raises a NumericalError."""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vandinv import (
    ESP_BACKENDS,
    INVERSE_BACKENDS,
    NodeSet,
    NumericalError,
    OrderOverflowError,
    build_vandermonde,
    companion_identity_nmse,
    compute_inverse,
    derive_seed,
    esp_all_orders,
    esp_dropped,
    esp_single,
    esp_table,
    generate_nodes,
    interp_experiment,
    inverse_closed_form,
    inverse_elimination_baseline,
    inverse_wa_product,
    noise_sweep,
    perturb_roots_of_unity,
)
from vandinv import esp as esp_module
from vandinv.errors import check_finite, check_ints, check_name

from conftest import dropped_rows, esp_bruteforce_oracle, table_reference
from test_esp import proposed_reference, same_bits

NODES = NodeSet([1, 2, 3, 4])


def sweep(**kw):
    args = {"trials": 1, "seed": 1, **kw}
    return noise_sweep(5, [0.0], [0.1], **args)


# entry, argument name in the message, an out-of-range int, a call of the value
INTEGER_ENTRIES = {
    "generate_nodes-n": ("node count", 0, lambda x: generate_nodes("chebyshev", x)),
    "generate_nodes-endpoint-n": ("node count", 1, lambda x: generate_nodes("equidistant", x)),
    "perturb-n": ("node count", 1, lambda x: perturb_roots_of_unity(x, 0.1, 0.1, 3)),
    "perturb-seed": ("seed", -1, lambda x: perturb_roots_of_unity(6, 0.1, 0.1, x)),
    "esp_single-order": ("order", 5, lambda x: esp_single(NODES, x)),
    "esp_single-drop": ("drop index", 5, lambda x: esp_single(NODES, 1, drop_index=x)),
    "esp_dropped-drop": ("drop index", 0, lambda x: esp_dropped(NODES, x)),
    "esp_dropped-drop-list": ("drop index", 5, lambda x: esp_dropped(NODES, [1, x])),
    "oracle-order": ("order", 5, lambda x: esp_bruteforce_oracle(NODES, x)),
    "build_vandermonde-rows": ("num_rows", 0, lambda x: build_vandermonde(NODES, x)),
    "noise_sweep-trials": ("trials", 0, lambda x: sweep(trials=x)),
    "noise_sweep-seed": ("seed", -1, lambda x: sweep(seed=x)),
    "derive_seed": ("seed", -1, lambda x: derive_seed(7, 0, x)),
    "interp-exclude": (
        "exclude_per_side", -1, lambda x: interp_experiment("cosine", "chebyshev", 10,
                                                            exclude_per_side=x)
    ),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_arguments_refuse_floats_and_out_of_range_values(entry):
    name, out_of_range, call = INTEGER_ENTRIES[entry]
    # a bool is an int to Python, but no count, order, index or seed
    for bad in (2.5, 2.0, out_of_range, True, False, np.True_):
        with pytest.raises(ValueError, match=f"{name} must be an integer .*got {bad!r}$"):
            call(bad)


NAME_ENTRIES = {
    "generate_nodes": ("node family", lambda x: generate_nodes(x, 5)),
    "esp_table": ("ESP table backend", lambda x: esp_table(NODES, x)),
    "esp_all_orders": ("ESP backend", lambda x: esp_all_orders(NODES, x)),
    "esp_dropped": ("ESP backend", lambda x: esp_dropped(NODES, 1, x)),
    "inverse_closed_form": ("ESP backend", lambda x: inverse_closed_form(NODES, x)),
    "compute_inverse": ("inverse backend", lambda x: compute_inverse(NODES, x)),
    # the elimination baseline reads no ESPs, but a bad name is still refused
    "compute_inverse-esp": (
        "ESP backend", lambda x: compute_inverse(NODES, "elimination_baseline", x)
    ),
    "interp_experiment-esp": (
        "ESP backend",
        lambda x: interp_experiment("cosine", "chebyshev", 10, None, "elimination_baseline", x),
    ),
    "noise_sweep-esp": (
        "ESP backend", lambda x: sweep(esp_backend=x, inverse_backend="elimination_baseline")
    ),
    "interp_experiment": ("function kind", lambda x: interp_experiment(x, "chebyshev", 10)),
}


@pytest.mark.parametrize("entry", sorted(NAME_ENTRIES))
def test_unknown_names_list_the_known_ones(entry):
    what, call = NAME_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^unknown {what} 'bogus'; expected one of \\('"):
        call("bogus")


def test_numpy_ints_and_ranges_give_the_results_of_plain_ints():
    i = np.int64
    same = np.testing.assert_array_equal
    same(generate_nodes("chebyshev", i(7)).values, generate_nodes("chebyshev", 7).values)
    same(
        perturb_roots_of_unity(i(6), 0.1, 0.1, i(3)).values,
        perturb_roots_of_unity(6, 0.1, 0.1, 3).values,
    )
    assert esp_single(NODES, i(2), drop_index=i(1)) == esp_single(NODES, 2, drop_index=1)
    assert esp_bruteforce_oracle(NODES, i(2)) == esp_bruteforce_oracle(NODES, 2)
    for drop in (range(1, 5), np.arange(1, 5), (i(1), 2, np.int32(3), 4)):
        same(esp_dropped(NODES, drop), esp_dropped(NODES, [1, 2, 3, 4]))
    same(esp_dropped(NODES, i(3)), esp_dropped(NODES, 3))
    same(build_vandermonde(NODES, i(3)), build_vandermonde(NODES, 3))
    same(sweep(trials=i(2), seed=i(9)).log10_nmse, sweep(trials=2, seed=9).log10_nmse)
    assert derive_seed(i(7), 0, i(2)) == derive_seed(7, 0, 2)
    assert derive_seed(2**64 - 1, 1) == derive_seed(np.uint64(2**64 - 1), 1)
    reports = [interp_experiment("cosine", "chebyshev", n, exclude_per_side=e)
               for n, e in ((i(12), i(3)), (12, 3))]
    assert reports[0].nmse_after_exclusion == reports[1].nmse_after_exclusion


@settings(max_examples=80, deadline=None)
@given(st.floats(), st.sampled_from(ESP_BACKENDS))
def test_float_orders_and_drop_indices_raise_value_error(x, method):
    # never a TypeError, an IndexError or a truncated index
    with pytest.raises(ValueError):
        esp_single(NODES, x, method if method in esp_module.FULL_SET_ESP_BACKENDS else "traub")
    with pytest.raises(ValueError):
        esp_single(NODES, 1, method, drop_index=x)
    with pytest.raises(ValueError):
        esp_dropped(NODES, x, method)
    with pytest.raises(ValueError):
        esp_dropped(NODES, [1, x], method)


def test_check_helpers_return_or_name_the_bad_value():
    assert check_ints("count", range(3), 0, 2) == range(3)
    assert check_ints("seed", 2**70, 0) == 2**70
    with pytest.raises(ValueError, match=r"^count must be an integer in 0\.\.2, got 3$"):
        check_ints("count", [0, 3, 1.5], 0, 2)
    with pytest.raises(ValueError, match="count must be an integer >= 1, got '3'"):
        check_ints("count", "3", 1)
    check_name("route", "lu", ("lu", "qr"))
    with pytest.raises(ValueError, match=r"^unknown route 'svd'; expected one of \('lu', 'qr'\)$"):
        check_name("route", "svd", {"lu": 1, "qr": 2})


def test_check_finite_returns_or_counts_the_non_finite_entries():
    a = np.array([1.0, 2.0])
    assert check_finite("x", a) is a
    assert check_finite("x", 3 + 4j) == 3 + 4j
    with pytest.raises(TypeError):  # one value: a second is no longer counted
        check_finite("x", a, 3 + 4j)
    with pytest.raises(NumericalError, match=r"^sweep: 2 of 4 entries overflowed to inf or NaN$"):
        check_finite("sweep", np.array([1, np.inf, 2, complex(0, np.nan)]))
    with pytest.raises(OrderOverflowError, match=r"^t: 1 of 1 entries overflowed"):
        check_finite("t", -np.inf, error=OrderOverflowError)


# node sets whose gaps, weights, powers or ESPs leave double range
EXTREME_SETS = (
    np.array([1e308, 1e308j]),
    np.array([1e308, -1e308]),
    np.array([1e154, 1e154 - 1e154j, 0]),
    1e30 + 1e20 * np.arange(12),  # a cluster: v^11 overflows, lambda does not
    np.array([1.5e308 + 1.5e308j, 0]),  # |v_1| and lambda_1 overflow, the parts do not
)


@st.composite
def extreme_node_values(draw):
    """2..24 complex nodes with parts in (-2, 2), scaled by 2^k, k in -997..1023:
    parts from ~1e-300 up to the largest double."""
    n = draw(st.integers(2, 24))
    parts = draw(st.lists(st.floats(-2, 2, exclude_min=True, exclude_max=True),
                          min_size=2 * n, max_size=2 * n))
    scale = 2.0 ** draw(st.integers(-997, 1023))
    return (np.array(parts[:n]) + 1j * np.array(parts[n:])) * scale


# proposed chunks of 7 columns of 11 nodes: the dropped sweeps of 12 nodes
# (72 columns, the middle order 6 in columns 60..71) run as ten chunks of 7
# and a narrower last one of 2, and the middle lane has the last two chunks
# to itself; other sizes run several chunks too
MULTI_CHUNK_BYTES = 7 * 16 * 11


@settings(max_examples=100, deadline=None)
@given(extreme_node_values())
@example(EXTREME_SETS[0])
@example(EXTREME_SETS[1])
@example(EXTREME_SETS[2])
@example(EXTREME_SETS[3])
@example(EXTREME_SETS[4])
@example((np.arange(1, 13) + 1j * np.arange(12, 0, -1)) * 2.0**55)  # finite ESPs up to ~7e210
def test_extreme_magnitudes_give_finite_results_or_typed_errors(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape
        try:
            ns = NodeSet(values)
        except ValueError:
            return
        # the default chunk size runs N <= 24 in one chunk; the patch (not a
        # fixture, which hypothesis refuses) reaches the multi-chunk paths
        for block in (esp_module._BLOCK_BYTES, MULTI_CHUNK_BYTES):
            with mock.patch.object(esp_module, "_BLOCK_BYTES", block):
                check_finite_or_typed_errors(ns)


def check_finite_or_typed_errors(ns):
    v, n = ns.values, len(ns)
    sweeps = (  # each with its reference rows
        (lambda: esp_all_orders(ns)[None, :], lambda: [proposed_reference(v, range(n + 1))]),
        (lambda: esp_dropped(ns, range(1, n + 1)),
         lambda: [proposed_reference(np.delete(v, i), range(n)) for i in range(n)]),
        *((lambda m=m: esp_dropped(ns, range(1, n + 1), m),
           lambda m=m: table_reference(dropped_rows(v, m), m)[:, -1])
          for m in ("traub", "mikkawy")),
        *((lambda m=m: esp_all_orders(ns, m), lambda m=m: table_reference(v[None, :], m)[0, -1])
          for m in ("traub", "yang")),
        *((lambda m=m: esp_table(ns, m), lambda m=m: table_reference(v[None, :], m)[0])
          for m in ("traub", "yang")),
    )
    for call, reference in sweeps:
        try:
            got = call()
        except OrderOverflowError:
            continue
        assert np.isfinite(got).all()
        assert same_bits(got, reference())
    inverses = (  # each route through compute_inverse and called directly
        *(lambda route=route: compute_inverse(ns, route) for route in INVERSE_BACKENDS),
        lambda: inverse_closed_form(ns),
        lambda: inverse_wa_product(ns),
        lambda: inverse_elimination_baseline(ns),
    )
    for call in inverses:
        try:
            matrix = call()
        except NumericalError:
            continue
        assert np.isfinite(matrix).all()
        try:  # the score of a finite inverse may still leave double range
            assert np.isfinite(companion_identity_nmse(ns, matrix))
        except NumericalError:
            pass
    # a set listed beside a benign one fails as it does alone, on every route
    # and ESP backend, and each inverse of the list keeps the bits and the
    # memory order it has alone
    benign = generate_nodes("roots_of_unity", n)
    for route, method in itertools.product(INVERSE_BACKENDS, ESP_BACKENDS):
        if route == "wa_product" and method not in esp_module.FULL_SET_ESP_BACKENDS:
            with pytest.raises(ValueError, match=method):
                compute_inverse([benign, benign], route, method)
            continue
        try:
            alone = compute_inverse(ns, route, method)
        except NumericalError:
            with pytest.raises(NumericalError, match=f"^{route} inverse: "):
                compute_inverse([ns, benign], route, method)
            continue
        both = compute_inverse([ns, benign], route, method)
        assert type(both) is list and len(both) == 2
        for got, single in zip(both, (alone, compute_inverse(benign, route, method))):
            assert same_bits(got, single)
            assert got.flags.f_contiguous == single.flags.f_contiguous


BATCH_RULE = "^nodes must be a NodeSet or a non-empty list or tuple of same-size NodeSets$"

BAD_BATCHES = {
    "empty-list": [],
    "empty-tuple": (),
    "array": NODES.values,
    "array-beside-a-set": [NODES.values, NODES],
    "mixed-sizes": [NODES, NodeSet([1, 2, 3, 4, 5])],
}


@pytest.mark.parametrize("batch", list(BAD_BATCHES.values()), ids=list(BAD_BATCHES))
def test_a_malformed_batch_raises_the_one_batch_error(batch):
    # on every route and ESP backend, wa_product's refusal of mikkawy
    # included, with no route prefix: that is for a NumericalError
    for route, method in itertools.product(INVERSE_BACKENDS, ESP_BACKENDS):
        with pytest.raises(ValueError, match=BATCH_RULE):
            compute_inverse(batch, route, method)
    for method in ESP_BACKENDS:
        with pytest.raises(ValueError, match=BATCH_RULE):
            esp_dropped(batch, 1, method)
        with pytest.raises(ValueError, match=BATCH_RULE):
            inverse_closed_form(batch, method)


def test_a_tuple_batch_gives_the_results_of_the_list():
    sets = [NODES, generate_nodes("chebyshev", 4)]
    pair = tuple(sets)
    for route, method in itertools.product(INVERSE_BACKENDS, esp_module.FULL_SET_ESP_BACKENDS):
        got = compute_inverse(pair, route, method)
        assert type(got) is list
        for a, b in zip(got, compute_inverse(sets, route, method), strict=True):
            assert same_bits(a, b) and a.flags.f_contiguous == b.flags.f_contiguous
    for method in ESP_BACKENDS:
        assert same_bits(esp_dropped(pair, [1, 3], method), esp_dropped(sets, [1, 3], method))
        got = inverse_closed_form(pair, method)
        assert type(got) is list
        for a, b in zip(got, inverse_closed_form(sets, method), strict=True):
            assert same_bits(a, b)


def test_elimination_refuses_a_vandermonde_matrix_past_double_range():
    # v^39 of nodes near 1e8 overflows: the pivot floor goes inf and the
    # pivots NaN, which its test passes
    ns = NodeSet(np.linspace(100, 101, 40) * 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^Vandermonde matrix: 40 of 1600 entries"):
            inverse_elimination_baseline(ns)
