import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vandinv import (
    NodeSet,
    OrderOverflowError,
    barycentric_weights,
    esp_all_orders,
    esp_bruteforce_oracle,
    esp_dropped,
    esp_single,
    esp_table,
    generate_nodes,
    inverse_closed_form,
)
from vandinv import esp as esp_module

from conftest import assert_close, random_node_set


def roots(n):
    return generate_nodes("roots_of_unity", n)


# ---------------------------------------------------------------- oracle

def test_oracle_product_of_all():
    assert_close(esp_bruteforce_oracle(NodeSet([1, 2, 3]), 3), 6)


def test_oracle_order_zero_is_one():
    assert_close(esp_bruteforce_oracle(NodeSet([1, 2, 3]), 0), 1)


def test_oracle_complex_pair():
    assert_close(esp_bruteforce_oracle(NodeSet([1 + 1j, 1 - 1j]), 2), 2)


def test_oracle_refuses_large_sets():
    with pytest.raises(ValueError):
        esp_bruteforce_oracle(NodeSet(np.arange(26) + 1.0), 2)


# ---------------------------------------------------------------- proposed

def test_proposed_pair_sum_of_products():
    assert_close(esp_single(NodeSet([1, 2, 3]), 2), 11)


def test_proposed_order_one_is_node_sum():
    assert_close(esp_single(NodeSet([1, 2, 3]), 1), 6)


def test_proposed_roots4_full_product():
    assert_close(esp_single(roots(4), 4), -1)


def test_proposed_roots4_middle_order_vanishes():
    assert abs(esp_single(roots(4), 2)) < 1e-12


def test_proposed_rejects_out_of_range_orders():
    ns = NodeSet([1, 2, 3])
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            esp_single(ns, bad)


def test_proposed_overflow_guard_and_scaled_escape():
    # 175! overflows a double: past order 170 the sweep runs scaled
    ns = NodeSet(np.linspace(0.5, 1.5, 180))
    assert np.isfinite(esp_single(ns, 175))


def scaled_proposed(ns, orders):
    return esp_module._proposed(ns.values[None, :], np.asarray(orders), scaled=True)[0]


def test_proposed_scaled_mode_agrees_on_unit_circle():
    # well-conditioned at every order, so the modes must track each other
    ns = NodeSet(np.delete(generate_nodes("roots_of_unity", 51).values, 0))
    plain = esp_all_orders(ns)[1:]
    scaled = scaled_proposed(ns, range(1, 51))
    assert (np.abs(plain - scaled) <= 1e-12 * np.abs(plain)).all()


def test_proposed_scaled_mode_agrees_on_small_random_sets(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        ns = random_node_set(rng, n)
        plain = esp_all_orders(ns)[1:]
        scaled = scaled_proposed(ns, range(1, n + 1))
        assert (np.abs(plain - scaled) <= 1e-12 * np.maximum(1.0, np.abs(plain))).all()


def reference_proposed(values, order, scaled=False):
    """The balanced recursion one order at a time, as the paper states it.

    f_0 = v, f_i = v * (C_{i-1} - (n - i) * f_{i-1}), C_i = sum of f_i in
    node order, result C_{n-1} / n! by Python-complex division.  The node
    arrays stay numpy arrays with the same operand order as the kernel:
    numpy's complex multiply is fused, so Python scalars (or swapped
    operands) would round differently.  ``scaled`` divides f_i by i + 1
    instead of dividing by n! at the end.
    """
    def node_sum(f):
        return complex(np.cumsum(f)[-1])

    v = np.asarray(values, dtype=np.complex128)
    f = v.copy()
    c = node_sum(f)
    for i in range(1, order):
        f = v * (c - (order - i) * f)
        if scaled:
            f = f / (i + 1)
        c = node_sum(f)
    return c if scaled else c / math.factorial(order)


def same_bits(a, b):
    """Equal including the sign of zero, which np.array_equal ignores."""
    a, b = (np.ascontiguousarray(x, dtype=np.complex128) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def bit_exact_sets():
    rng = np.random.default_rng(7)
    # the dropped (row, order) pairs of N = 37 and N = 64 span several pair chunks
    assert 37 * 36 * 36 * 16 > esp_module._BLOCK_BYTES
    for n in (2, 3, 37, 64):
        yield roots(n)
        yield NodeSet(rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("ns", list(bit_exact_sets()), ids=lambda ns: f"N{len(ns)}")
def test_proposed_kernel_is_bit_identical_to_the_scalar_recursion(ns):
    n = len(ns)
    expected = [1.0] + [reference_proposed(ns.values, k) for k in range(1, n + 1)]
    assert np.array_equal(esp_all_orders(ns, "proposed"), expected)
    # the rows behind inverse_closed_form, in one batched call
    dropped = esp_dropped(ns, range(1, n + 1), "proposed")
    for i, row in enumerate(dropped):
        reduced = np.delete(ns.values, i)
        expected = [1.0] + [reference_proposed(reduced, k) for k in range(1, n)]
        assert np.array_equal(row, expected)
    signs = (-1.0) ** (n - np.arange(1, n + 1))
    lam = barycentric_weights(ns)
    rows = np.array([signs * r[::-1] / lam[i] for i, r in enumerate(dropped)])
    assert np.array_equal(inverse_closed_form(ns, "proposed"), rows)


def chunk_pairs(monkeypatch, pairs, nodes):
    """Make each proposed chunk hold ``pairs`` (row, order) pairs of ``nodes`` nodes."""
    monkeypatch.setattr(esp_module, "_BLOCK_BYTES", pairs * 16 * nodes)


# 12 dropped rows of 11 nodes run orders 1..11 as 132 pairs sorted by order,
# then row.  One pair per chunk makes every node sum a single column (the
# cumsum path); 25 pairs put order 3's rows in two chunks, the first of which
# ends on one order-3 pair alone; 7 pairs split rows and orders everywhere.
@pytest.mark.parametrize("pairs", [1, 25, 7])
def test_proposed_chunks_are_bit_identical_to_the_scalar_recursion(monkeypatch, pairs):
    chunk_pairs(monkeypatch, pairs, 11)
    rng = np.random.default_rng(pairs)
    ns = NodeSet(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    dropped = esp_dropped(ns, range(1, 13), "proposed")
    for i, row in enumerate(dropped):
        reduced = np.delete(ns.values, i)
        assert same_bits(row, [1.0] + [reference_proposed(reduced, k) for k in range(1, 12)])


@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
def test_proposed_modes_are_bit_identical_to_the_scalar_recursion(monkeypatch, scaled):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    for k in range(1, 11):
        single = esp_module._proposed(v[None, :], np.array([k]), scaled)
        assert same_bits(single, [[reference_proposed(v, k, scaled)]])
    # the batched kernel over every dropped row, in chunks that split orders
    chunk_pairs(monkeypatch, 7, 9)
    rows = np.array([np.delete(v, i) for i in range(10)])
    batch = esp_module._proposed(rows, np.arange(1, 10), scaled)
    for row, w in zip(batch, rows):
        assert same_bits(row, [reference_proposed(w, k, scaled) for k in range(1, 10)])


def test_proposed_full_set_and_single_orders_are_bit_identical(monkeypatch):
    chunk_pairs(monkeypatch, 7, 20)  # the one row's 20 orders in three chunks
    rng = np.random.default_rng(20)
    ns = NodeSet(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    expected = [reference_proposed(ns.values, k) for k in range(1, 21)]
    assert same_bits(esp_all_orders(ns, "proposed"), [1.0] + expected)
    assert same_bits([esp_single(ns, k) for k in range(1, 21)], expected)
    assert same_bits(esp_all_orders(NodeSet([2 - 3j]), "proposed"), [1, 2 - 3j])


def test_proposed_keeps_negative_zero_sums():
    # products with negative real nodes leave -0 imaginary parts, whose node
    # sum must stay -0 as in a left-to-right sum
    ns = NodeSet(-np.arange(1.0, 13.0))
    sweep = esp_all_orders(ns, "proposed")
    assert np.signbit(sweep.imag[1:]).any()
    assert same_bits(sweep, [1.0] + [reference_proposed(ns.values, k) for k in range(1, 13)])
    for i, row in enumerate(esp_dropped(ns, range(1, 13), "proposed")):
        reduced = np.delete(ns.values, i)
        assert same_bits(row, [1.0] + [reference_proposed(reduced, k) for k in range(1, 12)])


def test_dropped_sequence_matches_single_drops(rng):
    ns = random_node_set(rng, 9)
    for method in ("proposed", "traub", "yang", "mikkawy"):
        batch = esp_dropped(ns, [3, 1, 9], method)
        assert batch.shape == (3, 9)
        for row, drop in zip(batch, (3, 1, 9)):
            assert np.array_equal(row, esp_dropped(ns, drop, method))


def test_dropped_past_the_factorial_limit_runs_scaled():
    rng = np.random.default_rng(173)
    ns = NodeSet(np.exp(2j * np.pi * rng.random(173)))
    proposed = esp_dropped(ns, [1, 87, 173], "proposed")
    traub = esp_dropped(ns, [1, 87, 173], "traub")
    assert np.isfinite(proposed).all()
    for p, t in zip(proposed, traub):
        assert np.abs(p - t).max() <= 1e-9 * np.abs(t).max()
    # on the roots of unity the sweep without v_1 is (-v_1)**j exactly
    v1 = roots(173).values[0]
    exact = (-v1) ** np.arange(173)
    assert np.abs(esp_dropped(roots(173), 1, "proposed") - exact).max() < 1e-10


# ---------------------------------------------------------------- tables

def test_traub_table_small_integers():
    table = esp_table(NodeSet([1, 2, 3]), "traub")
    np.testing.assert_allclose(table[3], [1, 6, 11, 6], atol=1e-12)


def test_traub_table_single_node():
    table = esp_table(NodeSet([5]), "traub")
    np.testing.assert_allclose(table, [[1, 0], [1, 5]], atol=0)


def test_traub_table_roots4():
    table = esp_table(roots(4), "traub")
    np.testing.assert_allclose(table[4], [1, 0, 0, 0, -1], atol=1e-14)


def test_yang_table_small_integers():
    table = esp_table(NodeSet([1, 2, 3]), "yang")
    np.testing.assert_allclose(table[3], [1, 6, 11, 6], atol=1e-12)


def test_yang_table_two_nodes():
    table = esp_table(NodeSet([2, 4]), "yang")
    np.testing.assert_allclose(table[2], [1, 6, 8], atol=1e-12)


def test_tables_agree_entrywise(rng):
    ns = random_node_set(rng, 20)
    t = esp_table(ns, "traub")
    y = esp_table(ns, "yang")
    scale = np.maximum(np.abs(t), 1.0)
    assert (np.abs(t - y) / scale).max() < 1e-12


def reference_yang_table(values):
    """The prefix-block table one row at a time, block products by numpy's
    complex scalars and block contributions in ascending k."""
    v = np.asarray(values, dtype=np.complex128)
    t = np.zeros((v.size + 1, v.size + 1), dtype=np.complex128)
    t[0, 0] = 1.0
    for n in range(1, v.size + 1):
        block = 1.0 + 0j
        for k in range(n):
            t[n, k:n] += block * t[n - 1 - k, 0 : n - k]
            block *= v[n - 1 - k]
        t[n, n] = block
    return t


@pytest.mark.parametrize("ns", [roots(12), NodeSet(np.arange(1, 13) * (0.3 - 0.7j)),
                                random_node_set(np.random.default_rng(5), 12)],
                         ids=["roots", "ray", "random"])
def test_batched_yang_is_bit_identical_to_the_one_row_table(ns):
    assert same_bits(esp_table(ns, "yang"), reference_yang_table(ns.values))
    for i, row in enumerate(esp_dropped(ns, range(1, 13), "yang")):
        assert same_bits(row, reference_yang_table(np.delete(ns.values, i))[-1])


@pytest.mark.parametrize("method", ["proposed", "mikkawy", "newton"])
def test_table_rejects_other_backends(method):
    with pytest.raises(ValueError, match=method):
        esp_table(NodeSet([1, 2, 3]), method)


def test_table_invariants(rng):
    ns = random_node_set(rng, 10)
    for table in (esp_table(ns, "traub"), esp_table(ns, "yang")):
        assert table.shape == (11, 11)
        np.testing.assert_array_equal(table[:, 0], np.ones(11))
        upper = np.triu_indices(11, k=1)
        assert np.all(table[upper] == 0)


# ---------------------------------------------------------------- dropped

def test_mikkawy_drop_first():
    np.testing.assert_allclose(
        esp_dropped(NodeSet([1, 2, 3]), 1, "mikkawy"), [1, 5, 6], atol=1e-12
    )


def test_mikkawy_drop_last():
    np.testing.assert_allclose(
        esp_dropped(NodeSet([1, 2, 3]), 3, "mikkawy"), [1, 3, 2], atol=1e-12
    )


def test_mikkawy_unit_magnitudes_on_roots():
    ns = roots(12)
    for drop in range(1, 13):
        mags = np.abs(esp_dropped(ns, drop, "mikkawy"))
        np.testing.assert_allclose(mags, 1.0, atol=1e-10)


def test_mikkawy_needs_two_nodes():
    with pytest.raises(ValueError):
        esp_dropped(NodeSet([5]), 1, "mikkawy")


def test_dropped_proposed_example():
    np.testing.assert_allclose(
        esp_dropped(NodeSet([1, 2, 3]), 2, "proposed"), [1, 4, 3], atol=1e-12
    )


@pytest.mark.parametrize("method", ["proposed", "traub", "yang", "mikkawy"])
def test_dropped_order_zero_is_one(method):
    seq = esp_dropped(NodeSet([2, 5, 7]), 1, method)
    assert seq[0] == 1


@pytest.mark.parametrize("method", ["proposed", "traub", "yang", "mikkawy"])
def test_dropped_matches_oracle_on_reduced_set(rng, method):
    for n in (2, 5, 9, 12):
        ns = random_node_set(rng, n)
        for drop in range(1, n + 1):
            seq = esp_dropped(ns, drop, method)
            reduced = NodeSet(np.delete(ns.values, drop - 1))
            assert seq.size == n
            for order in range(n):
                assert_close(seq[order], esp_bruteforce_oracle(reduced, order))


def test_dropped_roots50_magnitudes_near_one():
    seq = esp_dropped(roots(50), 1, "proposed")
    np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-6)


def test_overflow_raises_instead_of_returning_nan():
    # sigma(59, j) over 1e6, 2e6, ..., 59e6 passes the double range near j = 40
    ns = NodeSet(np.arange(1, 60) * 1e6)
    for method in ("proposed", "traub", "yang"):
        with pytest.raises(OrderOverflowError):
            esp_all_orders(ns, method)
        with pytest.raises(OrderOverflowError):
            esp_single(ns, 59, method)
    for method in ("proposed", "traub", "yang", "mikkawy"):
        with pytest.raises(OrderOverflowError):
            esp_dropped(ns, [1, 59], method)
    for method in ("traub", "yang"):
        with pytest.raises(OrderOverflowError):
            esp_table(ns, method)


def test_dropped_unknown_method():
    with pytest.raises(ValueError):
        esp_dropped(NodeSet([1, 2]), 1, "newton")


# ------------------------------------------------------- cross-backend

@st.composite
def distinct_complex_nodes(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    parts = draw(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    v = np.array([complex(parts[2 * k], parts[2 * k + 1]) for k in range(n)])
    gaps = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < 1e-3:
        return None
    return v


@settings(max_examples=60, deadline=None)
@given(distinct_complex_nodes())
def test_backends_match_oracle_property(values):
    if values is None:
        return
    ns = NodeSet(values)
    n = len(ns)
    for order in range(1, n + 1):
        expected = esp_bruteforce_oracle(ns, order)
        assert_close(esp_single(ns, order), expected)
        assert_close(esp_single(ns, order, "traub"), expected)
        assert_close(esp_single(ns, order, "yang"), expected)


def test_proposed_orders_past_the_nonzero_nodes_vanish():
    # with a zero node the full product is 0; the recursion alone leaves
    # rounding noise above the absolute floor here
    ns = NodeSet([0.5, 0, 1j, 1 + 1j, 3j, 2j, 3 + 2.938j, 1])
    for order in range(1, 9):
        assert_close(esp_single(ns, order), esp_bruteforce_oracle(ns, order))
    assert esp_single(ns, 8) == 0
    assert esp_all_orders(NodeSet([2, 0, 1j]), "proposed")[3] == 0
    dropped = esp_dropped(NodeSet([2, 0, 1j]), range(1, 4), "proposed")
    assert dropped[0, 2] == 0 and dropped[1, 2] != 0 and dropped[2, 2] == 0


@settings(max_examples=40, deadline=None)
@given(distinct_complex_nodes(), st.randoms(use_true_random=False))
def test_permutation_invariance_property(values, pyrandom):
    if values is None:
        return
    perm = list(range(len(values)))
    pyrandom.shuffle(perm)
    base = NodeSet(values)
    shuffled = NodeSet(values[perm])
    n = len(base)
    for order in (1, n // 2 + 1, n):
        for method in ("proposed", "traub", "yang"):
            a = esp_single(base, order, method)
            b = esp_single(shuffled, order, method)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------- vieta

def test_vieta_closure(rng):
    # the signed sweep (-1)**j sigma(N, j) lists prod_k (x - v_k) from x**N down
    for n in (5, 12, 20):
        ns = random_node_set(rng, n)
        coeffs = (-1.0) ** np.arange(n + 1) * esp_all_orders(ns)
        bound = 1e-8 * max(1.0, np.abs(ns.values).max() ** n)
        for v in ns.values:
            assert abs(np.polyval(coeffs, v)) < bound


# ---------------------------------------------------------------- helpers

def test_esp_single_order_zero():
    assert esp_single(NodeSet([1, 2, 3]), 0) == 1


def test_esp_single_rejects_mikkawy():
    with pytest.raises(ValueError):
        esp_single(NodeSet([1, 2, 3]), 1, "mikkawy")


def test_esp_all_orders_consistency(rng):
    ns = random_node_set(rng, 8)
    top = esp_all_orders(ns, "proposed")
    ref = esp_table(ns, "traub")[-1]
    for a, b in zip(top, ref):
        assert_close(a, b, rel=1e-9)
