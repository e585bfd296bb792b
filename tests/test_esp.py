import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vandinv
from vandinv import (
    ESP_BACKENDS,
    NodeSet,
    OrderOverflowError,
    barycentric_weights,
    esp_all_orders,
    esp_dropped,
    esp_single,
    esp_table,
    generate_nodes,
    inverse_closed_form,
)
from vandinv import esp as esp_module

from conftest import (
    assert_close,
    dropped_rows,
    esp_bruteforce_oracle,
    random_node_set,
    table_reference,
)


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
    # 175! overflows a double; the normalised recursion never forms it
    ns = NodeSet(np.linspace(0.5, 1.5, 180))
    assert np.isfinite(esp_single(ns, 175))


def test_proposed_keeps_finite_orders_past_the_unit_disk():
    # every ESP of 3 x the 160th roots is finite, up to |prod(v)| = 3**160
    ns = NodeSet(3 * roots(160).values)
    sweep = esp_all_orders(ns, "proposed")
    assert np.isfinite(sweep).all()
    top = np.prod(ns.values)
    assert abs(sweep[-1] - top) <= 1e-12 * abs(top)


def reference_proposed(values, order):
    """The normalised balanced recursion one order at a time.

    g_0 = v, g_i = v * (G_{i-1} / (n - i) - g_{i-1}), G_i = sum of g_i in
    node order, result G_{n-1} / n; a division by a count divides the real
    and the imaginary part apart.  This is the paper's f_i / C_i recursion
    with f_i = g_i * (n-1)! / (n-1-i)!.  The node arrays stay numpy arrays
    with the same operand order as the kernel: numpy's complex multiply is
    fused, so Python scalars (or swapped operands) would round differently.
    """
    def node_sum(g):
        return complex(np.cumsum(g)[-1])

    def div(z, count):
        return complex(z.real / count, z.imag / count)

    v = np.asarray(values, dtype=np.complex128)
    g = v.copy()
    c = node_sum(g)
    for i in range(1, order):
        g = v * (div(c, order - i) - g)
        c = node_sum(g)
    return div(c, order)


def proposed_reference(values, orders):
    """reference_proposed at each order, exactly 0 above the count of nonzero nodes."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [reference_proposed(values, k) if k else 1.0 for k in orders]
    return np.where(np.asarray(orders) > np.count_nonzero(values), 0, ref)


def same_bits(a, b):
    """Equal including the sign of zero, which np.array_equal ignores."""
    a, b = (np.ascontiguousarray(x, dtype=np.complex128) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def bit_exact_sets():
    rng = np.random.default_rng(7)
    # the dropped sweeps of N = 37 run as 18 lanes of 37 rows over 36 nodes
    # in one chunk; those of N = 64, 32 lanes of 64 rows over 63 nodes,
    # span several
    assert 37 * 18 * 36 * 16 <= esp_module._BLOCK_BYTES < 64 * 32 * 63 * 16
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
    """Make each proposed chunk hold ``pairs`` (lane, row) columns of ``nodes`` nodes."""
    monkeypatch.setattr(esp_module, "_BLOCK_BYTES", pairs * 16 * nodes)


# 12 dropped rows of 11 nodes run orders 1..11 as the lanes (1, 11) ..
# (5, 7) and the middle order 6 alone: 72 columns sorted by lane, then row.
# One column per chunk makes every node sum a single column (the cumsum
# path); 25 columns put lane (3, 9)'s rows in two chunks, the first of which
# ends on one of its columns alone, and the last chunk holds lane (5, 7)'s
# last 10 rows beside the middle lane; 7 columns split rows and lanes
# everywhere and leave the middle lane's last rows a chunk of their own.
@pytest.mark.parametrize("pairs", [1, 25, 7])
def test_proposed_chunks_are_bit_identical_to_the_scalar_recursion(monkeypatch, pairs):
    chunk_pairs(monkeypatch, pairs, 11)
    rng = np.random.default_rng(pairs)
    ns = NodeSet(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    dropped = esp_dropped(ns, range(1, 13), "proposed")
    for i, row in enumerate(dropped):
        reduced = np.delete(ns.values, i)
        assert same_bits(row, [1.0] + [reference_proposed(reduced, k) for k in range(1, 12)])


def test_proposed_single_and_batched_rows_are_bit_identical_to_the_scalar_recursion(
    monkeypatch,
):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    for k in range(1, 11):
        single = esp_module._proposed(v[None, :], np.array([k]))
        assert same_bits(single, [[reference_proposed(v, k)]])
    # the batched kernel over every dropped row, in chunks that split lanes
    chunk_pairs(monkeypatch, 7, 9)
    rows = np.array([np.delete(v, i) for i in range(10)])
    batch = esp_module._proposed(rows, np.arange(1, 10))
    for row, w in zip(batch, rows):
        assert same_bits(row, [reference_proposed(w, k) for k in range(1, 10)])


def test_proposed_full_set_and_single_orders_are_bit_identical(monkeypatch):
    chunk_pairs(monkeypatch, 7, 20)  # the one row's 10 lanes in two chunks
    rng = np.random.default_rng(20)
    plain = NodeSet(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    # past order 170, where n! leaves double range, on the same path
    large = NodeSet(np.exp(2j * np.pi * np.random.default_rng(173).random(173)))
    for ns in (plain, large):
        n = len(ns)
        expected = [reference_proposed(ns.values, k) for k in range(1, n + 1)]
        assert same_bits(esp_all_orders(ns, "proposed"), [1.0] + expected)
        assert same_bits([esp_single(ns, k) for k in range(1, n + 1)], expected)
    assert same_bits(esp_all_orders(NodeSet([2 - 3j]), "proposed"), [1, 2 - 3j])


def test_esp_single_runs_only_its_order(monkeypatch):
    seen = []
    kernel, node_sum = esp_module._proposed_kernel, esp_module._node_sum

    def spy(vp, g, first, second):
        seen.append((first.copy(), second.copy()))
        return kernel(vp, g, first, second)

    def counted_sum(f):
        seen.append("sum")
        return node_sum(f)

    monkeypatch.setattr(esp_module, "_proposed_kernel", spy)
    monkeypatch.setattr(esp_module, "_node_sum", counted_sum)
    ns = random_node_set(np.random.default_rng(3), 9)
    for drop in (None, 4):
        seen.clear()
        esp_single(ns, 3, drop_index=drop)
        # one lane of order 3 alone, and its three sums G_0..G_2: no second order
        (first, second), *sums = seen
        assert (first == 3).all() and (second == 3).all()
        assert sums == ["sum"] * 3


# Warm closed-form proposed inverses at N = 37, counting minor page faults
# per inverse, with numpy blocks of the KB sizes in argv kept alive first.
# The chunks of a call share one working array; where glibc places it
# depends on the blocks alive, and only below the call's column arrays and
# result is it kept on the heap when freed (see esp._proposed).  Allocated
# after them, it landed on top of the heap beside each of the blocks below,
# was handed back to the OS when freed and took 10-55 faults an inverse.
# The child gets PYTHONPATH and the loader's library path alone, so the
# caller's environment, which Python copies onto the heap, does not move
# the layout.
FAULT_COUNT = """
import resource
import sys

import numpy as np
from vandinv import compute_inverse, perturb_roots_of_unity

keep = [np.ones(int(float(kb) * 1024) // 8) for kb in sys.argv[1:]]
ns = perturb_roots_of_unity(37, 0.1, 0.1, 5)
for _ in range(4):
    compute_inverse(ns, "closed_form", "proposed")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(16):
    compute_inverse(ns, "closed_form", "proposed")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 16)
"""

glibc_only = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap reuse it counts is glibc malloc's",
)


def faults_per_inverse(*blocks_kb):
    env = {key: os.environ[key] for key in ("LD_LIBRARY_PATH",) if key in os.environ}
    env["PYTHONPATH"] = str(Path(vandinv.__file__).parents[1])
    argv = [sys.executable, "-c", FAULT_COUNT, *map(str, blocks_kb)]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120, check=True)
    return float(run.stdout)


@glibc_only
def test_warm_proposed_inverses_take_no_fresh_pages():
    assert faults_per_inverse() < 1


@glibc_only
@pytest.mark.parametrize("blocks_kb", [(20,), (50, 50, 50), (2, 2), (0.5, 2)],
                         ids=["20K", "3x50K", "2x2K", "0.5K-2K"])
def test_warm_proposed_inverses_take_no_fresh_pages_beside_live_blocks(blocks_kb):
    assert faults_per_inverse(*blocks_kb) < 1


# 10 dropped rows of 9 nodes, all but one holding a zero node, so their
# order 9 (the second order of lane (1, 9), after a restart) is exactly 0.
# Orders 0..9 run 1..9 as 4 lanes and the middle order 5 alone (50
# columns); orders 2..9 as the 4 lanes (2, 9) .. (5, 6) (40 columns).  One
# column per chunk takes the cumsum path; 4 split each lane's rows across
# chunks; 45 put the odd run's middle lane half beside the other lanes,
# where it runs its order twice, and half in a chunk of its own.
@pytest.mark.parametrize("orders", [np.arange(10), np.arange(2, 10)], ids=["odd", "even"])
@pytest.mark.parametrize("columns", [1, 4, 45])
def test_proposed_lanes_are_bit_identical_to_the_scalar_recursion(monkeypatch, orders, columns):
    chunk_pairs(monkeypatch, columns, 9)
    rng = np.random.default_rng(columns)
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    v[3] = 0
    rows = np.array([np.delete(v, i) for i in range(10)])
    expected = [proposed_reference(w, orders) for w in rows]
    assert (np.asarray(expected)[:, -1] == 0).sum() == 9
    bufsize = np.getbufsize()
    assert same_bits(esp_module._proposed(rows, orders), expected)
    assert np.getbufsize() == bufsize  # the kernel's ufunc buffer size is undone


@st.composite
def proposed_requests(draw):
    """Rows (1..12 x m, m in 1..14) of complex nodes with parts in [-2, 2],
    some of them zero; orders 0..m, 0..m-1 or one order; and a chunk size
    of 1 to all of the request's (lane, row) columns."""
    rows, m = draw(st.integers(1, 12)), draw(st.integers(1, 14))
    parts = st.lists(st.floats(-2, 2), min_size=rows * m, max_size=rows * m)
    v = np.reshape(draw(parts), (rows, m)) + 1j * np.reshape(draw(parts), (rows, m))
    v[np.reshape(draw(st.lists(st.booleans(), min_size=rows * m, max_size=rows * m)), v.shape)
      & draw(st.booleans())] = 0
    orders = draw(st.sampled_from([np.arange(m + 1), np.arange(m)]) | st.builds(
        lambda k: np.array([k]), st.integers(0, m)))
    lanes = (np.count_nonzero(orders) + 1) // 2
    return v, orders, draw(st.integers(1, max(1, lanes * rows)))


# 3 rows, orders 0..5: lanes (1, 5), (2, 4) and the middle (3, 3), 9
# columns.  7 a chunk puts the middle lane's first row beside the other
# lanes, where it runs its order twice, and its last two in a chunk alone.
@example((np.arange(1, 16).reshape(3, 5) * (1 - 0.5j), np.arange(6), 7))
@settings(max_examples=150, deadline=None)
@given(proposed_requests())
def test_proposed_writes_each_chunk_where_the_scalar_recursion_puts_it(case):
    v, orders, columns = case
    expected = [proposed_reference(w, orders) for w in v]
    with mock.patch.object(esp_module, "_BLOCK_BYTES", columns * 16 * v.shape[1]):
        with np.errstate(over="ignore", invalid="ignore"):
            out = esp_module._proposed(v, orders)
    assert out.flags.c_contiguous
    assert same_bits(out, expected)


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
    for method in ESP_BACKENDS:
        batch = esp_dropped(ns, [3, 1, 9], method)
        assert batch.shape == (3, 9)
        for row, drop in zip(batch, (3, 1, 9)):
            assert np.array_equal(row, esp_dropped(ns, drop, method))


def test_dropped_sweeps_are_c_ordered(rng):
    # the closed-form inverse builds on these rows, and BLAS products of it
    # round differently in Fortran order
    ns = random_node_set(rng, 9)
    for method in ESP_BACKENDS:
        assert esp_dropped(ns, range(1, 10), method).flags.c_contiguous


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


@pytest.mark.parametrize("budget_rows", [1, 3, 5])
def test_yang_batches_under_a_byte_budget_keep_every_bit(monkeypatch, budget_rows):
    ns = random_node_set(np.random.default_rng(11), 12)
    whole = esp_dropped(ns, range(1, 13), "yang")
    inverse = inverse_closed_form(ns, "yang")
    # a budget for budget_rows dropped rows of 11 nodes: 12 rows in 12, 4 or 3 batches
    monkeypatch.setattr(esp_module, "_YANG_BATCH_BYTES", budget_rows * 32 * 12**2)
    assert same_bits(esp_dropped(ns, range(1, 13), "yang"), whole)
    assert same_bits(inverse_closed_form(ns, "yang"), inverse)


def table_sets():
    """N = 1..40, 64 and 100: random complex nodes, the roots of unity, a
    random set holding a zero node, and random sets whose parts are scaled
    by 2^500, by 2^-500, or the real part by 2^500 and the imaginary part by
    2^-500.  The scaled sets overflow or underflow from a few orders on."""
    rng = np.random.default_rng(19)
    for n in [*range(1, 41), 64, 100]:
        re, im = rng.standard_normal((2, n))
        zero = re + 1j * im
        zero[n // 2] = 0
        yield pytest.param(re + 1j * im, id=f"random-N{n}")
        yield pytest.param(roots(n).values, id=f"roots-N{n}")
        yield pytest.param(zero, id=f"zero-N{n}")
        yield pytest.param((re + 1j * im) * 2.0**500, id=f"huge-N{n}")
        yield pytest.param((re + 1j * im) * 2.0**-500, id=f"tiny-N{n}")
        yield pytest.param(re * 2.0**500 + 1j * im * 2.0**-500, id=f"split-N{n}")


@pytest.mark.parametrize("values", table_sets())
def test_table_kernels_are_bit_identical_to_the_row_major_recursions(monkeypatch, values):
    # traub, mikkawy and yang against the row-major kernels of conftest: the
    # same bits, or OrderOverflowError where the reference holds an inf or NaN
    ns = NodeSet(values)
    n = len(ns)
    full = {method: table_reference(values[None, :], method)[0] for method in ("traub", "yang")}
    checks = [
        *((lambda m=m: esp_all_orders(ns, m), table[-1]) for m, table in full.items()),
        *((lambda m=m: esp_table(ns, m), table) for m, table in full.items()),
    ]
    if n >= 2:
        checks += [
            (lambda m=m: esp_dropped(ns, range(1, n + 1), m),
             table_reference(dropped_rows(values, m), m)[:, -1])
            for m in ("traub", "mikkawy")
        ]
    for call, want in checks:
        if np.isfinite(want).all():
            assert same_bits(call(), want)
        else:
            with pytest.raises(OrderOverflowError):
                call()
    if n >= 2:
        # the batched yang kernel in batches of 7 rows (the last one shorter
        # unless 7 divides N), with every inf and NaN it computes
        monkeypatch.setattr(esp_module, "_YANG_BATCH_BYTES", 7 * 32 * n**2)
        rows = dropped_rows(values, "yang")
        with np.errstate(over="ignore", invalid="ignore"):
            got = esp_module._yang(rows, np.arange(n))
        assert same_bits(got, table_reference(rows, "yang")[:, -1])


@st.composite
def prefix_table_values(draw):
    """1..30 complex nodes with parts in (-2, 2), one of them zero or none,
    the real and imaginary parts each scaled by 2^-500, 1 or 2^500."""
    n = draw(st.integers(1, 30))
    parts = draw(st.lists(st.floats(-2, 2, exclude_min=True, exclude_max=True),
                          min_size=2 * n, max_size=2 * n))
    re_scale, im_scale = (2.0 ** draw(st.sampled_from([-500, 0, 500])) for _ in range(2))
    values = np.array(parts[:n]) * re_scale + 1j * np.array(parts[n:]) * im_scale
    zero = draw(st.integers(-1, n - 1))  # -1: no zero node
    if zero >= 0:
        values[zero] = 0
    return values


@settings(max_examples=80, deadline=None)
@given(prefix_table_values(), st.sampled_from(["traub", "yang"]))
def test_table_rows_are_the_prefix_sweeps_bit_for_bit(values, method):
    # row n of the table is the full-set sweep of the first n nodes, or the
    # table raises where one of those sweeps does
    try:
        ns = NodeSet(values)
    except ValueError:
        return
    sweeps = []
    for n in range(1, len(ns) + 1):
        try:
            sweeps.append(esp_all_orders(NodeSet(values[:n]), method))
        except OrderOverflowError:
            with pytest.raises(OrderOverflowError):
                esp_table(ns, method)
            return
    table = esp_table(ns, method)
    for n, sweep in enumerate(sweeps, 1):
        assert same_bits(table[n, : n + 1], sweep)


@pytest.mark.parametrize(
    "method", [m for m in ESP_BACKENDS if m not in esp_module._TABLES] + ["newton"]
)
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


@pytest.mark.parametrize("values", [[2 - 1j, 0, 3, 0.5j, -4], [5]], ids=["zero-node", "one-node"])
def test_mikkawy_full_set_is_traub_with_the_first_node_last(values):
    # a whole set drops index N+1, past the end, so v_1 takes that slot
    v = np.asarray(values, dtype=np.complex128)
    rolled = esp_all_orders(NodeSet(np.roll(v, -1)), "traub")
    assert same_bits(esp_all_orders(NodeSet(v), "mikkawy"), rolled)
    for order in range(len(v) + 1):
        assert same_bits(esp_single(NodeSet(v), order, "mikkawy"), rolled[order])


@pytest.mark.parametrize("method", ESP_BACKENDS)
def test_one_node_drops_to_the_empty_set(method):
    # the empty set's only ESP is sigma(0, 0) = 1
    one = np.ones(1, dtype=np.complex128)
    assert same_bits(esp_dropped(NodeSet([5]), 1, method), one)
    assert same_bits(esp_dropped([NodeSet([5]), NodeSet([-2j])], 1, method), [one, one])
    assert same_bits(esp_single(NodeSet([5]), 0, method, drop_index=1), 1)
    with pytest.raises(ValueError, match="^drop index must be an integer in 1..1, got 2$"):
        esp_dropped(NodeSet([5]), 2, method)


def test_dropped_proposed_example():
    np.testing.assert_allclose(
        esp_dropped(NodeSet([1, 2, 3]), 2, "proposed"), [1, 4, 3], atol=1e-12
    )


@pytest.mark.parametrize("method", ESP_BACKENDS)
def test_dropped_order_zero_is_one(method):
    seq = esp_dropped(NodeSet([2, 5, 7]), 1, method)
    assert seq[0] == 1


@pytest.mark.parametrize("method", ESP_BACKENDS)
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
    for method in ESP_BACKENDS:
        with pytest.raises(OrderOverflowError):
            esp_all_orders(ns, method)
        with pytest.raises(OrderOverflowError):
            esp_single(ns, 59, method)
    for method in ESP_BACKENDS:
        with pytest.raises(OrderOverflowError):
            esp_dropped(ns, [1, 59], method)
    for method in ("traub", "yang"):
        with pytest.raises(OrderOverflowError):
            esp_table(ns, method)


def test_dropped_unknown_method():
    with pytest.raises(ValueError):
        esp_dropped(NodeSet([1, 2]), 1, "newton")


@pytest.mark.parametrize("method", ESP_BACKENDS)
@pytest.mark.parametrize("drop", [[], range(1, 1), np.array([], dtype=int)],
                         ids=["list", "range", "array"])
def test_dropped_refuses_an_empty_drop_sequence(method, drop):
    ns = NodeSet([1, 2, 3, 4])
    for nodes in (ns, [ns, roots(4)]):
        with pytest.raises(ValueError, match="^drop needs at least one 1-based index"):
            esp_dropped(nodes, drop, method)


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


def test_the_backend_registry_keeps_its_order():
    # the CLI choices and the companion-table columns follow registry order
    assert ESP_BACKENDS == ("proposed", "traub", "yang", "mikkawy")


def test_esp_all_orders_consistency(rng):
    ns = random_node_set(rng, 8)
    top = esp_all_orders(ns, "proposed")
    ref = esp_table(ns, "traub")[-1]
    for a, b in zip(top, ref):
        assert_close(a, b, rel=1e-9)
