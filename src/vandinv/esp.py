"""Elementary symmetric polynomial (ESP) kernels.

The j'th ESP over nodes v_1..v_N is the sum over all size-j index subsets
of the product of the selected nodes, written sigma(N, j) below.  All
public outputs use this unordered convention (sigma(N, 0) = 1).

Four algorithms sit in one registry of functions on raw complex arrays,
each giving full-set ESPs (except mikkawy) and the dropped-node sweeps of
a list of drop rows.  Nodes are validated once, as a `NodeSet`; a reduced
set only deletes an entry, which keeps its gaps and lowers its tolerance.
Each result has one public function, the backend picked by name:
`esp_single` (one order), `esp_all_orders`, `esp_dropped` and `esp_table`
(traub or yang; (N+1) x (N+1), lower triangular).  Results are plain
complex arrays, and every public result is finite: an entry that
overflows to inf or NaN raises `OrderOverflowError`.  All functions are
pure.

* ``proposed`` - a per-order balanced recursion.  For a target order n it
  iterates f_i(v_d) = v_d * (C_{i-1} - (n - i) * f_{i-1}(v_d)) with
  f_0(v) = v and C_i = sum_d f_i(v_d), and returns C_{n-1} / n!.  The sum
  over ordered distinct index tuples equals n! times the unordered ESP,
  which is why the factorial division appears.  Every step keeps the full
  node set in play, which is what makes this recursion stable on symmetric
  sets such as the roots of unity.  Cost is O(n * N) per order, so O(N^3)
  per sweep and O(N^4) per closed-form inverse.  One kernel runs every
  (row, order) pair of a call, each pair its own recursion: the pairs are
  sorted by order, then row, and go in chunks of at most 256 KB laid out
  node-major, as (nodes x pairs) arrays.  The work is the paper's; only
  the Python dispatch and the memory passes are shared.  A zero node
  drops out of the recursion, so the full product of a set holding one is
  returned as exactly 0 rather than as the recursion's rounding residue.
  Sweeps whose top order passes 170, where n! leaves double range, run
  scaled: each step divides by i + 1 instead of dividing by n! at the end.
* ``traub``    - the classic triangular table sigma(n, j) =
  sigma(n-1, j) + v_n * sigma(n-1, j-1) over node prefixes; O(N^2).
* ``yang``     - a prefix-block expansion of the same table: group each
  subset by its run of trailing consecutive nodes, giving
  sigma(n, j) = sum_k (v_n * ... * v_{n-k+1}) * sigma(n-k-1, j-k) where the
  k = j = n term contributes the bare product of all n nodes; O(N^3),
  with the tables of all dropped rows built as one batch.
* ``mikkawy``  - a dropped-node recursion: the node to remove is swapped
  into the leading slot and the table recursion is run over slots 2..N,
  so the output row holds ESPs of the remaining N-1 nodes; O(N^2).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import OrderOverflowError
from .nodes import NodeSet

# Largest order whose factorial still fits a double; proposed sweeps past
# it run the scaled recursion.
MAX_UNSCALED_ORDER = 170

# Bytes of the (nodes x pairs) complex array one proposed chunk holds.
_BLOCK_BYTES = 256 * 1024

_NEG_ZERO = complex(-0.0, -0.0)  # the exact identity of complex addition

_ORACLE_MAX_NODES = 25


def _finite(values, what: str):
    """values, unless an entry overflowed to inf or NaN.

    The backends run under np.errstate(over="ignore", invalid="ignore"), as
    this check reports the overflow."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise OrderOverflowError(
            f"{what}: {bad} of {np.size(values)} entries overflowed double precision"
        )
    return values


def _node_sum(f: np.ndarray) -> np.ndarray:
    """Sum over the node axis 0 strictly in node order.

    Reducing over the outer axis, numpy adds the node rows one after the
    other, as a cumsum would; the initial -0 keeps a sum of negative zeros
    negative.  A single pair column would be reduced pairwise, so it takes
    the cumsum."""
    if f.shape[1] == 1:
        return np.cumsum(f, axis=0)[-1]
    return np.add.reduce(f, axis=0, initial=_NEG_ZERO)


def _proposed_kernel(vp, orders, scaled):
    """C_{n-1} for every pair column of vp (nodes x pairs), the columns sorted
    by ascending order n; finished orders are a prefix of the columns and are
    sliced off, so step i touches only pairs with n > i."""
    f, k = vp.copy(), orders.astype(np.complex128)
    c = _node_sum(f)
    out, done = np.empty_like(c), 0
    for i in range(1, int(orders[-1])):
        live = int(np.searchsorted(orders, i, side="right"))
        out[done:live] = c[: live - done]
        f, vp, c, done = f[:, live - done :], vp[:, live - done :], c[live - done :], live
        # operand order as in v * (C - (n - i) * f): numpy's fused complex
        # multiply rounds differently with the operands swapped
        np.multiply(k[done:] - i, f, out=f)
        np.subtract(c, f, out=f)
        np.multiply(vp, f, out=f)
        if scaled:
            f /= i + 1
        c = _node_sum(f)
    out[done:] = c
    return out


def _proposed(v, orders, scaled=False):
    """sigma(m, n) for every row of v (rows x m) and ascending order n >= 1.

    ``scaled`` divides each step by i + 1 instead of dividing by n! at the
    end, which keeps orders past 170 in range.  Every (row, order) pair is
    its own recursion.  The pairs run sorted by order, then row, in chunks
    of at most _BLOCK_BYTES of node values."""
    rows, m = v.shape
    pair_orders = np.repeat(orders, rows)
    pair_rows = np.tile(np.arange(rows), orders.size)
    out = np.empty(pair_orders.size, dtype=np.complex128)
    step = max(1, _BLOCK_BYTES // (16 * m))
    for s in range(0, out.size, step):
        chunk = slice(s, s + step)
        vp = v.T.take(pair_rows[chunk], axis=1)  # a C-ordered (nodes x pairs) copy
        out[chunk] = _proposed_kernel(vp, pair_orders[chunk], scaled)
    out = out.reshape(orders.size, rows).T
    if not scaled:
        # separate real and imaginary float divisions: numpy's complex / float
        # takes the complex-division path and can differ by an ulp
        fact = np.array([float(math.factorial(n)) for n in orders])
        out.real /= fact
        out.imag /= fact
    # a zero node's f_i stays 0, so an order above a row's count of nonzero
    # nodes is exactly 0; the recursion reaches it only up to rounding
    out[orders > np.count_nonzero(v, axis=1)[:, None]] = 0
    return out


def _proposed_sweeps(v):
    """sigma(m, 0..m) for every row of v (rows x m); scaled past order 170."""
    m = v.shape[1]
    out = np.ones((v.shape[0], m + 1), dtype=np.complex128)
    out[:, 1:] = _proposed(v, np.arange(1, m + 1), scaled=m > MAX_UNSCALED_ORDER)
    return out


def _traub_steps(w):
    """The running traub row of every row of w (rows x m): after step n it
    holds sigma(n, 0..n) over the first n nodes, zeros beyond."""
    row = np.zeros((w.shape[0], w.shape[1] + 1), dtype=np.complex128)
    row[:, 0] = 1.0
    yield row
    for n in range(1, w.shape[1] + 1):
        row[:, 1 : n + 1] = row[:, 1 : n + 1] + w[:, n - 1, None] * row[:, 0:n]
        yield row


def _traub_sweeps(w):
    return list(_traub_steps(w))[-1]  # every step yields the same running row


def _traub_tables(w):
    """The traub table of every row of w (rows x m), shape (rows, m+1, m+1)."""
    return np.stack([row.copy() for row in _traub_steps(w)], axis=1)


def _yang_tables(w):
    """The yang table of every row of w (rows x m), shape (rows, m+1, m+1).

    block[:, n, k] = v_n * v_{n-1} * ... * v_{n-k+1}, taken by real
    arithmetic without fused multiply-adds, which is how numpy multiplies
    complex scalars; its array multiply is fused and rounds differently."""
    r, m = w.shape
    block = np.zeros((r, m + 1, m + 1), dtype=np.complex128)
    block[:, :, 0] = 1.0
    for k in range(m):
        b, x = block[:, k + 1 :, k], w[:, : m - k]
        block[:, k + 1 :, k + 1].real = b.real * x.real - b.imag * x.imag
        block[:, k + 1 :, k + 1].imag = b.real * x.imag + b.imag * x.real
    t = np.zeros_like(block)
    t[:, 0, 0] = 1.0
    for n in range(1, m + 1):
        for k in range(n):
            t[:, n, k:n] += block[:, n, k, None] * t[:, n - 1 - k, : n - k]
        t[:, n, n] = block[:, n, n]  # the whole prefix taken as one block
    return t


def _mikkawy_dropped(v, rows):
    """Each dropped node is swapped into the leading slot, which the table
    recursion never reads: the original first node visits the dropped slot."""
    w = np.repeat(v[None, :], len(rows), axis=0)
    at = np.arange(len(rows))
    w[at, 0], w[at, rows] = w[at, rows], w[at, 0]
    return _traub_sweeps(w[:, 1:])


class _Backend(NamedTuple):
    name: str
    full_set: Callable | None  # nodes (N,) -> sigma(N, 0..N); None: drops only
    dropped: Callable  # nodes (N,), 0-based rows (R,) -> (R, N) sweeps


def _backend(name, sweeps):
    """An entry whose sweeps (rows x m -> rows x m+1) serve both paths."""
    def dropped(v, rows):
        keep = np.arange(v.size - 1)
        return sweeps(v[keep + (keep >= rows[:, None])])  # row r lacks node r

    return _Backend(name, lambda v: sweeps(v[None, :])[0], dropped)


_BACKENDS = {
    b.name: b
    for b in (
        _backend("proposed", _proposed_sweeps),
        _backend("traub", _traub_sweeps),
        _backend("yang", lambda w: _yang_tables(w)[:, -1]),
        _Backend("mikkawy", None, _mikkawy_dropped),
    )
}

ESP_BACKENDS = tuple(_BACKENDS)

# Backends that can produce full-set ESPs (mikkawy only drops).
FULL_SET_ESP_BACKENDS = tuple(b.name for b in _BACKENDS.values() if b.full_set)

_TABLES = {"traub": _traub_tables, "yang": _yang_tables}


def esp_table(nodes: NodeSet, method: str) -> np.ndarray:
    """Table t[n, j] = sigma(n, j) over the first n nodes, n, j = 0..N; zero
    above the diagonal.  ``traub`` adds one node at a time, ``yang``
    assembles each row from earlier rows, block contributions in ascending k.
    """
    if method not in _TABLES:
        raise ValueError(
            f"no ESP table for backend {method!r}; expected one of {tuple(_TABLES)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        table = _TABLES[method](nodes.values[None, :])[0]
    return _finite(table, f"{method} table")


def _dropped_sweeps(nodes: NodeSet, drop_index, method: str) -> np.ndarray:
    if method not in ESP_BACKENDS:
        raise ValueError(f"unknown ESP backend {method!r}; expected one of {ESP_BACKENDS}")
    n_total = len(nodes)
    if n_total < 2:
        raise ValueError("dropping a node needs at least 2 nodes")
    rows = np.atleast_1d(drop_index)
    bad = (rows < 1) | (rows > n_total)
    if bad.any():
        raise ValueError(f"drop index {rows[bad][0]} outside 1..{n_total}")
    with np.errstate(over="ignore", invalid="ignore"):
        sweeps = _BACKENDS[method].dropped(nodes.values, rows - 1)
    return sweeps if np.ndim(drop_index) else sweeps[0]


def _full_sweep(nodes: NodeSet, method: str) -> np.ndarray:
    if method not in FULL_SET_ESP_BACKENDS:
        if method in ESP_BACKENDS:
            why = "computes dropped-node ESPs only, so it needs a drop index"
        else:
            why = "is unknown"
        raise ValueError(
            f"ESP backend {method!r} {why}; full-set ESPs need one of {FULL_SET_ESP_BACKENDS}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _BACKENDS[method].full_set(nodes.values)


def esp_dropped(nodes: NodeSet, drop_index, method: str = "proposed") -> np.ndarray:
    """Dropped-node sweeps: sigma over the reduced set for orders 0..N-1.

    ``drop_index`` is 1-based.  A sequence of indices returns one sweep per
    index, shape (len, N), from one batched backend call.
    """
    return _finite(_dropped_sweeps(nodes, drop_index, method), f"{method} dropped sweep")


def esp_single(
    nodes: NodeSet, order: int, method: str = "proposed", drop_index: int | None = None
) -> complex:
    """Full-set sigma(N, order) via a full-set backend; with a 1-based
    ``drop_index``, sigma of order ``order`` over the other N - 1 nodes via
    any backend.  Order 0 returns 1.

    Only the returned entry must be finite: the other orders of the sweep it
    is read from may overflow.
    """
    top = len(nodes) - (drop_index is not None)
    if not 0 <= order <= top:
        raise ValueError(f"order {order} outside 0..{top}")
    if drop_index is None:
        sweep = _full_sweep(nodes, method)
    else:
        sweep = _dropped_sweeps(nodes, int(drop_index), method)
    return complex(_finite(sweep[order], f"{method} sigma({top}, {order})"))


def esp_all_orders(nodes: NodeSet, method: str = "proposed") -> np.ndarray:
    """Full-set ESPs for every order 0..N as one array."""
    return _finite(_full_sweep(nodes, method), f"{method} sweep")


def esp_bruteforce_oracle(nodes: NodeSet, order: int) -> complex:
    """Exact subset enumeration; the reference for every other backend.

    Guarded at N <= 25 because the subset count is combinatorial.
    """
    v = nodes.values
    if v.size > _ORACLE_MAX_NODES:
        raise ValueError(
            f"oracle refuses N = {v.size} > {_ORACLE_MAX_NODES} (combinatorial blowup)"
        )
    n = int(order)
    if not 0 <= n <= v.size:
        raise ValueError(f"order {order} outside 0..{v.size}")
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for combo in itertools.combinations(v.tolist(), n):
        total += math.prod(combo)
    return total

