"""Elementary symmetric polynomial (ESP) kernels.

The j'th ESP over nodes v_1..v_N is the sum over all size-j index subsets
of the product of the selected nodes, written sigma(N, j) below.  All
public outputs use this unordered convention (sigma(N, 0) = 1).

Four algorithms sit in one registry of functions on raw complex arrays,
each giving full-set ESPs (except mikkawy) and the dropped-node sweeps of
a list of drop rows.  Nodes are validated once, as a `NodeSet`; a reduced
set only deletes an entry, which keeps its gaps and lowers its tolerance.
Results are plain complex arrays (the tables are (N+1) x (N+1) and lower
triangular), and every public result is finite: an entry that overflows
to inf or NaN raises `OrderOverflowError`.  All functions are pure.

* ``proposed`` - a per-order balanced recursion.  For a target order n it
  iterates f_i(v_d) = v_d * (C_{i-1} - (n - i) * f_{i-1}(v_d)) with
  f_0(v) = v and C_i = sum_d f_i(v_d), and returns C_{n-1} / n!.  The sum
  over ordered distinct index tuples equals n! times the unordered ESP,
  which is why the factorial division appears.  Every step keeps the full
  node set in play, which is what makes this recursion stable on symmetric
  sets such as the roots of unity.  Cost is O(n * N) per order, so O(N^3)
  per sweep and O(N^4) per closed-form inverse.  One kernel runs a batch
  of (row, order) pairs as a (rows x orders x nodes) array, each pair its
  own recursion, in blocks of at most 256 KB: the work is the paper's,
  only the Python dispatch is shared.
* ``traub``    - the classic triangular table sigma(n, j) =
  sigma(n-1, j) + v_n * sigma(n-1, j-1) over node prefixes; O(N^2).
* ``yang``     - a prefix-block expansion of the same table: group each
  subset by its run of trailing consecutive nodes, giving
  sigma(n, j) = sum_k (v_n * ... * v_{n-k+1}) * sigma(n-k-1, j-k) where the
  k = j = n term contributes the bare product of all n nodes; O(N^3).
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

# Largest order whose factorial still fits a double; beyond this the
# unscaled recursion cannot finish and the scaled mode must be used.
MAX_UNSCALED_ORDER = 170

# Bytes of the (rows x orders x nodes) complex array one proposed block holds.
_BLOCK_BYTES = 256 * 1024

_ORACLE_MAX_NODES = 25


def _finite(values, what: str):
    """values, unless an entry overflowed to inf or NaN."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise OrderOverflowError(
            f"{what}: {bad} of {np.size(values)} entries overflowed double precision"
        )
    return values


def _node_sum(f: np.ndarray, compensated: bool) -> np.ndarray:
    """Sum over the last (node) axis in index order, or Kahan-compensated;
    cumsum keeps the strict left-to-right association at native speed."""
    if not compensated:
        return np.cumsum(f, axis=-1)[..., -1]
    total = carry = np.zeros(f.shape[:-1], dtype=np.complex128)
    for d in range(f.shape[-1]):
        y = f[..., d] - carry
        t = total + y
        carry, total = (t - total) - y, t
    return total


def _proposed_kernel(v, orders, scaled, compensated):
    """C_{n-1} for every row of v (rows x m) and ascending order n; finished
    orders leave the batch, so step i touches only orders n > i."""
    f = np.repeat(v[:, None, :], orders.size, axis=1)
    c = _node_sum(f, compensated)
    out, done = np.empty_like(c), 0
    for i in range(1, int(orders[-1])):
        live = int(np.searchsorted(orders, i, side="right"))
        out[:, done:live] = c[:, : live - done]
        f, c, done = f[:, live - done :], c[:, live - done :], live
        # operand order as in v * (C - (n - i) * f): numpy's fused complex
        # multiply rounds differently with the operands swapped
        np.multiply((orders[done:] - i)[:, None], f, out=f)
        np.subtract(c[..., None], f, out=f)
        np.multiply(v[:, None, :], f, out=f)
        if scaled:
            f /= i + 1
        c = _node_sum(f, compensated)
    out[:, done:] = c
    return out


def _proposed(v, orders, scaled=False, compensated=False):
    """sigma(m, n) for every row of v (rows x m) and ascending order n >= 1,
    in blocks of rows (or of orders, for one large row) of _BLOCK_BYTES."""
    rows, m = v.shape
    out = np.empty((rows, orders.size), dtype=np.complex128)
    pairs = max(1, _BLOCK_BYTES // (16 * m))
    row_step, order_step = max(1, pairs // orders.size), min(orders.size, pairs)
    for r in range(0, rows, row_step):
        for o in range(0, orders.size, order_step):
            out[r : r + row_step, o : o + order_step] = _proposed_kernel(
                v[r : r + row_step], orders[o : o + order_step], scaled, compensated
            )
    if not scaled:
        # separate real and imaginary float divisions: numpy's complex / float
        # takes the complex-division path and can differ by an ulp
        fact = np.array([float(math.factorial(n)) for n in orders])
        out.real /= fact
        out.imag /= fact
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


def _yang_table(v):
    n_total = v.size
    t = np.zeros((n_total + 1, n_total + 1), dtype=np.complex128)
    t[0, 0] = 1.0
    for n in range(1, n_total + 1):
        row = np.zeros(n + 1, dtype=np.complex128)
        block = 1.0 + 0j
        for k in range(n):
            row[k:n] += block * t[n - 1 - k, 0 : n - k]
            block *= v[n - 1 - k]
        row[n] = block  # the whole prefix taken as one block
        t[n, : n + 1] = row
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
        return sweeps(np.array([np.delete(v, r) for r in rows]))

    return _Backend(name, lambda v: sweeps(v[None, :])[0], dropped)


_BACKENDS = {
    b.name: b
    for b in (
        _backend("proposed", _proposed_sweeps),
        _backend("traub", _traub_sweeps),
        _backend("yang", lambda w: np.array([_yang_table(x)[-1] for x in w])),
        _Backend("mikkawy", None, _mikkawy_dropped),
    )
}

ESP_BACKENDS = tuple(_BACKENDS)

# Backends that can produce full-set ESPs (mikkawy only drops).
FULL_SET_ESP_BACKENDS = tuple(b.name for b in _BACKENDS.values() if b.full_set)


def esp_proposed(
    nodes: NodeSet, order: int, scaled: bool = False, compensated: bool = False
) -> complex:
    """sigma(N, order) via the balanced per-order recursion.

    ``scaled`` folds the final division by n! into the iteration (each step
    divides by i + 1), extending the usable order range past 170 without
    changing results for moderate orders.  ``compensated`` switches the
    per-step node sum to Kahan accumulation; the default is a plain
    node-order sum.
    """
    v = nodes.values
    n = int(order)
    if not 1 <= n <= v.size:
        raise ValueError(f"order {order} outside 1..{v.size}")
    if not scaled and n > MAX_UNSCALED_ORDER:
        raise OrderOverflowError(
            f"order {n} needs {n}! which overflows double precision; use scaled=True"
        )
    value = _proposed(v[None, :], np.array([n]), scaled, compensated)[0, 0]
    return complex(_finite(value, f"sigma(N, {n})"))


def esp_traub_table(nodes: NodeSet) -> np.ndarray:
    """Table t[n, j] = sigma(n, j) over the first n nodes, n, j = 0..N, by
    the one-node-at-a-time recursion; zero above the diagonal."""
    rows = [row[0].copy() for row in _traub_steps(nodes.values[None, :])]
    return _finite(np.array(rows), "traub table")


def esp_yang_table(nodes: NodeSet) -> np.ndarray:
    """The same table by the prefix-block expansion; each row is assembled
    from earlier rows, block contributions in ascending k."""
    return _finite(_yang_table(nodes.values), "yang table")


def esp_dropped(nodes: NodeSet, drop_index, method: str = "proposed") -> np.ndarray:
    """Dropped-node sweeps: sigma over the reduced set for orders 0..N-1.

    ``drop_index`` is 1-based.  A sequence of indices returns one sweep per
    index, shape (len, N), from one batched backend call.
    """
    if method not in ESP_BACKENDS:
        raise ValueError(f"unknown ESP backend {method!r}; expected one of {ESP_BACKENDS}")
    n_total = len(nodes)
    if n_total < 2:
        raise ValueError("dropping a node needs at least 2 nodes")
    rows = np.atleast_1d(drop_index)
    bad = (rows < 1) | (rows > n_total)
    if bad.any():
        raise ValueError(f"drop index {rows[bad][0]} outside 1..{n_total}")
    sweeps = _BACKENDS[method].dropped(nodes.values, rows - 1)
    _finite(sweeps, f"{method} dropped sweep")
    return sweeps if np.ndim(drop_index) else sweeps[0]


def esp_single(nodes: NodeSet, order: int, method: str = "proposed") -> complex:
    """Full-set sigma(N, order) via a full-set backend; order 0 returns 1."""
    if not 0 <= order <= len(nodes):
        raise ValueError(f"order {order} outside 0..{len(nodes)}")
    return complex(esp_all_orders(nodes, method)[order])


def esp_all_orders(nodes: NodeSet, method: str = "proposed") -> np.ndarray:
    """Full-set ESPs for every order 0..N as one array."""
    if method not in FULL_SET_ESP_BACKENDS:
        raise ValueError(
            f"full-set ESPs need one of {FULL_SET_ESP_BACKENDS}, got {method!r}"
        )
    return _finite(_BACKENDS[method].full_set(nodes.values), f"{method} sweep")


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

