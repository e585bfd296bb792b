"""Elementary symmetric polynomial (ESP) kernels.

The j'th ESP over nodes v_1..v_N is the sum over all size-j index subsets
of the product of the selected nodes, written sigma(N, j) below.  All
public outputs use this unordered convention (sigma(N, 0) = 1).

Every ESP result is one request to one backend of `_KERNELS`, a row rule
and a kernel: node rows (R x m) and ascending orders in 0..m in, an R x
len(orders) array out.  `_esp` checks a request once (backend name, drop
range) and runs the kernel on the rows its rule gathers, one per drop index;
a whole set is the row that drops index N+1, which names no node.  Nodes are
validated once, as a `NodeSet`.  The public functions are `esp_single` (one
order), `esp_all_orders`, `esp_dropped` (of one set, or stacked for a batch
of `nodes._each`, in one kernel call) and `esp_table` (traub or yang; (N+1)
x (N+1), lower triangular).  Results are plain complex arrays, and every
public result is finite: `_esp` and `esp_table` pass the entries they
return through `check_finite`, which raises `OrderOverflowError` on one
that overflowed to inf or NaN.  All functions are pure.

* ``proposed`` - a per-order balanced recursion.  For a target order n the
  paper iterates f_i(v_d) = v_d * (C_{i-1} - (n - i) * f_{i-1}(v_d)) with
  f_0(v) = v and C_i = sum_d f_i(v_d), and returns C_{n-1} / n!.  The
  kernel runs it rescaled exactly by (n-1)! / (n-1-i)!, so it forms no n!:
  g_0(v) = v, g_i(v_d) = v_d * (G_{i-1} / (n - i) - g_{i-1}(v_d)),
  G_i = sum_d g_i(v_d), sigma = G_{n-1} / n.  Every step keeps the full
  node set in play, which is what makes this recursion stable on symmetric
  sets such as the roots of unity.  Cost is O(n * N) per order, so O(N^3)
  per sweep and O(N^4) per closed-form inverse.  One kernel runs every
  (row, order) pair of a call, each pair its own recursion.  The orders
  >= 1 of a request form one run lo..hi, and lane j runs order lo + j,
  then order hi - j, back to back in one column; the middle order of an
  odd run has a lane of its own.  A two-order lane takes lo + hi - 2
  steps, as many as every other, so no column steps past its orders.  The
  columns are the (lane, row) pairs, sorted by lane, then row, and go in
  node-major chunks of at most 512 KB, views of one working array per
  call; each chunk writes its sums straight into the C-ordered result
  (see `_proposed`).  The results are the paper's; only the Python
  dispatch and the memory passes are shared.  A zero node drops out of the
  recursion, so the full product of a set holding one is returned as
  exactly 0 rather than as the recursion's rounding residue.
* ``traub``    - the classic triangular table sigma(n, j) =
  sigma(n-1, j) + v_n * sigma(n-1, j-1) over node prefixes; O(N^2).  Its
  one orders-major (orders x rows) array is yielded after each step: the
  kernel keeps the last, the table stacks copies of all.  37 dropped rows
  at N = 37 take ~0.11 ms, 100 at N = 100 ~1.1 ms (2-vCPU Xeon).
* ``yang``     - a prefix-block expansion of the same table: group each
  subset by its run of trailing consecutive nodes, giving
  sigma(n, j) = sum_k (v_n * ... * v_{n-k+1}) * sigma(n-k-1, j-k) where the
  k = j = n term contributes the bare product of all n nodes; O(N^3),
  orders-major too, the tables of dropped rows built in batches of
  `_YANG_BATCH_BYTES`: 37 at N = 37 take ~2.8 ms, one table ~1.6 ms.
* ``mikkawy``  - traub's kernel on its own dropped rows, slots 2..N once the
  node to remove is swapped into slot 1: ESPs of the other N-1; O(N^2).  A
  whole set's slot N+1 is past the end, so its row is v_2..v_N, v_1.
"""

from __future__ import annotations

import numpy as np

from .errors import OrderOverflowError, check_finite, check_ints, check_name
from .nodes import NodeSet, _each

# Bytes of the (nodes x columns) complex array one proposed chunk holds: the
# 666 columns of a closed-form inverse at N = 37 (375 KB) go in one chunk.
_BLOCK_BYTES = 512 * 1024

# numpy's ufunc buffer size, in elements, while proposed chunks run.  At the
# default 8192 numpy buffers c - g, whose node sums c repeat along every row
# of g, and that subtract took twice as long as at 512 (~22 vs ~11 us on the
# 36 x 666 chunk at N = 37, 2-vCPU Xeon).  Elementwise bits do not depend on it.
_UFUNC_BUFSIZE = 512

_YANG_BATCH_BYTES = 64 * 2**20  # yang tables of 32 (m+1)^2 B a row: N <= 100 in one

_NEG_ZERO = complex(-0.0, -0.0)  # the exact identity of complex addition


def _node_sum(f: np.ndarray) -> np.ndarray:
    """Sum over the node axis 0 strictly in node order.

    Reducing over the outer axis, numpy adds the node rows one after the
    other, as a cumsum would; the initial -0 keeps a sum of negative zeros
    negative.  A single column would be reduced pairwise, so it takes
    the cumsum."""
    if f.shape[1] == 1:
        return np.cumsum(f, axis=0)[-1]
    return np.add.reduce(f, axis=0, initial=_NEG_ZERO)


def _divide(z, counts):
    """z / counts in place, the real and imaginary parts apart on the float
    view: numpy's complex / float takes the complex-division path and can
    differ by an ulp.  ``counts`` holds one count per part."""
    d = z.view(np.float64)
    np.divide(d, counts, out=d)


def _proposed_kernel(vp, g, first, second):
    """sigma(m, a) and sigma(m, b) for every column of vp (nodes x columns),
    one lane's orders a = first <= b = second; g, of vp's shape, holds the
    g_i.  The columns are sorted by lane, so by ascending a: the lanes with
    a < b share a + b, and an a = b lane comes last.

    A column runs order a, then order b, as one stepping: at step t = a it
    stores its sum, restarts from g_0 and G_0 and divides by a + b - 1 - t
    instead of a - t.  Each lane then ends on step a + b - 2, the chunk's
    last.  An a = b lane alone ends on step a - 1; beside other lanes it
    runs its order twice, to the same bits."""
    a, b = int(first[0]), int(second[0])
    steps = a + b - 2 if a < b else a - 1
    edges = np.searchsorted(first, np.arange(1, steps + 2)).tolist()
    base = np.repeat(first.astype(np.float64), 2)  # per real and imaginary part
    np.copyto(g, vp)
    c0 = _node_sum(g)
    c = c0.copy()
    low = np.empty_like(c)
    for t in range(1, steps + 1):
        s, e = edges[t - 1], edges[t]  # the lane whose first order is t
        if s < e:
            low[s:e] = c[s:e]
            _divide(low[s:e], t)  # sigma(m, t) = G_{t-1} / t
            g[:, s:e] = vp[:, s:e]
            c[s:e] = c0[s:e]
            base[2 * s : 2 * e] = t + second[s] - 1
        _divide(c, base - t)  # c is G / (n - i) from here
        # operand order as in v * (G / (n - i) - g): numpy's fused complex
        # multiply rounds differently with the operands swapped
        np.subtract(c, g, out=g)
        np.multiply(vp, g, out=g)
        c = _node_sum(g)
    _divide(c, np.repeat(second.astype(np.float64), 2))
    return low, c


def _proposed(v, orders):
    """sigma(m, n) for every row of v (rows x m) and order n of ``orders``,
    ascending and contiguous ([k], 0..N-1 or 0..N), as a C-ordered (rows x
    orders) array.  Lane j of the orders lo..hi >= 1 runs lo + j and hi - j;
    the (lane, row) columns run in chunks of at most _BLOCK_BYTES of node
    values, gathered from one contiguous copy of v.T, and each chunk writes
    its two sums straight into the result, the second last: a middle order
    whose lane ran alone has no first sum.

    The chunks share one working array, allocated before the column arrays
    and the result, and freed on return while the result lives on.  Below
    them it cannot merge with the free top of the heap, so glibc keeps its
    pages for the next call.  Allocated after them, it could land on top of
    the heap, which glibc hands back to the OS when freed, and the next call
    faults its pages in again (~170 at N = 37).  Nothing is kept between calls."""
    rows, m = v.shape
    run = orders[orders > 0]
    lanes = (run.size + 1) // 2
    step = max(1, _BLOCK_BYTES // (16 * max(m, 1)))
    work = np.empty(2 * m * min(step, lanes * rows), dtype=np.complex128)
    vt = v.T.copy()  # take gathers from a C-order array in place
    first = np.repeat(run[:lanes], rows)
    second = np.repeat(run[::-1][:lanes], rows)
    col_rows = np.tile(np.arange(rows), lanes)
    out = np.ones((rows, orders.size), dtype=np.complex128)  # sigma(m, 0) = 1
    with np.errstate():  # whose exit restores the buffer size
        np.setbufsize(_UFUNC_BUFSIZE)
        for s in range(0, first.size, step):
            chunk = slice(s, s + step)
            cols = col_rows[chunk]
            vp, g = work[: 2 * m * cols.size].reshape(2, m, cols.size)
            np.take(vt, cols, axis=1, out=vp, mode="clip")  # "raise" fills a copy
            low, high = _proposed_kernel(vp, g, first[chunk], second[chunk])
            out[cols, first[chunk] - orders[0]] = low
            out[cols, second[chunk] - orders[0]] = high
    # a zero node's g_i stays 0, so an order above a row's count of nonzero
    # nodes is exactly 0; the recursion reaches it only up to rounding
    out[orders > np.count_nonzero(v, axis=1)[:, None]] = 0
    return out


def _traub_steps(w):
    """sigma(n, 0..m) of every row of w (rows x m) over its first n nodes, as
    one orders-major (m+1, rows) array, yielded after each step n = 0..m."""
    wt, col = w.T.copy(), np.zeros((w.shape[1] + 1, w.shape[0]), dtype=np.complex128)
    col[0] = 1.0
    yield col
    for n in range(1, w.shape[1] + 1):
        col[1 : n + 1] += wt[n - 1] * col[0:n]  # node first: products round by operand order
        yield col


def _traub(w, orders):
    for col in _traub_steps(w):  # the last step, in C order as _KERNELS says
        pass
    return col[orders].T.copy()


def _yang_tables(w):
    """The yang table of every row of w (rows x m), a (rows, m+1, m+1) view.

    block[n, k] = v_n * v_{n-1} * ... * v_{n-k+1}, taken by real
    arithmetic without fused multiply-adds, which is how numpy multiplies
    complex scalars; its array multiply is fused and rounds differently."""
    m = w.shape[1]
    block = np.zeros((m + 1, m + 1, w.shape[0]), dtype=np.complex128)
    block[:, 0] = 1.0
    for k in range(m):
        b, x = block[k + 1 :, k], w.T[: m - k]
        block[k + 1 :, k + 1].real = b.real * x.real - b.imag * x.imag
        block[k + 1 :, k + 1].imag = b.real * x.imag + b.imag * x.real
    t = np.zeros_like(block)
    t[0, 0] = 1.0
    for n in range(1, m + 1):
        for k in range(n):
            t[n, k:n] += block[n, k] * t[n - 1 - k, : n - k]
        t[n, n] = block[n, n]  # the whole prefix taken as one block
    return t.transpose(2, 0, 1)


def _yang(w, orders):
    """yang's last table row per row of w; rows are independent, so batches keep the bits."""
    step = max(1, _YANG_BATCH_BYTES // (32 * (w.shape[1] + 1) ** 2))
    rows = [_yang_tables(w[i : i + step])[:, -1] for i in range(0, len(w), step)]
    return np.concatenate(rows).take(orders, axis=1)


def _without(keep, drop):  # the others, in order
    return keep + (keep >= drop)


def _swapped(keep, drop):  # v_1 swapped into the dropped node's slot, the first left out
    return (keep + 1) * (keep + 1 != drop)


# Each backend is a row rule and a kernel.  The rule maps slots 0..m-1 and a
# column of 0-based drop indices to the node columns of one row per index: m
# = N-1, or m = N for a whole set, whose index N names no node.  The kernel
# maps node rows (R x m) and ascending orders in 0..m to sigma, shape (R,
# len(orders)), in C order: BLAS products of the closed-form inverse built on
# it round by layout.  The orders >= 1 of a request are one run lo..hi (one
# order, 1..N or 1..N-1), which ``proposed`` pairs into lanes.
_KERNELS = {
    "proposed": (_without, _proposed),
    "traub": (_without, _traub),
    "yang": (_without, _yang),
    "mikkawy": (_swapped, _traub),
}

ESP_BACKENDS = tuple(_KERNELS)

_TABLES = {"traub": lambda w: np.stack([c.copy() for c in _traub_steps(w)]).transpose(2, 0, 1),
           "yang": _yang_tables}  # (rows, m+1, m+1) tables


def esp_table(nodes: NodeSet, method: str) -> np.ndarray:
    """Table t[n, j] = sigma(n, j) over the first n nodes, n, j = 0..N; zero
    above the diagonal.  ``traub`` adds one node at a time, ``yang``
    assembles each row from earlier rows, block contributions in ascending k.
    """
    check_name("ESP table backend", method, _TABLES)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _TABLES[method](nodes.values[None, :])[0]
    return check_finite(f"{method} table", table, error=OrderOverflowError)


def _esp(v, method: str, drop, orders) -> np.ndarray:
    """sigma at the ascending ``orders`` for each node set of v (sets x N),
    over the whole set (``drop`` None, the row rule's index N+1) or without
    each 1-based index in ``drop``: shape (sets, len(orders)) for None or one
    index, (sets, len(drop), len(orders)) for a sequence.  A one-node set
    drops to the empty set, whose every kernel returns sigma(0, 0) = 1.  All
    rows go to the kernel in one call; only the returned entries must be finite."""
    check_name("ESP backend", method, ESP_BACKENDS)
    n = v.shape[1]
    if np.size(drop) == 0:
        raise ValueError("drop needs at least one 1-based index, got an empty sequence")
    rule, kernel = _KERNELS[method]
    m = n - (drop is not None)  # the nodes of each row
    at = np.reshape(n + 1 if drop is None else check_ints("drop index", drop, 1, n), (-1, 1)) - 1
    v = v[:, rule(np.arange(m), at)].reshape(len(v) * at.size, m)  # -1 fails on size 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(v, orders)
    span = orders[0] if orders.size == 1 else f"{orders[0]}..{orders[-1]}"
    what = f"{method} sigma({m}, {span})"
    if np.ndim(drop):
        out = out.reshape(-1, at.size, orders.size)
    return check_finite(what, out, error=OrderOverflowError)


def esp_dropped(nodes: NodeSet, drop_index, method: str = "proposed") -> np.ndarray:
    """Dropped-node sweeps: sigma over the reduced set for orders 0..N-1;
    a one-node set drops to the empty set, whose sweep is sigma(0, 0) = 1.
    ``drop_index`` is 1-based.  A non-empty sequence of indices returns one sweep per
    index, shape (len, N), from one batched backend call.  Of a batch of node
    sets (see `nodes._each`) the sweeps stack along a leading axis, and the
    rows of every set go to that one call.
    """
    v = np.asarray(_each(lambda s: s.values, nodes))  # (N,) of a set, (sets, N) of a batch
    out = _esp(np.atleast_2d(v), method, drop_index, np.arange(v.shape[-1]))
    return out[0] if v.ndim == 1 else out


def esp_single(
    nodes: NodeSet, order: int, method: str = "proposed", drop_index: int | None = None
) -> complex:
    """Full-set sigma(N, order); with a 1-based ``drop_index``, sigma of
    order ``order`` over the other N - 1 nodes.  Order 0 returns 1.
    ``proposed`` runs this order alone.  Only the returned entry must be
    finite: the other orders of a traub or yang sweep it is read from may
    overflow.
    """
    check_ints("order", order, 0, len(nodes) - (drop_index is not None))
    return complex(_esp(nodes.values[None], method, drop_index, np.array([order]))[0, 0])


def esp_all_orders(nodes: NodeSet, method: str = "proposed") -> np.ndarray:
    """Full-set ESPs for every order 0..N as one array."""
    return _esp(nodes.values[None], method, None, np.arange(len(nodes) + 1))[0]

