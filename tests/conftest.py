import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from vandinv import (
    NodeSet,
    NumericalError,
    SingularityError,
    build_vandermonde,
    companion_identity_nmse,
    compute_inverse,
    derive_seed,
    perturb_roots_of_unity,
)
from vandinv.errors import check_finite, check_ints
from vandinv.vandermonde import PIVOT_RTOL

_ORACLE_MAX_NODES = 25


def random_node_set(rng, n, scale=1.0):
    """Random complex nodes, redrawn until they clear the distinctness floor."""
    while True:
        v = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        try:
            return NodeSet(v)
        except ValueError:
            continue


def esp_bruteforce_oracle(nodes: NodeSet, order: int) -> complex:
    """Exact subset enumeration; the reference for every other backend.

    Guarded at N <= 25 because the subset count is combinatorial.
    """
    v = nodes.values
    if v.size > _ORACLE_MAX_NODES:
        raise ValueError(
            f"oracle refuses N = {v.size} > {_ORACLE_MAX_NODES} (combinatorial blowup)"
        )
    check_ints("order", order, 0, v.size)
    if order == 0:
        return 1.0 + 0j
    total = 0j
    for combo in itertools.combinations(v.tolist(), order):
        total += math.prod(combo)
    return total


def elimination_reference(nodes: NodeSet):
    """The elimination baseline through scipy's getrf and getrs, its pivot
    floor read off the U diagonal; the reference for
    `inverse_elimination_baseline`, which reads that diagonal only when its
    inverse cannot prove the floor.  Returns the inverse and the smallest
    pivot over the floor, or raises the route's NumericalError."""
    v_matrix = build_vandermonde(nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(v_matrix, check_finite=False)
    pivot = np.abs(np.diag(lu)).min()
    floor = PIVOT_RTOL * np.abs(v_matrix).max()
    if pivot < floor:
        raise SingularityError(
            f"elimination pivot {pivot:.3e} below {floor:.3e}; matrix is numerically singular"
        )
    eye = np.eye(len(nodes), dtype=np.complex128)
    inverse = scipy.linalg.lu_solve((lu, piv), eye, check_finite=False)
    return check_finite("inverse matrix", inverse), pivot / floor


# The row-major table kernels that esp.py ran before it laid the traub and
# yang recursions out orders-major, copied verbatim: the references that
# layout must match bit for bit.

def _traub_steps(w):
    """The running traub row of every row of w (rows x m): after step n it
    holds sigma(n, 0..n) over the first n nodes, zeros beyond."""
    row = np.zeros((w.shape[0], w.shape[1] + 1), dtype=np.complex128)
    row[:, 0] = 1.0
    yield row
    for n in range(1, w.shape[1] + 1):
        row[:, 1 : n + 1] = row[:, 1 : n + 1] + w[:, n - 1, None] * row[:, 0:n]
        yield row


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


def table_reference(rows, method):
    """The traub (also mikkawy's) or yang tables of node rows (R x m) by the
    row-major kernels, shape (R, m+1, m+1); overflow is left as inf or NaN."""
    rows = np.asarray(rows, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "yang":
            return _yang_tables(rows)
        return np.stack([row.copy() for row in _traub_steps(rows)], axis=1)


def dropped_rows(values, method):
    """One row per node i of ``values``: the others, in order, or for mikkawy
    node i swapped into the first slot and left out."""
    v = np.asarray(values, dtype=np.complex128)
    rows = []
    for i in range(v.size):
        w = v.copy()
        if method == "mikkawy":
            w[[0, i]] = w[[i, 0]]
            rows.append(w[1:])
        else:
            rows.append(np.delete(w, i))
    return np.array(rows)


def sweep_reference(n, shift_axis, mag_axis, trials, seed, esp_backend, inverse_backend):
    """The noise sweep one set at a time, as `noise_sweep` ran before it drew
    every set first and inverted them in batches: per cell, the mean
    companion NMSE over the trials whose draw and inverse raise no
    NumericalError.  Returns the log10 grid and the failed mask."""
    cells = np.full((len(shift_axis), len(mag_axis)), np.nan)
    failed = np.zeros_like(cells, dtype=bool)
    for a, s_shift in enumerate(shift_axis):
        for b, s_mag in enumerate(mag_axis):
            survived = []
            for trial in range(trials):
                sub = derive_seed(seed, a, b, trial)
                try:
                    nodes = perturb_roots_of_unity(n, float(s_shift), float(s_mag), sub)
                    inv = compute_inverse(nodes, inverse_backend, esp_backend)
                    survived.append(companion_identity_nmse(nodes, inv))
                except NumericalError:
                    continue
            if survived:
                mean = sum(survived) / len(survived)
                cells[a, b] = math.log10(mean) if mean > 0 else -math.inf
            else:
                failed[a, b] = True
    return cells, failed


def assert_close(actual, expected, rel=1e-10, abs_floor=1e-12):
    """|actual - expected| <= max(rel * |expected|, abs_floor).

    The absolute floor keeps the check meaningful when the expected value
    sits near zero (where a pure relative bound is unsatisfiable).
    """
    actual = complex(actual)
    expected = complex(expected)
    err = abs(actual - expected)
    tol = max(rel * abs(expected), abs_floor)
    assert err <= tol, f"{actual} vs {expected}: err {err:.3e} > tol {tol:.3e}"


def unit_circle_deviation(values):
    """max over orders of | |sigma| - 1 |.  Every dropped-node ESP of the
    roots of unity lies on the unit circle, so the exact answer is 0."""
    return float(np.abs(np.abs(values) - 1.0).max())


def matrix_rel_gap(a, b):
    """Largest entrywise gap relative to the magnitude of the first matrix.

    Individual entries can be produced by cancellation far below the matrix
    scale, so per-entry relative comparison of two algebraically equal
    routes is not meaningful in doubles; this is the honest matrix-level
    measure.
    """
    scale = max(1.0, float(np.abs(a).max()))
    return float(np.abs(a - b).max()) / scale


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
