import numpy as np
import pytest

from vandinv import NodeSet


def random_node_set(rng, n, scale=1.0):
    """Random complex nodes, redrawn until they clear the distinctness floor."""
    while True:
        v = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        try:
            return NodeSet(v)
        except ValueError:
            continue


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
