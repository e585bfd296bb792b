"""Vandermonde construction and closed-form inversion.

The matrix convention keeps nodes along columns and powers along rows:
entry (r, c) = v_c ** (r - 1); row 1 is all ones.  The dual system
V^T c = f used by the interpolation pipeline is solved through
`solve_dual` so callers never transpose by hand.

Three inverse routes are provided:

* ``closed_form``           entry (i, j) = (-1)**(N-j) / lambda_i *
  sigma_dropped(i, N-j), with sigma_dropped(i, 0) = 1 covering j = N.
  Each row performs one full dropped-ESP sweep with the selected ESP
  backend; sweeps are deliberately recomputed per row (no sharing), which
  is the per-row cost profile being benchmarked.  All rows go to the
  backend in one batched call.
* ``wa_product``            the same inverse factored as W @ A where row i
  of W is (v_i**(N-1), ..., v_i, 1) / lambda_i and A is the unit
  lower-triangular Toeplitz matrix of signed full-set ESPs.
* ``elimination_baseline``  row-pivoted Gaussian elimination (LAPACK LU)
  of the explicitly built matrix; the method-independent reference.

lambda_k = prod_{j != k} (v_k - v_j) are the barycentric denominators;
any |lambda_k| below 1e-300, or an elimination pivot below
1e-14 * max |entry|, raises SingularityError, and `compute_inverse` raises
NumericalError on any inverse entry that overflowed to inf or NaN.
`build_vandermonde` and `stanley_matrix` return plain arrays.

Rows of the closed-form inverse are independent; everything is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, SingularityError
from .esp import ESP_BACKENDS, esp_all_orders, esp_dropped
from .nodes import NodeSet

INVERSE_BACKENDS = ("closed_form", "wa_product", "elimination_baseline")

LAMBDA_FLOOR = 1e-300
PIVOT_RTOL = 1e-14

# Imaginary parts of an inverse built from real nodes must stay below this
# times the Frobenius norm before they may be stripped.
REAL_STRIP_RTOL = 1e-12


@dataclass
class InverseResult:
    matrix: np.ndarray
    esp_backend: str | None
    inverse_backend: str

    def as_real(self, rtol: float = REAL_STRIP_RTOL) -> np.ndarray:
        """Strip imaginary parts after checking they are rounding noise."""
        scale = np.linalg.norm(self.matrix)
        limit = rtol * scale
        worst = np.abs(self.matrix.imag).max()
        if worst > limit:
            raise ValueError(
                f"imaginary parts up to {worst:.3e} exceed {limit:.3e}; "
                "matrix is genuinely complex"
            )
        return self.matrix.real.copy()


def build_vandermonde(nodes: NodeSet, num_rows: int | None = None) -> np.ndarray:
    """Entry (r, c) = v_c ** (r - 1); square by default, R x N when asked.

    The rectangular form backs dense evaluation matrices where more powers
    or fewer are needed than there are nodes.
    """
    n = len(nodes)
    rows = n if num_rows is None else int(num_rows)
    if rows < 1:
        raise ValueError("num_rows must be at least 1")
    return np.vander(nodes.values, rows, increasing=True).T


def barycentric_weights(nodes: NodeSet) -> np.ndarray:
    """lambda_k = prod_{j != k} (v_k - v_j), the nodal-polynomial derivative.

    For the Nth roots of unity these are N * v_k**(N-1), all of magnitude N.
    """
    v = nodes.values
    diff = v[:, None] - v[None, :]
    np.fill_diagonal(diff, 1.0)
    lam = np.prod(diff, axis=1)
    small = np.abs(lam) < LAMBDA_FLOOR
    if small.any():
        k = int(np.argmax(small)) + 1
        raise SingularityError(
            f"barycentric weight {k} underflowed (|lambda| < {LAMBDA_FLOOR:g}); "
            "nodes are numerically coincident"
        )
    return lam


def stanley_matrix(nodes: NodeSet, esp_backend: str = "proposed") -> np.ndarray:
    """Unit lower-triangular Toeplitz factor of the inverse: entry (r, c) is
    a_{r-c} = (-1)**(r-c) * sigma(N, r-c) on and below the diagonal, so
    column 0 holds 1, a_1..a_{N-1}.  Needs a full-set backend."""
    n = len(nodes)
    sig = esp_all_orders(nodes, esp_backend)
    col = ((-1.0) ** np.arange(n)) * sig[:n]
    row = np.zeros(n, dtype=np.complex128)
    row[0] = 1.0
    return scipy.linalg.toeplitz(col, row)


def inverse_closed_form(nodes: NodeSet, esp_backend: str = "proposed") -> InverseResult:
    """Elementwise inverse from dropped-node ESPs and barycentric weights."""
    if esp_backend not in ESP_BACKENDS:
        raise ValueError(
            f"unknown ESP backend {esp_backend!r}; expected one of {ESP_BACKENDS}"
        )
    n = len(nodes)
    lam = barycentric_weights(nodes)
    signs = (-1.0) ** (n - np.arange(1, n + 1))
    if n == 1:
        dropped = np.ones((1, 1), dtype=np.complex128)
    else:
        dropped = esp_dropped(nodes, range(1, n + 1), esp_backend)
    # row i is the sweep without node i; column j wants its order N - j
    out = signs * dropped[:, ::-1] / lam[:, None]
    return InverseResult(matrix=out, esp_backend=esp_backend, inverse_backend="closed_form")


def inverse_wa_product(nodes: NodeSet, esp_backend: str = "proposed") -> InverseResult:
    """The factored route: descending-power rows over lambda, times the
    signed-ESP Toeplitz matrix.  Mathematically equal to `inverse_closed_form`."""
    n = len(nodes)
    lam = barycentric_weights(nodes)
    powers = np.vander(nodes.values, n, increasing=False)  # row i: v_i^{N-1} .. 1
    w = powers / lam[:, None]
    return InverseResult(
        matrix=w @ stanley_matrix(nodes, esp_backend),
        esp_backend=esp_backend,
        inverse_backend="wa_product",
    )


def inverse_elimination_baseline(nodes: NodeSet) -> InverseResult:
    """Row-pivoted elimination inverse of the explicitly built matrix."""
    v_matrix = build_vandermonde(nodes)
    n = len(nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(v_matrix, check_finite=False)
    pivots = np.abs(np.diag(lu))
    floor = PIVOT_RTOL * np.abs(v_matrix).max()
    if pivots.min() < floor:
        raise SingularityError(
            f"elimination pivot {pivots.min():.3e} below {floor:.3e}; "
            "matrix is numerically singular"
        )
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=np.complex128), check_finite=False)
    return InverseResult(matrix=inv, esp_backend=None, inverse_backend="elimination_baseline")


def compute_inverse(
    nodes: NodeSet,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
) -> InverseResult:
    """Dispatch over the three inverse routes; the result is finite or raises."""
    if inverse_backend == "closed_form":
        result = inverse_closed_form(nodes, esp_backend)
    elif inverse_backend == "wa_product":
        result = inverse_wa_product(nodes, esp_backend)
    elif inverse_backend == "elimination_baseline":
        result = inverse_elimination_baseline(nodes)
    else:
        raise ValueError(
            f"unknown inverse backend {inverse_backend!r}; expected one of {INVERSE_BACKENDS}"
        )
    bad = np.count_nonzero(~np.isfinite(result.matrix))
    if bad:
        raise NumericalError(
            f"{inverse_backend} inverse: {bad} of {result.matrix.size} entries "
            "overflowed to inf or NaN"
        )
    return result


def solve_dual(
    nodes: NodeSet,
    rhs,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
) -> np.ndarray:
    """Solve V^T c = rhs, i.e. c = (V^-1)^T rhs, with the chosen inverse."""
    b = np.atleast_1d(np.asarray(rhs, dtype=np.complex128))
    if b.shape != (len(nodes),):
        raise ValueError(f"rhs must have length {len(nodes)}, got shape {b.shape}")
    inv = compute_inverse(nodes, inverse_backend, esp_backend)
    return inv.matrix.T @ b
