"""Vandermonde construction and closed-form inversion.

The matrix convention keeps nodes along columns and powers along rows:
entry (r, c) = v_c ** (r - 1); row 1 is all ones.

Three inverse routes, which `compute_inverse` looks up by name and runs on
a `NodeSet` or on a batch of them (`nodes._each`), one inverse per set:

* ``closed_form``           entry (i, j) = (-1)**(N-j) / lambda_i *
  sigma_dropped(i, N-j), with sigma_dropped(i, 0) = 1 covering j = N.
  Each row performs one full dropped-ESP sweep with the selected ESP
  backend; sweeps are deliberately recomputed per row (no sharing), which
  is the per-row cost profile being benchmarked.  The rows of every set
  go to the backend in one batched call.
* ``wa_product``            the same inverse factored as W @ A where row i
  of W is (v_i**(N-1), ..., v_i, 1) / lambda_i and A is the unit
  lower-triangular Toeplitz matrix of signed full-set ESPs.
* ``elimination_baseline``  row-pivoted Gaussian elimination (LAPACK gesv)
  of the explicitly built matrix; the method-independent reference.  scipy
  is loaded, for getrf's U diagonal, only where neither the inverse nor a
  QR of the matrix proves the pivot floor.

Every route returns the N x N complex inverse as a plain array, as do
`build_vandermonde` and `stanley_matrix`; for a batch, `compute_inverse`
returns a list of them on every route, as `inverse_closed_form` does.
`real_part` strips the imaginary parts of an inverse of real nodes, and
`inverse_esp_backend` names the ESP backend a route reads, None for the baseline.

lambda_k = prod_{j != k} (v_k - v_j) are the barycentric denominators;
a |lambda_k| below 1e-300 or of 2^1021 (~2.2e307) or more, past which a
complex division by it loses the quotient, or an elimination pivot
below 1e-14 * max |entry|, raises SingularityError (naming the weight's
index).  Each route, called directly or through `compute_inverse`, and
`build_vandermonde` return a finite matrix or raise NumericalError:
`check_finite` counts any entry that overflowed to inf or NaN.
`compute_inverse` starts every failure message with the route, and a batch
raises if and only if one of its sets would.  Everything is pure.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericalError, SingularityError, check_finite, check_ints, check_name
from .esp import ESP_BACKENDS, _esp, esp_dropped
from .nodes import NodeSet, _each

LAMBDA_FLOOR = 1e-300
PIVOT_RTOL = 1e-14
# Pivoting on |re| + |im| keeps multipliers within sqrt(2) and takes an entry
# of modulus >= 1/sqrt(2) of its column's largest, so every pivot is both
# >= 1 / (sqrt(2) ||V^-1||_inf) and, as step k's column is column k of V less
# an oblique projection onto columns 1..k-1, >= |R_kk| / sqrt(2 (N - k + 1))
# for R of a QR of V; where either clears the floor by this factor (for
# rounding), getrf's U diagonal need not be read.
PIVOT_PROOF_FACTOR = 2.0

# Imaginary parts of an inverse built from real nodes must stay below this
# times the Frobenius norm before they may be stripped.
REAL_STRIP_RTOL = 1e-12


def real_part(matrix: np.ndarray) -> np.ndarray:
    """Strip imaginary parts after checking they are rounding noise."""
    # times 2^-e, e the largest magnitude's exponent (>= -1021: 2^-e finite), the
    # squares stay in range; exact, so the plain norm's bits where its squares did
    e = max(np.frexp(np.abs(matrix).max())[1], -1021)
    limit = np.ldexp(REAL_STRIP_RTOL * np.linalg.norm(matrix * np.ldexp(1.0, -e)), e)
    worst = np.abs(matrix.imag).max()
    if worst > limit:
        raise ValueError(
            f"imaginary parts up to {worst:.3e} exceed {limit:.3e}; "
            "matrix is genuinely complex"
        )
    return matrix.real.copy()


def inverse_esp_backend(inverse_backend: str, esp_backend: str) -> str | None:
    """The ESP backend an inverse route reads: None for the elimination
    baseline, which uses no ESPs."""
    return None if inverse_backend == "elimination_baseline" else esp_backend


def build_vandermonde(nodes: NodeSet, num_rows: int | None = None) -> np.ndarray:
    """Entry (r, c) = v_c ** (r - 1); square by default, R x N when asked.

    The rectangular form backs dense evaluation matrices where more powers
    or fewer are needed than there are nodes.
    """
    rows = len(nodes) if num_rows is None else check_ints("num_rows", num_rows, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = np.vander(nodes.values, rows, increasing=True).T
    return check_finite("Vandermonde matrix", matrix)


def barycentric_weights(nodes: NodeSet) -> np.ndarray:
    """lambda_k = prod_{j != k} (v_k - v_j), the nodal-polynomial derivative.

    For the Nth roots of unity these are N * v_k**(N-1), all of magnitude N.
    """
    v = nodes.values
    with np.errstate(over="ignore", invalid="ignore"):
        diff = v[:, None] - v[None, :]
        np.fill_diagonal(diff, 1.0)
        lam = np.prod(diff, axis=1)
        # numpy divides by lam through 1 / (re + im * (im / re)), re the
        # larger part; from |lam| = 2^1021 on that goes subnormal or 0
        mag = np.abs(lam)
    for mask, reason in (
        (~(mag < 2.0**1021), "overflowed the range of a complex division "
         "(|lambda| >= 2^1021); the nodes span too wide a range"),
        (mag < LAMBDA_FLOOR, f"underflowed (|lambda| < {LAMBDA_FLOOR:g}); "
         "nodes are numerically coincident"),
    ):
        if mask.any():
            raise SingularityError(f"barycentric weight {int(np.argmax(mask)) + 1} {reason}")
    return lam


def stanley_matrix(nodes: NodeSet, esp_backend: str = "proposed") -> np.ndarray:
    """Unit lower-triangular Toeplitz factor of the inverse: entry (r, c) is
    a_{r-c} = (-1)**(r-c) * sigma(N, r-c) on and below the diagonal, so
    column 0 holds 1, a_1..a_{N-1}.  Needs a full-set backend; sigma(N, N)
    is not asked for, so it need not be finite."""
    n = len(nodes)
    sig = _esp(nodes.values[None], esp_backend, None, np.arange(n))[0]
    col = ((-1.0) ** np.arange(n)) * sig
    vals = np.concatenate((np.zeros(n - 1, dtype=np.complex128), col))
    # row r is vals[r : r + n] reversed: a_r .. a_0, then zeros
    return np.lib.stride_tricks.sliding_window_view(vals, n)[:, ::-1].copy()


def inverse_closed_form(nodes, esp_backend: str = "proposed"):
    """Elementwise inverse from dropped-node ESPs and barycentric weights; at
    N = 1 the empty set's sigma(0, 0) = 1 over lambda = 1 gives [[1]].  Of a
    batch of node sets (see `nodes._each`), the list of inverses, slices of
    one stack from one ESP backend call; each has the bits it has alone, and
    the batch raises if and only if one of its sets would."""
    lam = np.array(_each(barycentric_weights, nodes))
    n = lam.shape[-1]
    signs = (-1.0) ** (n - np.arange(1, n + 1))
    dropped = esp_dropped(nodes, range(1, n + 1), esp_backend)
    # row i is the sweep without node i; column j wants its order N - j
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = check_finite("inverse matrix", signs * dropped[..., ::-1] / lam[..., None])
    return inverse if lam.ndim == 1 else list(inverse)


def inverse_wa_product(nodes: NodeSet, esp_backend: str = "proposed") -> np.ndarray:
    """The factored route: descending-power rows over lambda, times the
    signed-ESP Toeplitz matrix.  Mathematically equal to `inverse_closed_form`."""
    lam = barycentric_weights(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.vander(nodes.values)  # row i: v_i^{N-1} .. 1
        w = powers / lam[:, None]
    return check_finite("inverse matrix", w @ stanley_matrix(nodes, esp_backend))


def inverse_elimination_baseline(nodes: NodeSet) -> np.ndarray:
    """Row-pivoted elimination inverse of the explicitly built matrix."""
    v_matrix = build_vandermonde(nodes)
    floor = PIVOT_RTOL * np.abs(v_matrix).max()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inverse = np.linalg.inv(v_matrix)  # LAPACK gesv: getrf, then getrs on I
            bound = np.sqrt(2) * np.abs(inverse).sum(axis=1).max() * floor
            if not bound * PIVOT_PROOF_FACTOR <= 1:  # NaN included: try a QR's bound
                r_diag = np.abs(np.linalg.qr(v_matrix, mode="r").diagonal())
                bound = floor / (r_diag / np.sqrt(2.0 * np.arange(len(r_diag), 0, -1))).min()
    except np.linalg.LinAlgError:  # an exactly zero pivot, which the check refuses
        bound = np.inf
    if not bound * PIVOT_PROOF_FACTOR <= 1:  # NaN included
        import scipy.linalg  # loaded only for getrf's U diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, _ = scipy.linalg.lu_factor(v_matrix, check_finite=False)
        pivots = np.abs(np.diag(lu))
        if pivots.min() < floor:
            raise SingularityError(
                f"elimination pivot {pivots.min():.3e} below {floor:.3e}; "
                "matrix is numerically singular"
            )
    # Fortran order, as getrs writes it: BLAS products round by memory order
    return check_finite("inverse matrix", np.asfortranarray(inverse))


# Each route takes a `NodeSet` or a batch as given and looks its function up
# when called, so that a rebinding (as the benchmark's tracer makes) is seen.
_ROUTES = {
    "closed_form": lambda nodes, esp_backend: inverse_closed_form(nodes, esp_backend),
    "wa_product": lambda nodes, esp_backend: _each(inverse_wa_product, nodes, esp_backend),
    "elimination_baseline": lambda nodes, _: _each(inverse_elimination_baseline, nodes),
}

INVERSE_BACKENDS = tuple(_ROUTES)


def compute_inverse(nodes, inverse_backend: str = "closed_form", esp_backend: str = "proposed"):
    """Invert a `NodeSet` by the named route, or each set of a batch into a
    list, each with the bits and memory order it has alone; a NumericalError's
    message starts with the route.  An unknown ESP backend is refused on every
    route, the elimination baseline, which reads none, included."""
    check_name("inverse backend", inverse_backend, INVERSE_BACKENDS)
    check_name("ESP backend", esp_backend, ESP_BACKENDS)
    try:
        return _ROUTES[inverse_backend](nodes, esp_backend)
    except NumericalError as exc:
        raise type(exc)(f"{inverse_backend} inverse: {exc}") from None
