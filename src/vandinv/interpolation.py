"""One-dimensional interpolation with super-resolved evaluation.

Pipeline: sample an analytic function on N nodes of a family, solve
V_N^T c = f_N for the polynomial coefficients with a chosen inverse route,
then evaluate the degree-(N-1) polynomial on 2N nodes of the same family
(for roots of unity, the 2N-th roots).  Error is reported as NMSE over the
dense nodes, excluding a fixed number of nodes per boundary for interval
families to keep endpoint blow-up (Runge oscillation, conditioning spikes)
out of the score; on roots of unity there is no boundary, so the whole
domain counts.

The test functions sit in one table by name (``FUNCTION_KINDS``), each with
a default parameter t.  They are evaluated as complex analytic maps so the
pipeline is well defined on circle nodes as well as interval ones.
`interp_experiment(fn, node_kind, n, t=None, ...)` checks the name and t,
then samples the function on the fit and dense nodes.  A non-finite sample,
fit, prediction or NMSE (exp(800 x)) raises a `NumericalError` naming the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_finite, check_given, check_ints, check_name
from .nodes import NodeSet, generate_nodes
from .stability import nmse
from .vandermonde import build_vandermonde, compute_inverse, inverse_esp_backend

# Each function maps to its default t and f(t, z): cos(2 pi t z), tanh(t z)
# or exp(t z).  The defaults keep each fit nontrivial on [-1, 1]: several
# cosine periods, a sharp tanh edge, a plain exponential.
_FUNCTIONS = {
    "cosine": (2.0, lambda t, z: np.cos(2.0 * np.pi * t * z)),
    "tanh": (8.0, lambda t, z: np.tanh(t * z)),
    "exponential": (1.0, lambda t, z: np.exp(t * z)),
}

FUNCTION_KINDS = tuple(_FUNCTIONS)

DEFAULT_EXCLUDE_PER_SIDE = 7


def fit_coefficients(
    nodes: NodeSet,
    samples,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
) -> np.ndarray:
    """Polynomial coefficients c with V^T c = samples, i.e. c = (V^-1)^T
    samples, with the chosen inverse route; finite, or NumericalError.  A
    sample that is inf or NaN is a ValueError."""
    f = np.atleast_1d(np.asarray(samples, dtype=np.complex128))
    if f.shape != (len(nodes),):
        raise ValueError(f"samples must have length {len(nodes)}, got shape {f.shape}")
    check_given("sample", f)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = compute_inverse(nodes, inverse_backend, esp_backend).T @ f
    return check_finite("polynomial coefficients", coeffs)


def evaluate_superresolved(coefficients, dense_nodes: NodeSet) -> np.ndarray:
    """Evaluate sum_m c_m x^m on a dense node set of exactly twice the size;
    finite, or NumericalError.  A coefficient that is inf or NaN is a ValueError."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.complex128))
    if len(dense_nodes) != 2 * c.size:
        raise ValueError(f"dense node count {len(dense_nodes)} must be exactly 2 x {c.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = build_vandermonde(dense_nodes, num_rows=c.size).T @ check_given("coefficient", c)
    return check_finite("super-resolved values", values)


@dataclass
class InterpolationReport:
    fn: str
    t: float
    family: str
    n: int
    esp_backend: str | None
    inverse_backend: str
    coefficients: np.ndarray
    evaluations: np.ndarray
    reference: np.ndarray
    nmse_after_exclusion: float
    excluded_count_per_side: int


def interp_experiment(
    fn: str,
    node_kind: str,
    n: int,
    t: float | None = None,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
    exclude_per_side: int = DEFAULT_EXCLUDE_PER_SIDE,
) -> InterpolationReport:
    """Full fit / super-resolve / score pipeline on one node family; ``t``
    defaults to the function's own."""
    check_name("function kind", fn, FUNCTION_KINDS)
    default_t, f = _FUNCTIONS[fn]
    t = default_t if t is None else float(t)
    if not np.isfinite(t):
        raise ValueError("parameter t must be finite")
    check_ints("exclude_per_side", exclude_per_side, 0)
    fit_nodes = generate_nodes(node_kind, n)
    dense_nodes = generate_nodes(node_kind, 2 * n)
    applied = 0 if node_kind == "roots_of_unity" else exclude_per_side  # a circle has no ends
    if 2 * n - 2 * applied < 2:
        raise ValueError(
            f"excluding {applied} per side leaves fewer than 2 of {2 * n} points"
        )
    included = slice(applied, 2 * n - applied)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        samples, reference = f(t, fit_nodes.values), f(t, dense_nodes.values)
    run = f"{fn}, t = {t:g}, {n} {node_kind} nodes"
    check_finite(f"non-finite result: {run}", np.concatenate((samples, reference)))
    try:
        coeffs = fit_coefficients(fit_nodes, samples, inverse_backend, esp_backend)
        predictions = evaluate_superresolved(coeffs, dense_nodes)
        score = nmse(predictions[included], reference[included])
    except NumericalError as exc:  # name the run, as the samples check does
        raise type(exc)(f"{run}: {exc}") from exc
    return InterpolationReport(
        fn=fn,
        t=t,
        family=node_kind,
        n=n,
        esp_backend=inverse_esp_backend(inverse_backend, esp_backend),
        inverse_backend=inverse_backend,
        coefficients=coeffs,
        evaluations=predictions,
        reference=reference,
        nmse_after_exclusion=score,
        excluded_count_per_side=applied,
    )
