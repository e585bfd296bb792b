"""One-dimensional interpolation with super-resolved evaluation.

Pipeline: sample an analytic function on N nodes of a family, solve
V_N^T c = f_N for the polynomial coefficients with a chosen inverse route,
then evaluate the degree-(N-1) polynomial on 2N nodes of the same family
(for roots of unity, the 2N-th roots).  Error is reported as NMSE over the
dense nodes, excluding a fixed number of nodes per boundary for interval
families to keep endpoint blow-up (Runge oscillation, conditioning spikes)
out of the score; on roots of unity there is no boundary, so the whole
domain counts.

Functions are evaluated as complex analytic maps so the pipeline is
well defined on circle nodes as well as interval ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nodes import NodeSet, NodeSpec, generate_nodes
from .stability import nmse
from .vandermonde import build_vandermonde, solve_dual

FUNCTION_KINDS = ("cosine", "tanh", "exponential")

# Steepness/frequency defaults keep each fit nontrivial on [-1, 1]:
# several cosine periods, a sharp tanh edge, a plain exponential.
DEFAULT_T = {"cosine": 2.0, "tanh": 8.0, "exponential": 1.0}

DEFAULT_EXCLUDE_PER_SIDE = 7


@dataclass(frozen=True)
class InterpFunctionSpec:
    """Analytic test function: cos(2 pi t x), tanh(t x), or exp(t x)."""

    kind: str
    t: float | None = None

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise ValueError(
                f"unknown function kind {self.kind!r}; expected one of {FUNCTION_KINDS}"
            )
        t = DEFAULT_T[self.kind] if self.t is None else float(self.t)
        if not np.isfinite(t):
            raise ValueError("parameter t must be finite")
        object.__setattr__(self, "t", t)


def sample_function(spec: InterpFunctionSpec, nodes: NodeSet) -> np.ndarray:
    """Evaluate the chosen function at the nodes (complex-capable)."""
    z = nodes.values
    if spec.kind == "cosine":
        return np.cos(2.0 * np.pi * spec.t * z)
    if spec.kind == "tanh":
        return np.tanh(spec.t * z)
    return np.exp(spec.t * z)


def fit_coefficients(
    nodes: NodeSet,
    samples,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
) -> np.ndarray:
    """Polynomial coefficients c with V^T c = samples."""
    return solve_dual(nodes, samples, inverse_backend, esp_backend)


def evaluate_superresolved(coefficients, dense_nodes: NodeSet) -> np.ndarray:
    """Evaluate sum_m c_m x^m on a dense node set of exactly twice the size."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.complex128))
    if len(dense_nodes) != 2 * c.size:
        raise ValueError(
            f"dense node count {len(dense_nodes)} must be exactly 2 x {c.size}"
        )
    return build_vandermonde(dense_nodes, num_rows=c.size).T @ c


@dataclass
class InterpolationReport:
    function: InterpFunctionSpec
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
    function_spec: InterpFunctionSpec,
    node_kind: str,
    n: int,
    inverse_backend: str = "closed_form",
    esp_backend: str = "proposed",
    exclude_per_side: int = DEFAULT_EXCLUDE_PER_SIDE,
) -> InterpolationReport:
    """Full fit / super-resolve / score pipeline on one node family."""
    if exclude_per_side < 0:
        raise ValueError("exclude_per_side must be non-negative")
    fit_nodes = generate_nodes(NodeSpec(node_kind, n))
    dense_nodes = generate_nodes(NodeSpec(node_kind, 2 * n))
    samples = sample_function(function_spec, fit_nodes)
    coeffs = fit_coefficients(fit_nodes, samples, inverse_backend, esp_backend)
    predictions = evaluate_superresolved(coeffs, dense_nodes)
    reference = sample_function(function_spec, dense_nodes)
    if node_kind == "roots_of_unity":
        applied = 0  # closed curve: no boundary to trim
        included = slice(None)
    else:
        applied = exclude_per_side
        if 2 * n - 2 * applied < 2:
            raise ValueError(
                f"excluding {applied} per side leaves fewer than 2 of {2 * n} points"
            )
        included = slice(applied, 2 * n - applied)
    return InterpolationReport(
        function=function_spec,
        family=node_kind,
        n=n,
        esp_backend=None if inverse_backend == "elimination_baseline" else esp_backend,
        inverse_backend=inverse_backend,
        coefficients=coeffs,
        evaluations=predictions,
        reference=reference,
        nmse_after_exclusion=nmse(predictions[included], reference[included]),
        excluded_count_per_side=applied,
    )
