"""Inverse-quality evaluation via the companion-matrix identity block.

For nodes v_1..v_N the Frobenius companion matrix of the nodal polynomial
satisfies C = V^-T diag(v) V^T, and its left N x (N-1) block is the
shifted identity (ones on the subdiagonal) regardless of the polynomial's
coefficients.  Feeding a CANDIDATE inverse into that product and comparing
the left block against the exact shifted identity therefore measures the
inverse's quality without ever forming a reference inverse:

    M = inv_candidate^T @ diag(v) @ V^T,   NMSE = ||M_left - I_shift|| / ||I_shift||

with Frobenius norms throughout; `companion_identity_nmse` returns that
one float.

The module also packages one experiment: a Monte-Carlo sweep of the
companion NMSE over phase/magnitude noise on perturbed roots of unity.
Sweep cells and trials use seeds derived from the master seed per
(cell, trial), so serial and parallel evaluation orders produce identical
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_ints
from .nodes import NodeSet, perturb_roots_of_unity
from .vandermonde import build_vandermonde, compute_inverse, inverse_esp_backend


def nmse(estimate, reference) -> float:
    """||estimate - reference||_F / ||reference||_F."""
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        raise ValueError("reference norm is zero; NMSE undefined")
    return float(np.linalg.norm(est - ref) / denom)


def companion_identity_nmse(nodes: NodeSet, inverse: np.ndarray) -> float:
    """Score a candidate inverse matrix through the companion identity block."""
    n = len(nodes)
    if inverse.shape != (n, n):
        raise ValueError(
            f"inverse shape {inverse.shape} does not match {n} nodes"
        )
    if n < 2:
        raise ValueError("companion check needs N >= 2")
    v_exact = build_vandermonde(nodes)
    m = (inverse.T * nodes.values[None, :]) @ v_exact.T
    # the exact left block is the shifted identity, ones at (r+1, r)
    return nmse(m[:, : n - 1], np.eye(n, n - 1, k=-1))


@dataclass
class SweepGrid:
    """log10 companion NMSE over a (sigma_shift x sigma_mag) noise grid.

    ``log10_nmse`` holds log10 of the per-cell mean over surviving trials,
    -inf for a zero mean; cells where every trial failed numerically carry
    NaN and are flagged in ``failed``.  ``esp_backend`` is None for a route
    that reads no ESPs.
    """

    n: int
    sigma_shift_axis: np.ndarray
    sigma_mag_axis: np.ndarray
    log10_nmse: np.ndarray
    failed: np.ndarray
    trials_per_cell: int
    seed: int
    esp_backend: str | None
    inverse_backend: str


def derive_seed(master: int, *parts: int) -> int:
    """Stable 64-bit sub-seed for a (cell, trial) coordinate."""
    ss = np.random.SeedSequence(check_ints("seed", [master, *parts], 0))
    return int(ss.generate_state(1, np.uint64)[0])


def noise_sweep(
    n: int,
    sigma_shift_axis,
    sigma_mag_axis,
    trials: int,
    seed: int,
    esp_backend: str = "proposed",
    inverse_backend: str = "closed_form",
) -> SweepGrid:
    """Mean companion NMSE per noise cell, averaged over seeded trials."""
    shift_axis = np.atleast_1d(np.asarray(sigma_shift_axis, dtype=float))
    mag_axis = np.atleast_1d(np.asarray(sigma_mag_axis, dtype=float))
    if shift_axis.size == 0 or mag_axis.size == 0:
        raise ValueError("sweep axes must be non-empty")
    check_ints("trials", trials, 1)  # derive_seed checks the seed
    cells = np.full((shift_axis.size, mag_axis.size), np.nan)
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
    return SweepGrid(
        n=n,
        sigma_shift_axis=shift_axis,
        sigma_mag_axis=mag_axis,
        log10_nmse=cells,
        failed=failed,
        trials_per_cell=trials,
        seed=seed,
        esp_backend=inverse_esp_backend(inverse_backend, esp_backend),
        inverse_backend=inverse_backend,
    )
