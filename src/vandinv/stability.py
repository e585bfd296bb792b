"""Inverse-quality evaluation via the companion-matrix identity block.

For nodes v_1..v_N the Frobenius companion matrix of the nodal polynomial
satisfies C = V^-T diag(v) V^T, and its left N x (N-1) block is the
shifted identity (ones on the subdiagonal) regardless of the polynomial's
coefficients.  Feeding a CANDIDATE inverse into that product and comparing
the left block against the exact shifted identity therefore measures the
inverse's quality without ever forming a reference inverse:

    M = inv_candidate^T @ diag(v) @ V^T,   NMSE = ||M_left - I_shift|| / ||I_shift||

with Frobenius norms throughout; `companion_identity_nmse` returns that
one float, or raises `NumericalError` where it leaves double range.

The module also packages one experiment: a Monte-Carlo sweep of the
companion NMSE over phase/magnitude noise on perturbed roots of unity.
Each trial draws its nodes from a seed derived from the master seed per
(cell, trial).  The sweep draws every trial's nodes first, then inverts
them in batches: the closed form runs the dropped rows of a batch's sets
through one ESP kernel call, under `_BATCH_BYTES` of node rows; the other
routes take one set at a time.  Each set's inverse has the bits it has
alone, and a batch that fails runs again set by set, so the grid is the
one a per-trial loop gives.  A trial fails where its draw, its inverse or
its score raises `NumericalError`, and is left out of its cell's mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_finite, check_ints
from .nodes import NodeSet, perturb_roots_of_unity
from .vandermonde import (
    build_vandermonde,
    compute_inverse,
    inverse_closed_form,
    inverse_esp_backend,
)

# Bytes of node rows one batch of closed-form inverses sends to the ESP
# kernel: 6 sets at N = 37, one from N = 65 on.  Memory then stays flat
# whatever the count of cells and trials.
_BATCH_BYTES = 128 * 1024


def nmse(estimate, reference) -> float:
    """||estimate - reference||_F / ||reference||_F; finite, or NumericalError."""
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past double range fails below
        denom = np.linalg.norm(ref)
        if denom == 0.0:
            raise ValueError("reference norm is zero; NMSE undefined")
        return check_finite("NMSE", float(np.linalg.norm(est - ref) / denom))


def companion_identity_nmse(nodes: NodeSet, inverse: np.ndarray) -> float:
    """Score a candidate inverse matrix through the companion identity block."""
    n = len(nodes)
    if inverse.shape != (n, n):
        raise ValueError(
            f"inverse shape {inverse.shape} does not match {n} nodes"
        )
    if n < 2:
        raise ValueError("companion check needs N >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # a score past double range fails in nmse
        m = (inverse.T * nodes.values[None, :]) @ build_vandermonde(nodes).T
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


def _scores(batch, inverse_backend, esp_backend):
    """Companion NMSE of each node set of ``batch``, None where its inverse
    fails numerically; a batch that fails runs again set by set."""
    try:
        if inverse_backend == "closed_form":  # the batch's rows in one ESP kernel call
            inverses = inverse_closed_form(batch, esp_backend)
        else:  # the other routes run in batches of one
            inverses = [compute_inverse(batch[0], inverse_backend, esp_backend)]
        return [companion_identity_nmse(nodes, inv) for nodes, inv in zip(batch, inverses)]
    except NumericalError:
        if len(batch) == 1:
            return [None]
        return [x for nodes in batch for x in _scores([nodes], inverse_backend, esp_backend)]


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
    cells = np.full((shift_axis.size, mag_axis.size), np.nan)  # NaN: every trial failed
    drawn, sets = [], []  # cell and nodes of each trial whose draw did not collide
    for a, b in np.ndindex(cells.shape):
        sigmas = float(shift_axis[a]), float(mag_axis[b])
        for trial in range(trials):
            try:
                sets.append(perturb_roots_of_unity(n, *sigmas, derive_seed(seed, a, b, trial)))
            except NumericalError:
                continue
            drawn.append((a, b))
    size = max(1, _BATCH_BYTES // (16 * n * (n - 1))) if inverse_backend == "closed_form" else 1
    survived = {}
    for s in range(0, len(sets), size):
        scores = _scores(sets[s : s + size], inverse_backend, esp_backend)
        for cell, score in zip(drawn[s : s + size], scores):
            if score is not None:
                survived.setdefault(cell, []).append(score)
    for cell, kept in survived.items():
        mean = sum(kept) / len(kept)
        cells[cell] = math.log10(mean) if mean > 0 else -math.inf
    return SweepGrid(
        n=n,
        sigma_shift_axis=shift_axis,
        sigma_mag_axis=mag_axis,
        log10_nmse=cells,
        failed=np.isnan(cells),
        trials_per_cell=trials,
        seed=seed,
        esp_backend=inverse_esp_backend(inverse_backend, esp_backend),
        inverse_backend=inverse_backend,
    )
