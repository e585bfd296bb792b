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
(cell, trial).  The sweep draws each batch of at most `_BATCH_BYTES` of
node rows just before `compute_inverse` inverts it; the closed form runs a
batch's dropped rows in one ESP kernel call.  Each set's inverse has the
bits it has alone, and a batch that fails runs again set by set, so the
grid is the one a per-trial loop gives.  A trial whose draw, inverse or
score raises `NumericalError` fails and is left out of its cell's mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_finite, check_given, check_ints
from .nodes import NodeSet, perturb_roots_of_unity
from .vandermonde import build_vandermonde, compute_inverse, inverse_esp_backend

# Bytes of node rows in one batch of inverses, which the closed form sends
# to the ESP kernel in one call: 6 sets at N = 37, one from N = 65 on.  One
# batch of draws and its inverses are alive at a time; beyond them the sweep
# keeps one score per surviving trial.
_BATCH_BYTES = 128 * 1024


def nmse(estimate, reference) -> float:
    """||estimate - reference||_F / ||reference||_F; finite, or NumericalError."""
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past double range fails below
        denom = np.linalg.norm(ref)
        if denom == 0.0:  # of a nonzero reference, its squares underflowed
            raise (NumericalError("NMSE: the nonzero reference's norm underflowed to 0")
                   if ref.any() else ValueError("reference norm is zero; NMSE undefined"))
        return check_finite("NMSE", float(np.linalg.norm(est - ref) / denom))


def companion_identity_nmse(nodes: NodeSet, inverse: np.ndarray) -> float:
    """Score a candidate inverse (finite, else ValueError) through the companion identity block,
    which grows with cond(V): it judges an inverse only where that is small, near |v| = 1."""
    n, inverse = len(nodes), np.asarray(inverse)
    if inverse.shape != (n, n):
        raise ValueError(f"inverse shape {inverse.shape} does not match {n} nodes")
    if n < 2:
        raise ValueError("companion check needs N >= 2")
    check_given("inverse entry", inverse)
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
        inverses = compute_inverse(batch, inverse_backend, esp_backend)
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
    shifts, mags = (np.atleast_1d(np.asarray(a, float)) for a in (sigma_shift_axis, sigma_mag_axis))
    for name, axis in (("sigma_shift", shifts), ("sigma_mag", mags)):
        if axis.ndim != 1 or axis.size == 0 or not np.all(np.isfinite(axis) & (axis >= 0)):
            raise ValueError(f"{name} axis must be a non-empty 1-D sequence of finite, "
                             f"non-negative sigmas, got {axis.tolist()}")
    check_ints("node count", n, 2)  # as perturb does, before the batch size divides by n - 1
    check_ints("trials", trials, 1)  # derive_seed checks the seed
    cells = np.full((shifts.size, mags.size), np.nan)  # NaN: every trial failed

    def draws():  # (cell, nodes) of each trial whose draw does not fail
        for a, b, t in np.ndindex(*cells.shape, trials):  # cell (a, b), trial t
            try:
                nodes = perturb_roots_of_unity(n, shifts[a], mags[b], derive_seed(seed, a, b, t))
            except NumericalError:
                continue
            yield (a, b), nodes

    size, stream, survived = max(1, _BATCH_BYTES // (16 * n * (n - 1))), draws(), {}
    while batch := list(itertools.islice(stream, size)):  # drawn just before it is inverted
        drawn, sets = zip(*batch)
        for cell, score in zip(drawn, _scores(sets, inverse_backend, esp_backend)):
            if score is not None:
                survived.setdefault(cell, []).append(score)
    for cell, kept in survived.items():
        mean = sum(kept) / len(kept)
        cells[cell] = math.log10(mean) if mean > 0 else -math.inf
    return SweepGrid(
        n=n,
        sigma_shift_axis=shifts,
        sigma_mag_axis=mags,
        log10_nmse=cells,
        failed=np.isnan(cells),
        trials_per_cell=trials,
        seed=seed,
        esp_backend=inverse_esp_backend(inverse_backend, esp_backend),
        inverse_backend=inverse_backend,
    )
