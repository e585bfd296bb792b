"""Sampling node sets: validated containers, standard families, perturbation.

Five node families are supported on their usual domains:

* ``equidistant``        x_k = -1 + 2(k-1)/(N-1)              (includes both endpoints)
* ``chebyshev``          x_k = cos((2k-1) pi / (2N))          (open, no endpoints)
* ``extended_chebyshev`` chebyshev nodes rescaled by 1/cos(pi/(2N)) so the
  outermost nodes land exactly on +-1
* ``gauss_lobatto``      x_k = cos((k-1) pi / (N-1))          (Chebyshev extrema)
* ``roots_of_unity``     v_k = exp(2 pi i k / N), k = 1..N

`generate_nodes(kind, n)` looks the formula up by name in one table, and
``NODE_FAMILIES`` lists its names.  All generators are deterministic.
`perturb_roots_of_unity(n, sigma_shift, sigma_mag, seed)` is the only
randomized operation: phase and magnitude noise on the roots of unity,
fully determined by its 64-bit seed (numpy PCG64 streams derived through
SeedSequence), with each draw validated once as it becomes a `NodeSet`.

Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeCollisionError

# Relative pairwise-distinctness floor: min gap must exceed this times max |v|.
DISTINCTNESS_RTOL = 1e-12

# Each family maps (k = 1..N, N) to its nodes x_k.
_FAMILIES = {
    "equidistant": lambda k, n: -1.0 + 2.0 * (k - 1) / (n - 1),
    "chebyshev": lambda k, n: np.cos((2 * k - 1) * np.pi / (2 * n)),
    # the rescale puts the extreme nodes at +-1 exactly; clip the odd ulp
    "extended_chebyshev": lambda k, n: np.clip(
        np.cos((2 * k - 1) * np.pi / (2 * n)) / np.cos(np.pi / (2 * n)), -1.0, 1.0
    ),
    "gauss_lobatto": lambda k, n: np.cos((k - 1) * np.pi / (n - 1)),
    "roots_of_unity": lambda k, n: np.exp(2j * np.pi * k / n),
}

NODE_FAMILIES = tuple(_FAMILIES)

# Families whose formulas place nodes on both interval endpoints (need N >= 2).
_ENDPOINT_FAMILIES = ("equidistant", "gauss_lobatto")

# Identifier recorded in run manifests so seeded experiments are replayable.
RNG_ALGORITHM = "numpy.PCG64"

_PERTURB_RETRIES = 8


def validate_pairwise_distinct(values):
    """Check the pairwise-distinctness tolerance on a raw value sequence.

    Returns ``(True, None)`` when the minimum pairwise gap exceeds
    ``DISTINCTNESS_RTOL * max |v|``, else ``(False, (k, j))`` with the
    1-based indices of the closest offending pair.
    """
    v = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    n = v.size
    if n < 2:
        return True, None
    gaps = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(gaps, np.inf)
    k, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    threshold = DISTINCTNESS_RTOL * np.abs(v).max()
    if gaps[k, j] > threshold:
        return True, None
    lo, hi = sorted((int(k) + 1, int(j) + 1))
    return False, (lo, hi)


@dataclass(frozen=True)
class NodeSet:
    """Ordered, immutable sequence of pairwise-distinct complex nodes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=np.complex128)).copy()
        if v.ndim != 1 or v.size < 1:
            raise ValueError("a NodeSet needs a one-dimensional, non-empty value sequence")
        if not np.isfinite(v).all():
            k = int(np.argmin(np.isfinite(v)))
            raise ValueError(f"node {k + 1} is not finite: {v[k]}")
        ok, pair = validate_pairwise_distinct(v)
        if not ok:
            raise ValueError(
                f"nodes {pair[0]} and {pair[1]} are closer than "
                f"{DISTINCTNESS_RTOL:g} * max|v|"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.size)


def generate_nodes(kind: str, n: int) -> NodeSet:
    """The n nodes of the named family, in the order of ``k = 1..n``."""
    formula = _FAMILIES.get(kind)
    if formula is None:
        raise ValueError(f"unknown node family {kind!r}; expected one of {NODE_FAMILIES}")
    if n < 1:
        raise ValueError("node count must be at least 1")
    if kind in _ENDPOINT_FAMILIES and n < 2:
        raise ValueError(f"{kind} nodes need N >= 2")
    return NodeSet(formula(np.arange(1, n + 1), n))


def perturb_roots_of_unity(
    n: int, sigma_shift: float, sigma_mag: float, seed: int
) -> NodeSet:
    """Nth roots of unity contaminated by phase and magnitude noise.

    Each node is ``exp(i(2 pi k / N + eta_S)) + eta_M`` with
    ``eta_S ~ Normal(0, sigma_shift**2)`` shifting the node along the circle
    (radians) and ``eta_M`` an isotropic complex Gaussian of total variance
    ``sigma_mag**2`` (independent real and imaginary parts of variance
    ``sigma_mag**2 / 2``).

    Deterministic per seed.  Each draw is validated once, by building its
    `NodeSet`; if the noise collapses two nodes within the distinctness
    tolerance, the draw is retried up to 8 times on sub-seeds derived from
    ``seed`` before NodeCollisionError is raised.
    """
    for name, sigma in (("sigma_shift", sigma_shift), ("sigma_mag", sigma_mag)):
        if not np.isfinite(sigma) or sigma < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {sigma}")
    if n < 2:
        raise ValueError("perturbed roots of unity need N >= 2")
    base = _FAMILIES["roots_of_unity"](np.arange(1, n + 1), n)
    part_std = sigma_mag / np.sqrt(2.0)
    for attempt in range(_PERTURB_RETRIES + 1):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), attempt]))
        eta_s = rng.normal(0.0, sigma_shift, n)
        eta_m = rng.normal(0.0, part_std, n) + 1j * rng.normal(0.0, part_std, n)
        # factored exponential keeps the zero-noise case bit-identical to
        # the clean generator
        try:
            return NodeSet(base * np.exp(1j * eta_s) + eta_m)
        except ValueError as exc:
            last = exc
    raise NodeCollisionError(
        f"{last} on {_PERTURB_RETRIES + 1} consecutive draws (seed {seed})"
    )
