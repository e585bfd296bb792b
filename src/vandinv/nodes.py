"""Sampling node sets: validated containers, standard families, perturbation.

Five node families are supported on their usual domains:

* ``equidistant``        x_k = -1 + 2(k-1)/(N-1)              (includes both endpoints)
* ``chebyshev``          x_k = cos((2k-1) pi / (2N))          (open, no endpoints)
* ``extended_chebyshev`` chebyshev nodes rescaled by 1/cos(pi/(2N)) so the
  outermost nodes land exactly on +-1
* ``gauss_lobatto``      x_k = cos((k-1) pi / (N-1))          (Chebyshev extrema)
* ``roots_of_unity``     v_k = exp(2 pi i k / N), k = 1..N

`generate_nodes(kind, n)` looks the formula up by name in one table and is
deterministic; ``NODE_FAMILIES`` lists the names.  `perturb_roots_of_unity(n,
sigma_shift, sigma_mag, seed)` is the only randomized operation: phase and
magnitude noise on the roots of unity, one draw fully determined by its
64-bit seed (a numpy PCG64 stream through SeedSequence), validated once.

`_each` holds the one rule for a batch of node sets: a non-empty list or
tuple of `NodeSet`s of one size, else one ValueError.  `compute_inverse`, on
every route, and `inverse_closed_form` return a list for it; only
`esp_dropped` stacks a batch's results.  Everything here is pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeCollisionError, check_finite, check_given, check_ints, check_name

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


def validate_pairwise_distinct(values) -> None:
    """Check the pairwise-distinctness tolerance on a raw value sequence.

    Raises ValueError naming the 1-based indices of the closest pair unless
    the minimum pairwise gap exceeds ``DISTINCTNESS_RTOL * max |v|``, and
    ValueError naming a non-finite value.
    """
    v = check_given("node", np.atleast_1d(np.asarray(values, dtype=np.complex128)))
    if v.size < 2:
        return
    with np.errstate(over="ignore"):  # a gap past double range is inf, and distinct
        if np.isinf(np.abs(v)).any():
            v = v / 2  # exact units in which every |v| is finite
        gaps = np.abs(v[:, None] - v[None, :])
        threshold = DISTINCTNESS_RTOL * np.abs(v).max()
    np.fill_diagonal(gaps, np.inf)
    k, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[k, j] <= threshold:
        lo, hi = sorted((int(k) + 1, int(j) + 1))
        raise ValueError(f"nodes {lo} and {hi} are closer than {DISTINCTNESS_RTOL:g} * max|v|")


@dataclass(frozen=True)
class NodeSet:
    """Ordered, immutable sequence of pairwise-distinct complex nodes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=np.complex128)).copy()
        if v.ndim != 1 or v.size < 1:
            raise ValueError("a NodeSet needs a one-dimensional, non-empty value sequence")
        validate_pairwise_distinct(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.size)


def _each(function, nodes, *args):
    """``function`` of a `NodeSet`, or the list of its results on each set of a
    batch: a non-empty list or tuple of `NodeSet`s of one size, else ValueError."""
    if isinstance(nodes, NodeSet):
        return function(nodes, *args)
    if (isinstance(nodes, (list, tuple)) and all(isinstance(s, NodeSet) for s in nodes)
            and len({len(s) for s in nodes}) == 1):
        return [function(s, *args) for s in nodes]
    raise ValueError("nodes must be a NodeSet or a non-empty list or tuple of same-size NodeSets")


def generate_nodes(kind: str, n: int) -> NodeSet:
    """The n nodes of the named family, in the order of ``k = 1..n``."""
    check_name("node family", kind, NODE_FAMILIES)
    check_ints(f"{kind} node count", n, 2 if kind in _ENDPOINT_FAMILIES else 1)
    return NodeSet(_FAMILIES[kind](np.arange(1, n + 1), n))


def perturb_roots_of_unity(
    n: int, sigma_shift: float, sigma_mag: float, seed: int
) -> NodeSet:
    """Nth roots of unity contaminated by phase and magnitude noise.

    Each node is ``exp(i(2 pi k / N + eta_S)) + eta_M`` with
    ``eta_S ~ Normal(0, sigma_shift**2)`` shifting the node along the circle
    (radians) and ``eta_M`` an isotropic complex Gaussian of total variance
    ``sigma_mag**2`` (independent real and imaginary parts of variance
    ``sigma_mag**2 / 2``).

    Deterministic per seed: one draw on ``SeedSequence([seed, 0])``,
    validated once by building its `NodeSet`.  If the noise collapses two
    nodes within the distinctness tolerance, NodeCollisionError names the
    pair and the seed; a node past double range is a plain NumericalError.
    """
    for name, sigma in (("sigma_shift", sigma_shift), ("sigma_mag", sigma_mag)):
        if not np.isfinite(sigma) or sigma < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {sigma}")
    check_ints("node count", n, 2)
    check_ints("seed", seed, 0)
    base = _FAMILIES["roots_of_unity"](np.arange(1, n + 1), n)
    part_std = sigma_mag / np.sqrt(2.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    # factored exponential keeps the zero-noise case bit-identical to the
    # clean generator; a draw past double range fails in check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        eta_s = rng.normal(0.0, sigma_shift, n)
        eta_m = rng.normal(0.0, part_std, n) + 1j * rng.normal(0.0, part_std, n)
        values = base * np.exp(1j * eta_s) + eta_m
    try:
        return NodeSet(check_finite(f"perturbed nodes (seed {seed})", values))
    except ValueError as exc:
        raise NodeCollisionError(f"{exc} (seed {seed})") from None
