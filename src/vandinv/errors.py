"""Typed runtime failures, the argument checks and the result check.

Argument misuse raises plain ValueError everywhere in this package, through
the checks public entries call: `check_name` for a registry name,
`check_ints` for counts, orders, indices and seeds (a float is refused,
never truncated) and `check_given` for input arrays, which must be finite.
NumericalError and its subclasses signal failures of the computation itself.
Every public numerical result is finite: `check_finite` passes one value on,
or raises a NumericalError that counts its entries that overflowed to inf or
NaN.  The CLI maps ValueError to exit code 2 and NumericalError to 3.
"""

import numpy as np


def check_name(what: str, name, names) -> None:
    """ValueError listing ``names`` unless ``name`` is one of them."""
    if name not in tuple(names):
        raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(names)}")


def check_ints(what: str, value, lo: int, hi: int | None = None):
    """``value``, if it is an integer, or a sequence of integers, in lo..hi
    (no upper bound when hi is None); else ValueError naming ``what`` and the
    first bad value.  Python ints, numpy ints and ranges pass; bools do not."""
    for x in value if np.ndim(value) else (value,):
        if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                or x < lo or (hi is not None and x > hi)):
            bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"{what} must be an integer {bounds}, got {x!r}")
    return value


def check_given(what: str, value):
    """``value``, an argument array, unless an entry is inf or NaN: then
    ValueError naming ``what`` and the first such entry by its 1-based index."""
    if not np.isfinite(value).all():
        at = np.unravel_index(np.argmin(np.isfinite(value)), np.shape(value))
        raise ValueError(f"{what} {', '.join(str(i + 1) for i in at)} is not finite: {value[at]}")
    return value


class NumericalError(Exception):
    """A computation failed for numerical reasons (not caller error)."""


class SingularityError(NumericalError):
    """A barycentric weight underflowed or overflowed, or an elimination
    pivot vanished."""


class OrderOverflowError(NumericalError):
    """An ESP left double range: a sweep or table entry overflowed to inf
    or NaN."""


class NodeCollisionError(NumericalError):
    """A perturbed draw collapsed two nodes within the distinctness tolerance."""


def check_finite(what: str, value, *, error=NumericalError):
    """``value``, unless an entry is inf or NaN: then ``error`` naming
    ``what``, the count of such entries and the total."""
    bad = np.count_nonzero(~np.isfinite(value))
    if bad:
        raise error(f"{what}: {bad} of {np.size(value)} entries overflowed to inf or NaN")
    return value
