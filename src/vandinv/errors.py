"""Typed runtime failures.

Argument misuse raises plain ValueError everywhere in this package;
NumericalError and its subclasses signal failures of the computation
itself.  The CLI maps ValueError to exit code 2 and NumericalError to 3.
"""


class NumericalError(Exception):
    """A computation failed for numerical reasons (not caller error)."""


class SingularityError(NumericalError):
    """A barycentric weight underflowed or an elimination pivot vanished."""


class OrderOverflowError(NumericalError):
    """An ESP left double range: the unscaled balanced recursion needs n!
    past n = 170, or a sweep or table entry overflowed to inf or NaN."""


class NodeCollisionError(NumericalError):
    """Perturbed nodes kept collapsing within tolerance after all retries."""
