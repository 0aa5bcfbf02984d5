"""The `Fraction` point check, kept as a test oracle.

This is the check `skbounds.lp._verify` ran before it moved to integers:
it forms the point xs / den in `Fraction`s, compares every variable with 0
and its upper bound, then sums every row at the point and compares the
sum with the row's rhs.  It shares no arithmetic with the package;
`tests/test_verify_oracle.py` asserts that the integer check raises
exactly when this one does, with the same message.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from skbounds.errors import InternalInvariantError
from skbounds.lp import LinearProgram

_ZERO = Fraction(0)


def reference_verify(lp: LinearProgram, xs: Sequence[int], den: int) -> None:
    """Raise InternalInvariantError on the first bound or row that the point xs / den breaks."""
    point = [Fraction(x, den) for x in xs]
    for t, x in enumerate(point):
        up = lp.upper[t]
        if x < 0:
            raise InternalInvariantError(f"{lp.variables[t]} = {x} is negative")
        if up is not None and x > up:
            raise InternalInvariantError(f"{lp.variables[t]} = {x} above upper bound {up}")
    for i, con in enumerate(lp.constraints):
        lhs = sum((c * x for c, x in zip(con.coeffs, point) if c), _ZERO)
        if not lhs >= con.rhs:
            raise InternalInvariantError(
                f"returned point violates constraint {i}: lhs {lhs} is not >= rhs {con.rhs}"
            )
