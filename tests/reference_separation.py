"""The plain `Fraction` separation sweep, kept as a test oracle.

This is the sweep `skbounds.bounds.separation_oracle` ran before row
generation moved to exact integers over one common denominator: it sums
the rates of every subset in `Fraction`s and keeps the most violated mask,
the smallest on ties.  It shares no code with the package;
`tests/test_separation_oracle.py` asserts that row generation adds the row
this sweep picks, at every point, round by round.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

_ZERO = Fraction(0)


def _rate_sums(m: int, rates: Sequence[Fraction]) -> list[Fraction]:
    sums = [_ZERO] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + rates[low.bit_length() - 1]
    return sums


def reference_separation(
    m: int, inside: Sequence[Fraction], rates: Sequence[Fraction]
) -> Optional[int]:
    """Smallest mask B minimizing rates(B) - inside[B] when that is negative, else None."""
    rsum = _rate_sums(m, rates)
    best: Optional[Fraction] = None
    best_mask: Optional[int] = None
    for mask in range(1, (1 << m) - 1):
        g = rsum[mask] - inside[mask]
        if g < 0 and (best is None or g < best):
            best = g
            best_mask = mask
    return best_mask
