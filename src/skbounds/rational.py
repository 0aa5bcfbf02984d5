"""Exact rational scalars: the numeric type plus parsing and rendering.

Every quantity the package reports (weights, entropies, rates, bounds) is
a `fractions.Fraction`; the LPs and tables inside run on ints, over one
common denominator.  Fractions carry arbitrary-precision integers and
are always kept in canonical form (positive denominator, numerator and
denominator coprime, zero stored as 0/1), so every computation reproduces
bit-exactly and no tolerance appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Collection

_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)
_DECIMAL_RE = re.compile(r"[+-]?\d+\.\d+", re.ASCII)
MAX_DIGIT_RUN = 4300  # the most digits int() converts from a string
_LONG_RUN_RE = re.compile(rf"\d{{{MAX_DIGIT_RUN + 1}}}", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer "a", or a finite decimal "d.ddd" exactly.

    Decimals are scaled by a power of ten, never routed through binary
    floating point, so "1.5" parses to exactly 3/2.

    Surrounding spaces and tabs are ignored.  Raises ValueError on anything
    outside that grammar, on more than MAX_DIGIT_RUN digits in a row, or on
    a zero denominator.
    """
    s = text.strip(" \t")
    if _LONG_RUN_RE.search(s):
        raise ValueError(f"more than {MAX_DIGIT_RUN} digits in a row")
    if _FRACTION_RE.fullmatch(s):
        num, _, den = s.partition("/")
        if den:
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(int(num), d)
        return Fraction(int(num))
    if _DECIMAL_RE.fullmatch(s):
        return Fraction(s)
    raise ValueError(f"not a rational literal: {text!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text form: "a/b" when the denominator is not 1, else "a"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_integers(values: Collection[Fraction | int]) -> tuple[list[int], int]:
    """(ints, L): L the lcm of the values' denominators (1 for none), ints[i] = L * values[i].

    This is the one place the package turns rationals into integers over a
    common denominator, from the integer source to the packing LP's pin;
    separation rounds read the LP dictionary's own ints instead.
    """
    # Unpack a list, not a generator: a tuple built from a generator grows by
    # reallocation, which fragments the heap (+1 MiB peak RSS on many small LPs).
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale
