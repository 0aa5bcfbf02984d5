"""Dinkelbach's iteration over the general truncation, kept as the value oracle of I, P* and R_CO.

The exhaustive scans of `reference_scan` stop at m = 9 to 11.  Above that,
`skbounds.flow.dinkelbach` is checked by this loop, which is polynomial
and shares no code with the package's fast paths: every step is
`reference_flow.reference_truncation`, the general network solved by the
general max-flow, with no subset table, no contraction of cells, no
rows-first step and no start at the best split.  It starts at the
singletons' value, the sum of w(e) * (|e| - 1) over m - 1, and each
truncation either finds a partition of value below gamma, which gamma
falls to, or shows that none has one.  Its last greedy point xs / d sums
to H - I, which is R_CO (Fujishige 2005; Csiszar and Narayan 2004).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from skbounds import WeightedHypergraph

from reference_flow import reference_truncation


def reference_dinkelbach(hg: WeightedHypergraph) -> tuple[Fraction, tuple[int, ...], tuple[Fraction, ...]]:
    """(I, P*, rates): the capacity of `hg`, its fundamental partition and R_CO's greedy rate point.

    Computed on the integer source, weights times L, with gamma = L * I
    as the ints n / d in lowest terms; I and the rates are divided by L
    once.  The rates sum to H - I.
    """
    src, scale = hg.integer_source()
    m, weights = src.m, src.weights
    total = sum(weights.values())
    n, d = sum(w * (e.bit_count() - 1) for e, w in weights.items()), m - 1
    while True:
        g = gcd(n, d)
        n, d = n // g, d // g
        cells, xs = reference_truncation(m, weights, n, d)
        if sum(xs) >= total * d - n:
            return Fraction(n, d * scale), cells, tuple(Fraction(x, d * scale) for x in xs)
        # The partition's sum of H(C) - H(M) is (sum(xs) + n * |cells|) / d - H(M).
        n, d = sum(xs) + n * len(cells) - total * d, d * (len(cells) - 1)
