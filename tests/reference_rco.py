"""The omniscience LP with every subset row, kept as a test oracle of R_CO.

R_CO is the least total rate over the rate vectors with rates(B) >=
H(B | M - B) for every nonempty proper subset B of the terminals, and
H(B | M - B) is the weight of the edges inside B.
`skbounds.bounds.r_co_direct` generates these rows from the complements
of the singletons; the LP here writes all 2^m - 2 of them at once, each
summed from the edges directly, on the integer source (weights times L).
It shares no row builder and no subset table with the package, only
`lp.solve`.
"""

from __future__ import annotations

from fractions import Fraction

from skbounds import InternalInvariantError, WeightedHypergraph
from skbounds.lp import OPTIMAL, Constraint, LinearProgram, solve


def full_rco_lp(src: WeightedHypergraph) -> LinearProgram:
    """min rates(M) subject to rates(B) >= weight inside B, for every subset row, on int weights."""
    m = src.m
    rows = [
        Constraint(
            tuple(mask >> i & 1 for i in range(m)),
            sum(w for e, w in src.weights.items() if e & ~mask == 0),
        )
        for mask in range(1, (1 << m) - 1)
    ]
    return LinearProgram([f"R{i}" for i in range(1, m + 1)], [1] * m, rows)


def reference_rco(hg: WeightedHypergraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(R_CO, an optimal rate point) by the full-row LP, divided by L once."""
    src, scale = hg.integer_source()
    sol = solve(full_rco_lp(src))
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"full-row omniscience LP reported {sol.status}")
    return sol.objective_value / scale, tuple(r / scale for r in sol.point)
