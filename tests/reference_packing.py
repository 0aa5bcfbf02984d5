"""The subset-row packing LP, kept as a test oracle of UB(Thm 1).

This is the LP `skbounds.bounds.upper_bound_theorem1` solved by default
before it moved to Gamma's partition rows.  Its variables are one packing
entry per hyperedge, bounded by its weight, and one rate per terminal, all
>= 0.  It minimizes the total packing subject to rates(B) >= x(edges inside
B) for every nonempty proper subset B, and to the pin total packing minus
total rate >= I, which holds with equality at every point that meets the
whole family.  Like the package, it solves on the integer source (weights
times L) with the pin written times d, where L * I = n / d.

Both row methods are kept: every subset row at once, or row generation from
the singletons, where each round hands the packing and the rates at the
point to `separation_oracle`, which picks the most violated subset.  The
`solve_with_row_generation` and `separation_oracle` that the rounds call are
looked up in this module, so a test can patch them here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from skbounds import (
    InternalInvariantError,
    WeightedHypergraph,
    separation_oracle,
)
from skbounds.lp import OPTIMAL, Constraint, LinearProgram, solve, solve_with_row_generation
from skbounds.rational import to_integers


def subset_row(edges: Sequence[int], m: int, mask: int) -> Constraint:
    """rates(B) - x(edges inside B) >= 0; the rates are the last m variables."""
    coeffs = [-1 if e & ~mask == 0 else 0 for e in edges]
    return Constraint(tuple(coeffs + [mask >> i & 1 for i in range(m)]), 0)


def subset_packing_lp(
    src: WeightedHypergraph, capacity: Fraction, masks: Iterable[int]
) -> LinearProgram:
    """The LP on the int-weighted `src`: the subset rows of `masks`, then the pin of `capacity`."""
    edges, m = src.edges, src.m
    k = len(edges)
    lp = LinearProgram(
        variables=[f"x{e}" for e in edges] + [f"r{i}" for i in range(m)],
        objective=[1] * k + [0] * m,
        constraints=[subset_row(edges, m, mask) for mask in masks],
        upper=[src.weights[e] for e in edges] + [None] * m,
    )
    (n,), d = to_integers([capacity])
    lp.add_constraint([d] * k + [-d] * m, n)
    return lp


def reference_packing(
    hg: WeightedHypergraph, capacity: Fraction, method: str = "rowgen"
) -> tuple[Fraction, dict[int, Fraction]]:
    """(UB, x*) by the subset-row LP, with every row ("full") or by row generation ("rowgen")."""
    m = hg.m
    src, scale = hg.integer_source()
    edges = src.edges
    if method == "full":
        sol = solve(subset_packing_lp(src, capacity * scale, range(1, (1 << m) - 1)))
    else:

        def oracle(xs: Sequence[int], den: int) -> Optional[Constraint]:
            mask = separation_oracle(dict(zip(edges, xs)), xs[-m:])
            return None if mask is None else subset_row(edges, m, mask)

        base = subset_packing_lp(src, capacity * scale, [1 << i for i in range(m)])
        sol = solve_with_row_generation(base, oracle, 1 << m)
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"subset-row packing LP reported {sol.status}")
    packing = {e: x / scale for e, x in zip(edges, sol.point)}
    return sol.objective_value / scale - capacity, packing
