"""The omniscience LP with every subset row, and its row generation, kept as test oracles of R_CO.

R_CO is the least total rate over the rate vectors with rates(B) >=
H(B | M - B) for every nonempty proper subset B of the terminals, and
H(B | M - B) is the weight of the edges inside B.  `full_rco_lp` writes
all 2^m - 2 rows at once, each summed from the edges directly, on the
integer source (weights times L); it shares no row builder and no subset
table with the package, only `lp.solve`.

`per_cell_rco_lp` is the relaxation over P*'s cells as `r_co_direct`
built it before it kept only their sum: one column per cell and one row
per cell, the other cells covering the entropy of M - C given C.
`per_terminal_rco_lp` is the same relaxation as it was built before it
took one column per cell: one rate per terminal, with the rows of the
complements of the cells.

`rowgen_rco` is the row generation `skbounds.bounds.r_co_direct` ran
before it took the truncation's greedy point: it starts from the rows of
the complements of the singletons, r(M - v) >= H(M - v | v), and each
round adds the row `separation_oracle` picks at the dictionary's point,
against the weights times D; each row's right-hand side comes from the
conditional-entropy table built once per solve.  It runs on the package's
`subset_weight_table`, `separation_oracle` and `solve_with_row_generation`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from skbounds import InternalInvariantError, WeightedHypergraph, separation_oracle, subset_weight_table
from skbounds.lp import OPTIMAL, Constraint, LinearProgram, solve, solve_with_row_generation


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


def _subset_row(m: int, mask: int, rhs: int) -> Constraint:
    return Constraint(tuple(mask >> i & 1 for i in range(m)), rhs)


def cosingleton_rco_lp(src: WeightedHypergraph, cond: Sequence[int]) -> LinearProgram:
    """The working LP row generation starts from: each M - v covers its entropy given v."""
    complements = [src.full_mask ^ 1 << i for i in range(src.m)]
    return LinearProgram(
        [f"R{i}" for i in range(1, src.m + 1)],
        [1] * src.m,
        [_subset_row(src.m, mask, cond[mask]) for mask in complements],
    )


def per_cell_rco_lp(entries: Mapping[int, int], cells: Sequence[int]) -> LinearProgram:
    """R_CO's relaxation with one column y_C per cell C of `cells` and one row per cell: the y
    of the other cells sum to >= the total of `entries` on the edges that miss C."""
    k = len(cells)
    rows = [
        Constraint(tuple(int(j != i) for j in range(k)), sum(w for e, w in entries.items() if not e & c))
        for i, c in enumerate(cells)
    ]
    return LinearProgram([f"y{i}" for i in range(1, k + 1)], [1] * k, rows)


def per_terminal_rco_lp(m: int, entries: Mapping[int, int], cells: Sequence[int]) -> LinearProgram:
    """R_CO's relaxation as `r_co_direct` built it with one rate per terminal: r(M - C) covers
    the entropy of M - C given C, for each of `cells`, on the weights `entries`."""
    full = (1 << m) - 1
    return LinearProgram(
        [f"R{i}" for i in range(1, m + 1)],
        [1] * m,
        [_subset_row(m, full ^ c, sum(w for e, w in entries.items() if not e & c)) for c in cells],
    )


def _result(sol, scale: int, kind: str) -> tuple[Fraction, tuple[Fraction, ...]]:
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"{kind} omniscience LP reported {sol.status}")
    return sol.objective_value / scale, tuple(r / scale for r in sol.point)


def reference_rco(hg: WeightedHypergraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(R_CO, an optimal rate point) by the full-row LP, divided by L once."""
    src, scale = hg.integer_source()
    return _result(solve(full_rco_lp(src)), scale, "full-row")


def rowgen_rco(hg: WeightedHypergraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(R_CO, an optimal rate point) by row generation from the co-singleton rows, divided by L once."""
    m = hg.m
    src, scale = hg.integer_source()
    table = subset_weight_table(m, src.weights)

    def oracle(xs: Sequence[int], d: int) -> Optional[Constraint]:
        mask = separation_oracle({e: w * d for e, w in src.weights.items()}, xs)
        return None if mask is None else _subset_row(m, mask, table[mask])

    sol = solve_with_row_generation(cosingleton_rco_lp(src, table), oracle, 1 << m)
    return _result(sol, scale, "row-generation")
