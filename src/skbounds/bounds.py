"""Capacity, omniscience, and communication bounds for hypergraphical sources.

All quantities are exact rationals:

* `r_co_direct`: the minimum total rate of communication for omniscience,
  an LP over rate vectors whose constraints are the conditional entropies
  of every proper subset of terminals.
* secret-key capacity: equal to the shared-information minimum over
  partitions, and to total entropy minus the omniscience rate.
* `upper_bound_theorem1`: the fractional-packing LP bound on the
  communication needed to reach capacity.  Randomness is removed from
  hyperedges as long as the capacity survives: the bound is the least
  total x(E) - I over Gamma = {0 <= x <= w : I(x) = I}, and x* is in Gamma.
  `_capacity` checks that by its definition, the capacity of the reduced
  source from `flow.dinkelbach`; `analyze`, which keeps the check on its
  report for `run_checks`, and `verify_gamma_membership` read it, and no
  path scans the partitions of a reduced source.
* `graphical_bounds`: the closed forms for sources whose hyperedges are
  all pairs.  The packing bound collapses to (m - 2) * capacity, the
  interactive common information equals the weight crossing the
  fundamental partition, and the lower bound scales that crossing weight.

Every LP has the one form `lp.solve` takes: rows `>=`, every variable >= 0
and every cost >= 0, so it starts dual feasible at its slack basis.  Each
is solved on the integer source (`WeightedHypergraph.integer_source`:
weights times L, the lcm of their denominators), and what it returns is
divided by L once: every quantity is homogeneous of degree one in the
weights.  So every row, bound and cost is an int, as `lp.solve` requires;
L times the capacity is a fraction n / d even on integer weights, so the
rows that carry it are written times d.  Row generation reads each point
as the LP dictionary's ints over its denominator D.

R_CO has one row per nonempty proper subset B (`_subset_row`): the rates
inside B cover the entropy of B given the rest.  By default they are
generated from the singletons by `separation_oracle`, against D times the
conditional-entropy table built once per solve; "full" materializes them,
the path `run_checks` cross-solves with.  `tests/reference_separation.py`
keeps the `Fraction` sweep as the test oracle.

UB's LP is over Gamma itself.  A group's entropy is the weight of the edges
that meet it, and I is monotone in the weights, so Gamma has one row per
partition P with two cells or more: the sum over the edges e of
(cells of P that e meets - 1) * x_e >= I * (|P| - 1); a singleton meets
one cell of every P and gets no column.  Rows are generated from the
singletons' partition.  x meets them all exactly when no P has a sum of
H_x(C) - I over its cells C below x(E) - I, the one-cell partition's, and
`flow.truncation` finds the least sum in m min cuts (Narayanan 1991;
Fujishige, *Submodular Functions and Optimization*, 2005).  Method "full"
solves the paper's subset-row LP, which `run_checks` cross-solves with;
`tests/reference_packing.py` keeps it, with both row methods, as the oracle.

Each report identity is written once, in `_report_checks`: `analyze` raises
on it and keeps the list on the report, and `run_checks` lists it from
there beside the checks that need another solve, so no identity and no
capacity of the reduced source is computed twice.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Optional, Sequence

from .errors import InternalInvariantError
from .flow import dinkelbach, truncation
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table
from .lp import OPTIMAL, Constraint, LinearProgram, solve, solve_with_row_generation
from .partitions import MmiResult, cross_edges, mmi
from .rational import to_integers

Method = str  # "auto" (= "rowgen") | "full" | "rowgen"
Check = tuple[str, bool, object, object]  # (label, ok, value, expected)


@dataclass(frozen=True)
class FractionalPacking:
    """Retained weight per hyperedge, 0 <= x(e) <= w(e) on the support."""

    entries: dict[int, Fraction]


@dataclass(frozen=True)
class RatePoint:
    rates: tuple[Fraction, ...]


@dataclass(frozen=True)
class GraphicalBounds:
    ub_theorem2: Fraction
    lower_bound: Fraction
    ci: Fraction


@dataclass(frozen=True)
class AnalysisReport:
    entropy_total: Fraction
    mmi: MmiResult
    r_co: Fraction
    ub_theorem1: Fraction
    x_star: FractionalPacking
    graphical: Optional[GraphicalBounds]
    method: str  # the resolved row method: "rowgen" by default, or "full"
    checks: tuple[Check, ...] = ()  # the identities `analyze` enforced, from `_report_checks`


def _resolve_method(method: Method) -> str:
    if method not in ("auto", "full", "rowgen"):
        raise ValueError(f"unknown method {method!r}")
    return "rowgen" if method == "auto" else method


def separation_oracle(inside: Sequence, rates: Sequence) -> Optional[int]:
    """Most violated subset row rates(B) >= inside[B], or None if none is violated.

    `inside[B]` is the weight subset mask B must cover: R_CO passes its
    conditional-entropy table (the subset-row packing LP of
    `tests/reference_packing.py` passes `subset_weight_table(m, x)`).
    Minimizes rates(B) - inside[B] over nonempty proper subsets B and returns
    the minimizing mask (smallest on ties) when the minimum is negative.
    Works in the type of its inputs; row generation passes ints, both sides
    scaled by one common denominator.
    """
    sums = [0]  # sums[B] = rates(B), one doubling per terminal
    for rate in rates:
        sums += [s + rate for s in sums]
    gaps = list(map(operator.sub, sums, inside))
    least = min(gaps[1:-1])
    return gaps.index(least, 1) if least < 0 else None


def _subset_row(edges: Sequence[int], m: int, mask: int, rhs: int) -> Constraint:
    """The row rates(B) - x(edges inside B) >= rhs; the rates are the last m variables."""
    coeffs = [-1 if e & ~mask == 0 else 0 for e in edges]
    coeffs += [mask >> i & 1 for i in range(m)]
    return Constraint(tuple(coeffs), rhs)


def build_rco_lp(hg: WeightedHypergraph, subset_masks, cond) -> LinearProgram:
    """Omniscience-rate LP: min total rate over the subset-entropy region.

    One row per subset B in `subset_masks` (every nonempty proper subset for
    the full LP, the singletons to seed row generation): the rates inside B
    must cover the entropy of B given the rest.  `cond` is the source's
    conditional-entropy table, `subset_weight_table(hg.m, hg.weights)`,
    which the caller builds once for the LP and its separation.  On the
    integer source every right-hand side is an int.
    """
    return LinearProgram(
        variables=[f"R{i}" for i in range(1, hg.m + 1)],
        objective=[1] * hg.m,
        constraints=[_subset_row((), hg.m, mask, cond[mask]) for mask in subset_masks],
    )


def r_co_direct(hg: WeightedHypergraph, *, method: Method = "auto") -> tuple[Fraction, RatePoint]:
    """Minimum omniscience communication rate with an achieving rate point.

    Infeasibility is impossible (each terminal broadcasting its own entropy
    is feasible), so a non-optimal status is reported as an internal error.
    """
    method = _resolve_method(method)
    m = hg.m
    src, scale = hg.integer_source()
    table = subset_weight_table(m, src.weights)
    if method == "full":
        sol = solve(build_rco_lp(src, range(1, (1 << m) - 1), table))
    else:

        def oracle(xs: Sequence[int], d: int) -> Optional[Constraint]:
            mask = separation_oracle(table if d == 1 else [v * d for v in table], xs)
            return None if mask is None else _subset_row((), m, mask, table[mask])

        base = build_rco_lp(src, [1 << i for i in range(m)], table)
        sol = solve_with_row_generation(base, oracle, 1 << m)
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"omniscience LP reported {sol.status}")
    return sol.objective_value / scale, RatePoint(tuple(r / scale for r in sol.point))


def _partition_row(edges: Sequence[int], cells: Sequence[int], n: int, d: int) -> Constraint:
    """The row of P = `cells`: the sum of d * (cells e meets - 1) * x_e >= n * (|P| - 1)."""
    coeffs = tuple(d * (sum(1 for c in cells if c & e) - 1) for e in edges)
    return Constraint(coeffs, n * (len(cells) - 1))


def build_gamma_lp(hg: WeightedHypergraph, edges: Sequence[int], n: int, d: int) -> LinearProgram:
    """UB's working LP over Gamma, with L * I = n / d: the row of the singletons.

    One column per hyperedge of `edges`, the non-singleton ones: cost 1, bounded by its weight.
    """
    return LinearProgram(
        variables=[f"x{format_subset(e)}" for e in edges],
        objective=[1] * len(edges),
        constraints=[_partition_row(edges, [1 << i for i in range(hg.m)], n, d)],
        upper=[hg.weights[e] for e in edges],
    )


def _subset_packing_lp(hg: WeightedHypergraph, n: int, d: int) -> LinearProgram:
    """UB's "full" path: the paper's packing LP with every subset row, on an integer source.

    Columns 0 <= x_e <= w_e and rates r_i >= 0; rows rates(B) >= x(edges
    inside B) and the pin d * (x(E) - r(M)) >= n.  The paper's free rates and
    equality pin give the same set: the singleton rows give r >= 0, and on
    every subset row x(E) - r(M) is at most the reduced source's capacity,
    at most I.
    """
    edges, m = hg.edges, hg.m
    k = len(edges)
    lp = LinearProgram(
        variables=[f"x{format_subset(e)}" for e in edges] + [f"r{i}" for i in range(1, m + 1)],
        objective=[1] * k + [0] * m,
        constraints=[_subset_row(edges, m, mask, 0) for mask in range(1, (1 << m) - 1)],
        upper=[hg.weights[e] for e in edges] + [None] * m,
    )
    lp.add_constraint([d] * k + [-d] * m, n)
    return lp


def _bell(m: int) -> int:
    """The number of partitions of m terminals, by the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


def upper_bound_theorem1(
    hg: WeightedHypergraph,
    *,
    mmi_result: Optional[MmiResult] = None,
    method: Method = "auto",
) -> tuple[Fraction, FractionalPacking]:
    """Packing-LP upper bound on the communication to reach capacity.

    Returns the bound (optimal total packing minus capacity) and an optimal
    packing, 0 on singleton edges.  Each round hands `flow.truncation` the
    point's ints xs, as weights, at gamma = n * D / d; a least sum below
    xs(E) - gamma gives the violated row of the truncation's cells.  The
    full weight vector is always feasible, so the bound never exceeds the
    omniscience rate; a non-optimal LP status is a bug.
    """
    method = _resolve_method(method)
    mres = mmi_result if mmi_result is not None else mmi(hg)
    src, scale = hg.integer_source()
    (n,), d = to_integers([mres.value * scale])
    if method == "full":
        edges = src.edges
        sol = solve(_subset_packing_lp(src, n, d))
    else:
        edges = [e for e in src.edges if e & (e - 1)]

        def oracle(xs: Sequence[int], den: int) -> Optional[Constraint]:
            gamma = Fraction(n * den, d)
            least, cells = truncation(WeightedHypergraph(src.m, dict(zip(edges, xs))), gamma)
            return _partition_row(edges, cells, n, d) if least < sum(xs) - gamma else None

        sol = solve_with_row_generation(build_gamma_lp(src, edges, n, d), oracle, _bell(src.m) - 1)
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"packing LP reported {sol.status}")
    entries = dict.fromkeys(src.edges, Fraction(0))
    entries.update((e, x / scale) for e, x in zip(edges, sol.point))
    return sol.objective_value / scale - mres.value, FractionalPacking(entries)


def _capacity(hg: WeightedHypergraph) -> tuple[Fraction, int]:
    """(I, |P*|) of `hg` by `flow.dinkelbach`, with no listing of the minimizers."""
    src, scale = hg.integer_source()
    value, cells = dinkelbach(src)
    return value / scale, len(cells)


def verify_gamma_membership(
    hg: WeightedHypergraph, packing: FractionalPacking | Mapping[int, Fraction]
) -> bool:
    """True when the packing leaves the secret-key capacity unchanged (is in Gamma).

    Compares the capacity I of `hg` with that of the source reduced by the
    packing, both by `_capacity`, the check `analyze` enforces on x*.
    """
    entries = packing.entries if isinstance(packing, FractionalPacking) else packing
    return _capacity(hg.restrict(entries))[0] == _capacity(hg)[0]


def graphical_bounds(
    hg: WeightedHypergraph, *, mmi_result: Optional[MmiResult] = None
) -> GraphicalBounds:
    """The closed forms of a graph: UB(Thm 2), LB(Thm 3) and CI.

    UB(Thm 2) = (m - 2) * I, to which the packing bound collapses on graphs;
    CI is the weight crossing the fundamental partition; with k cells in it,
    LB(Thm 3) = (k - 2) / (k - 1) * CI, so a two-cell P* gives 0.  Raises
    ValueError unless every hyperedge has exactly two vertices.
    """
    if not hg.is_graph:
        raise ValueError("graphical analysis requires every hyperedge to have exactly two vertices")
    mres = mmi_result if mmi_result is not None else mmi(hg)
    k = mres.fundamental.size
    ci = cross_edges(hg, mres.fundamental)
    return GraphicalBounds(
        ub_theorem2=(hg.m - 2) * mres.value,
        lower_bound=Fraction(k - 2, k - 1) * ci,
        ci=ci,
    )


def _report_checks(hg: WeightedHypergraph, report: AnalysisReport) -> list[Check]:
    """The report identities; beyond the report they need the capacity of the reduced source."""
    rco, ub, capacity = report.r_co, report.ub_theorem1, report.mmi.value
    identity = report.entropy_total - capacity
    kept, size = _capacity(hg.restrict(report.x_star.entries))
    checks = [
        ("R_CO identity (H - I)", rco == identity, rco, identity),
        ("dominance UB <= R_CO", ub <= rco, ub, rco),
        ("x* preserves capacity (Gamma membership)", kept == capacity, kept, capacity),
    ]
    g = report.graphical
    if g is not None:
        checks += [
            ("graph agreement UB = (m-2) I", ub == g.ub_theorem2, ub, g.ub_theorem2),
            ("sandwich LB <= UB", g.lower_bound <= ub, g.lower_bound, ub),
            ("LB = CI - I", g.lower_bound == g.ci - capacity, g.lower_bound, g.ci - capacity),
            ("reduced source is Type S", size == hg.m, size, hg.m),
        ]
    return checks


def analyze(hg: WeightedHypergraph, *, method: Method = "auto") -> AnalysisReport:
    """Full report: entropy, capacity, omniscience rate, packing bound, graph bounds.

    Raises InternalInvariantError, with both values, on the first identity
    of `_report_checks` that the report breaks (R_CO = H - I, UB <= R_CO,
    x* in Gamma, and on graphs UB = (m - 2) I, LB <= UB, LB = CI - I, Type
    S reduced source); a violation signals a bug.
    """
    method = _resolve_method(method)
    mres = mmi(hg)
    r_co, _rates = r_co_direct(hg, method=method)
    ub1, x_star = upper_bound_theorem1(hg, mmi_result=mres, method=method)
    graphical: Optional[GraphicalBounds] = None
    if hg.is_graph:
        graphical = graphical_bounds(hg, mmi_result=mres)
    elif all(mask.bit_count() <= 2 for mask in hg.weights):
        warnings.warn("graphical bounds skipped: singleton hyperedges present", stacklevel=2)
    report = AnalysisReport(
        entropy_total=hg.total_entropy,
        mmi=mres,
        r_co=r_co,
        ub_theorem1=ub1,
        x_star=x_star,
        graphical=graphical,
        method=method,
    )
    checks = tuple(_report_checks(hg, report))
    for label, ok, value, expected in checks:
        if not ok:
            raise InternalInvariantError(f"{label}: {value} vs {expected}")
    return replace(report, checks=checks)


def run_checks(hg: WeightedHypergraph, report: AnalysisReport) -> list[Check]:
    """Invariant suite over `report = analyze(hg, ...)`.

    Each entry is (label, ok, value, expected).  Beside the identities
    `analyze` enforced, which it reads from `report.checks`, the suite
    solves both LPs again with the row method the report did not use.
    """
    other = "rowgen" if report.method == "full" else "full"
    rco_other, _ = r_co_direct(hg, method=other)
    ub_other, _ = upper_bound_theorem1(hg, mmi_result=report.mmi, method=other)
    rco, ub = report.r_co, report.ub_theorem1
    own = report.checks
    return [
        own[0],
        ("row generation agreement (R_CO)", rco == rco_other, rco, rco_other),
        ("row generation agreement (packing LP)", ub == ub_other, ub, ub_other),
        *own[1:],
    ]
