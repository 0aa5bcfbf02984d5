"""Capacity, omniscience, and communication bounds for hypergraphical sources.

All quantities are exact rationals:

* `r_co_direct`: the minimum total rate of communication for omniscience,
  an LP over rate vectors whose constraints are the conditional entropies
  of every proper subset of terminals.
* secret-key capacity: equal to the shared-information minimum over
  partitions, and to total entropy minus the omniscience rate.
* `upper_bound_theorem1`: the fractional-packing LP bound on the
  communication needed to reach capacity.  Randomness is removed from
  hyperedges as long as the capacity survives; the omniscience rate of the
  reduced source bounds the communication of the original one.  The packing
  feasible set pairs an omniscience rate vector with the reduced source and
  pins the reduced capacity, so LP feasibility coincides exactly with
  capacity preservation, membership in Gamma.  `_capacity` checks the
  latter by its definition, the capacity of the reduced source from
  `flow.dinkelbach`; `analyze`, `run_checks` and `verify_gamma_membership`
  all read it, and no path scans the partitions of a reduced source.
* `graphical_bounds`: the closed forms for sources whose hyperedges are
  all pairs.  The packing bound collapses to (m - 2) * capacity, the
  interactive common information equals the weight crossing the
  fundamental partition, and the lower bound scales that crossing weight.

Both LPs have the one form `lp.solve` takes: rows `>=`, every variable
>= 0 and every cost >= 0, so both start dual feasible at their slack
basis.  R_CO's rates cost 1; the packing entries cost 1 and are bounded
by their weights, and the packing rates cost 0.  The paper's packing LP
leaves its rates free and pins total packing minus total rate to the
capacity I by an equality.  Two facts give the same feasible set in the
one form.  Every working LP holds the singleton rows, r_i >= x(edges
inside {i}) >= 0, so the bound r >= 0 removes no point.  And capacity is
monotone in the weights: a point that meets every subset row has rates
in the omniscience region of the source reduced to x, so total packing
minus total rate is at most the reduced capacity, which is at most I; the
pin written as `>=` I therefore holds only with equality.

Both LPs use one subset family, built by `_subset_row`: for every nonempty
proper subset B, rates(B) - x(edges inside B) >= rhs, with no x and rhs the
entropy of B given the rest for R_CO, and one x per hyperedge and rhs 0 for
the packing LP.  `_solve_rows` is the one switch, for both LPs, between
generating the family on demand from the singletons with
`separation_oracle` (the default, at every m) and materializing it in
full, the reference path that `run_checks` cross-solves with.
`r_co_direct` and `upper_bound_theorem1`, like `mmi`, solve on the
integer source (`WeightedHypergraph.integer_source`: weights times L, the
lcm of their denominators; the packing LP pinned to L times the capacity)
and divide what they return by L once: every quantity is homogeneous of
degree one in the weights, and scaling every right-hand side and bound by
L > 0 changes no pivot.  So every row, bound and cost is an int, as
`lp.solve` requires, but one: L times the capacity is a fraction n/d even
on integer weights, so the pin is written times d.  Row generation
separates each point in the LP dictionary's ints, over its denominator d,
against d times a table: R_CO's, built once per solve, or the packing
LP's, built from the point.  `tests/reference_separation.py` keeps the
`Fraction` sweep as the test oracle.

Each report identity is written once, in `_report_checks`: `analyze` raises
on it and `run_checks` lists it beside the checks that need another solve.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InternalInvariantError
from .flow import dinkelbach
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table
from .lp import (
    OPTIMAL,
    Constraint,
    LinearProgram,
    solve,
    solve_with_row_generation,
)
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


def _resolve_method(method: Method) -> str:
    if method not in ("auto", "full", "rowgen"):
        raise ValueError(f"unknown method {method!r}")
    return "rowgen" if method == "auto" else method


def separation_oracle(inside: Sequence, rates: Sequence) -> Optional[int]:
    """Most violated subset row rates(B) >= inside[B], or None if none is violated.

    `inside[B]` is the weight subset mask B must cover: R_CO passes its
    conditional-entropy table, the packing LP `subset_weight_table(m, x)`.
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


def _solve_rows(m: int, method: str, build, inside, row):
    """Solve over the subset rows, in full or by row generation: the one switch.

    `build(masks)` is the LP with the subset rows of `masks`.  With "full"
    it gets every nonempty proper subset.  With "rowgen" it gets the
    singletons, and each round adds `row(mask)` for the most violated subset
    until none is: the round reads the point as the dictionary's ints xs
    over its denominator d, and `inside(xs, d)` returns d times the table
    that the point's rates (its last m entries) must cover.
    """
    if method == "full":
        return solve(build(range(1, (1 << m) - 1)))

    def oracle(xs: Sequence[int], d: int) -> Optional[Constraint]:
        mask = separation_oracle(inside(xs, d), xs[-m:])
        return None if mask is None else row(mask)

    return solve_with_row_generation(build([1 << i for i in range(m)]), oracle, 1 << m)


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
    sol = _solve_rows(
        m,
        method,
        lambda masks: build_rco_lp(src, masks, table),
        lambda xs, d: table if d == 1 else [v * d for v in table],
        lambda mask: _subset_row((), m, mask, table[mask]),
    )
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"omniscience LP reported {sol.status}")
    return sol.objective_value / scale, RatePoint(tuple(r / scale for r in sol.point))


def build_gamma_lp(hg: WeightedHypergraph, mmi_value: Fraction, subset_masks) -> LinearProgram:
    """Fractional-packing LP behind the communication upper bound, on an integer source.

    Variables are one packing entry per hyperedge (bounded by the weights)
    plus one rate per terminal, all >= 0.  Minimizes total retained weight
    subject to rates(B) >= packing weight inside B for every subset B in
    `subset_masks` (every nonempty proper subset for the full LP), and the
    pin total packing minus total rate >= the capacity `mmi_value`, which
    holds with equality at every point that meets the whole subset family
    (module docstring).  On integer weights the capacity is still a
    fraction n/d (a minimum of ratios over |P| - 1), and `lp.solve` takes
    ints, so the pin is written times d: d * (packing - rates) >= n.
    """
    edges = hg.edges
    k = len(edges)
    m = hg.m
    names = [f"x{format_subset(e)}" for e in edges] + [f"r{i}" for i in range(1, m + 1)]
    lp = LinearProgram(
        variables=names,
        objective=[1] * k + [0] * m,
        constraints=[_subset_row(edges, m, mask, 0) for mask in subset_masks],
        upper=[hg.weights[e] for e in edges] + [None] * m,
    )
    (n,), d = to_integers([mmi_value])
    lp.add_constraint([d] * k + [-d] * m, n)
    return lp


def upper_bound_theorem1(
    hg: WeightedHypergraph,
    *,
    mmi_result: Optional[MmiResult] = None,
    method: Method = "auto",
) -> tuple[Fraction, FractionalPacking]:
    """Packing-LP upper bound on the communication to reach capacity.

    Returns the bound (optimal total packing minus capacity) and an optimal
    packing.  The full weight vector is always feasible, so the bound never
    exceeds the omniscience rate; a non-optimal LP status is a bug.
    """
    method = _resolve_method(method)
    mres = mmi_result if mmi_result is not None else mmi(hg)
    m = hg.m
    src, scale = hg.integer_source()
    edges = src.edges
    sol = _solve_rows(
        m,
        method,
        lambda masks: build_gamma_lp(src, mres.value * scale, masks),
        lambda xs, d: subset_weight_table(m, dict(zip(edges, xs))),
        lambda mask: _subset_row(edges, m, mask, 0),
    )
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"packing LP reported {sol.status}")
    packing = FractionalPacking({e: x / scale for e, x in zip(edges, sol.point)})
    return sol.objective_value / scale - mres.value, packing


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
    for label, ok, value, expected in _report_checks(hg, report):
        if not ok:
            raise InternalInvariantError(f"{label}: {value} vs {expected}")
    return report


def run_checks(hg: WeightedHypergraph, report: AnalysisReport) -> list[Check]:
    """Invariant suite over `report = analyze(hg, ...)`.

    Each entry is (label, ok, value, expected).  Beyond the identities
    `analyze` already enforces, the suite solves both LPs again with the
    row method the report did not use.
    """
    other = "rowgen" if report.method == "full" else "full"
    rco_other, _ = r_co_direct(hg, method=other)
    ub_other, _ = upper_bound_theorem1(hg, mmi_result=report.mmi, method=other)
    rco, ub = report.r_co, report.ub_theorem1
    own = _report_checks(hg, report)
    return [
        own[0],
        ("row generation agreement (R_CO)", rco == rco_other, rco, rco_other),
        ("row generation agreement (packing LP)", ub == ub_other, ub, ub_other),
        *own[1:],
    ]
