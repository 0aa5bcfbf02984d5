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
  pins the reduced capacity with one equality, so LP feasibility coincides
  exactly with capacity preservation (`verify_gamma_membership` checks the
  latter independently by recomputing the partition minimum).
* graphical closed forms (`graphical_upper_bound`, `graphical_lower_bound`,
  `ci_graphical`): for sources whose hyperedges are all pairs, the packing
  bound collapses to (m - 2) * capacity, the interactive common information
  equals the weight crossing the fundamental partition, and their
  difference-style lower bound scales that crossing weight.

Rate variables are deliberately left free (no sign constraint): the subset
family includes the singletons, which already force effective
nonnegativity whenever it matters, and tests confirm adding explicit signs
changes nothing on the bundled examples.

Both LPs use one subset family, built by `_subset_row`: for every nonempty
proper subset B, rates(B) - x(edges inside B) >= rhs, with no x and rhs the
entropy of B given the rest for R_CO, and one x per hyperedge and rhs 0 for
the packing LP.  It is materialized in full for m <= 8 and generated on
demand by `separation_oracle` above that, and both paths can be forced for
cross-checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import InternalInvariantError
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table
from .lp import (
    OPTIMAL,
    Constraint,
    LinearProgram,
    solve,
    solve_with_row_generation,
)
from .partitions import MmiResult, cross_edges, mmi

FULL_ROW_DEFAULT_MAX_M = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

Method = str  # "auto" | "full" | "rowgen"


@dataclass(frozen=True)
class FractionalPacking:
    """Retained weight per hyperedge, 0 <= x(e) <= w(e) on the support."""

    entries: dict[int, Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", {mask: Fraction(v) for mask, v in self.entries.items()}
        )

    def total(self) -> Fraction:
        return sum(self.entries.values(), _ZERO)


@dataclass(frozen=True)
class RatePoint:
    rates: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(Fraction(r) for r in self.rates))

    def total(self) -> Fraction:
        return sum(self.rates, _ZERO)


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
    sk_capacity: Fraction
    ub_theorem1: Fraction
    x_star: FractionalPacking
    graphical: Optional[GraphicalBounds]
    # On graphs, the partition scan of the source reduced by x*, which
    # analyze makes for its Type S check and run_checks reuses.
    reduced_mmi: Optional[MmiResult] = None


def _proper_subsets(m: int):
    full = (1 << m) - 1
    return range(1, full)


def _singleton_masks(m: int):
    return [1 << i for i in range(m)]


def _resolve_method(hg: WeightedHypergraph, method: Method) -> str:
    if method == "auto":
        return "full" if hg.m <= FULL_ROW_DEFAULT_MAX_M else "rowgen"
    if method not in ("full", "rowgen"):
        raise ValueError(f"unknown method {method!r}")
    return method


def _rate_sums(m: int, rates: Sequence[Fraction]) -> list[Fraction]:
    sums = [_ZERO] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + rates[low.bit_length() - 1]
    return sums


def separation_oracle(
    hg: WeightedHypergraph,
    inside: Sequence[Fraction],
    rates: Sequence[Fraction],
) -> Optional[int]:
    """Most violated subset row rates(B) >= inside[B], or None if none is violated.

    `inside[B]` is the weight subset mask B must cover: R_CO passes its
    conditional-entropy table, the packing LP `subset_weight_table(m, x)`.
    Minimizes rates(B) - inside[B] over nonempty proper subsets B and returns
    the minimizing mask (smallest on ties) when the minimum is negative.
    """
    rsum = _rate_sums(hg.m, rates)
    best: Optional[Fraction] = None
    best_mask: Optional[int] = None
    for mask in _proper_subsets(hg.m):
        g = rsum[mask] - inside[mask]
        if g < 0 and (best is None or g < best):
            best = g
            best_mask = mask
    return best_mask


def _subset_row(edges: Sequence[int], m: int, mask: int, rhs: Fraction) -> Constraint:
    """The row rates(B) - x(edges inside B) >= rhs; the rates are the last m variables."""
    coeffs = [_MINUS_ONE if e & ~mask == 0 else _ZERO for e in edges]
    coeffs += [_ONE if mask >> i & 1 else _ZERO for i in range(m)]
    return Constraint(tuple(coeffs), ">=", rhs)


def _generate_rows(
    hg: WeightedHypergraph,
    base: LinearProgram,
    inside: Callable[[tuple[Fraction, ...]], Sequence[Fraction]],
    row: Callable[[int], Constraint],
):
    """Solve `base`, adding `row(mask)` for the most violated subset until none is.

    `inside(point)` is the table the point's rates (its last m entries) must cover.
    """

    def oracle(point: tuple[Fraction, ...]) -> Optional[Constraint]:
        mask = separation_oracle(hg, inside(point), point[-hg.m :])
        return None if mask is None else row(mask)

    return solve_with_row_generation(base, oracle, 1 << hg.m)


def build_rco_lp(hg: WeightedHypergraph, subset_masks=None) -> LinearProgram:
    """Omniscience-rate LP: min total rate over the subset-entropy region.

    One row per nonempty proper subset B: the rates inside B must cover the
    entropy of B given the rest.  `subset_masks` narrows the family (used to
    seed row generation).
    """
    cond = hg.conditional_entropy_table()
    masks = _proper_subsets(hg.m) if subset_masks is None else subset_masks
    return LinearProgram(
        variables=[f"R{i}" for i in range(1, hg.m + 1)],
        objective=[_ONE] * hg.m,
        constraints=[_subset_row((), hg.m, mask, cond[mask]) for mask in masks],
    )


def r_co_direct(hg: WeightedHypergraph, *, method: Method = "auto") -> tuple[Fraction, RatePoint]:
    """Minimum omniscience communication rate with an achieving rate point.

    Infeasibility is impossible (each terminal broadcasting its own entropy
    is feasible), so a non-optimal status is reported as an internal error.
    """
    if _resolve_method(hg, method) == "full":
        sol = solve(build_rco_lp(hg))
    else:
        base = build_rco_lp(hg, subset_masks=_singleton_masks(hg.m))
        cond = hg.conditional_entropy_table()
        sol = _generate_rows(
            hg, base, lambda point: cond, lambda mask: _subset_row((), hg.m, mask, cond[mask])
        )
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"omniscience LP reported {sol.status}")
    return sol.objective_value, RatePoint(sol.point)


def build_gamma_lp(
    hg: WeightedHypergraph,
    mmi_value: Fraction,
    subset_masks=None,
) -> LinearProgram:
    """Fractional-packing LP behind the communication upper bound.

    Variables are one packing entry per hyperedge (bounded by the weights)
    plus one free rate per terminal.  Minimizes total retained weight
    subject to every proper subset B satisfying
    rates(B) >= packing weight inside B, and the equality pinning
    total packing minus total rate to the capacity `mmi_value`.
    """
    edges = hg.edges
    k = len(edges)
    m = hg.m
    names = [f"x{format_subset(e)}" for e in edges] + [f"r{i}" for i in range(1, m + 1)]
    masks = _proper_subsets(m) if subset_masks is None else subset_masks
    lp = LinearProgram(
        variables=names,
        objective=[_ONE] * k + [_ZERO] * m,
        constraints=[_subset_row(edges, m, mask, _ZERO) for mask in masks],
        lower=[_ZERO] * k + [None] * m,
        upper=[hg.weights[e] for e in edges] + [None] * m,
    )
    lp.add_constraint([_ONE] * k + [_MINUS_ONE] * m, "=", mmi_value)
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
    mres = mmi_result if mmi_result is not None else mmi(hg)
    edges = hg.edges
    k = len(edges)
    if _resolve_method(hg, method) == "full":
        sol = solve(build_gamma_lp(hg, mres.value))
    else:
        base = build_gamma_lp(hg, mres.value, subset_masks=_singleton_masks(hg.m))
        sol = _generate_rows(
            hg,
            base,
            lambda point: subset_weight_table(hg.m, dict(zip(edges, point[:k]))),
            lambda mask: _subset_row(edges, hg.m, mask, _ZERO),
        )
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"packing LP reported {sol.status}")
    packing = FractionalPacking(dict(zip(edges, sol.point[:k])))
    return sol.objective_value - mres.value, packing


def verify_gamma_membership(
    hg: WeightedHypergraph, packing: FractionalPacking | Mapping[int, Fraction]
) -> bool:
    """True when the packing leaves the secret-key capacity unchanged.

    Recomputes the partition minimum of the reduced source and compares it
    with the original capacity; certifies that an LP-optimal packing is
    capacity-preserving.
    """
    reduced = hg.restrict(packing.entries if isinstance(packing, FractionalPacking) else packing)
    return mmi(reduced).value == mmi(hg).value


def _require_graph(hg: WeightedHypergraph) -> None:
    if not hg.is_graph:
        raise ValueError("graphical analysis requires every hyperedge to have exactly two vertices")


def graphical_upper_bound(
    hg: WeightedHypergraph, *, mmi_result: Optional[MmiResult] = None
) -> Fraction:
    """(m - 2) times the capacity; the packing bound collapses to this on graphs."""
    _require_graph(hg)
    mres = mmi_result if mmi_result is not None else mmi(hg)
    return (hg.m - 2) * mres.value


def graphical_lower_bound(
    hg: WeightedHypergraph, *, mmi_result: Optional[MmiResult] = None
) -> Fraction:
    """Scaled weight of edges crossing the fundamental partition.

    With k cells in the fundamental partition the factor is (k-2)/(k-1),
    so two-cell fundamental partitions give a vacuous bound of 0.
    """
    _require_graph(hg)
    mres = mmi_result if mmi_result is not None else mmi(hg)
    k = mres.fundamental.size
    return Fraction(k - 2, k - 1) * ci_graphical(hg, mmi_result=mres)


def ci_graphical(
    hg: WeightedHypergraph, *, mmi_result: Optional[MmiResult] = None
) -> Fraction:
    """Interactive common information of a graph: weight crossing the fundamental partition."""
    _require_graph(hg)
    mres = mmi_result if mmi_result is not None else mmi(hg)
    _, weight = cross_edges(hg, mres.fundamental)
    return weight


def analyze(hg: WeightedHypergraph, *, method: Method = "auto") -> AnalysisReport:
    """Full report: entropy, capacity, omniscience rate, packing bound, graph bounds.

    Enforces the report identities before returning: capacity equals the
    partition minimum, the omniscience rate equals total entropy minus
    capacity, the packing bound never exceeds the omniscience rate, and on
    graphs the bounds sandwich and the reduced source is Type S.  Violations
    are reported with both conflicting values; they signal bugs.
    """
    entropy_total = hg.total_entropy
    mres = mmi(hg)
    r_co, _rates = r_co_direct(hg, method=method)
    if r_co != entropy_total - mres.value:
        raise InternalInvariantError(
            f"omniscience rate {r_co} != total entropy minus capacity {entropy_total - mres.value}"
        )
    ub1, x_star = upper_bound_theorem1(hg, mmi_result=mres, method=method)
    if ub1 > r_co:
        raise InternalInvariantError(f"packing bound {ub1} exceeds omniscience rate {r_co}")

    graphical: Optional[GraphicalBounds] = None
    reduced_mmi: Optional[MmiResult] = None
    if hg.is_graph:
        graphical = GraphicalBounds(
            ub_theorem2=graphical_upper_bound(hg, mmi_result=mres),
            lower_bound=graphical_lower_bound(hg, mmi_result=mres),
            ci=ci_graphical(hg, mmi_result=mres),
        )
        if not (graphical.lower_bound <= ub1 <= r_co):
            raise InternalInvariantError(
                f"bound sandwich failed: {graphical.lower_bound} <= {ub1} <= {r_co}"
            )
        reduced_mmi = mmi(hg.restrict(x_star.entries))
        if reduced_mmi.fundamental.size != hg.m:
            raise InternalInvariantError(
                "optimally reduced graphical source is not Type S"
            )
    elif all(mask.bit_count() <= 2 for mask in hg.weights):
        warnings.warn(
            "graphical bounds skipped: singleton hyperedges present",
            stacklevel=2,
        )

    return AnalysisReport(
        entropy_total=entropy_total,
        mmi=mres,
        r_co=r_co,
        sk_capacity=mres.value,
        ub_theorem1=ub1,
        x_star=x_star,
        graphical=graphical,
        reduced_mmi=reduced_mmi,
    )


def run_checks(
    hg: WeightedHypergraph, report: AnalysisReport, *, method: Method = "auto"
) -> list[tuple[str, bool, str]]:
    """Invariant suite over `report = analyze(hg, method=method)`.

    Each entry is (label, ok, detail).  The suite adds at most three pieces
    of work: both LPs solved with the row method the report did not use,
    and, unless the report already holds it (graphs), one partition scan of
    the source reduced by x*, which serves both the capacity-preservation
    and the Type S check.
    """
    checks: list[tuple[str, bool, str]] = []
    rco, ub, capacity = report.r_co, report.ub_theorem1, report.sk_capacity
    other = "rowgen" if _resolve_method(hg, method) == "full" else "full"
    rco_other, _ = r_co_direct(hg, method=other)
    ub_other, _ = upper_bound_theorem1(hg, mmi_result=report.mmi, method=other)
    reduced = report.reduced_mmi
    if reduced is None:
        reduced = mmi(hg.restrict(report.x_star.entries))

    identity = report.entropy_total - capacity
    checks.append(
        ("R_CO identity (H - I)", rco == identity, f"{rco} vs {identity}")
    )
    checks.append(
        ("row generation agreement (R_CO)", rco == rco_other, f"{rco} vs {rco_other}")
    )
    checks.append(
        ("row generation agreement (packing LP)", ub == ub_other, f"{ub} vs {ub_other}")
    )
    checks.append(
        ("dominance UB <= R_CO", ub <= rco, f"{ub} vs {rco}")
    )
    checks.append(
        (
            "x* preserves capacity (Gamma membership)",
            reduced.value == capacity,
            "capacity changed under x*",
        )
    )
    if report.graphical is not None:
        ub2 = report.graphical.ub_theorem2
        lb = report.graphical.lower_bound
        ci = report.graphical.ci
        checks.append(
            ("graph agreement UB = (m-2) I", ub == ub2, f"{ub} vs {ub2}")
        )
        checks.append(("sandwich LB <= UB", lb <= ub, f"{lb} vs {ub}"))
        checks.append(("LB = CI - I", lb == ci - capacity, f"{lb} vs {ci - capacity}"))
        checks.append(
            (
                "reduced source is Type S",
                reduced.fundamental.size == hg.m,
                "fundamental partition of reduced source is coarser than singletons",
            )
        )
    return checks
