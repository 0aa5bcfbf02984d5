"""Capacity, omniscience, and communication bounds for hypergraphical sources.

All quantities are exact rationals:

* `r_co_direct`: the minimum total rate of communication for omniscience,
  at the greedy rate point of `flow.dinkelbach`'s last truncation, proved
  optimal by one check of every subset row, on packed ints, and one LP
  row, the sum of the rows of the complements of P*'s cells (below).
* secret-key capacity: equal to the shared-information minimum over
  partitions, and to total entropy minus the omniscience rate.  `mmi`
  certifies it once per hypergraph and keeps the result, so `analyze`,
  `upper_bound_theorem1` and `graphical_bounds` each call `mmi(hg)`.
* `upper_bound_theorem1`: the fractional-packing LP bound on the
  communication needed to reach capacity.  Randomness is removed from
  hyperedges as long as the capacity survives: the bound is the least
  total x(E) - I over Gamma = {0 <= x <= w : I(x) = I}, and x* is in Gamma.
  UB's last row-generation round certifies that (below), so `analyze`
  runs `flow.dinkelbach` once, on its input; `fundamental` keeps the run,
  a `flow.Run`, which `mmi`, `r_co_direct` and UB read by its fields and
  no reader writes.  A report whose x* that round does not certify fails
  its Gamma line; `verify_gamma_membership` truncates the reduced source
  once at gamma = I and checks the same certificate.
* `graphical_bounds`: the closed forms for sources whose hyperedges are
  all pairs.  The packing bound collapses to (m - 2) * capacity, the
  interactive common information equals the weight crossing the
  fundamental partition, and the lower bound scales that crossing weight.

Every LP has the one form `lp.solve` takes: rows `>=`, every variable >= 0
and every cost >= 0, so it starts dual feasible at its slack basis.  Each
is solved on the integer source that `flow.fundamental` keeps (weights
times L, the lcm of their denominators), and what it returns is divided
by L once: every quantity is homogeneous of degree one in the weights.
So every row, bound and cost is an int, as `lp.solve` requires; L times
the capacity, a fraction even on integer weights, comes from the same
run as the ints n / d, so the rows that carry it are written times d.
Row generation reads each point as the LP dictionary's ints over its
denominator D.

R_CO has one row per nonempty proper subset B: the rates inside B cover
the entropy of B given the rest.  With A = M - B and alpha = H(M) - r(M)
the row reads r(A) <= H(A) - alpha, so the rows are the polyhedron of
H - alpha, and the greedy point of `flow.truncation` at gamma = I meets
them all with r(M) = H - I, which is R_CO (Fujishige 2005; Csiszar and
Narayan, IEEE Trans. IT, 2004).  `r_co_direct` takes that point from
`flow.fundamental` and proves it optimal without trusting the truncation
and with no LP rounds.  One `separation_oracle` call shows that it meets
every row, so R_CO <= its sum: on the point's ints it compares the packed
conditional-entropy table of the weights times d with the packed rate
sums of every subset, every field in one subtraction, and builds no list
of 2^m entries; only a missed row goes to the list sweep, which names
it.  `_missed_row` is that check, with both sides of a missed row, for
`r_co_direct`, `run_checks` and the Gamma certificate alike.  When the
singletons' rate rows decided the run (`Run.rows`), that
check has run already, on the same ints (the weights times d, the rates
xs, n / d in lowest terms), and no second table is built.  When the
run's guard built the source's packed table (`Run.table`, fields the
weight inside each subset), that table times d, one multiplication,
is the packed table of the weights times d, and the check reads it in
place of building its own wherever its fields are as wide as the check
needs; it stays on the run, and `run_checks` reads it times its own
denominator the same way.  The relaxation `build_rco_lp` keeps one row,
the sum of the rows of the complements of P*'s cells: (|P*| - 1) * r(M)
>= the sum of H(M - C | C) over the cells C, that is
r(M) >= H - value(P*).  Every
rate point meets it, so by weak duality R_CO is at least its optimum;
`lp.solve` certifies that optimum once, and it must equal the point's
sum, so R_CO >= its sum.  It has one column, y = r(M).
`tests/reference_rco.py` keeps the relaxation with its
rows one by one, over one column per cell and over one per terminal, the
LP with every row and its row generation from the complements of the
singletons, and `tests/reference_separation.py` the `Fraction` sweep, as
test oracles.

UB's LP is over Gamma itself.  A group's entropy is the weight of the edges
that meet it, and I is monotone in the weights, so Gamma has one row per
partition P with two cells or more: the sum over the edges e of
(c_P(e) - 1) * x_e >= I * (|P| - 1), where c_P(e) counts the cells of P
that e meets; a singleton meets one cell of every P and gets no column.

Nor does an edge that crosses P*, with c_P*(e) >= 2, one that
`partitions.crossing` returns: every x in Gamma equals w on it.  `mmi`
certifies value(P*) = I, so P*'s row is tight at w: the sum of
(c_P*(e) - 1) * w_e is I * (|P*| - 1).  Every x in Gamma meets that row,
so the sum of (c_P*(e) - 1) * (w_e - x_e) is <= 0.  Each term is >= 0,
as c_P*(e) >= 1 and x <= w, so each is 0: x_e = w_e wherever
c_P*(e) >= 2.  So `upper_bound_theorem1` fixes the edges `crossing`
returns at their weights, their terms move into every row's right-hand
side, the LP keeps only the edges inside P*'s cells, and UB is its
optimum plus w(crossing), minus I.  A Type-S source's LP has no column:
its singletons' row reads 0 >= 0, so round one is optimal at the slack
basis and the oracle certifies it at once.

Rows are generated from the singletons' partition.  x, with the crossing
edges at w, meets them all exactly when no P has a sum of H_x(C) - I over
its cells C below x(E) - I, the one-cell partition's, and
`flow.truncation` finds the least sum in at most m - 1 min cuts
(Narayanan 1991; Fujishige, *Submodular Functions and Optimization*, 2005).
Each round hands it the subset table of the round's point wherever
`flow.step_table`, the guard `flow.dinkelbach` builds its own table
under, builds one: every step is then read off that table, with no cut.
The table lives for that round only.
The paper's subset-row LP stays in `tests/reference_packing.py`, with both
row methods, as the oracle; it knows nothing of P*.

The last round proves x* in Gamma, and UB hands it along with x*, as
the `FractionalPacking`'s `last_round`: the point's ints p over L * den,
with each crossing edge at w * den and no singleton, and the cells and
greedy point ys / d of its truncation at gamma = L * I * den.
`_report_checks` accepts it (`_certified_round`) when x* is
p / (L * den) on every edge, cross-multiplied, 0 on each singleton, with
0 <= p <= w * den, sum(ys) is the one-cell partition's sum
d * p(E) - n * den, and one `separation_oracle` call finds ys(B) >=
d * H_p(B | M - B) on every nonempty proper B (`_proves_capacity`), all
against the run of the hypergraph being checked, so a round from
anywhere is either sound or rejected.  Then for every nonempty
A = M - B, ys(A) = ys(M) - ys(B) <= d * (H_p(A) - gamma): ys / d lies in
the polyhedron of H_x - I, so over the cells C of any partition P the
sum of H_x(C) - I is at least ys(M) / d, the one-cell partition's
H_x(M) - I, so value_x(P) >= I.  As x* <= w and I is monotone in the
weights, I(x*) <= I, so I(x*) = I.  The Type S line reads the number of
the round's cells, P*(x*): that trusts the truncation exactly as a
Dinkelbach run on the reduced source would (`tests/reference_gamma.py`
keeps that run as the oracle).  When any condition fails, both lines
fail and print that no certificate came from UB's last round: `analyze`
always hands the round along with its x*, so only a fault gets there,
and no second computation can print ok over it.

`lp` certifies each optimum by LP duality.  Each report identity is
written once, in `_report_checks`: `analyze` raises on it and keeps the
list on the report, `run_checks` reads that list, or builds it for a
report that carries none, as a `dataclasses.replace` copy does, and
adds only the rate point's check of every subset row.  With
R_CO = H - I that point proves R_CO optimal, and with x* in Gamma and
UB = x*(E) - I the certified LP proves UB optimal over all of Gamma.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InternalInvariantError
from .flow import fundamental, step_table, truncation
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table
from .hypergraph import naturals, packed_table, packed_width, rate_rows, unpack
from .lp import OPTIMAL, Constraint, LinearProgram, solve, solve_with_row_generation
from .partitions import MmiResult, bell, cross_edges, crossing, mmi
from .rational import affine, is_ratio, to_integers

Check = tuple[str, bool, object, object]  # (label, ok, value, expected)


@dataclass(frozen=True)
class FractionalPacking:
    """Retained weight per hyperedge, 0 <= x(e) <= w(e) on the support.

    `upper_bound_theorem1` hands its last row-generation round along with
    the packing it certifies, as `last_round` (point, den, cells, ys), for
    `_certified_round`; equality and `repr` read only the entries.
    """

    entries: dict[int, Fraction]
    last_round: Optional[tuple] = field(default=None, compare=False, repr=False)


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
    rates: RatePoint  # the optimal rate point behind r_co
    ub_theorem1: Fraction
    x_star: FractionalPacking
    graphical: Optional[GraphicalBounds]
    # The identities `analyze` enforced, from `_report_checks`: no copy carries them, and equality reads none.
    checks: tuple[Check, ...] = field(default=(), init=False, compare=False)


def _check_method(method: str) -> None:
    if method not in ("auto", "rowgen"):
        raise ValueError(f"unknown method {method!r}")


def separation_oracle(
    entries: Mapping[int, Fraction | int], rates: Sequence, table: Optional[tuple[int, int]] = None
) -> Optional[int]:
    """Most violated subset row rates(B) >= entries(B), or None if none is violated.

    B runs over the nonempty proper subsets of the len(rates) terminals, and
    entries(B) is the total value of `entries` on the masks inside B: R_CO
    passes its integer source's weights times d (the subset-row packing LP
    of `tests/reference_packing.py` passes a packing).  When every value is
    an int >= 0, every row is checked at once on packed ints by
    `hypergraph.rate_rows`: the rate sums of every subset less the
    `packed_table` of the entries, in fields of the narrowest W of 8, 16,
    32 and 64 bits with both totals below 2^(W - 1), each field's top bit
    set exactly when its row holds (the empty set's row, 0 >= an entry on
    mask 0, fails only into the sweep).  `table`, when given, is
    (W', the `packed_table` of the entries at W'), and is read in place of
    a new table when W' >= W: wider fields leave each top bit as free.
    Otherwise, or when a row fails, one sweep over the list
    `subset_weight_table` minimizes rates(B) - entries(B) and returns the
    minimizing mask (smallest on ties) when the minimum is negative.
    Works in the type of its inputs; R_CO, `run_checks` and row generation
    pass ints, both sides scaled by one common denominator.
    """
    m, values = len(rates), entries.values()
    width = packed_width(max(sum(values), sum(rates)) << 1) if naturals([*values, *rates]) else 0
    if width:
        width, packed = table if table and table[0] >= width else (width, packed_table(m, entries, width))
        if rate_rows(m, packed, width, rates)[1]:
            return None
    sums = [0]  # sums[B] = rates(B), one doubling per terminal
    for rate in rates:
        sums += [s + rate for s in sums]
    gaps = list(map(operator.sub, sums, subset_weight_table(m, entries)))
    least = min(gaps[1:-1], default=0)
    return gaps.index(least, 1) if least < 0 else None


def _missed_row(
    entries: Mapping[int, int], xs: Sequence[int], d: int = 1, table: Optional[tuple[int, int]] = None
) -> Optional[tuple[int, int, int]]:
    """(mask, xs(B), entries(B)) of the subset row B = mask that xs miss most, or None when they meet every row.

    `entries` are int weights times d, the denominator of the rates xs, and
    `table`, when given, is the (W, `packed_table`) of the weights alone, a
    run's `table`: `separation_oracle` reads it times d, the packed table
    of `entries`, in place of packing its own.
    """
    mask = separation_oracle(entries, xs, table and (table[0], table[1] * d))
    return None if mask is None else (mask, sum(x for i, x in enumerate(xs) if mask >> i & 1),
                                      sum(w for e, w in entries.items() if not e & ~mask))


def build_rco_lp(entries: Mapping[int, int], cells: Sequence[int]) -> LinearProgram:
    """R_CO's relaxation over the cells C of P = `cells`: min y, the total rate, over one row.

    The row is the sum, over the cells C, of the subset rows of their
    complements, r(M - C) >= the total of `entries` on the edges that miss
    C, the entropy of M - C given C: (|P| - 1) * y >= that sum, with
    y = r(M).  Every rate point meets it, so R_CO is at least its
    optimum, H - value(P), which at P = P* is H - I.  `entries` are a
    source's weights times one factor, which scales the optimum.
    """
    edges = entries.items()
    rhs = sum([sum([w for e, w in edges if not e & c]) for c in cells])
    return LinearProgram(["y"], [1], [Constraint((len(cells) - 1,), rhs)])


def r_co_direct(hg: WeightedHypergraph, *, method: str = "auto") -> tuple[Fraction, RatePoint]:
    """Minimum omniscience communication rate with an achieving rate point.

    The point is the greedy point xs / d of `flow.dinkelbach`'s last
    truncation, on the integer source, read from `flow.fundamental`.  One
    `separation_oracle` check, handed the run's kept table times d, must
    show that it meets every subset row, unless the run's own `rows`
    showed it, and the relaxation `build_rco_lp`, the summed row of the
    complements of P*'s cells, solved once, must have its sum as optimum;
    either failure is reported as an internal error, naming the row or
    both values.
    """
    _check_method(method)
    run = fundamental(hg)
    xs, q = run.xs, run.d * run.scale
    entries = {e: w * run.d for e, w in run.src.weights.items()}  # over d, as xs are; the relaxation reads them too
    # Rows that decided the run checked these rows on these ints already.
    missed = None if run.rows else _missed_row(entries, xs, run.d, run.table)
    if missed is not None:
        have, need = (Fraction(v, q) for v in missed[1:])
        raise InternalInvariantError(
            f"the greedy rate point misses the subset row of {format_subset(missed[0])}: {have} vs {need}"
        )
    total = sum(xs)
    sol = solve(build_rco_lp(entries, run.cells))
    if sol.objective_value != total:  # None unless optimal
        found = sol.status if sol.objective_value is None else sol.objective_value / q
        raise InternalInvariantError(
            f"the relaxation over P*'s cells has optimum {found},"
            f" not the rate point's sum {Fraction(total, q)}"
        )
    return Fraction(total, q), RatePoint(tuple(Fraction(x, q) for x in xs))


def _partition_row(
    edges: Sequence[int], fixed: Mapping[int, int], cells: Sequence[int], n: int, d: int
) -> Constraint:
    """The row of P = `cells` over the columns `edges`, each edge of `fixed` at its weight.

    Over all edges the row reads: the sum of d * (cells e meets - 1) * x_e >= n * (|P| - 1).
    The terms of the fixed edges move to the right-hand side, which may then be <= 0.
    """
    moved = sum([w * (len([c for c in cells if c & e]) - 1) for e, w in fixed.items()])
    coeffs = tuple([d * (len([c for c in cells if c & e]) - 1) for e in edges])
    return Constraint(coeffs, n * (len(cells) - 1) - d * moved)


def build_gamma_lp(
    hg: WeightedHypergraph, edges: Sequence[int], fixed: Mapping[int, int], n: int, d: int
) -> LinearProgram:
    """UB's working LP over Gamma, with L * I = n / d: the row of the singletons.

    One column per hyperedge of `edges`, the non-singleton ones inside a
    cell of P*, named x and the edge's mask: cost 1, bounded by its weight.
    The edges of `fixed`, those that cross P*, are at their weights in the
    row; a Type-S source has no column, and its row reads 0 >= 0.
    """
    return LinearProgram(
        variables=[f"x{e}" for e in edges],
        objective=[1] * len(edges),
        constraints=[_partition_row(edges, fixed, [1 << i for i in range(hg.m)], n, d)],
        upper=[hg.weights[e] for e in edges],
    )


def upper_bound_theorem1(hg: WeightedHypergraph, *, method: str = "auto") -> tuple[Fraction, FractionalPacking]:
    """Packing-LP upper bound on the communication to reach capacity.

    Returns the bound (optimal total packing minus capacity) and an optimal
    packing: the weight on each edge that crosses P* (`mmi(hg).fundamental`),
    the LP's optimum on the edges inside its cells, 0 on singleton edges.
    The integer source and L * I = n / d come from `flow.fundamental`.
    Each round hands `flow.truncation` the point's ints xs, as weights,
    with every crossing edge at its weight times D, at gamma = n * D / d,
    and their subset table wherever `flow.step_table` builds one; a least
    sum, over d, below the total of those weights minus gamma gives the
    violated row of the truncation's cells.  All of it is in ints.  The
    last round, which finds none, rides on the packing, as its
    `last_round`, for `_report_checks`.  Each x* entry and the bound, from
    the LP's certified optimum, are built as one `Fraction` each.  The
    full weight vector is always feasible, so the bound never exceeds the
    omniscience rate; a non-optimal LP status is a bug.
    """
    _check_method(method)
    mres, run = mmi(hg), fundamental(hg)
    src, n, d, scale, order = run.src, run.n, run.d, run.scale, run.src.edges
    # Every x in Gamma equals w on the edges that cross P* (module docstring).
    fixed = crossing(src.weights, mres.fundamental.cells)
    edges = [e for e in order if e & (e - 1) and e not in fixed]
    rounds = [None]  # the last: the round that finds no violated row, None if the oracle never ran

    def oracle(xs: Sequence[int], den: int) -> Optional[Constraint]:
        point = {e: w * den for e, w in fixed.items()}
        point.update(zip(edges, xs))
        total = sum(point.values())
        table = step_table(src.m, point, n, total)
        cells, ys = truncation(src.m, point, n * den, d, table and unpack(table[1], 1 << src.m, table[0]))
        if sum(ys) < total * d - n * den:
            return _partition_row(edges, fixed, cells, n, d)
        rounds.append((point, den, cells, ys))
        return None

    sol = solve_with_row_generation(build_gamma_lp(src, edges, fixed, n, d), oracle, bell(src.m) - 1)
    if sol.status != OPTIMAL:
        raise InternalInvariantError(f"packing LP reported {sol.status}")
    entries = dict.fromkeys(order, Fraction(0))
    entries.update((e, Fraction(w, scale)) for e, w in fixed.items())
    entries.update((e, affine(x, 1, 0, scale)) for e, x in zip(edges, sol.point))
    # UB = (the LP's optimum + w(crossing) - n / d) / L, with L * I = n / d.
    ub = affine(sol.objective_value, d, sum(fixed.values()) * d - n, d * scale)
    return ub, FractionalPacking(entries, rounds[-1])


def _proves_capacity(point: Mapping[int, int], ys: Sequence[int], n: int, d: int) -> bool:
    """True when ys / d shows that the source of int weights `point` has no partition of
    value below gamma = n / d: ys sums to d * H(M) - n, the one-cell partition's sum, and
    one `separation_oracle` call finds ys(B) >= d * H(B | M - B) on every row (module docstring)."""
    return sum(ys) == d * sum(point.values()) - n and _missed_row({e: p * d for e, p in point.items()}, ys) is None


def _certified_round(hg: WeightedHypergraph, packing: FractionalPacking) -> Optional[tuple[int, int, int]]:
    """(x*(E) as ints p / q, |P*(x*)|) from the UB round that `packing` carries, when it
    certifies x* = `packing.entries` in Gamma for `hg`'s own run (module docstring); else
    None.  No `Fraction` is built."""
    if packing.last_round is None or len(packing.entries) != len(hg.weights):
        return None
    run, (point, den, cells, ys) = fundamental(hg), packing.last_round
    q, weights = run.scale * den, run.src.weights
    for e, x in packing.entries.items():
        p = point.get(e, 0)
        if not (0 <= p <= weights.get(e, -1) * den and is_ratio(x, p, q)):
            return None
    return (sum(point.values()), q, len(cells)) if _proves_capacity(point, ys, run.n * den, run.d) else None


def verify_gamma_membership(
    hg: WeightedHypergraph, packing: FractionalPacking | Mapping[int, Fraction]
) -> bool:
    """True when the packing leaves the secret-key capacity unchanged (is in Gamma).

    One `flow.truncation` of the reduced source at gamma = I, on its
    integer source: the packing keeps I exactly when the least sum is the
    one-cell partition's.  Its greedy point must then pass
    `_proves_capacity`, the certificate `analyze` reads from UB's last
    round, or it raises InternalInvariantError.  I is read from `hg`'s kept
    run, and no `flow.dinkelbach` runs on the reduced source.
    """
    entries = packing.entries if isinstance(packing, FractionalPacking) else packing
    reduced, factor = hg.restrict(entries).integer_source()
    run = fundamental(hg)
    n, d = run.n * factor, run.d * run.scale  # gamma = I times the reduced source's own L
    _, ys = truncation(hg.m, reduced.weights, n, d)
    if sum(ys) < d * sum(reduced.weights.values()) - n:
        return False
    if not _proves_capacity(reduced.weights, ys, n, d):
        claim = f"the truncation of the reduced source finds no partition below I = {Fraction(n, d * factor)}"
        raise InternalInvariantError(f"{claim}, but its greedy point does not show it")
    return True


def graphical_bounds(hg: WeightedHypergraph) -> GraphicalBounds:
    """The closed forms of a graph: UB(Thm 2), LB(Thm 3) and CI.

    UB(Thm 2) = (m - 2) * I, to which the packing bound collapses on graphs;
    CI is the weight crossing the fundamental partition, summed on the
    integer source; with k cells in it, LB(Thm 3) = (k - 2) / (k - 1) * CI,
    so a two-cell P* gives 0.  Raises ValueError unless every hyperedge has
    exactly two vertices.
    """
    if not hg.is_graph:
        raise ValueError("graphical analysis requires every hyperedge to have exactly two vertices")
    mres, run = mmi(hg), fundamental(hg)
    k = mres.fundamental.size
    ci = cross_edges(run.src, mres.fundamental) / run.scale
    return GraphicalBounds(
        ub_theorem2=(hg.m - 2) * mres.value,
        lower_bound=Fraction(k - 2, k - 1) * ci,
        ci=ci,
    )


def _report_checks(hg: WeightedHypergraph, report: AnalysisReport) -> list[Check]:
    """The report identities.  x* in Gamma and the Type S line read only UB's last round: I and
    |P*(x*)| when it certifies x* (`_certified_round`), else both lines fail, naming the certificate."""
    rco, ub, capacity = report.r_co, report.ub_theorem1, report.mmi.value
    identity = report.entropy_total - capacity
    certified = _certified_round(hg, report.x_star)
    if certified is None:
        total = sum(report.x_star.entries.values())
        kept = size = "no certificate from UB's last round"
    else:
        run = fundamental(hg)
        total, kept, size = Fraction(certified[0], certified[1]), Fraction(run.n, run.d * run.scale), certified[2]
    packed = total - capacity
    checks = [
        ("R_CO identity (H - I)", rco == identity, rco, identity),
        ("UB = x*(E) - I", ub == packed, ub, packed),
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


def analyze(hg: WeightedHypergraph, *, method: str = "auto") -> AnalysisReport:
    """Full report: entropy, capacity, omniscience rate, packing bound, graph bounds.

    Raises InternalInvariantError, with both values, on the first identity
    of `_report_checks` that the report breaks (R_CO = H - I,
    UB = x*(E) - I, UB <= R_CO, x* in Gamma, and on graphs UB = (m - 2) I,
    LB <= UB, LB = CI - I, Type S reduced source); a violation signals a
    bug.  H is summed on the integer source.
    """
    _check_method(method)
    mres, run = mmi(hg), fundamental(hg)
    r_co, rates = r_co_direct(hg, method=method)
    ub1, x_star = upper_bound_theorem1(hg, method=method)
    graphical: Optional[GraphicalBounds] = None
    if hg.is_graph:
        graphical = graphical_bounds(hg)
    elif all(mask.bit_count() <= 2 for mask in hg.weights):
        warnings.warn("graphical bounds skipped: singleton hyperedges present", stacklevel=2)
    report = AnalysisReport(
        entropy_total=Fraction(sum(run.src.weights.values()), run.scale),
        mmi=mres,
        r_co=r_co,
        rates=rates,
        ub_theorem1=ub1,
        x_star=x_star,
        graphical=graphical,
    )
    checks = tuple(_report_checks(hg, report))
    for label, ok, value, expected in checks:
        if not ok:
            raise InternalInvariantError(f"{label}: {value} vs {expected}")
    object.__setattr__(report, "checks", checks)  # the report is new: no reader has it yet
    return report


def run_checks(hg: WeightedHypergraph, report: AnalysisReport) -> list[Check]:
    """Invariant suite over `report = analyze(hg)`.

    Each entry is (label, ok, value, expected): the identities `analyze`
    enforced, from `report.checks`, or from `_report_checks` when the
    report carries none, and the rate point, which must sum to
    R_CO and meet every subset row by one `separation_oracle` call in ints.
    Those ints come from the printed rates, over their own denominator d;
    the check reads the run's kept table times d, which depends on the
    weights alone, in place of packing its own.
    A failure shows rates(B) and H(B | M - B) of the worst B, else r(M) and R_CO.
    """
    run, rates = fundamental(hg), report.rates.rates
    xs, d = to_integers([r * run.scale for r in rates])
    missed = _missed_row({e: w * d for e, w in run.src.weights.items()}, xs, d, run.table)
    value, expected = (sum(rates), report.r_co) if missed is None else (Fraction(v, d * run.scale) for v in missed[1:])
    line = ("rate point meets every subset row (R_CO)", value == expected, value, expected)
    checks = report.checks or _report_checks(hg, report)
    return [checks[0], line, *checks[1:]]
