"""Seeded inputs, operations and exact output checks for the three workloads.

An input is generated here as a weight map (hyperedge bitmask -> Fraction)
and rendered to the document text the `skbounds` parser reads; the program
only ever receives that text.  Every check compares the program's output
with a value the benchmark derives itself from the weight map, or with an
identity that does not depend on the seed.

A workload is a round template: a fixed list of (operation, source family,
m).  The pool of a run holds several rounds, each with fresh sources for
every slot, so the mix of sizes and families is the same on every seed and
only the sources vary.  The pool is sized from the run's --seconds and the
nominal time of one round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

ANALYZE, MMI, RCO, UB = "analyze", "mmi", "rco", "ub"


@dataclass(frozen=True)
class Profile:
    template: tuple[tuple[str, str, int], ...]
    round_estimate_s: float  # one round on the reference machine; sizes the pool
    method: str  # row method passed to r_co_direct / upper_bound_theorem1
    expected_spans: frozenset  # spans the traced run must see called


_CORPUS_SPANS = frozenset({
    "cli.parse", "rational.parse", "bounds.analyze", "partitions.mmi",
    "partitions.cross_edges", "hypergraph.table", "bounds.r_co_direct",
    "bounds.upper_bound_theorem1", "bounds.build_rco_lp", "bounds.build_gamma_lp",
    "lp.solve",
})
_SCAN_SPANS = frozenset({"cli.parse", "rational.parse", "partitions.mmi", "hypergraph.table"})
_ROWGEN_SPANS = frozenset({
    "cli.parse", "rational.parse", "bounds.r_co_direct", "bounds.upper_bound_theorem1",
    "lp.rowgen", "lp.solve", "bounds.separation", "hypergraph.table",
    "bounds.build_rco_lp", "bounds.build_gamma_lp", "partitions.mmi",
})

# Why these workloads:
# * corpus: many small sources through parse + analyze with full rows, at
#   the sizes the acceptance suite sweeps (m = 3..7); the exact LP dominates.
# * partition-scan: the Bell(m) scan at m = 9..10 with no LP at all, so an LP
#   change must read "no change" here; tie-heavy sources stress the
#   all-minimizers list.
# * rowgen: row generation.  The omniscience rate at m = 10 (the CLI
#   default above m = 8), where the 2^m tables and the separation oracle
#   take about half the time, and the packing bound at m = 6 (as with
#   --row-gen), which re-solves a growing LP once per cut.
# Sizes keep single operations short enough that a run sees dozens of
# sources: the cost of one source varies by 20-80 % with its edges (R_CO at
# m = 12 takes 0.8 s or 1.5 s), so a run over few large sources would
# measure the seed, not the program.  The extra graphs at m = 5 in corpus,
# the four m = 9 slots in partition-scan and the four R_CO slots in rowgen
# put the median latency inside one size class rather than on the edge
# between two.
WORKLOADS = {
    "full": {
        "corpus": Profile(
            tuple((ANALYZE, fam, m) for m in range(3, 8) for fam in ("hyper", "graph"))
            + ((ANALYZE, "graph", 5), (ANALYZE, "graph", 5)),
            round_estimate_s=1.2, method="auto",
            expected_spans=_CORPUS_SPANS,
        ),
        "partition-scan": Profile(
            ((MMI, "cycle", 9), (MMI, "type_s", 9), (MMI, "tie", 9),
             (MMI, "cycle", 9), (MMI, "tie", 10)),
            round_estimate_s=4.2, method="auto",
            expected_spans=_SCAN_SPANS,
        ),
        "rowgen": Profile(
            ((RCO, "cycle", 10), (RCO, "cycle", 10), (RCO, "cycle", 10),
             (RCO, "cycle", 10), (UB, "cycle", 6)),
            round_estimate_s=2.4, method="rowgen",
            expected_spans=_ROWGEN_SPANS,
        ),
    },
    # Same operations and checks at desk sizes, for the benchmark's own tests.
    "tiny": {
        "corpus": Profile(
            tuple((ANALYZE, fam, m) for m in (3, 4) for fam in ("hyper", "graph")),
            round_estimate_s=0.05, method="auto",
            expected_spans=_CORPUS_SPANS,
        ),
        "partition-scan": Profile(
            ((MMI, "cycle", 5), (MMI, "type_s", 5), (MMI, "tie", 6)),
            round_estimate_s=0.05, method="auto",
            expected_spans=_SCAN_SPANS,
        ),
        "rowgen": Profile(
            ((RCO, "cycle", 5), (RCO, "cycle", 6), (UB, "cycle", 4)),
            round_estimate_s=0.1, method="rowgen",
            expected_spans=_ROWGEN_SPANS,
        ),
    },
}


def pool_rounds(profile: Profile, seconds: float) -> int:
    """Rounds in the pool.  Fixed by the arguments, not by a clock, so the
    pool is the same on every machine and traced counts repeat exactly."""
    return max(1, round(seconds / profile.round_estimate_s))


# ---------------------------------------------------------------- sources

@dataclass(frozen=True)
class Source:
    kind: str
    family: str
    m: int
    weights: dict  # mask -> Fraction, as generated
    doc: str
    pair: int = 0  # the one pair edge of a tie-heavy source
    type_s_value: Fraction | None = None  # capacity of a Type-S source


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))


def _add(weights: dict, mask: int, value: Fraction) -> None:
    weights[mask] = weights.get(mask, Fraction(0)) + value


def _hyper(rng, m):
    # Edge sizes 1..4, some singletons, duplicates merged.
    weights: dict = {}
    for _ in range(m + rng.randint(0, 2)):
        size = min(m, rng.choice((1, 2, 2, 3, 3, 4)))
        _add(weights, _mask(rng.sample(range(1, m + 1), size)), _weight(rng))
    return weights, {}


def _graph(rng, m):
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    chosen = rng.sample(pairs, min(len(pairs), m + 1))
    return {_mask(p): _weight(rng) for p in chosen}, {}


def _cycle(rng, m):
    # An m-cycle plus m random 2- or 3-edges.
    weights: dict = {}
    for i in range(1, m + 1):
        _add(weights, _mask((i, i % m + 1)), _weight(rng))
    for _ in range(m):
        _add(weights, _mask(rng.sample(range(1, m + 1), rng.choice((2, 3)))), _weight(rng))
    return weights, {}


def _type_s(rng, m):
    # Uniform-weight cycle or complete graph on relabeled vertices: the
    # singletons are the only minimizer, with capacity c*m/(m-1) or c*m/2.
    c = _weight(rng)
    order = list(range(1, m + 1))
    rng.shuffle(order)
    if rng.random() < 0.5:
        edges = [(order[i], order[(i + 1) % m]) for i in range(m)]
        value = c * m / (m - 1)
    else:
        edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
        value = c * m / 2
    return {_mask(e): c for e in edges}, {"type_s_value": value}


def _tie(rng, m):
    # Singleton edges plus one pair: every partition keeping the pair
    # together has value 0, so there are Bell(m-1) - 1 minimizers.
    weights = {1 << i: _weight(rng) for i in range(m)}
    pair = _mask(rng.sample(range(1, m + 1), 2))
    weights[pair] = _weight(rng)
    return weights, {"pair": pair}


_FAMILIES = {"hyper": _hyper, "graph": _graph, "cycle": _cycle, "type_s": _type_s, "tie": _tie}


def _format(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render(m: int, weights: dict) -> str:
    lines = [f"m = {m}"]
    for mask in sorted(weights):
        vertices = " ".join(str(v + 1) for v in range(m) if mask >> v & 1)
        lines.append(f"edge {vertices} : {_format(weights[mask])}")
    return "\n".join(lines) + "\n"


def make_source(rng: random.Random, kind: str, family: str, m: int) -> Source:
    weights, extra = _FAMILIES[family](rng, m)
    return Source(kind, family, m, weights, render(m, weights), **extra)


def make_pool(profile: Profile, workload: str, seed: int, rounds: int) -> list[list[Source]]:
    rng = random.Random(f"{workload}/{seed}")
    return [
        [make_source(rng, kind, family, m) for kind, family, m in profile.template]
        for _ in range(rounds)
    ]


# ---------------------------------------------------------------- operations

def run_op(sk, src: Source, method: str):
    """One timed operation: parse the document, then the requested analysis."""
    hg = sk.cli.parse_document(src.doc)
    if src.kind == ANALYZE:
        return hg, sk.analyze(hg, method=method)
    if src.kind == MMI:
        return hg, sk.mmi(hg)
    if src.kind == RCO:
        return hg, sk.r_co_direct(hg, method=method)
    return hg, sk.upper_bound_theorem1(hg, method=method)


# ---------------------------------------------------------------- checks
#
# Each check returns a list of failure descriptions; empty means correct.
# The helpers below are the benchmark's own reference implementations.

def entropy_total(weights: dict) -> Fraction:
    return sum(weights.values(), Fraction(0))


def _entropy(weights: dict, subset: int) -> Fraction:
    return sum((w for e, w in weights.items() if e & subset), Fraction(0))


def partition_value(weights: dict, cells) -> Fraction:
    acc = sum((_entropy(weights, c) for c in cells), Fraction(0)) - entropy_total(weights)
    return acc / (len(cells) - 1)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _coarsens(fine_cells, coarse_cells) -> bool:
    return all(any(c & ~big == 0 for big in coarse_cells) for c in fine_cells)


def _is_graph(weights: dict) -> bool:
    return all(mask.bit_count() == 2 for mask in weights)


def _check_packing(src: Source, entries: dict, fails: list) -> Fraction:
    if set(entries) != set(src.weights):
        fails.append("x* support differs from the edge set")
        return Fraction(0)
    for e, x in entries.items():
        if not 0 <= x <= src.weights[e]:
            fails.append(f"x*({e:b}) = {x} outside [0, {src.weights[e]}]")
    return sum(entries.values(), Fraction(0))


def check(sk, src: Source, out, method: str) -> list[str]:
    hg, result = out
    fails: list[str] = []
    if hg.m != src.m or hg.weights != src.weights:
        fails.append("parsed source differs from the generated one")
    H = entropy_total(src.weights)
    if src.kind == ANALYZE:
        _check_analyze(sk, src, hg, result, H, fails)
    elif src.kind == MMI:
        _check_mmi(sk, src, hg, result, H, method, fails)
    elif src.kind == RCO:
        _check_rco(src, result, H, fails)
    else:
        _check_ub(sk, src, hg, result, method, fails)
    return fails


def _check_analyze(sk, src, hg, rep, H, fails):
    I = rep.mmi.value
    if rep.entropy_total != H:
        fails.append(f"H = {rep.entropy_total}, expected {H}")
    if rep.r_co != H - I:
        fails.append(f"R_CO = {rep.r_co} != H - I = {H - I}")
    if not rep.ub_theorem1 <= rep.r_co:
        fails.append(f"UB = {rep.ub_theorem1} > R_CO = {rep.r_co}")
    total = _check_packing(src, rep.x_star.entries, fails)
    if rep.ub_theorem1 != total - I:
        fails.append(f"UB = {rep.ub_theorem1} != sum x* - I = {total - I}")
    if not sk.verify_gamma_membership(hg, rep.x_star):
        fails.append("x* changes the capacity")
    if partition_value(src.weights, rep.mmi.fundamental.cells) != I:
        fails.append("value of P* differs from I")
    g = rep.graphical
    if _is_graph(src.weights):
        if g is None:
            fails.append("graphical block missing for a graph")
        else:
            if not g.lower_bound <= rep.ub_theorem1 <= rep.r_co:
                fails.append(f"sandwich fails: {g.lower_bound} <= {rep.ub_theorem1} <= {rep.r_co}")
            if not rep.ub_theorem1 == g.ub_theorem2 == (src.m - 2) * I:
                fails.append(f"graph bound {rep.ub_theorem1} != (m-2) I = {(src.m - 2) * I}")
    elif g is not None:
        fails.append("graphical block present for a non-graph")


def _check_mmi(sk, src, hg, res, H, method, fails):
    I = res.value
    r_co, _rates = sk.r_co_direct(hg, method=method)
    if I != H - r_co:
        fails.append(f"I = {I} != H - R_CO = {H - r_co}")
    fine = res.fundamental.cells
    if partition_value(src.weights, fine) != I:
        fails.append("value of P* differs from I")
    if not all(_coarsens(fine, part.cells) for part in res.all_minimizers):
        fails.append("a minimizer does not coarsen P*")
    if src.family == "tie":
        expected_cells = sorted([src.pair] + [1 << i for i in range(src.m) if not src.pair >> i & 1])
        if I != 0 or sorted(fine) != expected_cells:
            fails.append(f"tie-heavy source: I = {I}, P* = {fine}")
        if len(res.all_minimizers) != bell(src.m - 1) - 1:
            fails.append(f"{len(res.all_minimizers)} minimizers, expected {bell(src.m - 1) - 1}")
    if src.family == "type_s":
        if I != src.type_s_value or len(fine) != src.m or len(res.all_minimizers) != 1:
            fails.append(f"Type-S source: I = {I}, |P*| = {len(fine)}")


def _check_rco(src, result, H, fails):
    value, point = result
    rates = point.rates
    if value != sum(rates, Fraction(0)):
        fails.append("R_CO differs from the sum of its rate point")
    # Every subset constraint: rates inside B cover the weight inside B.
    # Scaled to integers over one common denominator to keep the 2^m loop cheap.
    full = (1 << src.m) - 1
    scale = math.lcm(*(q.denominator for q in (*src.weights.values(), *rates)))
    edges = [(e, int(w * scale)) for e, w in src.weights.items()]
    int_rates = [int(r * scale) for r in rates]
    tight_cells = []
    for mask in range(1, full):
        inside = sum(w for e, w in edges if e & ~mask == 0)
        have = sum(r for i, r in enumerate(int_rates) if mask >> i & 1)
        if have < inside:
            fails.append(f"rate point violates the constraint of subset {mask:b}")
            return
        if have == inside:
            tight_cells.append(full ^ mask)
    # A feasible point shows R_CO >= the optimum.  A partition P with
    # H - value(P) = R_CO shows R_CO <= H - I = the optimum, so the value is
    # exact.  At an optimal point the complement of every cell of P* is a
    # tight subset, so P is sought among partitions into such cells.
    cells = _exact_cover(tight_cells, full)
    if cells is None:
        fails.append(f"R_CO = {value}: no partition certifies it is optimal")
    elif H - partition_value(src.weights, cells) != value:
        fails.append(f"R_CO = {value} != H - value(P) = {H - partition_value(src.weights, cells)}")


def _exact_cover(cells: list, full: int, limit: int = 100_000):
    """A partition of `full` into at least two of `cells`, or None.

    Depth-first on the lowest uncovered vertex; gives up after `limit` steps."""
    steps = 0

    def extend(covered, chosen):
        nonlocal steps
        if covered == full:
            return chosen
        low = (full & ~covered) & -(full & ~covered)
        for cell in cells:
            steps += 1
            if steps > limit:
                return None
            if cell & low and not cell & covered:
                found = extend(covered | cell, chosen + [cell])
                if found is not None:
                    return found
        return None

    return extend(0, [])


def _check_ub(sk, src, hg, result, method, fails):
    bound, packing = result
    total = _check_packing(src, packing.entries, fails)
    r_co, _rates = sk.r_co_direct(hg, method=method)
    I = sk.mmi(hg).value
    if not 0 <= bound <= r_co:
        fails.append(f"UB = {bound} outside [0, R_CO = {r_co}]")
    if bound != total - I:
        fails.append(f"UB = {bound} != sum x* - I = {total - I}")
    if not sk.verify_gamma_membership(hg, packing):
        fails.append("x* changes the capacity")
