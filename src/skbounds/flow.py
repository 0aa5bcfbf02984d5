"""Capacity and fundamental partition by max-flow, in polynomial time.

On a hypergraph source the entropy H(C) of a group C is the weight of the
hyperedges that meet C, so for any gamma the function f(C) = H(C) - gamma
is intersecting submodular, and the least value of the sum of f over the
cells of a partition (its Dilworth truncation) is found by m minimizations,
each one s-t min-cut (Narayanan, LAA 144, 1991; Fujishige, Submodular
Functions and Optimization, 2005).  Each cut is a max-flow on a bipartite
network (`truncation`), in ints: gamma = n / d enters with every weight
times d.

Each step cuts over the cells found so far.  Vertex j's step minimizes
f(S) - x(S - j) over the S within {1..j} that hold j, and each cell C of
the earlier steps is tight, x(C) = f(C), while x(A) <= f(A) on every A
within {1..j-1}.  If S meets C, intersecting submodularity and
x(S & C) <= f(S & C) give

    f(S | C) - x(S | C - j) <= f(S) - x(S - j) + (f(C) - x(C)) - (f(S & C) - x(S & C))
                            <= f(S) - x(S - j),

as the first bracket is 0 and the second at least 0: S may take all of
C.  The least minimizer's closure under the cells it meets is then a
minimizer, and the least one that is j with a union of cells; the step
joins exactly those cells.  So the step may range over unions of cells:
a cell of two or more vertices enters the network as its least vertex
(its root), the same x_j and the same cells come out, and the network
shrinks as the cells grow.

A step may instead read its values off the source's subset table T,
T(B) the weight of the hyperedges inside B, which `dinkelbach` keeps.
As H(S) = H(M) - T(M - S), the value at S = j | U, U a union of cells,
is d * (H(M) - T(M - S)) - n - x(U) in the ints over d.  In the cut's
network (`truncation`) only the cells with term_C < 0 are reached from
j, and term_C = d * (T(C | A) - T(A)) - x(C), A the vertices after j:
the hyperedges that meet C, miss j and meet no other cell lie inside
C | A and not inside A.  So the least minimizer is j with a union of
those cells, and the step ranges over their unions only.  The
minimizers of f(S) - x(S - j) over the S that hold j are closed under
intersection (f is intersecting submodular and x modular), the least
one is among these unions, and every other minimizer holds it, so it
is the intersection of the minimizing unions.  The step lists the
unions in submask order (union i holds the t-th cell when bit t of i
is set), so a union comes after every union inside it, and the first
one at the least value is that intersection: the same cells and x_j as
the cut, with two lookups per cell and one per union in place of the
pass over the edges and the cut.  The table has 2^m fields and a
truncation passes over the edges once per terminal, so one guard,
`step_table`, builds it only where 2^m <= 8 m |E|, gamma > 0 and its
fields fit 64 bits, at every m.  The steps read it as the `array` of
W-bit fields that `hypergraph.unpack` gives, W bits a field and no int
object per field.  It has two callers: `dinkelbach`, once per run, at
its start, and `bounds.upper_bound_theorem1`, once per round of row
generation, on the round's point.  With a table every step reads it:
step j has at most j earlier cells, so a truncation lists fewer than
2^m unions, no more than the table's own fields.  Every truncation at
gamma > 0 with no table (sparse sources, and the Gamma check of
`bounds.verify_gamma_membership`) cuts; gamma = 0 has its closed form
(below).

A partition P has value (sum of H(C) over its cells - H(M)) / (|P| - 1)
at most gamma exactly when its sum of f is at most H(M) - gamma, the sum
of the one-cell partition.  So Dinkelbach's iteration finds the capacity I:
start at the value of some partition, truncate, and move gamma to the value
of the partition found while that partition beats the one-cell partition.
Any start at or above I will do; the least value among the singletons and
the m splits {v} | M - v, found in one pass over the edges in ints, cuts
the truncations about in half on random sources, and on a Type-S source it
is already I.
At gamma = I the minimizers of the truncation are the one-cell partition
and the minimizers of the value, and the finest of them is the fundamental
partition P* (Chan et al., "Info-clustering", Proc. IEEE 2015).

When the start is the singletons, at gamma0 = n / d > 0, their rate rows
may decide the run with no truncation.  Let x_v = d * H(v) - n; their sum
is d * H(M) - n, as d * (sum of H(v) - H(M)) = (m - 1) * n.  A start never
has a negative x_v, since it needs n / d <= min(split) <= H(v).  The step
still returns None on one, which keeps `rate_rows`' bound on its fields
for any other caller.
If one packed check (`hypergraph.rate_rows`) shows x(B) >= d * H(B | M - B)
on every nonempty proper B, then x / d is a feasible omniscience rate point
of sum H(M) - gamma0, so R_CO <= H(M) - gamma0 and I = H(M) - R_CO >=
gamma0 (Csiszar and Narayan 2004); and gamma0, the singletons' value, is
>= I.  So I = gamma0, the singletons minimize the value, and as the finest
partition they are P*.  A truncation at gamma = I would then merge
nothing: each step's least minimizer is {j}, so x_j = H(j) - gamma, and
its greedy point is x / d.  The run returns n / d, the singletons and
x, what the truncations would return, and keeps the packed gaps of the
rows as its `rows`.  The check reads the table of the table step, times
d, so it runs under the same guard; when a row fails, the truncations
read that table.

At gamma = 0, where every source with I = 0 ends its run, f is H itself,
which is already submodular, so the truncation needs no cut: the greedy
point is Edmonds' greedy vertex, x_j = H({1..j}) - H({1..j-1}), the
weight of the edges whose least vertex is j, and the least sum is H(M),
reached exactly by the partitions that no edge of positive weight
crosses; the finest of them is the components of those edges.

`dinkelbach` returns one `Run`, a frozen record with named fields: the
integer source and its L, n / d, P*, the greedy point xs, the
singletons' rows when they decided the run, and the packed table the
guard built, which `bounds.r_co_direct` and `bounds.run_checks` scale
by d for their checks of every subset row.  No reader writes into the
run: the table lives as long as the run.
`fundamental` is the one place that runs `dinkelbach` on a hypergraph:
it builds the integer source, runs it once there and keeps the `Run` on
the hypergraph, so I, P* and the rate point of one source come from one
run, and every reader takes them by name.  The run is all ints: gamma is the pair (n, d), kept
in lowest terms by `math.gcd`, L * I leaves it as n / d, the greedy
point as xs over the same d, and its readers take them as they are.  No
`Fraction` is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Mapping, Optional, Sequence

from .hypergraph import WeightedHypergraph, packed_table, packed_width, rate_rows, unpack

@dataclass(frozen=True, init=False)
class Run:
    """One Dinkelbach run on an integer source: I, P* and an optimal rate point, all in ints.

    `src` is the source of int weights, L times a hypergraph's, and `scale`
    is L.  L * I = n / d in lowest terms, `cells` are the fundamental
    partition P* (bitmasks sorted by their least vertex), and xs / d is the
    greedy rate point of the run's last truncation, which sums to
    L * (H(M) - I).  `rows` is (field width, packed gaps) of the
    singletons' rate rows when they decided the run (`_singleton_rows`),
    else None.  `table` is (field width W, `packed_table` of the weights
    at W) when the guard `step_table` built it, else None; W leaves room
    for the weights times 2 d at the singletons' start and times 4
    otherwise.
    Both are caches, so equality and `repr` read the other fields only,
    and nothing writes either once the run is built.
    Frozen and not a tuple: every reader names the field.  The
    constructor fills the instance dict in one update, as a frozen
    dataclass's would field by field.
    """

    src: WeightedHypergraph
    scale: int
    n: int
    cells: tuple[int, ...]
    xs: tuple[int, ...]
    d: int
    rows: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)
    table: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)

    def __init__(
        self, src: WeightedHypergraph, scale: int, n: int, cells: tuple[int, ...], xs: tuple[int, ...], d: int,
        rows: Optional[tuple[int, int]] = None, table: Optional[tuple[int, int]] = None,
    ) -> None:
        self.__dict__.update(src=src, scale=scale, n=n, cells=cells, xs=xs, d=d, rows=rows, table=table)


def bipartite_cut(supply: list[int], groups: list[tuple[int, int]]) -> tuple[int, int]:
    """(value, side): a bipartite network's max-flow value and the vertices of its least min-cut source side.

    The source has an arc of capacity supply[v] into vertex v, and a group
    (mask, w) unbounded arcs from its vertices and one of capacity w into
    the sink.  A greedy pass fills each group from its vertices that still
    have supply left.  While some vertex has, each round grows a
    breadth-first search of the residual network over vertex bitmasks and
    augments along the paths of its tree that end at a group with room
    left; when none does, the vertices reached (`side`, a mask) lie in the
    source side of every min cut.
    """
    n = len(supply)
    left = supply[:]
    live = 0  # the vertices with supply left
    for v, c in enumerate(supply):
        if c:
            live |= 1 << v
    room: list[int] = []
    carry: list[int] = []  # carry[g]: the vertices with flow into group g
    flow = [0] * (n * len(groups))  # flow[g * n + v] on the arc v -> group g
    arc = 0  # g * n, for the group g being filled
    for mask, w in groups:
        fill = start = mask & live if w else 0
        while fill:
            low = fill & -fill
            fill ^= low
            v = low.bit_length() - 1
            c = left[v]
            if c > w:
                left[v] = c - w
                flow[arc + v] = w
                w = 0
                break
            left[v] = 0
            flow[arc + v] = c
            w -= c
            live ^= low
            if not w:
                break
        room.append(w)
        carry.append(start ^ fill)  # the members it visited, each with flow
        arc += n
    # The flow's value is the supply it has used: sum(supply) - sum(left).
    while live:
        came = [-1] * len(groups)  # the vertex each group was reached from
        via: dict[int, int] = {}  # the group each vertex past the first layer was reached from
        seen = frontier = live
        ends = []
        while frontier:
            reached = g = 0
            for mask, _ in groups:
                meet = mask & frontier
                if meet and came[g] < 0:
                    came[g] = (meet & -meet).bit_length() - 1
                    if room[g]:
                        ends.append(g)
                    new = carry[g] & ~seen
                    if new:
                        seen |= new
                        reached |= new
                        while new:
                            via[(new & -new).bit_length() - 1] = g
                            new &= new - 1
                g += 1
            frontier = reached
        if not ends:
            return sum(supply) - sum(left), seen
        # Each path enters its groups along an arc v -> g (ahead) and leaves
        # them against the flow of another (back); an arc is g * n + v.
        for g in ends:
            v = came[g]
            ahead, back = [g * n + v], []
            while v in via:
                h = via[v]
                back.append(h * n + v)
                v = came[h]
                ahead.append(h * n + v)
            push = min(room[g], left[v], *(flow[a] for a in back))
            if not push:  # an earlier path of the round used up a piece of this one
                continue
            room[g] -= push
            left[v] -= push
            if not left[v]:
                live ^= 1 << v
            for a in ahead:
                flow[a] += push
                carry[a // n] |= 1 << a % n
            for a in back:
                flow[a] -= push
                if not flow[a]:
                    carry[a // n] ^= 1 << a % n
    return sum(supply), 0


def truncation(
    m: int, weights: Mapping[int, int], n: int, d: int, table: Optional[Sequence[int]] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cells, xs): the finest partition of M that minimizes the sum of H(C) - gamma over its
    cells C, at gamma = n / d, and the greedy point x = xs / d that reaches that least sum.

    H is the entropy of the source on {1..m} with the int `weights`, d > 0
    need not be gamma's least denominator, and the least sum is sum(xs) / d.
    Vertex j (in order) gets x_j, the least f(S) - x(S - j) over S with j
    in S within {1..j}, one min cut with j as the source.  S ranges over
    j and unions of the cells found so far (the module's proof), each
    cell by its root, its least vertex; the other vertices of a cell have
    no term and lie in no group.  The hyperedges that meet {1..j} in the
    same set a of roots (a group) cost their weight once a cell of a is in
    S, and those that hold j cost it on every S, a constant.  A cell C in
    S costs term_C, the weight of the hyperedges below j that meet only C,
    minus x(C).  A hyperedge that meets no cell of two or more vertices
    is not contracted.  In the general network of the cut
    (`tests/reference_flow.py`) a vertex with term_v < 0 gets an arc j -> v
    of capacity -term_v, and term_v joins the constant; no arc enters any
    other vertex, and a group is entered only from its vertices.  So only
    the roots A with term_v < 0 and the groups that meet A are reached
    from j or carry flow, and the cut is solved on the bipartite network
    j -> A -> those groups -> sink (`bipartite_cut`), with the same value
    and least source side S; with A empty, S is {j}.  The constants do not
    move S, which joins the cells of its roots.  The cells found this way
    form the finest minimizing partition, and the sum of x is the least sum.
    Cells come sorted by their smallest vertex.  x meets
    x(A) <= H(A) - gamma for every nonempty A (Fujishige 2005), with
    equality at A = M when the least sum is the one-cell partition's, as it
    is at gamma = I.  Scaling n and d by one g > 0 scales every capacity of
    every cut by g, which moves no least source side, so the cells do not
    depend on how gamma is written.  At n = 0 the cells and xs are read
    off the edges in one pass, with no network (the module's closed form).
    With `table`, the source's subset table T as a sequence of ints (the
    `array` of `hypergraph.unpack`), every step
    reads term_C and its values off T instead of the edges, and takes the
    first minimizing union in submask order, the intersection of the
    minimizing unions (the module's table step); the edges are read only
    with no table.
    """
    if not n:
        # gamma = 0: x is Edmonds' greedy vertex of H and the cells are the components.
        xs = [0] * m
        joined: list[int] = []  # the components of two or more vertices
        for e, w in weights.items():
            xs[(e & -e).bit_length() - 1] += w * d
            if w and e & (e - 1):
                for c in joined:
                    if c & e:
                        e |= c
                joined = [c for c in joined if not c & e] + [e]
        whole = sum(joined)
        cells = joined + [1 << v for v in range(m) if not whole >> v & 1]
        return tuple(sorted(cells, key=lambda c: c & -c)), tuple(xs)
    edges = [] if table else [(e, w * d) for e, w in weights.items()]
    top, full = d * table[-1] - n if table else 0, (1 << m) - 1  # top: f(M) = d * H(M) - n
    x: list[int] = []
    cells: list[int] = []
    base: list[int] = []  # -x(C) at each cell C's root, its least vertex, and 0 at its other vertices
    merged = 0  # the vertices of the cells of two or more
    rests: list[tuple[int, int]] = []  # (C, C minus its root) for those cells
    for j in range(m):
        bit = 1 << j
        if table:
            # f(S) - x(S - j) - f(M) for S = j with each union U of the cells with
            # term_C < 0, term_C = d * (T(C | above) - T(above)) - x(C), in submask
            # order: the first least value is at the least minimizer.
            above, rest = full ^ (bit + bit - 1), full ^ bit
            free, low, least = table[above], -d * table[rest], bit
            seen = [(0, 0)]  # (U, -x(U))
            for c in cells:
                r = base[(c & -c).bit_length() - 1]
                if d * (table[c | above] - free) >= -r:
                    continue
                for u, g in seen[:]:
                    u, g = u | c, g + r
                    seen.append((u, g))
                    value = g - d * table[rest ^ u]
                    if value < low:
                        low, least = value, bit | u
            cells = [c for c in cells if not c & least]
            x.append(top + low)
        else:
            below = bit - 1
            fixed = 0  # the weight of the groups that contain j
            term = base[:]
            groups: dict[int, int] = {}
            for e, w in edges:
                if e & bit:
                    fixed += w
                elif e & below:
                    a = e & below
                    if a & merged:
                        for c, rest in rests:
                            if a & c:
                                a = (a | c) ^ rest
                    if a & (a - 1):
                        groups[a] = groups.get(a, 0) + w
                    else:
                        term[a.bit_length() - 1] += w
            movable = lack = 0  # the vertices with a negative term, and its total
            for v, c in enumerate(term):
                if c < 0:
                    movable |= 1 << v
                    lack -= c
            if movable:
                supply = [-c if c < 0 else 0 for c in term]
                meet = [(a & movable, w) for a, w in groups.items() if a & movable]
                cut, side = bipartite_cut(supply, meet)
                least = bit | side
                for c in cells:
                    if c & least:
                        least |= c
                cells = [c for c in cells if not c & least]
            else:
                cut, least = 0, bit
            x.append(fixed - lack + cut - n)
        base.append(-x[j])
        if least != bit:
            # S took earlier cells: the new cell's root, its least vertex,
            # takes the -x of all its vertices.
            root = (least & -least).bit_length() - 1
            for v in range(root + 1, j + 1):
                if least >> v & 1:
                    base[root] += base[v]
                    base[v] = 0
            merged |= least
            rests = [(c, c & (c - 1)) for c in (*cells, least) if c & (c - 1)]
        cells.append(least)
    return tuple(sorted(cells, key=lambda c: c & -c)), tuple(x)


def step_table(m: int, weights: Mapping[int, int], n: int, bound: int) -> Optional[tuple[int, int]]:
    """(W, `packed_table` of the int `weights` at W), W the narrowest packed width above
    `bound`, where a truncation at gamma = n / d reads its steps off the subset table; else None.

    The guard of the module's table step: n > 0, 2^m <= 8 m |E| (the 2^m
    fields against a truncation's m passes over the edges) and a width of
    at most 64 bits that holds `bound`.  `dinkelbach` builds its source's
    table here, which a singletons start's rate rows read too, and
    `bounds.upper_bound_theorem1` each round point's.
    """
    if n and 1 << m <= 8 * m * len(weights) and (width := packed_width(bound)):
        return width, packed_table(m, weights, width)
    return None


def dinkelbach(src: WeightedHypergraph, scale: int = 1) -> Run:
    """The run on `src` (int weights, L = `scale`): the least partition value I = n / d, in
    lowest terms, its finest minimizer's cells, and the last truncation's greedy point xs / d.

    Starts at the least value among the singletons, sum of w(|e| - 1) over
    m - 1, and the m splits {v} | M - v, each the weight of the edges that
    hold v and another vertex, all from one pass over the edges.  A start
    at the singletons with n > 0 is first tried on their rate rows
    (`_singleton_rows`, the module's proof), where 2^m <= 8 m |E|; under
    the same guard (`step_table`) every start with n > 0 builds the
    source's packed table once, the truncations read it as an `array`,
    and the run keeps it.  Each
    truncation either beats the one-cell partition, and gamma falls to the
    value of the partition found, or shows that no partition has a value
    below gamma.  The greedy point of that last truncation sums to H(M) - I
    and meets x(A) <= H(A) - I on every nonempty A, so it is an optimal
    omniscience rate point (Csiszar and Narayan 2004).  gamma is the int
    pair (n, d), divided by its gcd once per step, and every comparison is
    in ints over d.
    """
    m = src.m
    total = crossing = 0  # crossing: the singletons' value times m - 1
    split = [0] * m
    for e, w in src.weights.items():
        total += w
        if e & (e - 1):
            crossing += w * (e.bit_count() - 1)
            rest = e
            while rest:
                split[(rest & -rest).bit_length() - 1] += w
                rest &= rest - 1
    best = min(split)
    singletons = best * (m - 1) >= crossing
    n, d = (crossing, m - 1) if singletons else (best, 1)
    g = gcd(n, d)
    n, d = n // g, d // g
    # The table's fields hold the singletons' rows, at 2 d H(M), or else R_CO's check at d <= 2.
    table = step_table(m, src.weights, n, total * (2 * d if singletons else 4))
    if table and singletons and (run := _singleton_rows(src, scale, n, d, split, table)):
        return run
    fields = table and unpack(table[1], 1 << m, table[0])
    while True:
        cells, xs = truncation(m, src.weights, n, d, fields)
        if sum(xs) >= total * d - n:
            return Run(src, scale, n, cells, xs, d, table=table)
        # The partition's sum of H(C) - H(M) is (sum(xs) + n * |cells|) / d - H(M).
        k = len(cells)
        n, d = sum(xs) + n * k - total * d, d * (k - 1)
        g = gcd(n, d)
        n, d = n // g, d // g


def _singleton_rows(
    src: WeightedHypergraph, scale: int, n: int, d: int, split: Sequence[int], table: tuple[int, int]
) -> Optional[Run]:
    """The run at the singletons' value gamma = n / d, with their rate rows, when the rates
    xs = d * H(v) - n meet every subset row, else None.

    `split[v]` is the weight of the edges that hold v and another vertex,
    so H(v) adds the weight of {v} itself.  One `rate_rows` check of
    `table`, the run's (W, packed table) with W fitting 2 d H(M), times d
    against xs, n / d in lowest terms, when every rate is >= 0, as at
    every start of `dinkelbach`.  A
    success hands the field width and the packed gaps back as the run's
    `rows`, which `partitions.mmi` reads as its certificate and
    `r_co_direct` as its check of every row, and the run keeps `table`
    as every run keeps the one its guard built; on a failure the
    truncations read the same table.
    """
    xs = tuple(d * (h + src.weights.get(1 << v, 0)) - n for v, h in enumerate(split))
    if min(xs) < 0:
        return None
    width, packed = table
    gaps, holds = rate_rows(src.m, packed * d, width, xs)
    return Run(src, scale, n, tuple(1 << v for v in range(src.m)), xs, d, (width, gaps), table) if holds else None


def fundamental(hg: WeightedHypergraph) -> Run:
    """`hg`'s `Run`: `dinkelbach` on its integer source (`integer_source`), with L * I = n / d.

    Run on the first call and kept on `hg` under the one key that only
    this function reads and writes, so `mmi`, `r_co_direct`,
    `upper_bound_theorem1` and the Gamma check of one hypergraph read one
    run and one integer source.
    """
    if "_run" not in hg.__dict__:
        hg.__dict__["_run"] = dinkelbach(*hg.integer_source())
    return hg.__dict__["_run"]
