"""Partitions of the terminal set and the multivariate mutual information.

The shared-information rate of a source is the minimum, over all partitions
of the terminals into at least two cells, of

    ( sum of cell entropies - total entropy ) / (number of cells - 1).

The unique finest minimizer is the fundamental partition P*; a source whose
P* consists of singletons is called Type S.  Every minimizer coarsens P*.

`mmi` computes on the integer source (`WeightedHypergraph.integer_source`,
every weight times L, the lcm of their denominators), so every entropy it
holds is an int (L times the entropy).  `flow.dinkelbach` finds I and P* by
max-flow in polynomial time.  `mmi` reads that run, a `flow.Run`, from
`flow.fundamental`, which runs it once per hypergraph and keeps it, so
`r_co_direct` and the Gamma check of the same hypergraph read the same
run.  L * I comes from the run as the ints num / den (its fields n and
d), and `mmi` builds the `Fraction` I = num / (den * L) once, for its
result.  `mmi` in turn certifies the run once per hypergraph and keeps
its `MmiResult` on the hypergraph, under a key that only `mmi` reads and
writes, so every caller of `mmi(hg)` reads one result.  When
I > 0, P*'s rate rows over the 2^|P*| unions of its cells certify them
and count the minimizers; when I = 0, P*'s uncut edges certify it and the
count is Bell(|P*|) - 1.  Either way the minimizers are listed, without a
scan, only when read.

Let I = num / den, and for a set a of P*'s cells (a *union*) let

    slack(a) = den * (sum of H(u) over the cells u in a - H(a)) - num * (|a| - 1).

For a coarsening Q of P* with at least two cells, the sum of slack(C) over
its cells C is den * (|Q| - 1) * (I - value(Q)) once slack(all cells) = 0.
So `mmi` requires slack(all cells) = 0, which says value(P*) = I, and
slack(a) <= 0 for every union a, which says no coarsening of P* has value
below I; otherwise it raises `InternalInvariantError`.  Both are read
off P*'s rate rows: cell C gets the rate r_C = den * H(C) - num, and the
slack at a is minus the row gap r(B) - den * w(E[B]) at its complement B
(`_certified_rows`), so one table of the edges inside each B and the
rates summed by doubling give every slack, all in one packed
subtraction (`hypergraph.rate_rows`) that builds no list of 2^|P*|
rates or slacks.  When P* is the singletons and `flow.dinkelbach`
decided the run on their rate rows, those are the same rows, and `mmi`
reads the gaps the run hands back (`flow.Run.rows`) instead of building
a second table.  Given both checks, the minimizers among the
coarsenings are exactly those whose every cell is *tight* (slack 0),
and P* is the unique finest.  P*
is the only minimizer exactly when its cells and their union are the
only tight unions, as on every Type-S source; `hypergraph.tight_rows`
counts the tight rows from the same gaps, and the count is then 1 with
no walk.  Otherwise the slacks are unpacked from the gaps (`_slack`),
and for a set S of cells still to place, `_tight_parts` walks the
submasks of S once for the tight T that hold S's first cell.
`_count_coarsenings` counts the minimizers from those T, memoized on S,
and builds none of them.  `_list_coarsenings` lists them, when read, by
the same recursion over the same T; each single cell of P* is tight, so
every set of cells it enters yields a minimizer.  That every minimizer
coarsens the truncation's P* rests on the theorem and on the oracle
tests, not on an exhaustive check.  H comes from the source contracted
to P*'s cells, each hyperedge to the set of cells it meets, read
through each vertex's cell.  `tests/reference_certificate.py` keeps the
certificate's list form, every rate and slack a list entry, as the
oracle of the packed one.

I = 0 exactly when the source's edges fall apart into several
components, and P* is then those components.  With num = 0 each edge
adds w * (the number of cells of a it meets - 1) to slack(a), or 0 if it
meets none, so slack(all cells) = 0 holds exactly when no edge meets two
cells of P* (`crossing` finds none; every stored weight is positive),
and then every slack is 0.  So `mmi` raises `InternalInvariantError` as
above if `crossing` finds an edge, and otherwise counts every partition
of P*'s cells into >= 2 unions, Bell(|P*|) - 1, with no table and no sum
over submasks: the same two checks and the same count the table would
give.  The listing is the same walk over an all-zero slack table, built
when read.

Each minimizer is recorded as its canonical cell tuple (bitmasks sorted
by smallest vertex), and the listing is in `sorted` order of those
tuples.  `MmiResult` builds them on the first read of `minimizer_cells`
and keeps them; no caller in the package reads them, as the reports need
only the count.  It builds a `Partition` per minimizer only when
`all_minimizers` is read.  `Partition` keeps a tuple already in canonical
order as given, so those `Partition`s share the listing's tuples, and P*
shares the run's `cells`: neither is copied.  Two exhaustive scans in
`tests/reference_scan.py`, one over `Fraction`s and one over ints, are the
test oracles of `mmi`: of its value, P*, count and sorted listing.

`mmi` is the one way the package computes the capacity and P*.
`crossing` is the one test of which edges cross a partition, those that
lie in no single cell, each edge checked against the cell of its least
vertex: `mmi`'s check at I = 0 reads it, UB's LP in `bounds` fixes
those of P* at their weights, and `cross_edges` sums them for the graph
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import CapExceededError, InternalInvariantError
from .flow import Run, fundamental
from .hypergraph import WeightedHypergraph, format_subset, pack, rate_rows, row_width, subset_weight_table
from .hypergraph import tight_rows, unpack, vertices_of

PARTITION_CAP = 12

# (width, gaps) of P*'s rate rows: `_certified_rows`.
Rows = tuple[int, int]


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty cells (bitmasks) covering {1..m}, m >= 1.

    Cells are kept in canonical order: sorted by smallest member.  A tuple
    already in that order is kept as given, not copied, so a partition
    built from a listing's or a run's tuple shares it; any other iterable
    of cells (a list, an iterator, a tuple subclass, a tuple out of order)
    is kept as a sorted tuple.  m and every cell must be an int, not a
    bool, and m >= 1, else ValueError.
    """

    m: int
    cells: tuple[int, ...]

    def __post_init__(self):
        m, cells = self.m, self.cells
        if type(m) is not int or m < 1:  # bool is an int subclass
            raise ValueError(f"a partition needs an int m >= 1, not {m!r}")
        full = (1 << m) - 1
        seen = last = 0
        ordered = type(cells) is tuple
        if not ordered:
            cells = tuple(cells)  # an iterator is read once, here
        for cell in cells:
            if type(cell) is not int:
                raise ValueError(f"cell {cell!r} is not an int bitmask")
            if cell == 0:
                raise ValueError("empty cell in partition")
            if cell & ~full:
                raise ValueError("cell contains a vertex outside {1..m}")
            if cell & seen:
                raise ValueError("cells are not disjoint")
            seen |= cell
            low = cell & -cell  # distinct per cell, as the cells are disjoint
            ordered = ordered and low > last
            last = low
        if seen != full:
            raise ValueError("cells do not cover the vertex set")
        if not ordered:
            object.__setattr__(self, "cells", tuple(sorted(cells, key=lambda c: c & -c)))

    @property
    def size(self) -> int:
        return len(self.cells)

    def vertex_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(cell) for cell in self.cells)

    def __str__(self) -> str:
        return "{" + ",".join(format_subset(cell) for cell in self.cells) + "}"


def crossing(weights: Mapping[int, Fraction | int], cells: Sequence[int]) -> dict[int, Fraction | int]:
    """The entries of `weights` on the hyperedges that lie in no single one of the disjoint `cells`.

    A hyperedge inside a cell has its least vertex there, so each is
    checked against that vertex's cell only, read by its bit.
    """
    cell_of = {}
    for cell in cells:
        rest = cell
        while rest:
            low = rest & -rest
            cell_of[low] = cell
            rest ^= low
    return {e: w for e, w in weights.items() if e & ~cell_of.get(e & -e, 0)}


def cross_edges(hg: WeightedHypergraph, partition: Partition) -> Fraction:
    """Total weight of the hyperedges not contained in any single cell, summed in the weights' type, as a `Fraction`."""
    if partition.m != hg.m:
        raise ValueError("partition and hypergraph disagree on m")
    return Fraction(sum(crossing(hg.weights, partition.cells).values()))


@dataclass(frozen=True, eq=False)
class MmiResult:
    """Minimum shared-information value, P* and the number of minimizers.

    `fundamental` is the unique finest minimizer, P*; every other minimizer
    is a coarsening of it.  `minimizer_count` counts every minimizer, P*
    included.  `minimizer_cells` lists them, in `sorted` order, as canonical
    cell tuples (bitmasks sorted by smallest member, as in
    `Partition.cells`); `listing`, a `functools.partial` so that a result
    pickles, builds them on the first read, which keeps them.
    `all_minimizers` builds their `Partition`s on each read and keeps none;
    each shares its tuple with `minimizer_cells`, as `Partition` keeps a
    canonical tuple as given, and `fundamental` shares the run's.
    Two results are equal when their values, P*, counts and listings are.
    `mmi` keeps one result per hypergraph, so its readers share the listing.
    """

    value: Fraction
    fundamental: Partition
    minimizer_count: int
    listing: Callable[[], Iterable[tuple[int, ...]]] = field(repr=False)

    @cached_property
    def minimizer_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.listing())

    @property
    def all_minimizers(self) -> tuple[Partition, ...]:
        return tuple(Partition(self.fundamental.m, cells) for cells in self.minimizer_cells)

    def __eq__(self, other):
        if not isinstance(other, MmiResult):
            return NotImplemented
        return (self.value, self.fundamental, self.minimizer_count) == (
            other.value, other.fundamental, other.minimizer_count
        ) and self.minimizer_cells == other.minimizer_cells


def mmi(hg: WeightedHypergraph) -> MmiResult:
    """Minimize the partition value over all partitions with >= 2 cells.

    Returns the minimum, the finest minimizer, the number of minimizers and
    their sorted listing, built when first read.  The truncation gives I
    and P*.  If I > 0, P*'s rate rows over the unions of its cells
    certify them in one packed check (`_certified_rows`), the run's own
    `rows` when `dinkelbach` decided it on the singletons' rows, and
    `subset_weight_table`'s table of the source contracted to P*'s cells
    otherwise.  The minimizers, the partitions of P*'s cells into tight
    unions, are then counted: 1 with no walk when only the cells and their
    union are tight, else by a walk over submasks of the unpacked slacks.
    They are listed, when read, by the count's recursion.
    If I = 0, `crossing` must find no edge that meets two cells of P*,
    and every partition of its cells into >= 2 unions is a minimizer.  A
    P* whose value is not I and a union of its cells that merges into a
    partition of value below I are reported as internal errors: neither
    can happen for hypergraphical sources.  After the cap check, the
    result is certified on the first call and kept on `hg`, as its
    Dinkelbach run is, and every later call returns it.
    """
    m = hg.m
    if m > PARTITION_CAP:
        raise CapExceededError(
            f"m = {m} exceeds the partition enumeration cap of {PARTITION_CAP}"
        )
    if "_mmi" not in hg.__dict__:
        run = fundamental(hg)
        units, value = run.cells, Fraction(run.n, run.d * run.scale)
        if run.n:
            rows, k = _certified_rows(run, value), len(units)
            # Only the units and their union tight: P* is the only minimizer.
            count = 1 if tight_rows(k, *rows) == k + 1 else _count_coarsenings(_slack(k, rows))
        # slack(all cells) = 0 says that no edge meets two cells, and then
        # every union is tight.
        elif crossing(run.src.weights, units):
            raise _off_value(m, units, value)
        else:
            rows, count = None, bell(len(units)) - 1
        hg.__dict__["_mmi"] = MmiResult(value, Partition(m, units), count, partial(_listing, units, rows))
    return hg.__dict__["_mmi"]


@cache
def bell(n: int) -> int:
    """The number of partitions of n items, by the Bell triangle; kept per n."""
    row = [1]
    for _ in range(n - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


def _off_value(m: int, units: tuple[int, ...], value: Fraction) -> InternalInvariantError:
    """The error for a truncation's P* whose value is not its I."""
    return InternalInvariantError(
        f"the truncation's partition {Partition(m, units)} does not have its value I = {value}"
    )


def _listing(units: tuple[int, ...], rows: Optional[Rows]) -> list[tuple[int, ...]]:
    """`MmiResult.listing`: `_list_coarsenings`, looked up when read, over the slacks of `rows` or, at I = 0, all zeros."""
    k = len(units)
    return _list_coarsenings(units, _slack(k, rows) if rows else [0] * (1 << k))


def _certified_rows(run: Run, value: Fraction) -> Rows:
    """(width, gaps): P*'s rate rows over the unions of the units, once they certify I and P*.

    The units are the run's cells, the truncation's P*, num / den = n / d
    its I and xs / den its greedy point, all of its integer source `src`;
    `value` is the source's own I, for the messages.  Bit i of a union
    stands for units[i].  Unit C gets the rate r_C = den * H(C) - num, and a set B
    of units the row gap r(B) - den * w(E[B]), w(E[B]) the weight of the
    edges inside B's union; one table of den * w(E[B]) gives both, as
    H(C) = H(M) - w(E[M - C]).  With the same for a union a and its
    complement M - a, the module's slack(a) is

        slack(a) = r(a) + num - den * H(M) + den * w(E[M - a])
                 = r(a) - r(M) + den * w(E[M - a])      once r(M) = den * H(M) - num
                 = -(r(M - a) - den * w(E[M - a])),

    so slack(all units) = 0 is r(M) = den * H(M) - num, and the slack at a
    is minus the row gap at its complement.  `hypergraph.rate_rows` checks
    every gap in one subtraction, and `mmi` counts the tight ones, the
    unions of slack 0, from the same packed gaps (`hypergraph.tight_rows`);
    a failed row is named from them (`_slack`).  When
    `flow.dinkelbach` decided the run on the singletons' rate rows, the
    run's `rows`, those rows are the same ones: the units are the
    singletons, the rates are xs, and only their sum is checked.
    Otherwise the contracted source's table comes from
    `subset_weight_table`.
    """
    src, units, num, den, k = run.src, run.cells, run.n, run.d, len(run.cells)
    if run.rows:
        if sum(run.xs) != den * sum(src.weights.values()) - num:
            raise _off_value(src.m, units, value)
        return run.rows
    # The source contracted to the units, weights times den: each hyperedge
    # becomes the set of units it meets, through each vertex's unit bit.
    bit = [0] * src.m
    for i, unit in enumerate(units):
        while unit:
            bit[(unit & -unit).bit_length() - 1] = 1 << i
            unit &= unit - 1
    contracted: dict[int, int] = {}
    for e, w in src.weights.items():
        a = 0
        while e:
            a |= bit[(e & -e).bit_length() - 1]
            e &= e - 1
        contracted[a] = contracted.get(a, 0) + w * den
    table = subset_weight_table(k, contracted)  # table[B] = den * w(E[B])
    top = table[-1]  # den * H(M)
    rates = [top - table[-1 - (1 << i)] - num for i in range(k)]  # r_C = den * (H(M) - w(E[M - C])) - num
    if sum(rates) != top - num:
        raise _off_value(src.m, units, value)
    width = row_width(top, rates)
    gaps, holds = rate_rows(k, pack(table, width), width, rates)
    if not holds:
        slack = _slack(k, (width, gaps))
        a = slack.index(max(slack[1:]), 1)
        merged = format_subset(sum(unit for i, unit in enumerate(units) if a >> i & 1))
        raise InternalInvariantError(
            f"merging the cells of P* inside {merged} gives a partition of value below I = {value}"
        )
    return width, gaps


def _slack(k: int, rows: Rows) -> list[int]:
    """slack[a] for each union a of the k units: minus the gap at its complement, unpacked from `rows`.

    Field B of the packed gaps is the gap at B plus 2^(W-1), W the width;
    the full set's field, which no row reads, holds -num + 2^(W-1) once
    r(M) = den * H(M) - num, so slack[0] is num.
    """
    width, gaps = rows
    half = 1 << width - 1
    return [half - field for field in reversed(unpack(gaps, 1 << k, width))]


def _tight_parts(slack: list[int]) -> Callable[[int], list[int]]:
    """parts(S): the tight unions T within S that hold low(S), S's first unit, memoized on S.

    One pass over the submasks of S - low(S) per set S asked for.  Each
    single unit is tight (its slack is 0), so parts(S) holds low(S) itself.
    """
    kept: dict[int, list[int]] = {}

    def parts(s: int) -> list[int]:
        if s not in kept:
            low = s & -s
            sub = rest = s ^ low
            kept[s] = found = []
            while True:
                if not slack[sub | low]:
                    found.append(sub | low)
                if not sub:
                    break
                sub = (sub - 1) & rest
        return kept[s]

    return parts


def _count_coarsenings(slack: list[int]) -> int:
    """The number of partitions of the units into >= 2 tight unions, none of them built.

    For a set S of units, f(S) counts the partitions of S into tight
    unions: f(empty) = 1, and f(S) is the sum of f(S - T) over T in
    `_tight_parts`' parts(S), the tight unions that hold S's first unit.  f
    is memoized on the sets reached from all the units.  The union of all
    the units is tight, so f(all) counts the one-cell partition too, which
    the count drops.  As parts(S) holds low(S), f(S) >= 1 on every set.
    `mmi` calls it only when some union other than the single units and
    their union is tight; otherwise the count is 1 with no walk.
    """
    parts = _tight_parts(slack)
    counts = {0: 1}

    def f(s: int) -> int:
        if s not in counts:
            counts[s] = sum(f(s ^ t) for t in parts(s))
        return counts[s]

    return f(len(slack) - 1) - 1


def _list_coarsenings(units: tuple[int, ...], slack: list[int]) -> list[tuple[int, ...]]:
    """The minimizers `_count_coarsenings` counts, as sorted canonical cell tuples.

    Walks f's recursion from all the units: at a set S it places each T of
    parts(S), and records the cells placed once T = S, if there are at
    least two.  As f(S) >= 1, every set it enters yields a minimizer.
    parts(S) is memoized, so the submasks of each set are run through once:
    the walk costs f's submask steps plus the output times its depth.
    """
    union = [0]  # union[a]: the union of the units in a, as an original bitmask
    for unit in units:
        union += [u | unit for u in union]
    parts = _tight_parts(slack)
    minimizers: list[tuple[int, ...]] = []

    def walk(s: int, cells: tuple[int, ...]) -> None:
        for t in parts(s):
            if t != s:
                walk(s ^ t, (*cells, union[t]))
            elif cells:
                minimizers.append((*cells, union[t]))

    walk(len(slack) - 1, ())
    minimizers.sort()
    return minimizers
