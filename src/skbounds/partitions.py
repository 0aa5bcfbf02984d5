"""Partitions of the terminal set and the multivariate mutual information.

The shared-information rate of a source is the minimum, over all partitions
of the terminals into at least two cells, of

    ( sum of cell entropies - total entropy ) / (number of cells - 1).

The unique finest minimizer is the fundamental partition P*; a source whose
P* consists of singletons is called Type S.  Every minimizer coarsens P*.

`mmi` computes on the integer source (`WeightedHypergraph.integer_source`,
every weight times L, the lcm of their denominators), so every entropy it
holds is an int (L times the entropy).  `flow.dinkelbach` finds I and P* by
max-flow in polynomial time, one table of the 2^|P*| unions of P*'s cells
certifies them, and the minimizers are listed without a scan.

Let I = num / den, and for a set a of P*'s cells (a *union*) let

    slack(a) = den * (sum of H(u) over the cells u in a - H(a)) - num * (|a| - 1).

For a coarsening Q of P* with at least two cells, the sum of slack(C) over
its cells C is den * (|Q| - 1) * (I - value(Q)) once slack(all cells) = 0.
So `mmi` requires slack(all cells) = 0, which says value(P*) = I, and
slack(a) <= 0 for every union a, which says no coarsening of P* has value
below I; otherwise it raises `InternalInvariantError`.  Given both, the
minimizers among the coarsenings are exactly those whose every cell is
*tight* (slack 0), and P* is the unique finest.  They are listed by
restricted growth strings over P*'s cells, ordered by smallest vertex: a
cell is opened or grown only while it is still the restriction of some
tight union to the cells placed so far, so the walk stays close to the
number of minimizers (1 on a Type-S source, whose only tight unions are
the single cells).  That every minimizer coarsens the truncation's P*
rests on the theorem and on the oracle tests, not on an exhaustive check.
H comes from the source contracted to P*'s cells, each hyperedge to the
set of cells it meets.

Cells open in order of their smallest vertex, so each minimizer is
recorded as its canonical cell tuple, in restricted-growth order over the
vertices; `MmiResult` keeps those tuples and builds a `Partition` only when
`all_minimizers` is read.  Two exhaustive scans in `tests/reference_scan.py`,
one over `Fraction`s and one over ints, are the test oracles of `mmi`.

`mmi` is the one way the package computes the capacity and P*;
`cross_edges` gives the weight crossing a partition, which the graph closed
forms in `bounds` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, InternalInvariantError
from .flow import dinkelbach
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table, vertices_of
from .rational import to_integers

PARTITION_CAP = 12


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty cells (bitmasks) covering {1..m}.

    Cells are kept in canonical order: sorted by smallest member.
    """

    m: int
    cells: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.m) - 1
        seen = 0
        for cell in self.cells:
            if cell == 0:
                raise ValueError("empty cell in partition")
            if cell & ~full:
                raise ValueError("cell contains a vertex outside {1..m}")
            if cell & seen:
                raise ValueError("cells are not disjoint")
            seen |= cell
        if seen != full:
            raise ValueError("cells do not cover the vertex set")
        ordered = tuple(sorted(self.cells, key=lambda c: c & -c))
        object.__setattr__(self, "cells", ordered)

    @property
    def size(self) -> int:
        return len(self.cells)

    def vertex_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(cell) for cell in self.cells)

    def __str__(self) -> str:
        return "{" + ",".join(format_subset(cell) for cell in self.cells) + "}"


def cross_edges(hg: WeightedHypergraph, partition: Partition) -> Fraction:
    """Total weight of the hyperedges not contained in any single cell."""
    if partition.m != hg.m:
        raise ValueError("partition and hypergraph disagree on m")
    return sum(
        (w for e, w in hg.weights.items() if not any(e & ~c == 0 for c in partition.cells)),
        Fraction(0),
    )


@dataclass(frozen=True)
class MmiResult:
    """Minimum shared-information value with every minimizing partition.

    `fundamental` is the unique finest minimizer, P*; every other minimizer
    is a coarsening of it.  `minimizer_cells` holds every minimizer, in the
    restricted-growth order over vertices, as its canonical cell tuple
    (bitmasks sorted by smallest member, as in `Partition.cells`).
    `all_minimizers` builds their `Partition`s on each read and keeps none.
    """

    value: Fraction
    fundamental: Partition
    minimizer_cells: tuple[tuple[int, ...], ...]

    @property
    def minimizer_count(self) -> int:
        return len(self.minimizer_cells)

    @property
    def all_minimizers(self) -> tuple[Partition, ...]:
        return tuple(Partition(self.fundamental.m, cells) for cells in self.minimizer_cells)


def mmi(hg: WeightedHypergraph) -> MmiResult:
    """Minimize the partition value over all partitions with >= 2 cells.

    Returns the minimum, the finest minimizer, and all minimizers in
    restricted-growth order as cell tuples.  The truncation gives I and P*,
    one table over the unions of P*'s cells certifies them, and the
    minimizers are listed as the partitions of P*'s cells into tight unions.
    A P* whose value is not I and a union of its cells that merges into a
    partition of value below I are reported as internal errors: neither can
    happen for hypergraphical sources.
    """
    m = hg.m
    if m > PARTITION_CAP:
        raise CapExceededError(
            f"m = {m} exceeds the partition enumeration cap of {PARTITION_CAP}"
        )
    src, scale = hg.integer_source()
    capacity, units = dinkelbach(src)
    tight = _tight_unions(src, units, capacity, scale)
    return MmiResult(capacity / scale, Partition(m, units), tuple(_tight_coarsenings(units, tight)))


def _tight_unions(src: WeightedHypergraph, units: tuple[int, ...], capacity: Fraction, scale: int) -> set[int]:
    """The nonempty unions of the units with slack 0, once the slack table certifies I and P*.

    `units` are the truncation's P* and `capacity` its I = num / den, both
    of the integer source `src`, which is the source times `scale`.
    """
    # The source contracted to the units: each hyperedge becomes the set of
    # units it meets (bit i for units[i]).
    contracted: dict[int, int] = {}
    for e, w in src.weights.items():
        a = sum(1 << i for i, unit in enumerate(units) if e & unit)
        contracted[a] = contracted.get(a, 0) + w
    cond = subset_weight_table(len(units), contracted)
    ent = [cond[-1] - c for c in reversed(cond)]  # ent[a]: the weight of the edges meeting a
    # slack[a] = den * (sum of H(u) over the units u in a - H(a)) - num * (|a| - 1).
    (num,), den = to_integers([capacity])
    slack = [num]
    for i in range(len(units)):
        step = den * ent[1 << i] - num
        slack += [x + step for x in slack]
    slack = [x - den * e for x, e in zip(slack, ent)]
    union = [0]  # union[a]: the union of the units in a, as an original bitmask
    for unit in units:
        union += [u | unit for u in union]
    if slack[-1]:
        raise InternalInvariantError(
            f"the truncation's partition {Partition(src.m, units)} does not have its value"
            f" I = {capacity / scale}"
        )
    worst = max(slack[1:])
    if worst > 0:
        merged = format_subset(union[slack.index(worst, 1)])
        raise InternalInvariantError(
            f"merging the cells of P* inside {merged} gives a partition of value below"
            f" I = {capacity / scale}"
        )
    return {u for u, x in zip(union, slack) if u and not x}


def _tight_coarsenings(units: tuple[int, ...], tight: set[int]) -> list[tuple[int, ...]]:
    """The partitions of the units into >= 2 tight unions, in restricted-growth order.

    `tight` holds the nonempty tight unions as original bitmasks.
    levels[i] holds their restrictions to the units 0..i, or None where
    every union of those units is one.  Once unit i is placed, every cell
    must be in levels[i]: a cell outside it must take unit i, so a node with
    two such cells has no minimizer below it.
    """
    n = len(units)
    levels: list[set[int] | None] = [None] * n
    alive = tight
    prefix = sum(units)  # the union of the units 0..i
    for i in range(n - 1, 0, -1):
        if len(alive) < (2 << i) - 1:
            levels[i] = alive
        prefix ^= units[i]
        alive = {t & prefix for t in alive} - {0}
    cells = [units[0]]
    minimizers: list[tuple[int, ...]] = []

    def place(i: int) -> None:
        # cells partition the units below i, each the restriction of a tight union.
        k = len(cells)
        bit = units[i]
        alive = levels[i]
        if alive is None:
            grow, fresh = range(k), True
        else:
            dead = [j for j in range(k) if cells[j] not in alive]
            if len(dead) > 1:
                return
            grow = [j for j in dead or range(k) if cells[j] | bit in alive]
            fresh = not dead
        if i == n - 1:
            if k > 1:
                for j in grow:
                    cell = cells[j]
                    cells[j] = cell | bit
                    minimizers.append(tuple(cells))
                    cells[j] = cell
            if fresh:
                minimizers.append((*cells, bit))
            return
        for j in grow:
            cell = cells[j]
            cells[j] = cell | bit
            place(i + 1)
            cells[j] = cell  # the original int, which later tuples share
        if fresh:
            cells.append(bit)
            place(i + 1)
            cells.pop()

    place(1)
    return minimizers
