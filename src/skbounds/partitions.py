"""Partitions of the terminal set and the multivariate mutual information.

The shared-information rate of a source is the minimum, over all partitions
of the terminals into at least two cells, of

    ( sum of cell entropies - total entropy ) / (number of cells - 1).

The unique finest minimizer is the fundamental partition; a source whose
fundamental partition consists of singletons is called Type S.  The search
is an exhaustive scan of the partition lattice via restricted growth
strings, which is the verifiable choice at desk scale (the cap below keeps
the count at Bell(12), about 4.2M).

`mmi` runs the scan in exact integer arithmetic on the integer source
(`WeightedHypergraph.integer_source`, every weight times L, the lcm of
their denominators), so the entropy table holds integers (L times the
entropies).  It walks the restricted growth strings over one mutable list
of cells and carries the running sum of their entropies: putting a vertex
into cell C adds E[C | v] - E[C].  The last vertex is placed in a loop,
and only the cells where it adds least can reach the best value.  A value
(S - T) / (k - 1) is compared with the best n / d by cross-multiplying,
(S - T) * d against n * (k - 1), both denominators being positive; the
result is n / (L * d), built once.

The scan opens cells in order of their smallest vertex, so each tied
minimizer it records is already a canonical cell tuple; `MmiResult` keeps
those tuples and builds a `Partition` only when `all_minimizers` is read.
Every minimizer must coarsen the fundamental partition P*: with cover[A]
the union of the cells of P* that meet A, P* refines P exactly when
cover[C] == C for every cell C of P.  So all minimizers coarsen P* exactly
when every distinct cell among them is such a union, and each distinct cell
is checked once, at most 2^m lookups however many minimizers tie.  A plain
`Fraction` scan, `tests/reference_scan.py`, is its test oracle.

`mmi` is the one way the package computes the capacity and P*;
`cross_edges` gives the weight crossing a partition, which the graph closed
forms in `bounds` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import CapExceededError, InternalInvariantError
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table, vertices_of

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

    `fundamental` is the unique finest minimizer; every other minimizer is a
    coarsening of it.  `minimizer_cells` holds every minimizer, in scan
    order, as its canonical cell tuple (bitmasks sorted by smallest member,
    as in `Partition.cells`); `mmi` checked the coarsening once per distinct
    cell.  `all_minimizers` builds their `Partition`s on each read and keeps
    none.
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


def _cover_table(fine: Partition) -> list[int]:
    """cover[A] = union of the cells of `fine` that meet A, for every mask A."""
    cell_of = [0] * fine.m
    for cell in fine.cells:
        for v in vertices_of(cell):
            cell_of[v - 1] = cell
    cover = [0] * (1 << fine.m)
    for a in range(1, 1 << fine.m):
        low = a & -a
        cover[a] = cover[a ^ low] | cell_of[low.bit_length() - 1]
    return cover


def mmi(hg: WeightedHypergraph) -> MmiResult:
    """Minimize the partition value over all partitions with >= 2 cells.

    Returns the minimum, the finest minimizer, and all minimizers in scan
    order as cell tuples.  The finest minimizer is guaranteed unique, and
    all other minimizers must coarsen it; a violation of either fact is
    reported as an internal error because it cannot happen for
    hypergraphical sources.
    """
    m = hg.m
    if m > PARTITION_CAP:
        raise CapExceededError(
            f"m = {m} exceeds the partition enumeration cap of {PARTITION_CAP}"
        )
    full = hg.full_mask
    src, scale = hg.integer_source()
    cond = subset_weight_table(m, src.weights)
    total = cond[full]
    ent = [total - cond[full ^ a] for a in range(full + 1)]

    # The scan places vertices 1..m-1 by recursion and the last vertex in a
    # loop: gain[A] is what putting it into cell A adds to the entropy sum.
    last = 1 << (m - 1)
    gain = [ent[a | last] - ent[a] for a in range(last)]
    ent_last = ent[last]
    cells = [1]
    minimizers: list[tuple[int, ...]] = []
    # best_num / best_den is the best value so far, seeded with that of
    # {1..m-1},{m}, the first partition scanned.
    best_num, best_den = ent[last - 1] + ent_last - total, 1

    def place(i: int, acc: int) -> None:
        # cells partition the vertices below i; acc = sum of their entropies - total.
        nonlocal best_num, best_den
        k = len(cells)
        if i < m - 1:
            bit = 1 << i
            for j in range(k):
                cell = cells[j]
                grown = cells[j] = cell | bit
                place(i + 1, acc + ent[grown] - ent[cell])
                cells[j] = cell
            cells.append(bit)
            place(i + 1, acc + ent[bit])
            cells.pop()
            return
        if k > 1:
            # Every placement into an existing cell gives k cells; only the
            # smallest gain can reach the best value.
            least = min(map(gain.__getitem__, cells))
            num = acc + least
            lhs, rhs = num * best_den, best_num * (k - 1)
            if lhs <= rhs:
                if lhs < rhs:
                    best_num, best_den = num, k - 1
                    minimizers.clear()
                for j, cell in enumerate(cells):
                    if gain[cell] == least:
                        cells[j] = cell | last
                        minimizers.append(tuple(cells))
                        cells[j] = cell
        num = acc + ent_last
        lhs, rhs = num * best_den, best_num * k
        if lhs <= rhs:
            if lhs < rhs:
                best_num, best_den = num, k
                minimizers.clear()
            minimizers.append((*cells, last))

    place(1, ent[1] - total)

    max_cells = max(map(len, minimizers))
    finest = [cells for cells in minimizers if len(cells) == max_cells]
    if len(finest) != 1:
        raise InternalInvariantError(
            f"finest minimizer is not unique: {len(finest)} partitions with {max_cells} cells"
        )
    fundamental = Partition(m, finest[0])
    cover = _cover_table(fundamental)
    bad = {c for c in set(chain.from_iterable(minimizers)) if cover[c] != c}
    if bad:
        part = Partition(m, next(cells for cells in minimizers if not bad.isdisjoint(cells)))
        raise InternalInvariantError(
            f"minimizer {part} is not a coarsening of the fundamental partition {fundamental}"
        )
    return MmiResult(
        value=Fraction(best_num, scale * best_den),
        fundamental=fundamental,
        minimizer_cells=tuple(minimizers),
    )
