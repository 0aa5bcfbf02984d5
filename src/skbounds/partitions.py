"""Partitions of the terminal set and the multivariate mutual information.

The shared-information rate of a source is the minimum, over all partitions
of the terminals into at least two cells, of

    ( sum of cell entropies - total entropy ) / (number of cells - 1).

The unique finest minimizer is the fundamental partition P*; a source whose
P* consists of singletons is called Type S.  Every minimizer coarsens P*.

`mmi` computes on the integer source (`WeightedHypergraph.integer_source`,
every weight times L, the lcm of their denominators), so every entropy it
holds is an int (L times the entropy).  It lists every minimizer by one
exhaustive scan over *units*, disjoint vertex sets that every minimizer
keeps whole:

* From TRUNCATION_MIN_M terminals on, the units are the cells of P*, which
  `flow.dinkelbach` finds with I by max-flow in polynomial time.  The scan
  then walks only the coarsenings of P*, Bell(|P*|) partitions.
* Below it the units are the singletons, and the scan walks all Bell(m)
  partitions.  The threshold sits at the measured crossover.  Over 50
  random sources of five families, the full scan takes 13 ms at m = 7
  against 22 ms for the truncation plus the scan of P*'s coarsenings, 44
  against 38 ms at m = 8, and 185 against 88 ms at m = 9 (2-vCPU Intel
  Xeon, Python 3.11.7).  At m = 8 the truncation saves about 0.1 ms a
  source, too little to give up the exhaustive coarsening check below.

Units are ordered by their smallest vertex.  The source is contracted to
them, each hyperedge to the set of units it meets, and the scan's tables
are keyed by the 2^|units| unions of units, as original bitmasks.  It walks
the restricted growth strings over the units with one mutable list of
cells and carries the running sum of their entropies: putting a unit into
cell C adds E[C | unit] - E[C].  The last unit is placed in a loop, and
only the cells where it adds least can reach the best value.  A value
(S - T) / (k - 1) is compared with the best n / d by cross-multiplying,
(S - T) * d against n * (k - 1), both denominators being positive; the
result is n / (L * d), built once.  Cells open in order of their smallest
unit, so each tied minimizer the scan records is already a canonical cell
tuple; `MmiResult` keeps those tuples and builds a `Partition` only when
`all_minimizers` is read.

The scan checks what it finds.  On the truncation's units its least value
must be the truncation's I, and its finest minimizer must be all the units,
P* itself.  On the singletons the finest minimizer must be unique, and
every minimizer must coarsen it: P* refines P exactly when no cell of P*
meets a cell C of P without lying inside it, so each distinct cell among
the minimizers is checked once against the cells of P*, however many
minimizers tie.  Above the threshold every scanned partition coarsens the
truncation's P* by construction; that this P* is the source's rests on the
theorem, the two checks above and the oracle tests, and is not re-checked
exhaustively.  A plain `Fraction` scan,
`tests/reference_scan.py`, is the test oracle of both paths.

`mmi` is the one way the package computes the capacity and P*;
`cross_edges` gives the weight crossing a partition, which the graph closed
forms in `bounds` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import CapExceededError, InternalInvariantError
from .flow import dinkelbach
from .hypergraph import WeightedHypergraph, format_subset, subset_weight_table, vertices_of

PARTITION_CAP = 12
# From this m on, mmi scans the coarsenings of the truncation's P* only.
TRUNCATION_MIN_M = 9


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
    (bitmasks sorted by smallest member, as in `Partition.cells`), whichever
    units `mmi` scanned.  `all_minimizers` builds their `Partition`s on each
    read and keeps none.
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

    Returns the minimum, the finest minimizer, and all minimizers in scan
    order as cell tuples.  From TRUNCATION_MIN_M terminals on, the
    truncation gives I and P* first and the scan runs over the cells of P*;
    below, it runs over the singletons.  A finest minimizer that is not
    unique, a scan whose value is not the truncation's I or whose finest
    minimizer is not all of P*'s cells, and, on the singleton scan, a
    minimizer that does not coarsen the finest one are reported as internal
    errors: none of these can happen for hypergraphical sources.
    """
    m = hg.m
    if m > PARTITION_CAP:
        raise CapExceededError(
            f"m = {m} exceeds the partition enumeration cap of {PARTITION_CAP}"
        )
    full = hg.full_mask
    src, scale = hg.integer_source()
    if m >= TRUNCATION_MIN_M:
        capacity, units = dinkelbach(src)
        # The source contracted to the units: each hyperedge becomes the set
        # of units it meets (bit i for units[i]).
        contracted: dict[int, int] = {}
        for e, w in src.weights.items():
            a = sum(1 << i for i, unit in enumerate(units) if e & unit)
            contracted[a] = contracted.get(a, 0) + w
    else:
        # The singletons: the source is its own contraction.
        capacity, units, contracted = None, tuple(1 << v for v in range(m)), src.weights
    n = len(units)
    top = (1 << n) - 1
    cond = subset_weight_table(n, contracted)
    total = cond[top]
    union = [0]  # union[a]: the union of the units in a, as an original bitmask
    for unit in units:
        union += [u | unit for u in union]
    ent = {u: total - cond[top ^ a] for a, u in enumerate(union)}

    # The scan places units 1..n-1 by recursion and the last unit in a
    # loop: gain[A] is what putting it into cell A adds to the entropy sum.
    last = units[-1]
    gain = {u: ent[u | last] - ent[u] for u in union[: 1 << (n - 1)]}
    ent_last = ent[last]
    cells = [units[0]]
    minimizers: list[tuple[int, ...]] = []
    # best_num / best_den is the best value so far, seeded with that of
    # {units 1..n-1},{last unit}, the first partition scanned.
    best_num, best_den = ent[full ^ last] + ent_last - total, 1

    def place(i: int, acc: int) -> None:
        # cells partition the units below i; acc = sum of their entropies - total.
        nonlocal best_num, best_den
        k = len(cells)
        if i < n - 1:
            bit = units[i]
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

    place(1, ent[units[0]] - total)

    value = Fraction(best_num, scale * best_den)
    max_cells = max(map(len, minimizers))
    finest = [cells for cells in minimizers if len(cells) == max_cells]
    if len(finest) != 1:
        raise InternalInvariantError(
            f"finest minimizer is not unique: {len(finest)} partitions with {max_cells} cells"
        )
    fundamental = Partition(m, finest[0])
    if capacity is not None:
        if value != capacity / scale:
            raise InternalInvariantError(
                f"the scan's minimum {value} is not the truncation's capacity {capacity / scale}"
            )
        if max_cells != n:
            raise InternalInvariantError(
                f"the finest minimizer {fundamental} is coarser than the truncation's"
                f" partition {Partition(m, units)}"
            )
    else:
        distinct = set(chain.from_iterable(minimizers))
        bad = {c for c in distinct if any(f & c and f & ~c for f in fundamental.cells)}
        if bad:
            part = Partition(m, next(cells for cells in minimizers if not bad.isdisjoint(cells)))
            raise InternalInvariantError(
                f"minimizer {part} is not a coarsening of the fundamental partition {fundamental}"
            )
    return MmiResult(
        value=value,
        fundamental=fundamental,
        minimizer_cells=tuple(minimizers),
    )
