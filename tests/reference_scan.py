"""The two exhaustive partition scans, kept as test oracles of `mmi`.

`reference_mmi` is the plain `Fraction` scan: it walks every restricted
growth string with a recursive generator, sums the `Fraction` entropy table
per partition, divides, and compares rationals.  `integer_scan` is the exact
integer scan `skbounds.partitions.mmi` ran below m = 8 before the max-flow
path took every m; it is fast enough to check `mmi` at m = 10 and 11, where
the `Fraction` scan is not.  Neither shares scan code with the package;
`tests/test_scan_oracle.py` and `tests/test_truncation.py` assert that each
returns the result `mmi` does.  Each counts its minimizers as the length
of its own list, never by `mmi`'s count, and sorts that list, as `mmi`
lists its minimizers in `sorted` order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterator

from skbounds import InternalInvariantError, WeightedHypergraph
from skbounds.hypergraph import subset_weight_table
from skbounds.partitions import MmiResult, Partition

from conftest import is_refinement_of


def _raw_partitions(m: int, min_cells: int) -> Iterator[tuple[int, ...]]:
    # Restricted growth strings: label[0] = 0, label[i] <= max(label[:i]) + 1.
    labels = [0] * m

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            if used >= min_cells:
                cells = [0] * used
                for idx, lab in enumerate(labels):
                    cells[lab] |= 1 << idx
                yield tuple(cells)
            return
        for lab in range(used):
            labels[i] = lab
            yield from rec(i + 1, used)
        labels[i] = used
        yield from rec(i + 1, used + 1)

    yield from rec(1, 1)


# reference_mmi's results, by (m, sorted weights), for the whole session.
_SCANNED: dict[tuple, MmiResult] = {}


def reference_mmi(hg: WeightedHypergraph) -> MmiResult:
    """Minimize the partition value over all partitions with >= 2 cells.

    Scanned once per session for each m and sorted weights, so a source
    that several tests check is walked once.  The result is shared, and
    immutable: a frozen `MmiResult` whose listing is a tuple.
    """
    key = (hg.m, tuple(sorted(hg.weights.items())))
    if key not in _SCANNED:
        _SCANNED[key] = _fraction_scan(hg)
    return _SCANNED[key]


def _fraction_scan(hg: WeightedHypergraph) -> MmiResult:
    """The scan itself: every partition's value from the `Fraction` entropy table."""
    ent = hg.entropy_table()
    total = ent[hg.full_mask]

    best: Fraction | None = None
    minimizers: list[tuple[int, ...]] = []
    for cells in _raw_partitions(hg.m, min_cells=2):
        acc = -total
        for cell in cells:
            acc += ent[cell]
        value = acc / (len(cells) - 1)
        if best is None or value < best:
            best = value
            minimizers = [cells]
        elif value == best:
            minimizers.append(cells)

    assert best is not None and minimizers
    max_cells = max(len(cells) for cells in minimizers)
    finest = [cells for cells in minimizers if len(cells) == max_cells]
    if len(finest) != 1:
        raise InternalInvariantError(
            f"finest minimizer is not unique: {len(finest)} partitions with {max_cells} cells"
        )
    fundamental = Partition(hg.m, finest[0])
    all_parts = tuple(Partition(hg.m, cells) for cells in minimizers)
    for part in all_parts:
        if not is_refinement_of(fundamental, part):
            raise InternalInvariantError(
                f"minimizer {part} is not a coarsening of the fundamental partition {fundamental}"
            )
    cells = tuple(sorted(part.cells for part in all_parts))
    return MmiResult(best, fundamental, len(cells), lambda: cells)


def integer_scan(hg: WeightedHypergraph) -> MmiResult:
    """Every partition of the integer source, with the scan's two checks on the minimizers.

    It places vertices 2..m-1 by recursion over one mutable list of cells,
    carrying the running sum of their int entropies, and the last vertex in
    a loop where only the cells it adds least to can reach the best value;
    values are compared by cross-multiplying.  The finest minimizer must be
    unique, and each distinct cell among the minimizers must not cut a cell
    of it.
    """
    src, scale = hg.integer_source()
    return _scan(hg.m, _entropies(hg.m, src.weights), scale)


def _entropies(n: int, entries: dict[int, int]) -> list[int]:
    """ent[a] = the weight of the entries meeting a, for every a of n bits."""
    cond = subset_weight_table(n, entries)
    total = cond[-1]
    return [total - c for c in reversed(cond)]


def _scan(m: int, ent: list[int], scale: int) -> MmiResult:
    """Every partition of the m terminals, by restricted growth strings."""
    full = (1 << m) - 1
    total = ent[full]
    # The scan places vertices 2..m-1 by recursion and vertex m in a loop:
    # gain[C] is what putting it into cell C adds to the entropy sum.
    last = 1 << (m - 1)
    gain = [ent[c | last] - ent[c] for c in range(last)]
    ent_last = ent[last]
    cells = [1]
    minimizers: list[tuple[int, ...]] = []
    # best_num / best_den is the best value so far, seeded with that of
    # {1..m-1},{m}, the first partition scanned.
    best_num, best_den = ent[full ^ last] + ent_last - total, 1

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
    distinct = set(chain.from_iterable(minimizers))
    bad = {c for c in distinct if any(f & c and f & ~c for f in fundamental.cells)}
    if bad:
        part = Partition(m, next(cells for cells in minimizers if not bad.isdisjoint(cells)))
        raise InternalInvariantError(
            f"minimizer {part} is not a coarsening of the fundamental partition {fundamental}"
        )
    cells = tuple(sorted(minimizers))
    return MmiResult(Fraction(best_num, scale * best_den), fundamental, len(cells), lambda: cells)
