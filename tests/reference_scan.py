"""The plain `Fraction` partition scan, kept as a test oracle.

This is the scan `skbounds.partitions.mmi` ran before it moved to exact
integer arithmetic: it walks every restricted growth string with a
recursive generator, sums the `Fraction` entropy table per partition,
divides, and compares rationals.  It shares no scan code with the package;
`tests/test_scan_oracle.py` asserts both return equal results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from skbounds import InternalInvariantError, WeightedHypergraph
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


def reference_mmi(hg: WeightedHypergraph) -> MmiResult:
    """Minimize the partition value over all partitions with >= 2 cells."""
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
    cells = tuple(part.cells for part in all_parts)
    return MmiResult(value=best, fundamental=fundamental, minimizer_cells=cells)
