"""Measure what listing tied minimizers holds: `python tests/listing_memory.py [m ...]`.

For each m given (default 10 11 12), builds the tie-heavy source
`test_scan_oracle.tie_heavy_source(Random(m), m)`, whose Bell(m - 1) - 1
minimizers all tie at I = 0, runs `mmi` on it, and then reads, under
`tracemalloc`, first `minimizer_cells` (the listing, which the result
keeps) and then `all_minimizers` (a `Partition` per minimizer, held
until its line is printed).  Prints a header and one line per m: the
number of minimizers, and for each read its growth (what it still holds
once read) and its peak, both in MiB above the memory before the read,
and its growth in bytes per minimizer.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HEADER = "m minimizers cells_mib cells_peak_mib cells_b_each partitions_mib partitions_peak_mib partitions_b_each"
MIB = 1 << 20


def _traced(read) -> tuple[object, int, int]:
    """(what `read()` returns, the bytes it still holds, its peak), both above the memory before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    value = read()
    held, peak = tracemalloc.get_traced_memory()
    return value, held - base, peak - base


def measure(m: int) -> dict[str, int | float]:
    """The fields of `HEADER` for the tie-heavy source at m, MiB to one decimal and bytes to whole ones."""
    from skbounds import mmi
    from test_scan_oracle import tie_heavy_source

    result = mmi(tie_heavy_source(random.Random(m), m))
    tracemalloc.start()
    try:
        cells, cells_held, cells_peak = _traced(lambda: result.minimizer_cells)
        parts, parts_held, parts_peak = _traced(lambda: result.all_minimizers)
    finally:
        tracemalloc.stop()
    count = len(cells)
    assert len(parts) == count == result.minimizer_count
    values = [m, count]
    for held, peak in ((cells_held, cells_peak), (parts_held, parts_peak)):
        values += [round(held / MIB, 1), round(peak / MIB, 1), round(held / count)]
    return dict(zip(HEADER.split(), values, strict=True))


def main(argv: list[str]) -> None:
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    print(HEADER)
    for m in [int(arg) for arg in argv] or [10, 11, 12]:
        print(" ".join(str(value) for value in measure(m).values()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
