"""Time the subset-table step at scale: `python tests/table_scale.py [m ...]`.

For each m given (default 14 16 18) and each of two seeded families with
just enough edges for `flow.step_table`'s guard, 2^m <= 8 m |E|:

* `block`: 2 to 4 planted blocks, heavy edges (weight 20-40) inside them
  and light ones (1-3) across them;
* `dense`: random edges of two or more vertices, weight 1-9;

runs `fundamental` and then `r_co_direct` on a fresh hypergraph, in a
fresh process (`python tests/table_scale.py FAMILY m` measures one pair
in this process).  Prints a header and one line per (family, m): the
edge count, the best seconds of 3 timed runs, the `tracemalloc` peak of
one more run in MiB above the memory before it, and what decided the
run: `rows` (the singletons' rate rows), `table` (truncations that read
the kept subset table) or `cut` (truncations by min cuts, no table).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HEADER = "family m edges seconds peak_mib run"
MIB = 1 << 20


def block_source(rng: random.Random, m: int, count: int) -> dict[int, int]:
    """`count` edges on m terminals: heavy ones inside 2 to 4 planted blocks, light ones across."""
    order = rng.sample(range(m), m)
    k = rng.randint(2, 4)
    blocks = [sum(1 << v for v in order[i::k]) for i in range(k)]
    weights: dict[int, int] = {}
    while len(weights) < count:
        if rng.random() < 0.5:
            block = rng.choice(blocks)
            e, w = block & rng.randrange(1 << m), rng.randint(20, 40)
        else:
            e, w = rng.randrange(1 << m), rng.randint(1, 3)
            if sum(1 for block in blocks if e & block) < 2:
                continue
        if e & (e - 1):
            weights[e] = weights.get(e, 0) + w
    return weights


def dense_source(rng: random.Random, m: int, count: int) -> dict[int, int]:
    """`count` random edges of two or more of the m terminals, each of weight 1 to 9."""
    weights: dict[int, int] = {}
    while len(weights) < count:
        e = rng.randrange(1, 1 << m)
        if e & (e - 1):
            weights[e] = rng.randint(1, 9)
    return weights


FAMILIES = {"block": block_source, "dense": dense_source}


def measure(family: str, m: int) -> dict[str, object]:
    """The fields of `HEADER` for one family at m, seconds to four significant digits and MiB to one decimal."""
    from skbounds import WeightedHypergraph, r_co_direct
    from skbounds.flow import fundamental

    count = -(-(1 << m) // (8 * m))  # the fewest edges with 2^m <= 8 m |E|
    weights = FAMILIES[family](random.Random(f"{family}/{m}"), m, count)

    def run():
        hg = WeightedHypergraph(m, weights)
        start = time.perf_counter()
        fundamental(hg)
        r_co_direct(hg)
        return time.perf_counter() - start, fundamental(hg)

    seconds = min(run()[0] for _ in range(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, kept = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    decided = "rows" if kept.rows else "table" if kept.table else "cut"
    values = [family, m, len(weights), float(f"{seconds:.4g}"), round(peak / MIB, 1), decided]
    return dict(zip(HEADER.split(), values, strict=True))


def main(argv: list[str]) -> None:
    if argv and argv[0] in FAMILIES:
        sys.path.insert(0, str(SRC))
        print(" ".join(str(value) for value in measure(argv[0], int(argv[1])).values()), flush=True)
        return
    print(HEADER, flush=True)
    for m in [int(arg) for arg in argv] or [14, 16, 18]:
        for family in FAMILIES:
            subprocess.run([sys.executable, __file__, family, str(m)], check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
