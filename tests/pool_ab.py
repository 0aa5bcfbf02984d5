"""Time two source trees on the benchmark's pools, in one process:
`python tests/pool_ab.py PARENT_SRC CHANGE_SRC [--size full|tiny] [--rounds R]`.

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a
`skbounds` package; both are imported here, as two packages under other
names.  For each workload of `perfbench/workloads.py` (read, not changed)
it builds the pool at seeds 1, 2 and 3, R rounds each (default 4), and
times every `run_op` on both trees, best of 7, with the tree that runs
first alternating.  Each tree's first result on each source goes through
the benchmark's own `check`.  Prints a header and one line per workload:
its operations, the failed checks of either tree, the parent's summed
best in ms, and the change's summed and median best over the parent's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = "workload ops fails parent_ms summed p50"
SEEDS = (1, 2, 3)
REPEATS = 7


def load(name: str, path: Path):
    """Import the module or package at `path` as `name`."""
    init = path / "__init__.py" if path.is_dir() else path
    locations = [str(path)] if path.is_dir() else None
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and relative imports look the module up here
    spec.loader.exec_module(module)
    return module


def load_tree(name: str, src: Path):
    """The `skbounds` package under `src`, imported as `name`, with its `cli` loaded as `run_op` reads it."""
    package = load(name, src / "skbounds")
    importlib.import_module(f"{name}.cli")
    return package


def compare(workloads, trees, size: str, workload: str, rounds: int) -> str:
    """One output line: every source of the workload's pools timed on both trees."""
    profile = workloads.WORKLOADS[size][workload]
    sources = [src for seed in SEEDS for row in workloads.make_pool(profile, workload, seed, rounds) for src in row]
    best = [[], []]
    fails = 0
    for src in sources:
        times = [[], []]
        for rep in range(REPEATS):
            for side in (0, 1) if rep % 2 == 0 else (1, 0):
                start = time.perf_counter()
                out = workloads.run_op(trees[side], src, profile.method)
                times[side].append(time.perf_counter() - start)
                if rep == 0:
                    fails += len(workloads.check(trees[side], src, out, profile.method))
        for side in (0, 1):
            best[side].append(min(times[side]))
    summed = sum(best[1]) / sum(best[0])
    p50 = statistics.median(best[1]) / statistics.median(best[0])
    return f"{workload} {len(sources)} {fails} {sum(best[0]) * 1e3:.1f} {summed:.3f} {p50:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--rounds", type=int, default=4, help="pool rounds per seed")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree or in perfbench/
    warnings.simplefilter("ignore")  # analyze warns on graph-plus-singleton sources
    workloads = load("pool_ab_workloads", ROOT / "perfbench" / "workloads.py")
    trees = (load_tree("parent_skbounds", args.parent), load_tree("change_skbounds", args.change))
    print(HEADER)
    for workload in workloads.WORKLOADS[args.size]:
        print(compare(workloads, trees, args.size, workload, args.rounds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
