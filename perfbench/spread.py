"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads corpus,rowgen --sets 301-310 311-320 \
        --seconds 30 [--out FILE]

Each --sets argument is one set of seeds.  The sets are interleaved: for
the i-th seed of every set in turn, every workload runs once, so all sets
see the same spells of a shared machine.  Runs are sequential, one process
at a time, always with --trace 0.

For every workload, set and end-to-end metric it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (Q3 - Q1) / median; for every set after the first, how much worse
its median is than the first set's, as a share of the first.  Each line
ends with the metric's bound from BENCHMARK.json.  The times run.py scales
to a fixed machine speed are also summarised as measured, for comparison.
--out writes the
summary and every run's JSON result to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Figures run.py scales to a fixed machine speed; it also prints them as measured.
SCALED = ("setup_s", "ops_per_s", "op_p50_ms")
UNSCALED = "unscaled "


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def run_once(workload: str, seed: int, seconds: str) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = {}
    for line in lines:
        name, _, value = line.partition(": ")
        if name.startswith(UNSCALED) and name[len(UNSCALED):] in SCALED:
            unscaled[name.replace(" ", "_")] = float(value.split()[0])
    return {"seed": seed, "wall_s": wall_s, "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}, **unscaled}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--sets", required=True, nargs="+",
                        help="one seed range per set, e.g. 301-310 311-320")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    sets = [seeds(text) for text in args.sets]

    runs = {w: [[] for _ in sets] for w in workloads}
    for i in range(max(map(len, sets))):
        for k, set_seeds in enumerate(sets):
            if i >= len(set_seeds):
                continue
            for w in workloads:
                run = run_once(w, set_seeds[i], args.seconds)
                runs[w][k].append(run)
                print(f"{w} set {k} seed {run['seed']}: wall {run['wall_s']:.1f} s,"
                      f" failed {run['failed']}/{run['attempted']} "
                      + " ".join(f"{m['name']}={run[m['name']]:.6g}" for m in SPEC["end_to_end"]),
                      flush=True)

    summary: dict = {}
    for w in workloads:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            per_set = [stats([run[name] for run in set_runs]) for set_runs in runs[w]]
            for k, s in enumerate(per_set):
                s["worse_than_first"] = worse_by(per_set[0]["median"], s["median"], metric["better"])
                print(f"{w} set {k} {name}: median {s['median']:.6g} {metric['unit']}"
                      f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
                      f"  worse than set 0 by {s['worse_than_first']:+.3f}  (bound {metric['bound']})")
            summary.setdefault(w, {})[name] = per_set
        for name in SCALED:
            for k, set_runs in enumerate(runs[w]):
                s = stats([run["unscaled_" + name] for run in set_runs])
                print(f"{w} set {k} {name} as measured, unscaled: median {s['median']:.6g}"
                      f"  spread {s['spread']:.3f}")
                summary[w].setdefault("unscaled_" + name, []).append(s)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"sets": args.sets, "seconds": args.seconds, "summary": summary, "runs": runs},
            indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
