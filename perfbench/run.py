"""skbounds benchmark: one seeded workload, exact output checks, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads: corpus, partition-scan, rowgen (see workloads.py for why).  The
benchmark imports `skbounds` from `src/` of the checkout it sits in, drives
the public API from one thread (closed loop, one client), and checks every
output outside the timed region.

--trace 0 runs whole rounds of the pool until --seconds have passed and
prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms and
peak_rss_mib.  Their times are scaled to a fixed machine speed (see
`Pace`); the unscaled figures are printed on the lines before the JSON, as
are fail_ratio (also `failed/attempted` in the JSON) and op_p90_ms (only
with at least 100 samples).  --trace 1 runs a fixed pool, sized from
--seconds, once untraced and once traced (interleaved) and prints the
per-layer metrics of the traced pass; its counts repeat exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 on a completed run,
2 when `skbounds` cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 16
P90_MIN_SAMPLES = 100
PACE_WINDOW = 8  # reference pieces whose median scales one timed item
PACE_NOMINAL_S = 1.5e-3  # one reference piece at the fixed speed the metrics are given at


class Run:
    """Counts of one run: every attempted operation, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, sk, src, method, out, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                problems = workloads.check(sk, src, out, method)
            except Exception as exc:  # a check that raises is a failed output
                problems = [f"check raised {exc!r}"]
        else:
            problems = [f"operation raised {error!r}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{src.kind} {src.family} m={src.m}: {'; '.join(problems)}")


def import_program():
    """Fresh import of skbounds from this checkout's src/."""
    for key in [k for k in sys.modules if k == "skbounds" or k.startswith("skbounds.")]:
        del sys.modules[key]
    sk = importlib.import_module("skbounds")
    importlib.import_module("skbounds.cli")
    if not Path(sk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"skbounds imported from {sk.__file__}, not from {SRC}")
    return sk


def reference_piece() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the program's
    kind: Fraction arithmetic, a dict keyed by frozensets, and sorting a
    list of small tuples.  The work never changes, so its time reads the
    machine's speed at that moment."""
    start = time.perf_counter()
    acc, table, order = Fraction(0), {}, []
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = frozenset((i % 9, i % 5, i % 3))
        table[key] = table.get(key, 0) + i * i % 11
        order.append((i * 7919 % 263, i & 63))
    order.sort()
    return time.perf_counter() - start


class Pace:
    """Reference pieces between timed items, and the scale they give.

    On a shared machine the speed of the same work drifts by tens of
    percent over seconds, so raw times measure the neighbours.  A reference
    piece runs after every timed item; an item is scaled by PACE_NOMINAL_S
    over the median of the PACE_WINDOW pieces around it, which gives its
    time at one fixed speed.  A change to the program moves the item, not
    the pieces, so it still shows in full."""

    def __init__(self):
        self.pieces = [reference_piece() for _ in range(PACE_WINDOW // 2)]
        self._items: list[tuple[float, int]] = []

    def add(self, seconds: float) -> int:
        """Record one timed item that has just ended; returns its index."""
        self._items.append((seconds, len(self.pieces)))
        self.pieces.append(reference_piece())
        return len(self._items) - 1

    def raw(self) -> list[float]:
        """Every recorded item as measured, in recording order."""
        return [seconds for seconds, _ in self._items]

    def scaled(self) -> list[float]:
        """Every recorded item at the fixed speed, in recording order."""
        out = []
        for seconds, after in self._items:
            start = max(0, min(after - PACE_WINDOW // 2, len(self.pieces) - PACE_WINDOW))
            speed = statistics.median(self.pieces[start:start + PACE_WINDOW])
            out.append(seconds * PACE_NOMINAL_S / speed)
        return out


class Setup:
    """Import, input generation and rendering, timed once before the run and
    again at SETUP_REPEATS evenly spaced moments of the timed phase; setup_s
    is the median.  The first import's modules and pool are the ones the
    run uses."""

    def __init__(self, profile, workload, seed, rounds, pace):
        self._args = (profile, workload, seed, rounds)
        self._pace = pace
        self.items: list[int] = []  # indices in `pace`
        self.sk, self.pool = self.once()

    def once(self):
        start = time.perf_counter()
        sk = import_program()
        pool = workloads.make_pool(*self._args)
        self.items.append(self._pace.add(time.perf_counter() - start))
        return sk, pool


def timed_op(sk, src, method):
    start = time.perf_counter()
    try:
        out, error = workloads.run_op(sk, src, method), None
    except Exception as exc:  # counted as a failed operation
        out, error = None, exc
    return time.perf_counter() - start, out, error


def measure(sk, profile, pool, run, setup, pace, seconds):
    """Whole rounds of the pool until `seconds` have passed, checks and
    set-up repeats included; returns the index in `pace` of every
    operation."""
    start = time.perf_counter()
    setup_at = [seconds * (i + 1) / (SETUP_REPEATS + 1) for i in range(SETUP_REPEATS)]
    items = []
    for round_ in pool:
        if items and time.perf_counter() - start >= seconds:
            break
        for src in round_:
            dt, out, error = timed_op(sk, src, profile.method)
            items.append(pace.add(dt))
            run.record(sk, src, profile.method, out, error)
            del out
            while setup_at and time.perf_counter() - start >= setup_at[0]:
                setup_at.pop(0)
                setup.once()
    return items


def measure_traced(sk, profile, pool, run):
    """The same rounds untraced and traced, interleaved.

    Returns the per-layer metrics and, per operation kind, each layer's
    share of traced operation time."""
    tracer = Tracer()
    tracer.install()
    try:
        plain_s = traced_s = 0.0
        kind_s: dict = {}
        kind_layers: dict = {}
        for src in (src for sources in pool for src in sources):
            dt, out, error = timed_op(sk, src, profile.method)
            plain_s += dt
            run.record(sk, src, profile.method, out, error)
            before = tracer.layer_seconds()
            tracer.active = True
            try:
                dt, out, error = timed_op(sk, src, profile.method)
            finally:
                tracer.active = False
            traced_s += dt
            kind_s[src.kind] = kind_s.get(src.kind, 0.0) + dt
            layers = kind_layers.setdefault(src.kind, dict.fromkeys(before, 0.0))
            for layer, after_s in tracer.layer_seconds().items():
                layers[layer] += after_s - before[layer]
            run.record(sk, src, profile.method, out, error)
            del out
        tracer.check_coverage(profile.expected_spans)
        shares = {kind: {layer: 100.0 * v / kind_s[kind] for layer, v in layers.items()}
                  for kind, layers in kind_layers.items()}
        return tracer.metrics(sum(map(len, pool)), traced_s, plain_s), shares
    finally:
        tracer.restore()


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def environment(seed, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.WORKLOADS), default="full",
                        help="tiny: desk sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    profile = workloads.WORKLOADS[args.size][args.workload]
    warnings.simplefilter("ignore")  # analyze warns on graph-plus-singleton sources

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # A traced run times and checks each source twice, so its fixed pool is
    # smaller.  An untraced run stops at its deadline and has rounds to spare.
    rounds = workloads.pool_rounds(profile, args.seconds * (0.4 if args.trace else 1.5))
    pace = Pace()
    try:
        setup = Setup(profile, args.workload, args.seed, rounds, pace)
    except ImportError as exc:
        print(f"perfbench: cannot import skbounds from {SRC}: {exc}", file=sys.stderr)
        return 2

    sk, pool = setup.sk, setup.pool
    run = Run()
    timed_op(sk, pool[0][0], profile.method)  # untimed warm-up, unchecked, uncounted

    print("env: " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    if args.trace:
        values, shares = measure_traced(sk, profile, pool, run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for kind, layers in shares.items():
            print(f"share of {kind} time: " + ", ".join(f"{k} {v:.1f} %" for k, v in layers.items()))
    else:
        items = measure(sk, profile, pool, run, setup, pace, args.seconds)
        ok_share = (run.attempted - run.failed) / run.attempted
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        figures = {}
        for label, times in (("", pace.scaled()), ("unscaled ", pace.raw())):
            ordered = sorted(times[i] for i in items)
            figures[label] = {
                "setup_s": statistics.median(times[i] for i in setup.items),
                "ops_per_s": ok_share * len(ordered) / sum(ordered),
                "op_p50_ms": 1000 * statistics.median(ordered),
                "op_p90_ms": 1000 * percentile(ordered, 0.9),
            }
        metrics = {name: {"value": figures[""][name], "unit": units[name]}
                   for name in ("setup_s", "ops_per_s", "op_p50_ms")}
        metrics["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
        if len(items) < P90_MIN_SAMPLES:
            print(f"op_p90_ms: n/a ({len(items)} samples, fewer than {P90_MIN_SAMPLES})")
        for label, values in figures.items():
            if len(items) >= P90_MIN_SAMPLES:
                print(f"{label}op_p90_ms: {values['op_p90_ms']:.3f} ms ({len(items)} samples)")
            if label:
                for name in ("setup_s", "ops_per_s", "op_p50_ms"):
                    print(f"{label}{name}: {values[name]} {units[name]}")
        print(f"pace: reference piece median {1000 * statistics.median(pace.pieces):.4f} ms"
              f" over {len(pace.pieces)} pieces; nominal {1000 * PACE_NOMINAL_S} ms")
        print(f"samples: {len(items)} operations, {len(setup.items)} set-ups")
    print(f"fail_ratio: {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    for line in run.failures[:20]:
        print(f"FAIL {line}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
