"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each public function named in TARGETS with a
wrapper, at its definition site and at every `skbounds` module that
imported it (for example `bounds.solve`, `bounds.mmi`,
`bounds.subset_weight_table`, `cli.mmi` and the package exports), and
`Tracer.restore` puts the originals back.  The wrappers only record while
`Tracer.active` is true, so output checks made between operations are not
traced.

Spans nest through an explicit stack (one thread, closed loop).  A span's
self time is its duration minus the time covered by its child spans; the
tracer's own bookkeeping after a call is counted as covered, so it lands in
no layer's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

from workloads import bell

LAYERS = ("cli", "hypergraph", "partitions", "lp", "bounds", "rational")

# (module, function) -> span name; the layer is the part before the dot.
TARGETS = {
    ("skbounds.cli", "parse_document"): "cli.parse",
    ("skbounds.hypergraph", "subset_weight_table"): "hypergraph.table",
    ("skbounds.partitions", "mmi"): "partitions.mmi",
    ("skbounds.partitions", "cross_edges"): "partitions.cross_edges",
    ("skbounds.lp", "solve"): "lp.solve",
    ("skbounds.lp", "solve_with_row_generation"): "lp.rowgen",
    ("skbounds.bounds", "analyze"): "bounds.analyze",
    ("skbounds.bounds", "r_co_direct"): "bounds.r_co_direct",
    ("skbounds.bounds", "upper_bound_theorem1"): "bounds.upper_bound_theorem1",
    ("skbounds.bounds", "separation_oracle"): "bounds.separation",
    ("skbounds.bounds", "build_rco_lp"): "bounds.build_rco_lp",
    ("skbounds.bounds", "build_gamma_lp"): "bounds.build_gamma_lp",
    ("skbounds.rational", "parse_rational"): "rational.parse",
}

# Import sites that must be patched, or the layer under them goes unseen.
REQUIRED_SITES = (
    ("skbounds.bounds", "solve"),
    ("skbounds.bounds", "solve_with_row_generation"),
    ("skbounds.bounds", "mmi"),
    ("skbounds.bounds", "subset_weight_table"),
    ("skbounds.bounds", "cross_edges"),
    ("skbounds.cli", "mmi"),
    ("skbounds.cli", "parse_rational"),
)

PER_LAYER = (
    ("lp.solve_s", "s"), ("lp.solve_calls", "count"), ("lp.rows", "count"),
    ("lp.cols", "count"), ("lp.rowgen_rounds", "count"), ("lp.rowgen_self_s", "s"),
    ("hypergraph.table_s", "s"), ("hypergraph.table_calls", "count"),
    ("hypergraph.table_entries", "count"),
    ("bounds.separation_s", "s"), ("bounds.separation_calls", "count"),
    ("bounds.build_lp_s", "s"), ("bounds.analyze_self_s", "s"),
    ("partitions.mmi_s", "s"), ("partitions.mmi_calls", "count"),
    ("partitions.scanned", "count"), ("partitions.minimizers", "count"),
    ("cli.parse_s", "s"), ("cli.bytes_parsed", "count"),
    ("rational.max_bits", "bits"),
) + tuple((f"{layer}.share_pct", "%") for layer in LAYERS) + (
    ("trace.ops", "count"), ("trace.overhead_pct", "%"),
)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    if isinstance(value, dict):
        return max((max_bits(v) for v in value.values()), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((max_bits(v) for v in vars(value).values()), default=0)
    return 0


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _count(self, name, args, kwargs, result, parent) -> None:
        if name == "lp.solve":
            lp = _first_arg(args, kwargs, "lp")
            self.counts["lp.rows"] += len(lp.constraints)
            self.counts["lp.cols"] += len(lp.variables)
            if parent is not None and parent[0] == "lp.rowgen":
                self.counts["lp.rowgen_rounds"] += 1
        elif name == "hypergraph.table":
            self.counts["hypergraph.table_entries"] += 1 << _first_arg(args, kwargs, "m")
        elif name == "partitions.mmi":
            self.counts["partitions.scanned"] += bell(_first_arg(args, kwargs, "hg").m) - 1
            self.counts["partitions.minimizers"] += len(result.all_minimizers)
        elif name == "cli.parse":
            self.counts["cli.bytes_parsed"] += len(_first_arg(args, kwargs, "text").encode("utf-8"))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.self_s[name] += end - start - frame[1]
            self.calls[name] += 1
            self._count(name, args, kwargs, result, parent)
            self.max_bits = max(self.max_bits, max_bits(result))
            if parent is not None:
                parent[1] += time.perf_counter() - start
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "skbounds" or key.startswith("skbounds.")]
        for (mod_name, attr), span in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)  # a rename fails here
            wrapper = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, attr in REQUIRED_SITES:
            if not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__"):
                raise RuntimeError(f"trace: import site {mod_name}.{attr} was not patched")

    def restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def check_coverage(self, expected_spans) -> None:
        """Fail loudly when a span the workload must exercise saw no call."""
        missing = sorted(name for name in expected_spans if self.calls[name] == 0)
        if missing:
            raise RuntimeError(f"trace: no calls recorded for {', '.join(missing)}")

    def layer_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict:
        s, c, n = self.self_s, self.calls, self.counts
        values = {
            "lp.solve_s": s["lp.solve"],
            "lp.solve_calls": c["lp.solve"],
            "lp.rows": n["lp.rows"],
            "lp.cols": n["lp.cols"],
            "lp.rowgen_rounds": n["lp.rowgen_rounds"],
            "lp.rowgen_self_s": s["lp.rowgen"],
            "hypergraph.table_s": s["hypergraph.table"],
            "hypergraph.table_calls": c["hypergraph.table"],
            "hypergraph.table_entries": n["hypergraph.table_entries"],
            "bounds.separation_s": s["bounds.separation"],
            "bounds.separation_calls": c["bounds.separation"],
            "bounds.build_lp_s": s["bounds.build_rco_lp"] + s["bounds.build_gamma_lp"],
            "bounds.analyze_self_s": s["bounds.analyze"],
            "partitions.mmi_s": s["partitions.mmi"],
            "partitions.mmi_calls": c["partitions.mmi"],
            "partitions.scanned": n["partitions.scanned"],
            "partitions.minimizers": n["partitions.minimizers"],
            "cli.parse_s": s["cli.parse"],
            "cli.bytes_parsed": n["cli.bytes_parsed"],
            "rational.max_bits": self.max_bits,
        }
        for layer, layer_s in self.layer_seconds().items():
            values[f"{layer}.share_pct"] = 100.0 * layer_s / traced_s
        values["trace.ops"] = ops
        values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        return values
