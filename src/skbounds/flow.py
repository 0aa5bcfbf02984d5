"""Capacity and fundamental partition by max-flow, in polynomial time.

On a hypergraph source the entropy H(C) of a group C is the weight of the
hyperedges that meet C, so for any gamma the function f(C) = H(C) - gamma
is intersecting submodular, and the least value of the sum of f over the
cells of a partition (its Dilworth truncation) is found by m minimizations,
each one s-t min-cut (Narayanan, LAA 144, 1991; Fujishige, Submodular
Functions and Optimization, 2005).

A partition P has value (sum of H(C) over its cells - H(M)) / (|P| - 1)
at most gamma exactly when its sum of f is at most H(M) - gamma, the sum
of the one-cell partition.  So Dinkelbach's iteration finds the capacity I:
start at the value of some partition, truncate, and move gamma to the value
of the partition found while that partition beats the one-cell partition.
Any start at or above I will do; the least value among the singletons and
the m splits {v} | M - v cuts the truncations about in half on random
sources, and on a Type-S source it is already I.
At gamma = I the minimizers of the truncation are the one-cell partition
and the minimizers of the value, and the finest of them is the fundamental
partition P* (Chan et al., "Info-clustering", Proc. IEEE 2015).

Every capacity is an int: gamma = n / d enters with every weight times d.
"""

from __future__ import annotations

from fractions import Fraction

from .hypergraph import WeightedHypergraph
from .rational import to_integers


def min_cut(nodes: int, arcs: list[tuple[int, int, int]], source: int, sink: int) -> tuple[int, list[int]]:
    """(value, side): a max-flow value from `source` to `sink` and the least min-cut source side.

    `arcs` holds (tail, head, capacity) on the nodes 0..nodes-1, each
    capacity an int >= 0.  Each round grows a breadth-first tree of the
    residual network from `source` and augments along the tree path of
    every node with a residual arc into `sink`; when no such node is left,
    the nodes reached from `source` form the source side contained in every
    minimum cut.
    """
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(nodes)]
    for tail, to, c in arcs:
        out[tail].append(len(head))
        head.append(to)
        cap.append(c)
        out[to].append(len(head))
        head.append(tail)
        cap.append(0)
    value = 0
    while True:
        via = [-1] * nodes  # the arc each node was first reached by
        via[source] = via[sink] = -2
        reached = [source]
        for u in reached:
            for a in out[u]:
                v = head[a]
                if cap[a] and via[v] == -1:
                    via[v] = a
                    reached.append(v)
        into = [a ^ 1 for a in out[sink] if cap[a ^ 1] and via[head[a]] != -1]
        if not into:
            return value, reached
        # Augment along the tree path of every node with a residual arc into the sink.
        for a in into:
            path = [a]
            u = head[a ^ 1]
            while u != source:
                path.append(via[u])
                u = head[via[u] ^ 1]
            push = min(cap[b] for b in path)
            for b in path:
                cap[b] -= push
                cap[b ^ 1] += push
            value += push


def truncation(src: WeightedHypergraph, gamma: Fraction) -> tuple[Fraction, tuple[int, ...]]:
    """The least sum of H(C) - gamma over the cells C of a partition of M, and its finest partition.

    `src` has int weights.  Vertex j (in order) gets x_j, the least
    f(S) - x(S - j) over S with j in S within {1..j}, solved as one min cut
    with j as the source.  An arc j -> v of capacity x_v > 0, or v -> sink of
    capacity -x_v, carries the modular term of each v < j.  The hyperedges
    that meet {1..j} in the same set a cost their weight once a vertex of a
    is on the source side: an arc v -> sink when a = {v}, else unbounded
    arcs v -> node and an arc node -> sink.  The least minimizer S joins the
    cells it meets.  The cells found this way form the finest minimizing
    partition, and the sum of x is the least sum.  Cells come sorted by
    their smallest vertex.
    """
    (n,), d = to_integers([gamma])
    x: list[int] = []
    cells: list[int] = []
    for j in range(src.m):
        groups: dict[int, int] = {}
        for e, w in src.weights.items():
            a = e & ((2 << j) - 1)
            if a:
                groups[a] = groups.get(a, 0) + w * d
        # Node v <= j is vertex v, node j + 1 the sink, and one node follows per group.
        sink = nodes = j + 1
        arcs = [(j, v, x[v]) if x[v] > 0 else (v, sink, -x[v]) for v in range(j) if x[v]]
        unbounded = 1 + sum(map(abs, x)) + sum(groups.values())
        for a, w in groups.items():
            if a & (a - 1):
                nodes += 1
                arcs.append((nodes, sink, w))
                arcs += [(v, nodes, unbounded) for v in range(j + 1) if a >> v & 1]
            else:
                arcs.append((a.bit_length() - 1, sink, w))
        cut, reached = min_cut(nodes + 1, arcs, j, sink)
        x.append(cut - sum(v for v in x if v > 0) - n)
        least = sum(1 << u for u in reached if u <= j)
        for c in cells:
            if c & least:
                least |= c
        cells = [c for c in cells if not c & least] + [least]
    return Fraction(sum(x), d), tuple(sorted(cells, key=lambda c: c & -c))


def _partition_value(src: WeightedHypergraph, cells: tuple[int, ...]) -> Fraction:
    """(sum of H(C) over the cells - H(M)) / (cells - 1)."""
    crossing = sum(w * (sum(1 for c in cells if e & c) - 1) for e, w in src.weights.items())
    return Fraction(crossing, len(cells) - 1)


def dinkelbach(src: WeightedHypergraph) -> tuple[Fraction, tuple[int, ...]]:
    """(I, P*): the least partition value of `src` (int weights) and its finest minimizer's cells.

    Starts at the least value among the singletons and the m splits
    {v} | M - v; each truncation either beats the one-cell partition, and
    gamma falls to the value of the partition found, or shows that no
    partition has a value below gamma.
    """
    total = sum(src.weights.values())
    full = (1 << src.m) - 1
    starts = [tuple(1 << v for v in range(src.m)), *((1 << v, full ^ (1 << v)) for v in range(src.m))]
    gamma = min(_partition_value(src, cells) for cells in starts)
    while True:
        least, cells = truncation(src, gamma)
        if least >= total - gamma:
            return gamma, cells
        gamma = _partition_value(src, cells)
