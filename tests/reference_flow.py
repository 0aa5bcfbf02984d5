"""The general max-flow min cut and the truncation on its network, kept as test oracles.

`skbounds.flow.truncation` solves each step's cut on the bipartite network
of the vertices with a negative term and the groups that meet them, by
`flow.bipartite_cut`.  `min_cut` here is the general breadth-first
augmenting-path max-flow on any arc list, and `reference_truncation` the
truncation that hands it the whole network of a step: a node for every
vertex below the step's vertex and for every group, with the arcs into the
sink of the vertices whose term is positive.  They share no code with the
package.
"""

from __future__ import annotations

from typing import Mapping


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


def reference_truncation(
    m: int, weights: Mapping[int, int], n: int, d: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cells, xs): the finest partition of M that minimizes the sum of H(C) - gamma over its
    cells C, at gamma = n / d, and the greedy point xs / d that reaches that least sum.

    H is the entropy of the source on {1..m} with the int `weights`.  Vertex j (in order) gets x_j, the least
    f(S) - x(S - j) over S with j in S within {1..j}, solved as one min cut
    with j as the source.  The hyperedges that meet {1..j} in the same set a
    (a group) cost their weight once a vertex of a is on the source side.
    Every S holds j, so the groups that contain j cost their weight on every
    cut: it is a constant, and they get no node and no arc.  A vertex v < j
    on the source side costs term_v, the weight of the group {v} minus x_v:
    an arc v -> sink of capacity term_v > 0, or an arc j -> v of capacity
    -term_v with term_v added as a second constant.  Any other group below
    j is a node, with unbounded arcs from its vertices and an arc
    node -> sink.  With no arc out of j there is no cut to solve, and S is
    {j}.  Neither constant moves the least minimizer S, which joins the
    cells it meets.  The cells found this way form the finest minimizing
    partition, and the sum of x is the least sum.  Cells come sorted by
    their smallest vertex.
    """
    edges = [(e, w * d) for e, w in weights.items()]
    x: list[int] = []
    cells: list[int] = []
    for j in range(m):
        bit = 1 << j
        below = bit - 1
        fixed = 0  # the weight of the groups that contain j
        term = [-v for v in x]
        groups: dict[int, int] = {}
        for e, w in edges:
            if e & bit:
                fixed += w
            elif e & below:
                a = e & below
                if a & (a - 1):
                    groups[a] = groups.get(a, 0) + w
                else:
                    term[a.bit_length() - 1] += w
        # pull is minus the capacity out of j, so 1 - pull exceeds every min cut.
        pull = sum(c for c in term if c < 0)
        if pull:
            # Node v < j is vertex v, node j the source, node j + 1 the sink, and one node follows per group.
            sink = j + 1
            arcs = [(v, sink, c) if c > 0 else (j, v, -c) for v, c in enumerate(term) if c]
            for node, (a, w) in enumerate(groups.items(), sink + 1):
                arcs.append((node, sink, w))
                arcs += [(v, node, 1 - pull) for v in range(j) if a >> v & 1]
            cut, reached = min_cut(sink + 1 + len(groups), arcs, j, sink)
            least = sum(1 << u for u in reached if u <= j)
            for c in cells:
                if c & least:
                    least |= c
            cells = [c for c in cells if not c & least]
        else:
            cut, least = 0, bit
        x.append(fixed + pull + cut - n)
        cells.append(least)
    return tuple(sorted(cells, key=lambda c: c & -c)), tuple(x)
