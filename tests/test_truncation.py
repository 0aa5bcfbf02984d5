"""The max-flow path to I and P*, and `mmi`'s listing over the cells of P*.

`flow.dinkelbach` is checked against the `Fraction` scan on every family of
`test_scan_oracle` at every scale, so huge and tiny lcms reach the flow
code.  `flow.bipartite_cut` is checked against the general max-flow
`reference_flow.min_cut`, and `flow.truncation` against the truncation on
the general network, `reference_flow.reference_truncation`, at gamma = 0
too, where it is read off the edges.  `mmi` certifies the truncation's
I > 0 and P* by P*'s rate rows over the unions of its cells, and I = 0
by P*'s uncut edges, and lists the minimizers as
partitions of those cells into tight unions; the integer scan over the
singletons, `reference_scan.integer_scan`, is its reference where the
`Fraction` scan is too slow.
"""

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skbounds.bounds
import skbounds.cli
import skbounds.flow
import skbounds.partitions
from skbounds import InternalInvariantError, WeightedHypergraph, analyze, mask_of, mmi
from skbounds.cli import main, parse_document
from skbounds.flow import bipartite_cut, dinkelbach, fundamental, step_table, truncation
from skbounds.hypergraph import subset_weight_table, unpack, vertices_of
from skbounds.partitions import crossing
from skbounds.rational import format_rational

from conftest import FIXTURE_DIR, clustered_source, cycle_plus_edges, random_weight
from reference_flow import min_cut, reference_truncation
from reference_scan import integer_scan, reference_mmi
from test_scan_oracle import FAMILIES, SCALES, bell, tie_heavy_source, type_s_source, zero_support


# The general min cut, kept in `tests/reference_flow.py` as the oracle of
# `flow.bipartite_cut`.


def test_min_cut_returns_the_value_and_the_least_source_side():
    # Three cuts of value 5 separate 0 from 3: the source sides {0,4},
    # {0,1,4} and {0,1,2,4}.  Node 4 hangs off the source by an arc of
    # capacity 7 and reaches the sink by one of capacity 0; node 5 has only
    # an arc to the sink.
    arcs = [(0, 1, 3), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 3), (0, 4, 7), (4, 3, 0), (5, 3, 4)]
    value, side = min_cut(6, arcs, 0, 3)
    assert (value, sorted(side)) == (5, [0, 4])


def test_min_cut_side_stops_before_the_saturated_middle_arc():
    # 0 -> 1 -> 2 -> 3 with capacities 5, 2, 5: the one min cut is the
    # middle arc, so the least source side is {0, 1}.
    value, side = min_cut(4, [(0, 1, 5), (1, 2, 2), (2, 3, 5)], 0, 3)
    assert (value, sorted(side)) == (2, [0, 1])


# A triangle on 1, 2, 3 with a pendant edge {3,4}, unit weights: I = 1 with
# P* = {1,2,3},{4}, and H(M) = 4.
BY_HAND = WeightedHypergraph(4, {0b0011: 1, 0b0101: 1, 0b0110: 1, 0b1100: 1})


def test_truncation_by_hand():
    src = BY_HAND
    # At gamma = I the one-cell partition ties with P*, the finest minimizer.
    # The greedy point: x_1 = H(1) - 1 = 1, x_2 = H(12) - 1 - x_1 = 1,
    # x_3 = H(123) - 1 - x_1 - x_2 = 1 and x_4 = H(4) - 1 = 0, summing to
    # H(M) - I = 3, the least sum.
    assert truncation(4, src.weights, 1, 1) == ((0b0111, 0b1000), (1, 1, 1, 0))
    # gamma = 2 / 2 is the same gamma: the same cells, and x over d = 2.
    assert truncation(4, src.weights, 2, 2) == ((0b0111, 0b1000), (2, 2, 2, 0))
    # At gamma = 2 the singletons win: H(1) + H(2) + H(3) + H(4) - 4 * 2 = 2 + 2 + 3 + 1 - 8 = 0.
    assert truncation(4, src.weights, 2, 1) == ((0b0001, 0b0010, 0b0100, 0b1000), (0, 0, 1, -1))
    # At gamma = 5/4, between the two, P* alone is least: 4 + 1 - 2 * 5/4 = 5/2,
    # against 3 for the singletons and 11/4 for the one cell; x is over d = 4
    # and sums to 10 = 4 * 5/2.
    assert truncation(4, src.weights, 5, 4) == ((0b0111, 0b1000), (3, 3, 5, -1))
    # Dinkelbach starts at the least of the singletons' value 4/3 and the
    # splits {v} | M - v, 2, 2, 3 and 1: the split {4} has value I, and one
    # truncation there returns P* and the greedy point.
    run = dinkelbach(src)
    assert (run.n, run.cells, run.xs, run.d) == (1, (0b0111, 0b1000), (1, 1, 1, 0), 1)


def _record_cuts(monkeypatch) -> list:
    networks = []
    cut = skbounds.flow.bipartite_cut

    def recording(supply, groups):
        networks.append((supply[:], groups[:]))
        return cut(supply, groups)

    monkeypatch.setattr(skbounds.flow, "bipartite_cut", recording)
    return networks


def test_truncation_gives_no_node_to_a_group_that_holds_the_step_vertex(monkeypatch):
    networks = _record_cuts(monkeypatch)
    cells, xs = truncation(4, BY_HAND.weights, 1, 1)
    assert (sum(xs), cells) == (3, (0b0111, 0b1000))
    # At gamma = 1, x = 1 at vertices 1 and 2, and vertex 1's term at step 2
    # is w({1,3}) - x_1 = 0, so steps 1 and 2 solve no cut.  At step 3 the
    # terms of 1 and 2 are -1, and only {1,2} is a group ({1,3}, {2,3} and
    # {3,4} hold 3); the cut's side {1,2} makes {1,2,3} a cell with
    # x = 3 on it.  At step 4 that cell enters as its root, vertex 1, and
    # {1,2}, {1,3} and {2,3} meet only it: its term is 3 - x({1,2,3}) = 0,
    # so step 4 solves no cut either ({3,4} holds 4).
    assert networks == [([1, 1], [(0b011, 1)])]
    networks.clear()
    cells, xs = truncation(4, BY_HAND.weights, 2, 1)
    assert (sum(xs), cells) == (0, (0b0001, 0b0010, 0b0100, 0b1000))
    # At gamma = 2, x = 0, 0, 1 at vertices 1 to 3, so at step 4 only vertex
    # 3 has a negative term: vertices 1 and 2 supply nothing, the group
    # {1,2} meets no vertex that does and gets no node, and {1,3} and {2,3}
    # reach the network through vertex 3 alone.
    assert networks == [([0, 0, 1], [(0b100, 1), (0b100, 1)])]


def test_a_merged_cell_enters_the_network_as_its_root_alone(monkeypatch):
    # BY_HAND with two more unit edges, {2,5} and {4,5}, at gamma = 1.
    # Step 1: x_1 = H(1) - 1 = 1.  Step 2: {1,3} gives vertex 1 the term
    # 1 - x_1 = 0, no cut, and x_2 = w({1,2}, {2,3}, {2,5}) - 1 = 2.
    # Step 3: {2,5} gives vertex 2 the term 1 - 2 = -1, vertex 1's is -1,
    # and {1,2} is the one group: the cut's side {1,2} makes {1,2,3} a cell,
    # x_3 = 3 - 2 + 1 - 1 = 1 and x({1,2,3}) = 4 = H(123) - 1.  Step 4:
    # {1,2}, {1,3}, {2,3} and {2,5} meet only that cell, so its root's
    # term is 4 - 4 = 0, no cut, and x_4 = w({3,4}, {4,5}) - 1 = 1.  Step 5:
    # the cell is vertex 1 alone, with term w({1,2}, {1,3}, {2,3}) - 4 = -1;
    # vertices 2 and 3 supply nothing and sit in no group, and {3,4} is the
    # group {1,4}.  Vertex 4's term is -1, and the cut of value 1 takes both
    # roots: x_5 = w({2,5}, {4,5}) - 2 + 1 - 1 = 0, and M is one cell.
    networks = _record_cuts(monkeypatch)
    weights = {**BY_HAND.weights, 0b10010: 1, 0b11000: 1}
    assert truncation(5, weights, 1, 1) == reference_truncation(5, weights, 1, 1) == ((0b11111,), (1, 2, 1, 1, 0))
    assert networks == [([1, 1], [(0b0011, 1)]), ([1, 0, 0, 1], [(0b1001, 1)])]


def _general_cut(supply: list[int], groups: list[tuple[int, int]]) -> tuple[int, int]:
    """`reference_flow.min_cut` on the bipartite network, as (value, mask of the vertices on its side)."""
    n = len(supply)
    source, sink = n, n + 1
    arcs = [(source, v, c) for v, c in enumerate(supply)]
    for node, (mask, w) in enumerate(groups, n + 2):
        arcs.append((node, sink, w))
        arcs += [(v, node, sum(supply) + 1) for v in range(n) if mask >> v & 1]
    value, side = min_cut(n + 2 + len(groups), arcs, source, sink)
    return value, sum(1 << v for v in side if v < n)


@pytest.mark.parametrize("seed", range(4))
def test_the_bipartite_cut_matches_the_general_min_cut_on_random_networks(seed):
    # Zero supplies, zero group weights and groups holding a vertex with no
    # supply are all drawn.
    rng = random.Random(f"bipartite/{seed}")
    for _ in range(150):
        n = rng.randint(1, 6)
        supply = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
        groups = [(rng.randint(1, (1 << n) - 1), rng.choice((0, 1, 2, 4, 7))) for _ in range(rng.randint(0, 6))]
        assert bipartite_cut(supply, groups) == _general_cut(supply, groups), (supply, groups)


@pytest.mark.parametrize("seed", range(3))
def test_the_bipartite_cut_matches_the_general_min_cut_on_larger_networks(seed):
    # Up to 10 vertices and 16 groups, most of them pairs with small
    # capacities, so the greedy fill often leaves supply that only
    # augmenting paths through several groups can place.
    rng = random.Random(f"bipartite-large/{seed}")
    for _ in range(120):
        n = rng.randint(2, 10)
        supply = [rng.choice((0, 1, 2, 3, 5, 8)) for _ in range(n)]
        groups = []
        for _ in range(rng.randint(0, 16)):
            mask = (1 << rng.randrange(n)) | (1 << rng.randrange(n)) | rng.choice((0, 0, 1 << rng.randrange(n)))
            groups.append((mask, rng.choice((1, 1, 2, 3, 6))))
        assert bipartite_cut(supply, groups) == _general_cut(supply, groups), (supply, groups)


@st.composite
def truncation_cases(draw):
    """(m, weights, n, d): m = 2..8, edges of every size with singletons and repeated masks summed,
    int weights 0..6, and gamma = n / d anywhere from 0 to above H."""
    m = draw(st.integers(2, 8))
    vertex = st.integers(0, m - 1)
    edge = st.one_of(vertex.map(lambda v: 1 << v), st.integers(1, (1 << m) - 1))
    weights: dict[int, int] = {}
    for e, w in draw(st.lists(st.tuples(edge, st.integers(0, 6)), min_size=1, max_size=3 * m)):
        weights[e] = weights.get(e, 0) + w
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, sum(weights.values()) * d + d))
    return m, weights, n, d


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(truncation_cases())
def test_the_contracted_truncation_equals_the_general_network_at_every_gamma(case):
    # Every step cuts over the cells found so far, each of two or more
    # vertices as its root alone.  A network handed to `bipartite_cut` has
    # one vertex per vertex below its step j, and the cells before step j
    # are the truncation of the source restricted to those vertices: a
    # merged cell's other vertices must supply nothing and lie in no group.
    m, weights, n, d = case
    networks = []

    def recording(supply, groups):
        networks.append((supply, groups))
        return bipartite_cut(supply, groups)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skbounds.flow, "bipartite_cut", recording)
        assert truncation(m, weights, n, d) == reference_truncation(m, weights, n, d)
    for supply, groups in networks:
        j = len(supply)
        below: dict[int, int] = {}
        for e, w in weights.items():
            if e & (1 << j) - 1:
                a = e & (1 << j) - 1
                below[a] = below.get(a, 0) + w
        cells, _ = reference_truncation(j, below, n, d)
        others = sum(c & (c - 1) for c in cells)  # each cell without its least vertex
        assert not any(supply[v] for v in range(j) if others >> v & 1), (case, supply)
        assert not any(mask & others for mask, _ in groups), (case, groups)


@st.composite
def zero_gamma_cases(draw):
    """(m, weights, d): m = 1..8, singleton and wider edges, repeated masks summed, int weights 0..6."""
    m = draw(st.integers(1, 8))
    edge = st.one_of(st.integers(0, m - 1).map(lambda v: 1 << v), st.integers(1, (1 << m) - 1))
    weights: dict[int, int] = {}
    for e, w in draw(st.lists(st.tuples(edge, st.sampled_from((0, 0, 1, 2, 3, 6))), max_size=3 * m)):
        weights[e] = weights.get(e, 0) + w
    return m, weights, draw(st.integers(1, 6))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(zero_gamma_cases())
def test_the_truncation_at_gamma_zero_is_the_greedy_vertex_and_the_components(case):
    # At gamma = 0 the truncation of H is H: x_j is d times the weight of
    # the edges whose least vertex is j, and the cells are the components
    # of the edges of positive weight.  No network is built.
    m, weights, d = case

    def no_cut(supply, groups):
        raise AssertionError("a cut was solved at gamma = 0")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skbounds.flow, "bipartite_cut", no_cut)
        cells, xs = truncation(m, weights, 0, d)
    assert (cells, xs) == reference_truncation(m, weights, 0, d)
    assert xs == tuple(d * sum(w for e, w in weights.items() if e & -e == 1 << j) for j in range(m))


@st.composite
def table_step_sources(draw) -> WeightedHypergraph:
    """An integer source, m = 2..8: edges drawn as in `truncation_cases`, or a source of
    `test_scan_oracle`'s families (tie-heavy and Type-S among them) or a clustered one
    (m >= 4), at the unit or the huge scale."""
    kind = draw(st.sampled_from(["drawn", "clustered", *FAMILIES]))
    if kind == "drawn":
        m, weights, _, _ = draw(truncation_cases())
        return WeightedHypergraph(m, weights)
    m, rng = draw(st.integers(2, 8)), random.Random(draw(st.integers(0, 2**32)))
    hg = clustered_source(rng, max(m, 4)) if kind == "clustered" else FAMILIES[kind](rng, m)
    c, _ = SCALES[draw(st.sampled_from(["unit", "huge"]))]
    return WeightedHypergraph(hg.m, {e: c * w for e, w in hg.weights.items()}).integer_source()[0]


# The shrunk failures of three broken table steps: the last minimizing
# union taken, the first one with the unions out of submask order, and
# term_C read at the vertices from j on.
@example(WeightedHypergraph(3, {3: 6, 6: 1, 5: 7, 7: 2}))
@example(WeightedHypergraph(5, {e: w * 10**99 for e, w in {29: 15, 3: 90, 27: 60, 8: 60, 30: 30, 12: 20, 24: 20, 2: 20, 6: 45}.items()}))
@example(WeightedHypergraph(4, {9: 270 * 10**99, 6: 210 * 10**99, 3: 10 * 10**99}))
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(table_step_sources())
def test_the_table_steps_equal_the_cut_and_the_general_network(src):
    # At every gamma its run visits, and at gamma = I, the source is
    # truncated three ways: every step cut (no table), every step read off
    # the subset table, and on the general network.  A run whose
    # truncations are handed no table is the same run.
    m, weights = src.m, src.weights
    table = subset_weight_table(m, weights)
    visited, runs = set(), []
    truncate = skbounds.flow.truncation

    def recording(m, weights, n, d, table=None):
        visited.add((n, d))
        return truncate(m, weights, n, d, table if keep else None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skbounds.flow, "truncation", recording)
        for keep in (True, False):
            runs.append(dinkelbach(src))
    assert runs[0] == runs[1]
    visited.add((runs[0].n, runs[0].d))
    for n, d in sorted(visited):
        expected = reference_truncation(m, weights, n, d)
        for given in (None, table):
            cuts = []

            def counted(supply, groups):
                cuts.append(len(supply))
                return bipartite_cut(supply, groups)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(skbounds.flow, "bipartite_cut", counted)
                assert truncation(m, weights, n, d, given) == expected, (given is None, n, d)
            assert not (given and cuts), (n, d)  # with the table, no step cuts


@st.composite
def ub_round_points(draw) -> tuple[int, dict[int, int], int, int]:
    """(m, point, n * den, d): a point of UB's oracle rounds on a `table_step_sources` source,
    with L * I = n / d from its run and den = 1..6.  Each edge that crosses P* is at its
    weight times den, each other edge of two or more vertices anywhere from 0 (a zero
    column) to its weight times den, and no singleton is in the point."""
    src = draw(table_step_sources())
    run, den = dinkelbach(src), draw(st.integers(1, 6))
    fixed = crossing(src.weights, run.cells)
    point = {}
    for e, w in src.weights.items():
        if e in fixed:
            point[e] = w * den
        elif e & (e - 1):
            point[e] = draw(st.one_of(st.just(0), st.integers(0, w * den)))
    return src.m, point, run.n * den, run.d


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ub_round_points())
def test_the_table_steps_equal_the_cut_and_the_general_network_on_ub_points(case):
    # UB's rounds truncate their points off the table `flow.step_table`
    # builds where its guard passes: with the table, every step must give
    # the cut path's cells and greedy point, and the general network's,
    # with no cut.  The table is the subset table of the point.
    m, point, n, d = case
    expected = reference_truncation(m, point, n, d)
    table = subset_weight_table(m, point)
    packed = step_table(m, point, n, sum(point.values()))
    fields = packed and unpack(packed[1], 1 << m, packed[0])
    assert packed is None or list(fields) == table
    for given in (None, fields or table):
        cuts = []

        def counted(supply, groups):
            cuts.append(len(supply))
            return bipartite_cut(supply, groups)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(skbounds.flow, "bipartite_cut", counted)
            assert truncation(m, point, n, d, given) == expected, (given is None, n, d)
        assert not (given and cuts), (n, d)


def test_a_run_is_frozen_and_compares_and_prints_six_fields():
    # `Run` fills its instance dict in one update, and stays a frozen
    # dataclass: no field can be assigned or deleted, and equality and
    # `repr` read src, L, n, P*, xs and d, not the cached rows or table.
    run = dinkelbach(BY_HAND)
    assert run.table is not None and run.rows is None
    for name in ("n", "cells", "xs", "rows", "table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(run, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(run, name)
    assert dataclasses.replace(run, rows=(8, 0), table=None) == run
    assert dataclasses.replace(run, xs=(1, 1, 0, 1)) != run
    assert repr(run) == f"Run(src={BY_HAND!r}, scale=1, n=1, cells=(7, 8), xs=(1, 1, 1, 0), d=1)"
    assert [f.name for f in dataclasses.fields(run) if f.compare] == ["src", "scale", "n", "cells", "xs", "d"]


def test_every_truncation_of_the_capacity_runs_matches_the_general_network(
    identity_corpus, graphical_corpus, monkeypatch
):
    # `dinkelbach` on the fixtures, both corpora and the ladder at
    # m = 2..12: each truncation returns the cells and greedy point of the
    # truncation on the general network, the closed form at gamma = 0
    # included.
    # A run that the singletons' rate rows decide runs no truncation; it
    # counts as one decided.
    truncations, zero, decided = [], [], []
    truncate, rows = skbounds.flow.truncation, skbounds.flow._singleton_rows

    def recording(m, weights, n, d, table=None):
        result = truncate(m, weights, n, d, table)
        truncations.append(result == reference_truncation(m, weights, n, d))
        zero.append(not n)
        return result

    def recording_rows(*args):
        found = rows(*args)
        decided.append(found is not None)
        return found

    monkeypatch.setattr(skbounds.flow, "truncation", recording)
    monkeypatch.setattr(skbounds.flow, "_singleton_rows", recording_rows)
    sources = [parse_document(path.read_text(encoding="utf-8")) for path in sorted(FIXTURE_DIR.glob("*.hg"))]
    sources += [cycle_plus_edges(random.Random(m), m) for m in range(2, 13)] + identity_corpus + graphical_corpus
    for hg in sources:
        dinkelbach(hg.integer_source()[0])
    assert len(truncations) + sum(decided) >= len(sources) and all(truncations)
    assert sum(zero) >= 100, sum(zero)


def test_every_network_of_the_fixtures_and_the_ladder_matches_the_general_min_cut(monkeypatch):
    # Every truncation `analyze` runs (I and P*, R_CO's greedy point, UB's
    # rounds, the reduced source's capacity) is compared, greedy point
    # included, with the truncation on the general network, and every cut
    # it solves with the general min cut.
    networks = _record_cuts(monkeypatch)
    truncations = []
    truncate = skbounds.flow.truncation

    # Every truncation is handed no table, so every step cuts, as in a run
    # that keeps none, and the capacity runs' steps reach `bipartite_cut`
    # too; the table steps are checked against the cut in
    # `test_the_table_steps_equal_the_cut_and_the_general_network`.
    def recording(m, weights, n, d, table=None):
        result = truncate(m, weights, n, d)
        truncations.append(result == reference_truncation(m, weights, n, d))
        return result

    monkeypatch.setattr(skbounds.flow, "truncation", recording)
    monkeypatch.setattr(skbounds.bounds, "truncation", recording)
    sources = [parse_document(path.read_text(encoding="utf-8")) for path in sorted(FIXTURE_DIR.glob("*.hg"))]
    sources += [cycle_plus_edges(random.Random(m), m) for m in (8, 9, 10, 11, 12)]
    sources.append(clustered_source(random.Random("networks"), 12))
    for hg in sources:
        analyze(hg)
    assert len(truncations) >= 40 and all(truncations)
    assert len(networks) >= 200
    for supply, groups in networks:
        assert bipartite_cut(supply, groups) == _general_cut(supply, groups), (supply, groups)


def test_mmi_runs_one_dinkelbach_at_every_m(monkeypatch):
    calls = []

    def counting(src, *args):
        calls.append(src.m)
        return dinkelbach(src, *args)

    monkeypatch.setattr(skbounds.flow, "dinkelbach", counting)
    for family, make in FAMILIES.items():
        rng = random.Random(f"one-path/{family}")
        for m in range(2, 8):
            mmi(make(rng, m))
    assert calls == list(range(2, 8)) * len(FAMILIES)


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_dinkelbach_matches_the_fraction_scan(family, scale):
    rng = random.Random(f"truncation/{family}")
    c, _ = SCALES[scale]
    for m in range(2, 9):
        hg = FAMILIES[family](rng, m)
        hg = WeightedHypergraph(m, {e: c * w for e, w in hg.weights.items()})
        src, L = hg.integer_source()
        run = dinkelbach(src)
        expected = reference_mmi(hg)
        assert (Fraction(run.n, run.d * L), run.cells) == (expected.value, expected.fundamental.cells), f"m = {m}"
        assert math.gcd(run.n, run.d) == 1, f"m = {m}"


# A source where a listing that places P*'s cells one at a time meets two
# cells that no tight union can still complete; the listing places whole
# tight unions, so it never does.  I = 2, P* is the singletons, and 49
# partitions tie.
TWO_DEAD_CELLS = WeightedHypergraph(
    6,
    {
        mask_of((4, 5, 6)): 2,
        mask_of((1, 3, 6)): 2,
        mask_of((4,)): 1,
        mask_of((1,)): 3,
        mask_of((2, 6)): 2,
    },
)


def two_cycles(rng: random.Random, m: int) -> WeightedHypergraph:
    # Two disjoint cycles, on terminals 1..m/2 and the rest, and a singleton
    # edge at every terminal, all weights drawn: I = 0 with the two cycles as
    # P*, while dinkelbach starts above 0, since every terminal lies on an
    # edge of positive weight with another.
    weights = {1 << v: random_weight(rng) for v in range(m)}
    for lo, n in ((0, m // 2), (m // 2, m - m // 2)):
        for i in range(n):
            weights[(1 << (lo + i)) | (1 << (lo + (i + 1) % n))] = random_weight(rng)
    return WeightedHypergraph(m, weights)


def three_hyperedge_components(rng: random.Random, m: int) -> WeightedHypergraph:
    # The shuffled terminals split into runs of 3, 3 and m - 6, each joined
    # by hyperedges over 3 consecutive terminals of its run: I = 0 with the
    # runs as P*, while dinkelbach starts above 0.
    order = rng.sample(range(1, m + 1), m)
    weights = {}
    for run in (order[:3], order[3:6], order[6:]):
        for i in range(len(run) - 2):
            weights[mask_of(run[i : i + 3])] = random_weight(rng)
    return WeightedHypergraph(m, weights)


PATH_SOURCES = [
    *(pytest.param(cycle_plus_edges, m, m, id=f"ladder-{m}") for m in (8, 9, 10, 11)),
    pytest.param(type_s_source, "path/type-s", 10, id="type-s-10"),
    pytest.param(tie_heavy_source, "path/tie", 10, id="tie-10"),
    pytest.param(zero_support, "path/zero", 9, id="zero-9"),
    pytest.param(lambda rng, m: TWO_DEAD_CELLS, None, 6, id="two-dead-cells-6"),
    pytest.param(two_cycles, "path/two-cycles", 10, id="two-cycles-10"),
    pytest.param(three_hyperedge_components, "path/three-components", 10, id="three-components-10"),
]


@pytest.mark.parametrize("make, seed, m", PATH_SOURCES)
def test_the_truncation_path_returns_the_singleton_scan_result(make, seed, m):
    hg = make(random.Random(seed), m)
    result, expected = mmi(hg), integer_scan(hg)
    assert result == expected
    assert result.minimizer_cells == expected.minimizer_cells
    assert result.minimizer_count == len(result.minimizer_cells)
    assert result.minimizer_cells == tuple(sorted(result.minimizer_cells))
    if result.value == 0:
        assert result.minimizer_count == bell(result.fundamental.size) - 1


@pytest.mark.parametrize(
    "make, calls",
    [
        pytest.param(lambda: TWO_DEAD_CELLS, 66, id="two-dead-cells-6"),
        pytest.param(lambda: tie_heavy_source(random.Random("path/tie"), 10), 21147, id="tie-10"),
    ],
)
def test_every_set_the_listing_enters_yields_a_minimizer(make, calls, monkeypatch):
    # The walk enters the set of cells left after each run of tight unions
    # it has placed, and only where some minimizer starts with that run: its
    # calls are the proper prefixes of the listed tuples, each once.
    #
    # The walk's own code runs with its free names bound here and `walk`
    # bound to a wrapper that records each call, so no process-wide hook (a
    # profiler or tracer) is replaced.  `union` is rebuilt as the listing
    # builds it, and the listing it yields must equal the original's.
    listing = skbounds.partitions._list_coarsenings
    (walk,) = [
        code for code in listing.__code__.co_consts if getattr(code, "co_name", None) == "walk"
    ]
    entered = []

    def recorded_listing(units, slack):
        union = [0]
        for unit in units:
            union += [u | unit for u in union]
        names = {"parts": skbounds.partitions._tight_parts(slack), "minimizers": [], "union": union}

        def recorded_walk(s, cells):
            entered.append(cells)
            own_walk(s, cells)

        names["walk"] = recorded_walk
        closure = tuple(types.CellType(names[name]) for name in walk.co_freevars)
        own_walk = types.FunctionType(walk, vars(skbounds.partitions), "walk", None, closure)
        recorded_walk(len(slack) - 1, ())
        minimizers = sorted(names["minimizers"])
        assert minimizers == listing(units, slack)
        return minimizers

    monkeypatch.setattr(skbounds.partitions, "_list_coarsenings", recorded_listing)
    hg = make()
    # A fresh copy: a shared fixture may keep an `mmi` result whose listing was read.
    cells = mmi(WeightedHypergraph(hg.m, hg.weights)).minimizer_cells
    assert len(entered) == calls
    assert sorted(entered) == sorted({c[:j] for c in cells for j in range(len(c))})


def test_mmi_json_is_byte_identical_on_both_paths(monkeypatch, tmp_path, capsys):
    hg = tie_heavy_source(random.Random("path/json"), 10)
    lines = [f"edge {' '.join(map(str, vertices_of(e)))} : {format_rational(w)}" for e, w in hg.weights.items()]
    doc = tmp_path / "tie10.hg"
    doc.write_text("m = 10\n" + "\n".join(lines) + "\n")
    assert main(["mmi", "--json", str(doc)]) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(skbounds.cli, "mmi", integer_scan)
    assert main(["mmi", "--json", str(doc)]) == 0
    assert capsys.readouterr().out == default
    assert '"minimizer_count": 21146' in default


def test_the_table_has_one_bit_per_cell_of_p_star(monkeypatch):
    hg = cycle_plus_edges(random.Random(12), 12)
    calls = []
    table = skbounds.partitions.subset_weight_table

    def recording(m, entries):
        calls.append(m)
        return table(m, entries)

    monkeypatch.setattr(skbounds.partitions, "subset_weight_table", recording)
    result = mmi(hg)
    assert calls == [result.fundamental.size]
    assert result.fundamental.size < 12


# Two clusters, {1..5} and {6..9}, each a cycle of weight-3 edges, joined by
# one unit edge: I = 1 and P* = {1..5},{6..9}.
TWO_CLUSTERS = WeightedHypergraph(
    9,
    {
        **{mask_of((v, v % 5 + 1)): 3 for v in range(1, 6)},
        **{mask_of((v, (v - 5) % 4 + 6)): 3 for v in range(6, 10)},
        mask_of((5, 6)): 1,
    },
)


def test_two_clusters_has_a_two_cell_p_star():
    result = mmi(TWO_CLUSTERS)
    assert result.value == 1
    assert result.fundamental.cells == (0b000011111, 0b111100000)


@pytest.mark.parametrize(
    "mutate, hg",
    [
        # The singletons: finer than P*, so their value is above I.
        pytest.param(lambda n, cells, d: (n, tuple(1 << v for v in range(9))), TWO_CLUSTERS, id="singletons"),
        # A two-cell partition that is not a minimizer, with the right I.
        pytest.param(lambda n, cells, d: (n, (0b000001111, 0b111110000)), TWO_CLUSTERS, id="two-cells"),
        # I one unit of the integer source off, either way; I - 1 is 0, so
        # the check on P*'s uncut edges must catch the edge {5,6}.
        pytest.param(lambda n, cells, d: (n + d, cells), TWO_CLUSTERS, id="I-plus-1"),
        pytest.param(lambda n, cells, d: (n - d, cells), TWO_CLUSTERS, id="I-minus-1"),
        # I = 0 is right on the tie-heavy source, but the singletons cut its pair.
        pytest.param(
            lambda n, cells, d: (0, tuple(1 << v for v in range(9))),
            tie_heavy_source(random.Random("mutation/tie"), 9),
            id="zero-singletons",
        ),
        # I forced to 0 on a connected source, with its own P*.
        pytest.param(
            lambda n, cells, d: (0, cells),
            cycle_plus_edges(random.Random(9), 9),
            id="zero-connected",
        ),
    ],
)
def test_a_wrong_truncation_result_is_an_internal_error(monkeypatch, mutate, hg):
    # The kept run is wrapped, not changed: `hg` is built once, at collection.
    # `mmi` runs on a fresh copy, which keeps no result of its own yet.  A
    # truncation's run carries no singletons' `rows`.
    def mutated(hg):
        run = fundamental(hg)
        n, cells = mutate(run.n, run.cells, run.d)
        return dataclasses.replace(run, n=n, cells=cells, rows=None)

    monkeypatch.setattr(skbounds.partitions, "fundamental", mutated)
    with pytest.raises(InternalInvariantError, match="does not have its value I"):
        mmi(WeightedHypergraph(hg.m, hg.weights))


def test_a_truncation_that_cuts_an_edge_at_gamma_zero_is_an_internal_error(monkeypatch):
    # The tie-heavy source ends its run at gamma = 0, where the truncation
    # returns the components.  One that returns the singletons instead cuts
    # the pair edge, and `mmi`'s check of each edge against the cell of its
    # least vertex must find it.
    hg = tie_heavy_source(random.Random("cut/tie"), 9)
    truncate = skbounds.flow.truncation

    def singletons_at_zero(m, weights, n, d, table=None):
        cells, xs = truncate(m, weights, n, d, table)
        return (tuple(1 << v for v in range(m)) if not n else cells), xs

    monkeypatch.setattr(skbounds.flow, "truncation", singletons_at_zero)
    with pytest.raises(InternalInvariantError, match="does not have its value I = 0$"):
        mmi(hg)


def test_a_partition_finer_than_p_star_at_its_own_value_trips_the_union_check(monkeypatch):
    # The singletons with gamma = their own value pass the check on P*'s
    # value, but P* = {1,2,3,4,5,8,9},{6},{7} is coarser, so some union of
    # singletons merges into a partition of lower value.
    hg = cycle_plus_edges(random.Random(0), 9)
    assert mmi(hg).fundamental.cells == (0b110011111, 0b000100000, 0b001000000)

    def singletons(hg):
        run = fundamental(hg)
        crossing = sum(w * (bin(e).count("1") - 1) for e, w in run.src.weights.items())
        # Their value crossing / (m - 1), as n / d; `mmi` reads no xs.
        return dataclasses.replace(run, n=crossing, cells=tuple(1 << v for v in range(hg.m)), d=hg.m - 1, rows=None)

    monkeypatch.setattr(skbounds.partitions, "fundamental", singletons)
    with pytest.raises(InternalInvariantError, match=r"merging the cells of P\* inside"):
        mmi(WeightedHypergraph(hg.m, hg.weights))  # `hg` keeps the result asserted above


def _count_truncations(monkeypatch) -> list:
    calls = []
    truncate = skbounds.flow.truncation

    def counting(m, weights, n, d, table=None):
        calls.append((n, d))
        return truncate(m, weights, n, d, table)

    monkeypatch.setattr(skbounds.flow, "truncation", counting)
    return calls


def test_dinkelbach_on_a_type_s_source_truncates_at_most_once(monkeypatch):
    # The start is the singletons, at I.  Where a 2^m table costs less than
    # a truncation (2^m <= 8 m |E|), their rate rows decide with no
    # truncation; elsewhere one truncation shows it.
    calls = _count_truncations(monkeypatch)
    decided = []
    for m in range(2, 13):
        calls.clear()
        src, _ = type_s_source(random.Random(f"dinkelbach/{m}"), m).integer_source()
        assert dinkelbach(src).cells == tuple(1 << v for v in range(m))
        by_rows = 1 << m <= 8 * m * len(src.weights)
        assert len(calls) == (0 if by_rows else 1), f"m = {m}"
        decided.append(by_rows)
    assert 0 < sum(decided) < len(decided)


def test_dinkelbach_starts_at_the_best_one_vs_rest_split(monkeypatch):
    # Starting at the singletons took 151 truncations on these 50 sources.
    calls = _count_truncations(monkeypatch)
    for seed in range(50):
        dinkelbach(cycle_plus_edges(random.Random(seed), 9).integer_source()[0])
    assert len(calls) <= 68


def test_mmi_on_the_uniform_complete_graph_lists_only_the_singletons():
    m = 12
    hg = WeightedHypergraph(m, {mask_of((a, b)): 1 for a in range(1, m + 1) for b in range(a + 1, m + 1)})
    result = mmi(hg)
    assert (result.value, result.fundamental.size, result.minimizer_count) == (Fraction(m, 2), m, 1)
