"""The max-flow path to I and P*, and `mmi`'s listing over the cells of P*.

`flow.dinkelbach` is checked against the `Fraction` scan on every family of
`test_scan_oracle` at every scale, so huge and tiny lcms reach the flow
code.  `mmi` certifies the truncation's I and P* with one table over the
unions of P*'s cells and lists the minimizers as partitions of those cells
into tight unions; the integer scan over the singletons,
`reference_scan.integer_scan`, is its reference where the `Fraction` scan
is too slow.
"""

import random
from fractions import Fraction

import pytest

import skbounds.cli
import skbounds.flow
import skbounds.partitions
from skbounds import InternalInvariantError, WeightedHypergraph, mask_of, mmi
from skbounds.cli import main
from skbounds.flow import dinkelbach, min_cut, truncation
from skbounds.hypergraph import vertices_of
from skbounds.rational import format_rational

from conftest import cycle_plus_edges
from reference_scan import integer_scan, reference_mmi
from test_scan_oracle import FAMILIES, SCALES, tie_heavy_source, type_s_source, zero_support


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
    assert truncation(src, Fraction(1)) == (3, (0b0111, 0b1000))
    # At gamma = 2 the singletons win: H(1) + H(2) + H(3) + H(4) - 4 * 2 = 2 + 2 + 3 + 1 - 8 = 0.
    assert truncation(src, Fraction(2)) == (0, (0b0001, 0b0010, 0b0100, 0b1000))
    # At gamma = 5/4, between the two, P* alone is least: 4 + 1 - 2 * 5/4 = 5/2,
    # against 3 for the singletons and 11/4 for the one cell.
    assert truncation(src, Fraction(5, 4)) == (Fraction(5, 2), (0b0111, 0b1000))
    # Dinkelbach starts at the least of the singletons' value 4/3 and the
    # splits {v} | M - v, 2, 2, 3 and 1: the split {4} has value I, and one
    # truncation there returns P*.
    assert dinkelbach(src) == (1, (0b0111, 0b1000))


def test_truncation_gives_no_node_to_a_group_that_holds_the_step_vertex(monkeypatch):
    networks = []
    cut = skbounds.flow.min_cut

    def recording(nodes, arcs, source, sink):
        networks.append((nodes, arcs, source, sink))
        return cut(nodes, arcs, source, sink)

    monkeypatch.setattr(skbounds.flow, "min_cut", recording)
    assert truncation(BY_HAND, Fraction(1)) == (3, (0b0111, 0b1000))
    # No arc leaves vertex 1 or 2, so their steps solve no cut.
    # At vertex 3 only {1,2} gets a node ({1,3}, {2,3} and {3,4} hold 3); at
    # vertex 4, {1,2}, {1,3} and {2,3} do ({3,4} holds 4).
    assert [(source, nodes - sink - 1) for nodes, _, source, sink in networks] == [(2, 1), (3, 3)]
    for nodes, arcs, source, sink in networks:
        # The step's vertex is the source, and its arcs reach only vertices below it.
        assert all(head < source for tail, head, _ in arcs if tail == source)


def test_mmi_runs_one_dinkelbach_at_every_m(monkeypatch):
    calls = []

    def counting(src):
        calls.append(src.m)
        return dinkelbach(src)

    monkeypatch.setattr(skbounds.partitions, "dinkelbach", counting)
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
        capacity, cells = dinkelbach(src)
        expected = reference_mmi(hg)
        assert (capacity / L, cells) == (expected.value, expected.fundamental.cells), f"m = {m}"


# A source where the listing meets a node with two cells that no tight
# union can still hold, and cuts it: I = 2, P* is the singletons, and 49
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

PATH_SOURCES = [
    *(pytest.param(cycle_plus_edges, m, m, id=f"ladder-{m}") for m in (8, 9, 10, 11)),
    pytest.param(type_s_source, "path/type-s", 10, id="type-s-10"),
    pytest.param(tie_heavy_source, "path/tie", 10, id="tie-10"),
    pytest.param(zero_support, "path/zero", 9, id="zero-9"),
    pytest.param(lambda rng, m: TWO_DEAD_CELLS, None, 6, id="two-dead-cells-6"),
]


@pytest.mark.parametrize("make, seed, m", PATH_SOURCES)
def test_the_truncation_path_returns_the_singleton_scan_result(make, seed, m):
    hg = make(random.Random(seed), m)
    result = mmi(hg)
    assert result == integer_scan(hg)
    assert result.minimizer_count == len(result.minimizer_cells)


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
    "mutate",
    [
        # The singletons: finer than P*, so their value is above I.
        pytest.param(lambda value, cells: (value, tuple(1 << v for v in range(9))), id="singletons"),
        # A two-cell partition that is not a minimizer, with the right I.
        pytest.param(lambda value, cells: (value, (0b000001111, 0b111110000)), id="two-cells"),
        # I one unit of the integer source off, either way.
        pytest.param(lambda value, cells: (value + 1, cells), id="I-plus-1"),
        pytest.param(lambda value, cells: (value - 1, cells), id="I-minus-1"),
    ],
)
def test_a_wrong_truncation_result_is_an_internal_error(monkeypatch, mutate):
    monkeypatch.setattr(skbounds.partitions, "dinkelbach", lambda src: mutate(*dinkelbach(src)))
    with pytest.raises(InternalInvariantError, match="does not have its value I"):
        mmi(TWO_CLUSTERS)


def test_a_partition_finer_than_p_star_at_its_own_value_trips_the_union_check(monkeypatch):
    # The singletons with gamma = their own value pass the check on P*'s
    # value, but P* = {1,2,3,4,5,8,9},{6},{7} is coarser, so some union of
    # singletons merges into a partition of lower value.
    hg = cycle_plus_edges(random.Random(0), 9)
    assert mmi(hg).fundamental.cells == (0b110011111, 0b000100000, 0b001000000)

    def singletons(src):
        crossing = sum(w * (bin(e).count("1") - 1) for e, w in src.weights.items())
        return Fraction(crossing, src.m - 1), tuple(1 << v for v in range(src.m))

    monkeypatch.setattr(skbounds.partitions, "dinkelbach", singletons)
    with pytest.raises(InternalInvariantError, match=r"merging the cells of P\* inside"):
        mmi(hg)


def _count_truncations(monkeypatch) -> list:
    calls = []
    truncate = skbounds.flow.truncation

    def counting(src, gamma):
        calls.append(gamma)
        return truncate(src, gamma)

    monkeypatch.setattr(skbounds.flow, "truncation", counting)
    return calls


def test_dinkelbach_on_a_type_s_source_truncates_once(monkeypatch):
    calls = _count_truncations(monkeypatch)
    for m in range(2, 13):
        calls.clear()
        src, _ = type_s_source(random.Random(f"dinkelbach/{m}"), m).integer_source()
        assert dinkelbach(src)[1] == tuple(1 << v for v in range(m))
        assert len(calls) == 1, f"m = {m}"


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
