"""`mmi` against the plain Fraction scan.

`reference_scan.reference_mmi` walks every partition; `mmi` must return an
equal `MmiResult`: the same value, the same fundamental partition, the same
count and the same minimizers, both listed in `sorted` order.  `mmi`
counts without listing, so its count is also checked against its own
listing.
"""

import random
from fractions import Fraction

import pytest

import skbounds.partitions
from skbounds import WeightedHypergraph, mask_of, mmi

from conftest import clustered_source, cycle_plus_edges, random_graph, random_hypergraph, random_weight
from reference_scan import integer_scan, reference_mmi


def type_s_source(rng: random.Random, m: int) -> WeightedHypergraph:
    # A uniform cycle or complete graph on shuffled terminals: the singletons
    # are the only minimizer.
    c = random_weight(rng)
    order = rng.sample(range(1, m + 1), m)
    if rng.random() < 0.5:
        pairs = [(order[i], order[(i + 1) % m]) for i in range(m)]
    else:
        pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]
    weights: dict[int, Fraction] = {}
    for pair in pairs:
        weights[mask_of(pair)] = weights.get(mask_of(pair), Fraction(0)) + c
    return WeightedHypergraph(m, weights)


def tie_heavy_source(rng: random.Random, m: int) -> WeightedHypergraph:
    # Singleton edges plus one pair: every partition keeping the pair together
    # has value 0, so Bell(m - 1) - 1 partitions tie for the minimum.
    weights = {1 << i: random_weight(rng) for i in range(m)}
    weights[mask_of(rng.sample(range(1, m + 1), 2))] = random_weight(rng)
    return WeightedHypergraph(m, weights)


def zero_support(rng: random.Random, m: int) -> WeightedHypergraph:
    # Every weight zero: the support is empty and every partition ties at 0.
    return WeightedHypergraph(m, {mask_of(range(1, m + 1)): Fraction(0)})


FAMILIES = {
    "hypergraph": random_hypergraph,
    "graph": random_graph,
    "cycle": cycle_plus_edges,
    "type_s": type_s_source,
    "tie": tie_heavy_source,
    "zero": zero_support,
}

# (factor, largest m): huge and tiny factors exercise the lcm scaling in
# mmi's integer source and in the max-flow truncation.
SCALES = {
    "unit": (Fraction(1), 9),
    "huge": (Fraction(10**100, 3), 8),
    "tiny": (Fraction(1, 10**100 + 1), 8),
}


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        row = [row[-1]] + row
        for i in range(1, len(row)):
            row[i] += row[i - 1]
    return row[-1]


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_mmi_matches_the_fraction_scan(family, scale):
    rng = random.Random(f"scan-oracle/{family}")
    c, max_m = SCALES[scale]
    for m in range(2, max_m + 1):
        hg = FAMILIES[family](rng, m)
        hg = WeightedHypergraph(m, {e: c * w for e, w in hg.weights.items()})
        result = mmi(hg)
        assert result == reference_mmi(hg), f"m = {m}"
        assert result.minimizer_count == len(result.minimizer_cells)
        assert result.minimizer_cells == tuple(sorted(result.minimizer_cells))
        if family == "type_s":
            assert result.fundamental.size == m
        if family == "tie" and m >= 3:
            assert result.minimizer_count == bell(m - 1) - 1
        if family == "zero":
            assert result.minimizer_count == bell(m) - 1


@pytest.mark.parametrize(
    "family, count", [("tie", bell(11) - 1), ("type_s", 1), ("zero", bell(12) - 1)]
)
def test_mmi_counts_at_the_cap_without_listing(monkeypatch, table_calls, family, count):
    # At m = 12 the tie-heavy source has Bell(11) - 1 = 678,569 minimizers,
    # the Type-S source one and the empty support Bell(12) - 1 = 4,213,596.
    # The tie-heavy source and the empty support have I = 0, which needs no
    # table over the unions of P*'s cells and no count.  The Type-S source,
    # a complete graph of 66 edges, is decided by its singletons' rate rows
    # in `dinkelbach`, one packed table of 2^12 fields that `mmi` reads
    # back; only the singletons and their union are tight, so the count is
    # 1 with no count call and no walk over submasks.
    def listing(*args):
        raise AssertionError("the minimizers were listed")

    tables, counted, walks = [], [], []
    table = skbounds.partitions.subset_weight_table
    count_coarsenings = skbounds.partitions._count_coarsenings
    tight_parts = skbounds.partitions._tight_parts

    def recording_table(m, entries):
        tables.append(m)
        return table(m, entries)

    def recording_count(slack):
        counted.append(len(slack))
        return count_coarsenings(slack)

    def recording_parts(slack):
        walks.append(len(slack))
        return tight_parts(slack)

    monkeypatch.setattr(skbounds.partitions, "_list_coarsenings", listing)
    monkeypatch.setattr(skbounds.partitions, "subset_weight_table", recording_table)
    monkeypatch.setattr(skbounds.partitions, "_count_coarsenings", recording_count)
    monkeypatch.setattr(skbounds.partitions, "_tight_parts", recording_parts)
    result = mmi(FAMILIES[family](random.Random(12), 12))
    assert result.minimizer_count == count
    if family == "type_s":
        assert (tables, counted, walks, table_calls) == ([], [], [], [("packed_table", 12)])
    else:
        assert (result.value, tables, counted, walks) == (0, [], [], [])


def all_terminal_edge(rng: random.Random, m: int) -> WeightedHypergraph:
    # One hyperedge on every terminal: every partition has its weight as
    # value, so P* is the singletons and every union of them is tight.
    return WeightedHypergraph(m, {(1 << m) - 1: random_weight(rng)})


# (make, sizes) per family: the clustered sizes three times each, and the
# all-terminal hyperedge from m = 3, where a coarsening first ties.
SHORTCUT_FAMILIES = {
    "type_s": (type_s_source, range(2, 10)),
    "clustered": (clustered_source, [m for m in range(4, 10) for _ in range(3)]),
    "ladder": (lambda rng, m: cycle_plus_edges(random.Random(m), m), range(2, 10)),
    "all-terminal": (all_terminal_edge, range(3, 9)),
}


@pytest.mark.parametrize("family", list(SHORTCUT_FAMILIES))
def test_the_count_walks_the_submasks_only_when_a_coarsening_ties(monkeypatch, family):
    # P* is the only minimizer exactly when its cells and their union are
    # the only tight unions.  The count is then 1 and no submask is walked;
    # otherwise the walk runs, as it must on the all-terminal hyperedge.
    # Either way the count is the integer scan's.
    walks = []
    tight_parts = skbounds.partitions._tight_parts

    def recording(slack):
        walks.append(len(slack))
        return tight_parts(slack)

    monkeypatch.setattr(skbounds.partitions, "_tight_parts", recording)
    make, sizes = SHORTCUT_FAMILIES[family]
    rng = random.Random(f"uniqueness/{family}")
    walked = []
    for m in sizes:
        hg = make(rng, m)
        walks.clear()
        result = mmi(hg)
        assert result.minimizer_count == integer_scan(hg).minimizer_count, (family, m)
        assert bool(walks) == (result.value > 0 and result.minimizer_count > 1), (family, m)
        walked.append(bool(walks))
    if family == "type_s":
        assert not any(walked)
    if family == "all-terminal":
        assert all(walked)
