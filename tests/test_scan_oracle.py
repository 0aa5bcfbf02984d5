"""`mmi` against the plain Fraction scan.

`reference_scan.reference_mmi` walks every partition; `mmi` must return an
equal `MmiResult`: the same value, the same fundamental partition, the same
count and the same minimizers in the same order.  `mmi` counts without
listing, so its count is also checked against its own listing.
"""

import random
from fractions import Fraction

import pytest

import skbounds.partitions
from skbounds import WeightedHypergraph, mask_of, mmi

from conftest import cycle_plus_edges, random_graph, random_hypergraph, random_weight
from reference_scan import reference_mmi


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
        if family == "type_s":
            assert result.fundamental.size == m
        if family == "tie" and m >= 3:
            assert result.minimizer_count == bell(m - 1) - 1
        if family == "zero":
            assert result.minimizer_count == bell(m) - 1


@pytest.mark.parametrize(
    "family, count", [("tie", bell(11) - 1), ("type_s", 1), ("zero", bell(12) - 1)]
)
def test_mmi_counts_at_the_cap_without_listing(monkeypatch, family, count):
    # At m = 12 the tie-heavy source has Bell(11) - 1 = 678,569 minimizers,
    # the Type-S source one and the empty support Bell(12) - 1 = 4,213,596.
    def listing(units, tight):
        raise AssertionError("the minimizers were listed")

    monkeypatch.setattr(skbounds.partitions, "_tight_coarsenings", listing)
    assert mmi(FAMILIES[family](random.Random(12), 12)).minimizer_count == count
