"""Shared fixtures: bundled documents and the randomized corpora.

The corpora are generated from fixed seeds so every run sees the same
instances.  Heavy per-instance computations (capacity, both LP paths, the
reduced-source capacity) run once per session and are shared by the
acceptance criteria.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from skbounds import (
    WeightedHypergraph,
    mask_of,
    mmi,
    r_co_direct,
    upper_bound_theorem1,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

IDENTITY_CORPUS_SIZE = 200
GRAPHICAL_CORPUS_SIZE = 100


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def partition_value(hg: WeightedHypergraph, part) -> Fraction:
    """(sum of cell entropies - total entropy) / (cells - 1), read off the entropy table."""
    ent = hg.entropy_table()
    return (sum(ent[cell] for cell in part.cells) - ent[hg.full_mask]) / (part.size - 1)


def random_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))


def random_hypergraph(rng: random.Random, m: int) -> WeightedHypergraph:
    weights: dict[int, Fraction] = {}
    for _ in range(rng.randint(1, 10)):
        size = min(m, rng.choice((1, 2, 2, 2, 3, 3, 4)))
        mask = mask_of(rng.sample(range(1, m + 1), size))
        weights[mask] = weights.get(mask, Fraction(0)) + random_weight(rng)
    return WeightedHypergraph(m, weights)


def random_graph(rng: random.Random, m: int) -> WeightedHypergraph:
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    count = rng.randint(1, min(10, len(pairs)))
    weights = {mask_of(pair): random_weight(rng) for pair in rng.sample(pairs, count)}
    return WeightedHypergraph(m, weights)


def cycle_plus_edges(rng: random.Random, m: int) -> WeightedHypergraph:
    """An m-cycle plus m random 2- or 3-edges."""
    weights: dict[int, Fraction] = {}
    for i in range(1, m + 1):
        weights[mask_of((i, i % m + 1))] = random_weight(rng)
    for _ in range(m):
        mask = mask_of(rng.sample(range(1, m + 1), min(m, rng.choice((2, 3)))))
        weights[mask] = weights.get(mask, Fraction(0)) + random_weight(rng)
    return WeightedHypergraph(m, weights)


@pytest.fixture
def make_random_hypergraph():
    return random_hypergraph


@pytest.fixture
def make_random_graph():
    return random_graph


@dataclass
class InstanceResult:
    """Everything the acceptance criteria need about one corpus instance."""

    hg: WeightedHypergraph
    entropy_total: Fraction
    mmi_result: object
    rco_full: Fraction
    rco_rowgen: Fraction
    ub_full: Fraction
    ub_rowgen: Fraction
    x_star: object
    restricted_mmi: object
    graphical_type_s: Optional[bool] = None


def _evaluate(hg: WeightedHypergraph, graphical: bool) -> InstanceResult:
    mres = mmi(hg)
    rco_full, _ = r_co_direct(hg, method="full")
    rco_rowgen, _ = r_co_direct(hg, method="rowgen")
    ub_full, x_star = upper_bound_theorem1(hg, mmi_result=mres, method="full")
    ub_rowgen, _ = upper_bound_theorem1(hg, mmi_result=mres, method="rowgen")
    restricted = hg.restrict(x_star.entries)
    restricted_mmi = mmi(restricted)
    type_s = restricted_mmi.fundamental.size == hg.m if graphical else None
    return InstanceResult(
        hg=hg,
        entropy_total=hg.total_entropy,
        mmi_result=mres,
        rco_full=rco_full,
        rco_rowgen=rco_rowgen,
        ub_full=ub_full,
        ub_rowgen=ub_rowgen,
        x_star=x_star,
        restricted_mmi=restricted_mmi,
        graphical_type_s=type_s,
    )


@pytest.fixture(scope="session")
def identity_corpus():
    rng = random.Random(611)
    return [random_hypergraph(rng, 3 + i % 5) for i in range(IDENTITY_CORPUS_SIZE)]


@pytest.fixture(scope="session")
def graphical_corpus():
    rng = random.Random(2202)
    return [random_graph(rng, 3 + i % 5) for i in range(GRAPHICAL_CORPUS_SIZE)]


@pytest.fixture(scope="session")
def identity_results(identity_corpus):
    return [_evaluate(hg, graphical=False) for hg in identity_corpus]


@pytest.fixture(scope="session")
def graphical_results(graphical_corpus):
    return [_evaluate(hg, graphical=True) for hg in graphical_corpus]
