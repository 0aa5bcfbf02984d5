"""Shared fixtures: bundled documents and the randomized corpora.

The corpora are generated from fixed seeds so every run sees the same
instances.  Each instance is analyzed and checked once per session
(`analyze`, then `run_checks`, which adds the rate point's check against
every subset row), and the acceptance criteria read those results.
"""

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from skbounds import WeightedHypergraph, analyze, mask_of
from skbounds.bounds import AnalysisReport, run_checks
from skbounds.partitions import Partition

pytest_plugins = ["pytester"]

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

IDENTITY_CORPUS_SIZE = 200
GRAPHICAL_CORPUS_SIZE = 100


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def from_vertex_cells(m: int, cells) -> Partition:
    """The partition of {1..m} whose cells are the given vertex collections."""
    return Partition(m, tuple(mask_of(cell) for cell in cells))


def is_refinement_of(fine: Partition, coarse: Partition) -> bool:
    """True when every cell of `fine` sits inside a cell of `coarse`."""
    return all(any(cell & ~big == 0 for big in coarse.cells) for cell in fine.cells)


def partition_value(hg: WeightedHypergraph, part) -> Fraction:
    """(sum of cell entropies - total entropy) / (cells - 1), read off the entropy table."""
    ent = hg.entropy_table()
    return (sum(ent[cell] for cell in part.cells) - ent[hg.full_mask]) / (part.size - 1)


def proper_subsets(m: int) -> range:
    """Every nonempty proper subset mask of {1..m}: the full family of subset rows."""
    return range(1, (1 << m) - 1)


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


def clustered_source(rng: random.Random, m: int) -> WeightedHypergraph:
    """m terminals, 4 <= m <= 16, shuffled into 2 to 4 planted clusters of 2 to 4 terminals.

    Each cluster holds a cycle (one pair on two terminals) and one more
    random 2- or 3-edge, each at 3 times a `random_weight`; 1 to k + 1
    light pairs, of weight 1/4 to 1/2, join two of the k clusters.
    """
    count = rng.choice([k for k in (2, 3, 4) if 2 * k <= m <= 4 * k])
    sizes = [2] * count
    for _ in range(m - 2 * count):
        sizes[rng.choice([i for i, size in enumerate(sizes) if size < 4])] += 1
    order = rng.sample(range(1, m + 1), m)
    clusters = [order[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(count)]
    weights: dict[int, Fraction] = {}

    def add(vertices, weight: Fraction) -> None:
        mask = mask_of(vertices)
        weights[mask] = weights.get(mask, Fraction(0)) + weight

    for cluster in clusters:
        k = len(cluster)
        for i in range(k if k > 2 else 1):
            add((cluster[i], cluster[(i + 1) % k]), 3 * random_weight(rng))
        add(rng.sample(cluster, min(k, rng.choice((2, 3)))), 3 * random_weight(rng))
    for _ in range(rng.randint(1, count + 1)):
        a, b = rng.sample(clusters, 2)
        add((rng.choice(a), rng.choice(b)), Fraction(1, rng.choice((2, 3, 4))))
    return WeightedHypergraph(m, weights)


@pytest.fixture
def make_random_hypergraph():
    return random_hypergraph


@pytest.fixture
def make_random_graph():
    return random_graph


@dataclass
class InstanceResult:
    """One corpus instance: its `analyze` report and `run_checks` by label."""

    hg: WeightedHypergraph
    report: AnalysisReport
    checks: dict[str, tuple[bool, object, object]]  # label -> (ok, value, expected)


def _evaluate(hg: WeightedHypergraph) -> InstanceResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # graph-plus-singleton sources warn
        report = analyze(hg)
    checks = {label: (ok, value, expected) for label, ok, value, expected in run_checks(hg, report)}
    return InstanceResult(hg, report, checks)


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
    return [_evaluate(hg) for hg in identity_corpus]


@pytest.fixture(scope="session")
def graphical_results(graphical_corpus):
    return [_evaluate(hg) for hg in graphical_corpus]
