"""UB(Thm 1) over Gamma: the truncation's separation and agreement with the subset-row LP.

`upper_bound_theorem1` solves the packing LP over Gamma, one row per
partition P of the terminals: the sum over the edges e of
(cells of P that e meets - 1) * x_e >= I * (|P| - 1), on the integer
source.  Every edge that crosses `mmi`'s P* is fixed at its weight, as
every x in Gamma keeps it there, so the LP's columns are the edges inside
P*'s cells and the fixed terms sit on each row's right-hand side.  Each
round separates the point by one truncation.  Here every row a round adds
is checked, in exact sums, against the partitions of `reference_scan`, as
is every certificate that no row is violated.  The bound must equal that
of the subset-row packing LP of `tests/reference_packing.py`, which fixes
nothing, and x* must keep the capacity.  On both corpora the reference's
own x* must keep every crossing edge at its weight, and a wide Type-S
source must build an LP with no column and get no cut.
"""

import random
import warnings
from fractions import Fraction

import pytest

import skbounds.bounds
from skbounds import WeightedHypergraph, mask_of, mmi, upper_bound_theorem1, verify_gamma_membership
from skbounds.cli import parse_document
from skbounds.rational import to_integers

from conftest import FIXTURE_DIR, clustered_source, cycle_plus_edges, random_graph, random_hypergraph
from reference_packing import reference_packing
from reference_scan import _raw_partitions
from test_scan_oracle import tie_heavy_source

SCALES = {
    "unit": Fraction(1),
    "huge": Fraction(10**100, 3),
    "tiny": Fraction(1, 10**100 + 1),
}


def _scaled(hg, factor):
    return WeightedHypergraph(hg.m, {e: factor * w for e, w in hg.weights.items()})


def _crossing(hg, partition):
    """The edges of `hg` that lie inside no cell of `partition`."""
    return [e for e in hg.weights if not any(e & ~c == 0 for c in partition.cells)]


class _Rows:
    """Gamma's rows on the integer source of `hg`, built here from every partition.

    The edges that cross `mmi`'s P* are fixed at their weights, here as in
    the package.  `rows` maps each row, written as the package writes it
    (coefficients d * (cells e meets - 1) over the non-singleton edges
    inside P*'s cells, right-hand side n * (|P| - 1) less d times the same
    sum over the crossing edges at their weights, L * I = n / d), to the
    `Fraction` form of its partitions: their coefficients and
    I * L * (|P| - 1) less the crossing edges' sum.
    """

    def __init__(self, hg):
        src, scale = hg.integer_source()
        mres = mmi(hg)
        self.capacity = mres.value * scale
        (n,), d = to_integers([self.capacity])
        fixed = {e: src.weights[e] for e in _crossing(src, mres.fundamental)}
        self.edges = [e for e in src.edges if e & (e - 1) and e not in fixed]
        self.rows = {}
        for cells in _raw_partitions(hg.m, min_cells=2):
            meets = {e: sum(1 for c in cells if c & e) - 1 for e in src.edges}
            crossing = sum(meets[e] * w for e, w in fixed.items())
            key = (tuple(d * meets[e] for e in self.edges), n * (len(cells) - 1) - d * crossing)
            self.rows[key] = ([meets[e] for e in self.edges], self.capacity * (len(cells) - 1) - crossing)

    def violated(self, meets, rhs, xs, den) -> bool:
        """True when xs / den misses the row of `meets` and `rhs`: its sum times den against rhs * den."""
        return sum([c * x for c, x in zip(meets, xs) if c]) < rhs * den

    def check(self, row, xs, den) -> bool:
        """Assert the oracle's answer at xs / den; True when it returned a row."""
        if row is None:
            assert not any(self.violated(*form, xs, den) for form in self.rows.values()), (xs, den)
            return False
        assert self.violated(*self.rows[row.coeffs, row.rhs], xs, den), (row, xs, den)
        return True


def _checked_rounds(monkeypatch, rows, seen):
    """Patch UB's row generation so each round's answer is checked; keeps the oracle in `seen`."""
    solve_rowgen = skbounds.bounds.solve_with_row_generation

    def checked(base, oracle, max_rounds):
        def compare(xs, den):
            extra = oracle(xs, den)
            seen["rounds"].append(rows.check(extra, xs, den))
            return extra

        seen["oracle"] = oracle
        return solve_rowgen(base, compare, max_rounds)

    monkeypatch.setattr(skbounds.bounds, "solve_with_row_generation", checked)


@pytest.mark.parametrize("scale", list(SCALES))
def test_the_truncation_adds_only_violated_partition_rows(monkeypatch, scale):
    # Each round's own point, and 20 random points per source over the
    # edges inside P*'s cells, with denominators 5 and 7, half of them near
    # the weights (the crossing edges stay at theirs): a returned row is
    # the row of a partition that the point violates, and None means that no
    # partition is violated.
    # Each point goes over a common denominator times 1, 2 or 7, as the
    # solver's den need not be the least one.
    rng = random.Random(f"gamma-separation/{scale}")
    added = certified = 0
    # Most small random sources keep few edges inside P*'s cells, or none,
    # so ladder sources at m = 7 and clustered ones add the columns.
    families = (random_hypergraph, random_graph, cycle_plus_edges)
    sources = [(family, m) for family in families for m in range(2, 7)]
    sources += [(cycle_plus_edges, 7)] * 5 + [(clustered_source, m) for m in range(4, 8)]
    for family, m in sources:
        hg = _scaled(family(rng, m), SCALES[scale])
        rows = _Rows(hg)
        seen = {"rounds": []}
        with monkeypatch.context() as patch:
            _checked_rounds(patch, rows, seen)
            upper_bound_theorem1(hg)
        added += sum(seen["rounds"])
        src, _ = hg.integer_source()
        for q, low in [(5, 0), (7, 0), (5, 4), (7, 6)] * 5:
            point = [src.weights[e] * Fraction(rng.randint(low, q), q) for e in rows.edges]
            xs, den = to_integers(point)
            k = rng.choice((1, 2, 7))
            if rows.check(seen["oracle"]([k * x for x in xs], k * den), xs, den):
                added += 1
            else:
                certified += 1
    # Both answers occur often, at the solver's points and at random ones.
    assert added >= 100 and certified >= 50, (added, certified)


def _fixture(name):
    return parse_document((FIXTURE_DIR / name).read_text(encoding="utf-8"))


def _assert_agrees(hg, rowgen_only=False, label=None):
    """UB equals the subset-row reference, x* keeps the capacity, and on graphs UB = (m - 2) I."""
    capacity = mmi(hg).value
    bound, packing = upper_bound_theorem1(hg)
    for method in ("rowgen",) if rowgen_only else ("rowgen", "full"):
        assert bound == reference_packing(hg, capacity, method)[0], (label, method)
    assert verify_gamma_membership(hg, packing), label
    if hg.is_graph:
        assert bound == (hg.m - 2) * capacity, label
    return bound, packing


def test_ub_matches_the_subset_row_lp_on_the_fixtures():
    names = sorted(path.name for path in FIXTURE_DIR.glob("*.hg"))
    assert len(names) == 6
    for name in names:
        _assert_agrees(_fixture(name), label=name)


def test_ub_matches_the_subset_row_lp_on_both_corpora(identity_results, graphical_results):
    # The reports of `analyze`, by row generation over Gamma.  The
    # reference knows nothing of P*, yet its x* keeps every edge that
    # crosses P* at its weight, as the lemma that fixes those edges says.
    for res in identity_results + graphical_results:
        capacity = res.report.mmi.value
        bound = res.report.ub_theorem1
        reference, packing = reference_packing(res.hg, capacity)
        assert bound == reference, res.hg
        for e in _crossing(res.hg, res.report.mmi.fundamental):
            assert packing[e] == res.hg.weights[e], (res.hg, e)
        assert verify_gamma_membership(res.hg, res.report.x_star), res.hg
        if res.hg.is_graph:
            assert bound == (res.hg.m - 2) * capacity, res.hg


def test_ub_matches_the_subset_row_lp_on_random_sources():
    for seed in range(200):
        rng = random.Random(seed)
        make = random_hypergraph if seed % 2 else random_graph
        _assert_agrees(make(rng, 2 + seed % 7), rowgen_only=True, label=seed)


@pytest.mark.parametrize("m", [8, 10, 12])
def test_ub_matches_the_subset_row_lp_on_the_ladder(m):
    # Full subset rows take seconds at m = 12; the reference's row generation does not.
    _assert_agrees(cycle_plus_edges(random.Random(m), m), rowgen_only=True, label=m)


def test_ub_matches_the_subset_row_lp_on_clustered_sources():
    # 2 to 4 planted clusters joined by light pairs: P* has two cells or
    # more, and the LP keeps the edges inside them.  m stops at 10, where
    # the reference's 2^m subset tables still take a fraction of a second.
    rng = random.Random(4242)
    split = 0
    for i in range(100):
        hg = clustered_source(rng, 4 + i % 7)
        _assert_agrees(hg, rowgen_only=True, label=i)
        cells = mmi(hg).fundamental.cells
        split += sum(1 for c in cells if any(e & (e - 1) and e & ~c == 0 for e in hg.weights)) >= 2
    # The family is what it is for: edges inside two cells of P* or more.
    assert split >= 90, split


def _recorded_builds(monkeypatch):
    """Patch UB's `build_gamma_lp` to keep each LP it builds, in the list returned."""
    built = []
    build = skbounds.bounds.build_gamma_lp

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(skbounds.bounds, "build_gamma_lp", recording)
    return built


def test_a_wide_type_s_source_builds_an_lp_with_no_column_and_no_cut(monkeypatch):
    # 2,000 random non-singleton edges on 12 terminals: P* is the
    # singletons, every edge crosses it, so x* = w and UB = w(E) - I with
    # no column and no cut.
    rng = random.Random(4000)
    weights = {}
    while len(weights) < 2000:
        mask = rng.randrange(1, 1 << 12)
        if mask & (mask - 1):
            weights[mask] = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
    hg = WeightedHypergraph(12, weights)
    built, answers = _recorded_builds(monkeypatch), []
    solve_rowgen = skbounds.bounds.solve_with_row_generation

    def rowgen(base, oracle, max_rounds):
        def answer(xs, den):
            answers.append(oracle(xs, den))
            return answers[-1]

        return solve_rowgen(base, answer, max_rounds)

    monkeypatch.setattr(skbounds.bounds, "solve_with_row_generation", rowgen)
    report = skbounds.bounds.analyze(hg)
    assert report.mmi.fundamental.size == 12
    assert [lp.variables for lp in built] == [[]]
    assert answers == [None]
    assert report.ub_theorem1 == sum(weights.values()) - report.mmi.value
    assert report.x_star.entries == weights


def test_singleton_edges_only_give_an_lp_with_no_variable(monkeypatch):
    # A singleton meets one cell of every partition, so it gets no column:
    # the LP has none, and UB = 0 with the all-zero packing.
    hg = WeightedHypergraph(3, {0b001: Fraction(2), 0b010: Fraction(1, 3), 0b100: Fraction(5)})
    built = _recorded_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton edges warn
        report = skbounds.bounds.analyze(hg)
    assert [lp.variables for lp in built] == [[]]
    assert report.mmi.value == 0 and report.ub_theorem1 == 0
    assert report.x_star.entries == dict.fromkeys(hg.weights, Fraction(0))
    assert upper_bound_theorem1(hg) == _assert_agrees(hg)


@pytest.mark.parametrize(
    "hg, capacity",
    [
        # The only partition of two terminals is the singletons: x* = w.
        pytest.param(_fixture("two_terminal.hg"), Fraction(5, 3), id="two-terminal"),
        # I = 0: nothing need be kept, so x* = 0.
        pytest.param(tie_heavy_source(random.Random(6), 6), 0, id="tie-heavy"),
        pytest.param(
            WeightedHypergraph(4, {mask_of((1, 2)): Fraction(1), mask_of((3, 4)): Fraction(2)}),
            0,
            id="disconnected",
        ),
        pytest.param(WeightedHypergraph(5, {}), 0, id="empty"),
    ],
)
def test_edge_cases_give_ub_zero_like_the_subset_row_lp(hg, capacity):
    assert mmi(hg).value == capacity
    bound, packing = _assert_agrees(hg)
    assert bound == 0
    if capacity == 0:
        assert set(packing.entries.values()) <= {0}
    else:
        assert packing.entries == hg.weights
