import copy
import pickle
import random
import warnings
from fractions import Fraction

import pytest

import skbounds.hypergraph
from skbounds import CapExceededError, WeightedHypergraph, analyze, mask_of, mmi, subset_weight_table
from skbounds.bounds import _certified_round, _report_checks, run_checks
from skbounds.cli import parse_document
from skbounds.hypergraph import vertices_of

from conftest import FIXTURE_DIR, fixture_text

EXAMPLE1 = {
    mask_of((1, 2)): Fraction(2),
    mask_of((1, 4)): Fraction(1),
    mask_of((2, 3)): Fraction(1),
    mask_of((3, 4)): Fraction(1),
}


@pytest.fixture
def example1():
    return WeightedHypergraph(4, dict(EXAMPLE1))


def test_mask_round_trip():
    assert vertices_of(mask_of((3, 1))) == (1, 3)
    assert mask_of(()) == 0


def test_rejects_tiny_and_huge_m():
    with pytest.raises(ValueError):
        WeightedHypergraph(1, {1: Fraction(1)})
    with pytest.raises(CapExceededError):
        WeightedHypergraph(21, {1: Fraction(1)})


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        WeightedHypergraph(3, {0: Fraction(1)})
    with pytest.raises(ValueError):
        WeightedHypergraph(3, {1 << 3: Fraction(1)})
    with pytest.raises(ValueError):
        WeightedHypergraph(3, {3: Fraction(-1)})


def test_a_bool_mask_is_rejected():
    # bool is an int subclass, and True would stand for vertex 1.
    with pytest.raises(ValueError, match=r"hyperedge mask True is not a nonempty subset of \{1..2\}"):
        WeightedHypergraph(2, {True: 1, 3: 1})


def test_edges_sort_by_vertex_tuple():
    # The sort key reads no vertex tuple, but orders every mask at m <= 10 as the tuples do.
    for m in range(2, 11):
        masks = list(range(1, 1 << m))
        random.Random(m).shuffle(masks)
        hg = WeightedHypergraph(m, dict.fromkeys(masks, 1))
        assert hg.edges == tuple(sorted(masks, key=vertices_of)), m


def test_the_integer_source_is_a_checked_hypergraph():
    # Built without a second `__post_init__`, it equals the hypergraph that
    # pass would build, pickles, and keeps the weights read-only.
    hg = WeightedHypergraph(3, {0b011: Fraction(1, 2), 0b110: 2, 0b100: Fraction(2, 3)})
    src, scale = hg.integer_source()
    assert scale == 6 and src == WeightedHypergraph(3, {0b011: 3, 0b110: 12, 0b100: 4})
    assert pickle.loads(pickle.dumps(src)) == src and copy.deepcopy(src) == src
    with pytest.raises(TypeError):
        src.weights[0b011] = 1


def test_weights_must_be_exact():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(TypeError, match="float"):
        WeightedHypergraph(3, {0b011: 0.1, 0b110: 1})
    hg = WeightedHypergraph(3, {0b011: "1/10", 0b110: 1, 0b101: Fraction(1, 10)})
    assert hg.weights == {0b011: Fraction(1, 10), 0b110: 1, 0b101: Fraction(1, 10)}
    # Ints stay ints; every other exact weight becomes a Fraction.
    assert [type(w) for w in hg.weights.values()] == [Fraction, int, Fraction]


def test_zero_weight_edges_are_dropped():
    hg = WeightedHypergraph(3, {3: Fraction(0), 6: Fraction(1)})
    assert hg.edges == (6,)


def test_entropy_example1(example1):
    ent = example1.entropy_table()
    assert ent[example1.full_mask] == 5
    assert ent[0] == 0
    # edges {2,3} and {3,4} are the ones meeting vertex 3
    assert ent[mask_of((3,))] == 2


def test_conditional_entropy_example1(example1):
    cond = subset_weight_table(example1.m, example1.weights)
    # only edge {1,2} fits inside {1,2}
    assert cond[mask_of((1, 2))] == 2
    assert cond[example1.full_mask] == example1.total_entropy
    assert cond[mask_of((1,))] == 0


def test_complement_identity_exhaustive(example1):
    ent = example1.entropy_table()
    cond = subset_weight_table(example1.m, example1.weights)
    total = example1.total_entropy
    full = example1.full_mask
    for a in range(full + 1):
        assert cond[a] == total - ent[full ^ a]


def test_tables_match_pointwise(example1):
    # Direct sums: entropy counts the edges meeting A, the conditional
    # entropy those inside A.
    ent = example1.entropy_table()
    cond = subset_weight_table(example1.m, example1.weights)
    weights = example1.weights.items()
    for a in range(example1.full_mask + 1):
        assert ent[a] == sum((w for e, w in weights if e & a), Fraction(0))
        assert cond[a] == sum((w for e, w in weights if e & ~a == 0), Fraction(0))


def test_subset_weight_table_is_containment_sum():
    entries = {0b011: Fraction(1, 2), 0b110: Fraction(2), 0b100: Fraction(1, 3)}
    table = subset_weight_table(3, entries)
    for b in range(8):
        assert table[b] == sum(
            (v for mask, v in entries.items() if mask & ~b == 0), Fraction(0)
        )


def _contained_sums(m, entries):
    """The plain definition: each entry on e added at every mask B that contains e."""
    sums = [0] * (1 << m)
    for e, v in entries.items():
        for b in range(1 << m):
            if e & ~b == 0:
                sums[b] += v
    return sums


@pytest.mark.parametrize("m", range(1, 13))
def test_tables_match_the_plain_sums(m):
    # Over m = 1 to 12 the transform adds bit b by both of its forms: b
    # strided slices while b^2 < 2^m, contiguous runs after.  Int entries
    # sum to ints and Fraction entries to Fractions; a mask with no entry
    # inside holds int 0.
    rng = random.Random(m)
    full = (1 << m) - 1
    maps = [
        {},
        {full: Fraction(5, 3)},
        {1 << i: i + 1 for i in range(m)},
        {rng.randint(1, full): rng.randint(1, 9) for _ in range(m)},
        {rng.randint(1, full): Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)},
    ]
    # Int maps whose totals sit at each edge of the packed field widths
    # (8, 16, 32 and 64 bits; 2^64 and over take the list transform), one
    # with a negative entry (list transform) and one on mask 0.
    totals = [(1 << w) + k for w in (8, 16, 32, 64) for k in (-1, 0)]
    int_maps = [{0: 1, full: total - 1} for total in totals] + [{1: -2, full: 5}, {0: 3}]
    for entries in maps + int_maps:
        table, plain = subset_weight_table(m, entries), _contained_sums(m, entries)
        assert table == plain
        assert list(map(type, table)) == list(map(type, plain))
    for entries in maps:
        if m >= 2 and entries:
            met = [sum([v for e, v in entries.items() if e & a]) for a in range(full + 1)]
            assert WeightedHypergraph(m, entries).entropy_table() == met


def test_the_packed_table_matches_the_list_transform_at_m_16():
    # 2^16 fields of 8 and of 64 bits, against the list transform itself.
    rng = random.Random(16)
    for top in (3, 1 << 50):
        entries = {rng.randrange(1 << 16): rng.randint(0, top) for _ in range(40)}
        assert subset_weight_table(16, entries) == skbounds.hypergraph._list_table(16, entries)


@pytest.mark.parametrize("value", [5, Fraction(5, 2)])
def test_a_mask_outside_the_subsets_is_rejected(value):
    # Checked before either transform, so a negative mask cannot wrap onto
    # the full set.  Mask 0, the empty set, is a subset.
    for mask in (-1, 4, 1 << 10):
        with pytest.raises(ValueError, match=f"mask {mask} is not a subset of m = 2 terminals"):
            subset_weight_table(2, {3: 1, mask: value})
    assert subset_weight_table(2, {0: value}) == [value] * 4


def test_monotonicity_and_submodularity(make_random_hypergraph):
    rng = random.Random(99)
    for m in (3, 4, 5):
        hg = make_random_hypergraph(rng, m)
        ent = hg.entropy_table()
        full = hg.full_mask
        for a in range(full + 1):
            for b in range(full + 1):
                if a & ~b == 0:
                    assert ent[a] <= ent[b]
                assert ent[a] + ent[b] >= ent[a | b] + ent[a & b]


def test_restrict_identity(example1):
    assert example1.restrict(dict(EXAMPLE1)) == example1


def test_restrict_reduces_total(example1):
    packing = dict(EXAMPLE1)
    packing[mask_of((1, 2))] = Fraction(3, 2)
    reduced = example1.restrict(packing)
    assert reduced.total_entropy == Fraction(9, 2)


def test_restrict_drops_zeroed_edges(example1):
    packing = {mask: Fraction(0) for mask in EXAMPLE1}
    reduced = example1.restrict(packing)
    assert reduced.edges == ()
    assert reduced.total_entropy == 0


def test_restrict_rejects_a_float_packing(example1):
    packing = dict(EXAMPLE1)
    packing[mask_of((1, 2))] = 1.5
    with pytest.raises(TypeError, match="float"):
        example1.restrict(packing)
    packing[mask_of((1, 2))] = 1
    assert example1.restrict(packing).total_entropy == 4
    # Every other entry type of the constructor is accepted, strings included.
    packing[mask_of((1, 2))] = "1/2"
    assert example1.restrict(packing).total_entropy == Fraction(7, 2)


def test_restrict_validates(example1):
    with pytest.raises(ValueError):
        example1.restrict({mask_of((1, 2)): Fraction(1)})  # missing edges
    bad = dict(EXAMPLE1)
    for negative, above in ((Fraction(-1), Fraction(5, 2)), ("-1", "5/2")):
        bad[mask_of((1, 2))] = negative
        with pytest.raises(ValueError, match="negative"):
            example1.restrict(bad)
        bad[mask_of((1, 2))] = above
        with pytest.raises(ValueError, match="exceeds"):
            example1.restrict(bad)


def test_graphical_flags():
    graph = WeightedHypergraph(3, {0b011: Fraction(1)})
    assert graph.is_graph
    with_singleton = WeightedHypergraph(3, {0b011: Fraction(1), 0b100: Fraction(1)})
    assert not with_singleton.is_graph
    hyper = WeightedHypergraph(3, {0b111: Fraction(1)})
    assert not hyper.is_graph


def test_duplicate_masks_not_possible_from_dict():
    # dict keys are unique; equal-key entries overwrite, so construction is total
    hg = WeightedHypergraph(3, {0b011: Fraction(2)})
    assert hg.weights[0b011] == 2


def test_weights_are_read_only(example1):
    # Assigning a weight after `mmi` kept its result would leave that result
    # stale (3/2 here, against 2 for the changed source), so it raises.
    assert mmi(example1).value == Fraction(3, 2)
    with pytest.raises(TypeError):
        example1.weights[mask_of((3, 4))] = 5
    with pytest.raises(TypeError):
        del example1.weights[mask_of((1, 2))]
    with pytest.raises(AttributeError):
        example1.weights.clear()
    assert example1.weights == EXAMPLE1
    assert mmi(example1).value == Fraction(3, 2)
    # The dict handed to the constructor is copied, not wrapped.
    given = dict(EXAMPLE1)
    hg = WeightedHypergraph(4, given)
    given[mask_of((3, 4))] = Fraction(5)
    assert hg.weights == EXAMPLE1


def test_hypergraphs_and_reports_survive_a_pickle_round_trip():
    # Before and after `analyze` the hypergraph comes back equal, as does
    # its report, listing included; a deep copy too.  UB's last round rides
    # on x*, so a report read back, on a copy that keeps no run, gives the
    # same check lines, and the same identities where the round certifies x*.
    for path in sorted(FIXTURE_DIR.glob("*.hg")):
        hg = parse_document(fixture_text(path.name))
        before = pickle.loads(pickle.dumps(hg))
        assert before == hg and copy.deepcopy(hg) == hg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = analyze(hg)
            again = pickle.loads(pickle.dumps(hg))
            assert again == hg and copy.deepcopy(hg) == hg
            assert analyze(before) == report == analyze(again)
        back = pickle.loads(pickle.dumps(report))
        assert back == report
        assert back.mmi.minimizer_cells == report.mmi.minimizer_cells
        assert pickle.loads(pickle.dumps(report.mmi)) == report.mmi
        assert back.x_star.last_round == report.x_star.last_round
        assert _certified_round(copy.deepcopy(hg), back.x_star) is not None
        assert run_checks(copy.deepcopy(hg), back) == run_checks(hg, report)
        assert _report_checks(copy.deepcopy(hg), back) == list(report.checks)
