import json
import random
import re
from fractions import Fraction

import pytest

import skbounds.partitions
from skbounds import (
    CapExceededError,
    InternalInvariantError,
    WeightedHypergraph,
    analyze,
    cross_edges,
    mask_of,
    mmi,
)
from skbounds.cli import main, parse_document
from skbounds.partitions import Partition

from conftest import from_vertex_cells, is_refinement_of, partition_value
import reference_scan
from reference_scan import _raw_partitions, integer_scan

EXAMPLE1 = WeightedHypergraph(
    4,
    {
        mask_of((1, 2)): Fraction(2),
        mask_of((1, 4)): Fraction(1),
        mask_of((2, 3)): Fraction(1),
        mask_of((3, 4)): Fraction(1),
    },
)

EXAMPLE2 = WeightedHypergraph(
    4,
    {
        mask_of((1, 2)): Fraction(1),
        mask_of((1, 3)): Fraction(1),
        mask_of((2, 3)): Fraction(1),
        mask_of((3, 4)): Fraction(1),
    },
)

TRIANGLE = WeightedHypergraph(
    3,
    {mask_of((1, 2)): Fraction(1), mask_of((1, 3)): Fraction(1), mask_of((2, 3)): Fraction(1)},
)

PATH3 = WeightedHypergraph(3, {mask_of((1, 2)): Fraction(1), mask_of((2, 3)): Fraction(1)})


def P(m, *cells):
    return from_vertex_cells(m, cells)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, (0b011,))  # does not cover
    with pytest.raises(ValueError):
        Partition(3, (0b011, 0b110))  # overlap
    with pytest.raises(ValueError):
        Partition(3, (0b011, 0b100, 0))  # empty cell


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition(3, (0b0011, 0b1100)), "outside {1..m}"),
        (lambda: cross_edges(EXAMPLE1, P(3, [1], [2, 3])), "disagree on m"),
    ],
    ids=["cell-outside-m", "cross-edges-other-m"],
)
def test_partition_rejects_another_m(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_partition_canonical_order_and_str():
    part = from_vertex_cells(4, [[3], [1, 2], [4]])
    assert str(part) == "{{1,2},{3},{4}}"
    assert part.cells == (0b0011, 0b0100, 0b1000)


def partitions(m):
    """Every partition of {1..m} with at least two cells, from the reference scan."""
    return [Partition(m, cells) for cells in _raw_partitions(m, min_cells=2)]


def test_enumeration_counts():
    # Bell(m) - 1 partitions with at least two cells
    assert len(partitions(2)) == 1
    assert len(partitions(3)) == 4
    assert len(partitions(4)) == 14
    assert len(partitions(5)) == 51


def test_enumeration_unique_and_valid():
    seen = set()
    for part in partitions(4):  # Partition validates its cells
        assert part.size >= 2
        seen.add(part.cells)
    assert len(seen) == 14


def test_enumeration_caps():
    # The scan stops at PARTITION_CAP = 12 terminals before any work.
    hg = WeightedHypergraph(13, {mask_of((i, i + 1)): Fraction(1) for i in range(1, 13)})
    with pytest.raises(CapExceededError, match="partition enumeration cap of 12"):
        mmi(hg)


def test_partition_mi_examples():
    assert partition_value(EXAMPLE1, P(4, [1, 2], [3], [4])) == Fraction(3, 2)
    assert partition_value(EXAMPLE2, P(4, [1, 2, 3], [4])) == 1
    two = WeightedHypergraph(2, {0b11: Fraction(5, 7)})
    assert partition_value(two, P(2, [1], [2])) == Fraction(5, 7)


def test_partition_mi_matches_cross_edge_form_on_graphs(make_random_graph):
    rng = random.Random(5150)
    graphs = [EXAMPLE1, EXAMPLE2, TRIANGLE, PATH3]
    graphs += [make_random_graph(rng, m) for m in (3, 4, 5, 6)]
    for hg in graphs:
        for part in partitions(hg.m):
            weight = cross_edges(hg, part)
            assert partition_value(hg, part) == weight / (part.size - 1)


def test_cross_edges_examples():
    # Only {3,4} leaves {1,2,3}.
    assert cross_edges(EXAMPLE2, P(4, [1, 2, 3], [4])) == 1
    # {1,4}, {2,3} and {3,4} cross; the doubled {1,2} does not.
    assert cross_edges(EXAMPLE1, P(4, [1, 2], [3], [4])) == 3
    # singleton partition: every multi-vertex edge crosses
    assert cross_edges(EXAMPLE1, P(4, [1], [2], [3], [4])) == EXAMPLE1.total_entropy


def test_mmi_example1():
    result = mmi(EXAMPLE1)
    assert result.value == Fraction(3, 2)
    assert result.fundamental == P(4, [1, 2], [3], [4])
    assert result.minimizer_count == 1


def test_mmi_example2():
    result = mmi(EXAMPLE2)
    assert result.value == 1
    assert result.fundamental == P(4, [1, 2, 3], [4])


def test_mmi_two_terminals_degenerates_to_edge_weight():
    q = Fraction(5, 3)
    hg = WeightedHypergraph(2, {0b11: q})
    result = mmi(hg)
    assert result.value == q
    assert result.fundamental.size == 2


def test_mmi_path_selects_finest_of_three_minimizers():
    result = mmi(PATH3)
    assert result.value == 1
    assert result.minimizer_count == 3
    assert result.fundamental == P(3, [1], [2], [3])
    for other in result.all_minimizers:
        assert is_refinement_of(result.fundamental, other)


def test_mmi_value_is_global_minimum(make_random_hypergraph):
    rng = random.Random(404)
    for m in (3, 4, 5):
        hg = make_random_hypergraph(rng, m)
        result = mmi(hg)
        for part in partitions(m):
            assert result.value <= partition_value(hg, part)


def test_mmi_scaling_property(make_random_hypergraph):
    rng = random.Random(77)
    for _ in range(5):
        hg = make_random_hypergraph(rng, 4)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = WeightedHypergraph(hg.m, {e: scale * w for e, w in hg.weights.items()})
        base, after = mmi(hg), mmi(scaled)
        assert after.value == scale * base.value
        assert after.fundamental == base.fundamental


def test_mmi_monotone_under_removal(make_random_hypergraph):
    rng = random.Random(1234)
    for _ in range(10):
        hg = make_random_hypergraph(rng, 4)
        packing = {
            e: w * Fraction(rng.randint(0, 3), 3) for e, w in hg.weights.items()
        }
        assert mmi(hg.restrict(packing)).value <= mmi(hg).value


def test_mmi_on_empty_support():
    hg = WeightedHypergraph(3, {0b011: Fraction(1)}).restrict({0b011: Fraction(0)})
    result = mmi(hg)
    assert result.value == 0
    assert result.fundamental.size == 3  # finest of the all-zero landscape


# Entropy tables that no hypergraph has (ent[A] indexed by mask A), patched
# in where a scan builds its table from the integer source of the one edge
# {1..m} of weight 1, so L = 1.  Every partition of that source has value 1,
# so the truncation returns I = 1 with the singletons as P*, and the table
# over P*'s cells is the patched one.
# {1,2},{3} and {1},{2,3} tie at 0: two finest minimizers.
NOT_UNIQUE = [0, 2, 2, 2, 2, 3, 2, 4]
# {1,2},{3,4} ties at 2 with the finer {1,3},{2},{4}, which does not refine it.
NOT_A_COARSENING = [0, 3, 3, 1, 4, 1, 4, 4, 1, 3, 3, 2, 2, 4, 1, 1]


def _patch_table(monkeypatch, module, ent):
    full = len(ent) - 1
    cond = [ent[full] - ent[full ^ b] for b in range(full + 1)]
    monkeypatch.setattr(module, "subset_weight_table", lambda m, entries: cond)
    return WeightedHypergraph(full.bit_length(), {full: Fraction(1)})


@pytest.mark.parametrize(
    "ent, message",
    [
        pytest.param(
            NOT_UNIQUE,
            r"merging the cells of P\* inside \{1,2\} gives a partition of value below I = 1$",
            id="ent0-not unique",
        ),
        pytest.param(
            NOT_A_COARSENING,
            r"the truncation's partition \{\{1\},\{2\},\{3\},\{4\}\} does not have its value I = 1$",
            id="ent1-not a coarsening",
        ),
    ],
)
def test_mmi_reports_a_broken_invariant(monkeypatch, ent, message):
    hg = _patch_table(monkeypatch, skbounds.partitions, ent)
    with pytest.raises(InternalInvariantError, match=message):
        mmi(hg)


@pytest.mark.parametrize(
    "ent, message",
    [
        (NOT_UNIQUE, "finest minimizer is not unique: 2 partitions with 2 cells"),
        # It names the first minimizer holding a bad cell, by its cells.
        (NOT_A_COARSENING, r"minimizer \{\{1,2\},\{3,4\}\} is not a coarsening"),
    ],
    ids=["not unique", "not a coarsening"],
)
def test_the_integer_scan_reports_a_broken_invariant(monkeypatch, ent, message):
    hg = _patch_table(monkeypatch, reference_scan, ent)
    with pytest.raises(InternalInvariantError, match=message):
        integer_scan(hg)


def test_mmi_builds_no_partition_per_tied_minimizer(monkeypatch, tmp_path, capsys):
    # Singleton edges plus the pair {1,3}: every partition that keeps 1 and 3
    # together ties at 0, Bell(7) - 1 = 876 of them.  `mmi`, `analyze` and
    # `mmi --json` count them and list none, as tuples or as `Partition`s.
    text = "m = 8\n" + "".join(f"edge {v} : 1\n" for v in range(1, 9)) + "edge 1 3 : 1\n"
    hg = parse_document(text)
    doc = tmp_path / "tie.hg"
    doc.write_text(text)
    calls = []
    post_init = Partition.__post_init__

    def counting(self):
        calls.append(self.cells)
        post_init(self)

    def listing(units, tight):
        raise AssertionError("the minimizers were listed")

    monkeypatch.setattr(Partition, "__post_init__", counting)
    monkeypatch.setattr(skbounds.partitions, "_tight_coarsenings", listing)
    result = mmi(hg)
    assert len(calls) == 1  # P* alone
    assert result.minimizer_count == 876
    with pytest.warns(UserWarning, match="graphical bounds skipped"):
        assert analyze(hg).mmi.minimizer_count == 876
    calls.clear()
    assert main(["mmi", "--json", str(doc)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["mmi"]["minimizer_count"] == 876
    monkeypatch.undo()
    assert result.fundamental == P(8, [1, 3], [2], [4], [5], [6], [7], [8])
    assert len(result.minimizer_cells) == 876
    assert result.all_minimizers == tuple(Partition(8, c) for c in result.minimizer_cells)
    # The scan's tuples are canonical: Partition keeps their order.
    assert tuple(part.cells for part in result.all_minimizers) == result.minimizer_cells


def test_is_type_s():
    # Type S: the fundamental partition is the singletons.
    assert mmi(TRIANGLE).fundamental.size == TRIANGLE.m
    assert mmi(EXAMPLE1).fundamental.size < EXAMPLE1.m
    assert mmi(EXAMPLE2).fundamental.size < EXAMPLE2.m
