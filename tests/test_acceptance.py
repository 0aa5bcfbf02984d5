"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Everything asserts exact rational equality; there are no tolerances.
"""

import time
from fractions import Fraction

from skbounds import analyze, mask_of, mmi
from skbounds.cli import parse_document
from skbounds.hypergraph import vertices_of

from conftest import FIXTURE_DIR, fixture_text, from_vertex_cells, is_refinement_of, partition_value
from reference_packing import reference_packing
from reference_rco import reference_rco
from reference_scan import reference_mmi

F = Fraction


def _passed(number, label, detail):
    print(f"[acceptance] criterion {number} ({label}): PASS ({detail})")


def test_criterion_1_example1_golden():
    start = time.perf_counter()
    hg = parse_document(fixture_text("example1.hg"))
    report = analyze(hg)
    elapsed = time.perf_counter() - start

    assert report.mmi.value == F(3, 2)
    assert report.mmi.fundamental == from_vertex_cells(4, [[1, 2], [3], [4]])
    assert report.r_co == F(7, 2)
    assert report.ub_theorem1 == 3
    expected_packing = {e: hg.weights[e] for e in hg.edges}
    expected_packing[mask_of((1, 2))] = F(3, 2)
    assert report.x_star.entries == expected_packing
    assert elapsed < 1.0
    _passed(1, "example 1 golden", f"exact values, {elapsed:.3f}s")


def test_criterion_2_example2_golden():
    start = time.perf_counter()
    hg = parse_document(fixture_text("example2.hg"))
    report = analyze(hg)
    elapsed = time.perf_counter() - start

    assert report.mmi.value == 1
    assert report.mmi.fundamental == from_vertex_cells(4, [[1, 2, 3], [4]])
    assert report.graphical is not None
    assert report.graphical.lower_bound == 0
    assert report.graphical.ci == 1
    assert report.r_co == 3
    assert report.graphical.ub_theorem2 == 2
    assert elapsed < 1.0
    _passed(2, "example 2 golden", f"exact values, {elapsed:.3f}s")


def test_criterion_3_omniscience_identity(identity_results):
    assert len(identity_results) >= 200
    for res in identity_results:
        assert res.report.r_co == res.report.entropy_total - res.report.mmi.value
    _passed(3, "omniscience identity", f"{len(identity_results)} instances, exact every time")


def test_criterion_4_capacity_preserving_packing(identity_results):
    # The oracle is the `Fraction` scan of the reduced source, made here: the
    # report's check reads `flow.dinkelbach`, as `mmi` does, so `mmi` is no oracle.
    for res in identity_results:
        reduced = reference_mmi(res.hg.restrict(res.report.x_star.entries))
        assert reduced.value == res.report.mmi.value
        _, kept, _ = res.checks["x* preserves capacity (Gamma membership)"]
        assert kept == reduced.value
    _passed(4, "optimal packing preserves capacity", f"{len(identity_results)} instances")


def test_criterion_5_graph_bound_agreement(graphical_results):
    assert len(graphical_results) >= 100
    for res in graphical_results:
        assert res.report.ub_theorem1 == (res.hg.m - 2) * res.report.mmi.value
        reduced = reference_mmi(res.hg.restrict(res.report.x_star.entries))
        assert reduced.fundamental.size == res.hg.m  # Type S
        _, size, _ = res.checks["reduced source is Type S"]
        assert size == reduced.fundamental.size
    _passed(
        5,
        "graph bound equals (m-2)*I and reduced source is Type S",
        f"{len(graphical_results)} graphical instances",
    )


def test_criterion_6_oracle_equivalence(identity_results, graphical_results):
    # The package solves both LPs by row generation; the full-row LPs of
    # tests/ must reach the same values on every corpus instance and fixture.
    sources = [(res.hg, res.report) for res in identity_results + graphical_results]
    for path in sorted(FIXTURE_DIR.glob("*.hg")):
        hg = parse_document(fixture_text(path.name))
        sources.append((hg, analyze(hg)))
    for hg, report in sources:
        assert hg.m <= 7
        assert reference_rco(hg)[0] == report.r_co
        assert reference_packing(hg, report.mmi.value, "full")[0] == report.ub_theorem1
    _passed(6, "full rows equal row generation", f"{len(sources)} instances, both LPs")


def test_criterion_7_sandwich_and_dominance(identity_results, graphical_results):
    for res in identity_results:
        assert res.report.ub_theorem1 <= res.report.r_co
    for res in graphical_results:
        assert res.report.graphical.lower_bound <= res.report.ub_theorem1 <= res.report.r_co

    example1 = parse_document(fixture_text("example1.hg"))
    report = analyze(example1)
    assert report.ub_theorem1 < report.r_co  # 3 < 7/2, strictly
    _passed(
        7,
        "sandwich and dominance",
        f"{len(identity_results) + len(graphical_results)} instances; example 1 strict (3 < 7/2)",
    )


# --- independent brute-force oracle for criterion 8 -------------------------
# Works on vertex sets and an explicit edge list; shares no code path with the
# partition engine (different enumeration, direct entropy summation).


def _oracle_partitions(elements):
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for part in _oracle_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {head}] + part[i + 1 :]
        yield part + [{head}]


def _oracle_mmi(hg):
    edge_list = [(set(vertices_of(mask)), w) for mask, w in hg.weights.items()]
    total = sum((w for _, w in edge_list), F(0))

    def entropy(cell):
        return sum((w for verts, w in edge_list if verts & cell), F(0))

    best = None
    minimizers = []
    per_partition = []
    for part in _oracle_partitions(list(range(1, hg.m + 1))):
        if len(part) < 2:
            continue
        value = (sum((entropy(cell) for cell in part), F(0)) - total) / (len(part) - 1)
        per_partition.append((part, value))
        if best is None or value < best:
            best, minimizers = value, [part]
        elif value == best:
            minimizers.append(part)
    finest = max(minimizers, key=len)
    assert sum(1 for p in minimizers if len(p) == len(finest)) == 1
    return best, finest, per_partition


def test_criterion_8_brute_force_oracle(identity_corpus):
    small = [hg for hg in identity_corpus if hg.m <= 5]
    assert small
    checked_partitions = 0
    for hg in small:
        value, finest, per_partition = _oracle_mmi(hg)
        engine = mmi(hg)
        assert engine.value == value
        assert engine.fundamental == from_vertex_cells(hg.m, finest)
        for part, expected in per_partition:
            engine_value = partition_value(hg, from_vertex_cells(hg.m, part))
            assert engine_value == expected
            checked_partitions += 1
    _passed(
        8,
        "independent brute-force oracle agreement",
        f"{len(small)} instances (m <= 5), {checked_partitions} partition values",
    )


def test_criterion_9_finest_minimizer(identity_results, graphical_results):
    path = parse_document(fixture_text("path3.hg"))
    result = mmi(path)
    assert result.value == 1
    assert len(result.all_minimizers) == 3
    assert result.fundamental == from_vertex_cells(3, [[1], [2], [3]])

    for res in identity_results + graphical_results:
        fundamental = res.report.mmi.fundamental
        for other in res.report.mmi.all_minimizers:
            assert is_refinement_of(fundamental, other)
    _passed(
        9,
        "finest minimizer",
        "path graph picks singletons of 3 minimizers; refinement holds corpus-wide",
    )
