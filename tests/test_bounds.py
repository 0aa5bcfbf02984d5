import dataclasses
import math
import random
import warnings
from fractions import Fraction

import pytest

import skbounds.bounds
import skbounds.hypergraph
from skbounds import (
    WeightedHypergraph,
    analyze,
    cross_edges,
    graphical_bounds,
    mask_of,
    mmi,
    r_co_direct,
    separation_oracle,
    subset_weight_table,
    upper_bound_theorem1,
    verify_gamma_membership,
)
from skbounds.bounds import FractionalPacking, _report_checks, build_gamma_lp, build_rco_lp
from skbounds.cli import parse_document
from skbounds.partitions import PARTITION_CAP, Partition
from skbounds.rational import to_integers

from conftest import (
    cycle_plus_edges,
    fixture_text,
    proper_subsets,
    random_graph,
    random_hypergraph,
)
from reference_scan import integer_scan, reference_mmi
from test_scan_oracle import FAMILIES

F = Fraction

EXAMPLE1 = WeightedHypergraph(
    4,
    {
        mask_of((1, 2)): F(2),
        mask_of((1, 4)): F(1),
        mask_of((2, 3)): F(1),
        mask_of((3, 4)): F(1),
    },
)

EXAMPLE2 = WeightedHypergraph(
    4,
    {
        mask_of((1, 2)): F(1),
        mask_of((1, 3)): F(1),
        mask_of((2, 3)): F(1),
        mask_of((3, 4)): F(1),
    },
)

TRIANGLE = WeightedHypergraph(
    3,
    {mask_of((1, 2)): F(1), mask_of((1, 3)): F(1), mask_of((2, 3)): F(1)},
)

TWO_TERMINAL = WeightedHypergraph(2, {0b11: F(5, 3)})


def test_rco_example1():
    value, rates = r_co_direct(EXAMPLE1)
    assert value == F(7, 2)
    assert sum(rates.rates) == value
    cond = subset_weight_table(EXAMPLE1.m, EXAMPLE1.weights)
    for mask in range(1, EXAMPLE1.full_mask):
        assert sum(rates.rates[i] for i in range(4) if mask >> i & 1) >= cond[mask]


def test_rco_two_terminal_is_zero():
    value, _ = r_co_direct(TWO_TERMINAL)
    assert value == 0


def test_rco_example2_matches_identity():
    value, _ = r_co_direct(EXAMPLE2)
    assert value == EXAMPLE2.total_entropy - mmi(EXAMPLE2).value == 3


def test_rco_rowgen_agrees():
    for hg in (EXAMPLE1, EXAMPLE2, TRIANGLE, TWO_TERMINAL):
        assert r_co_direct(hg, method="full")[0] == r_co_direct(hg, method="rowgen")[0]


# EXAMPLE1's weights are whole, so its integer source has L = 1 and the same weights as ints.
EXAMPLE1_INT, _ = EXAMPLE1.integer_source()


def test_build_rco_lp_row_count():
    lp = build_rco_lp(EXAMPLE1_INT, proper_subsets(4), subset_weight_table(4, EXAMPLE1_INT.weights))
    assert len(lp.variables) == 4
    assert len(lp.constraints) == 14  # 2^4 - 2 proper nonempty subsets


def test_build_gamma_lp_shape():
    lp = build_gamma_lp(EXAMPLE1_INT, F(3, 2), proper_subsets(4))
    assert len(lp.variables) == 8  # 4 packing entries + 4 rates
    assert len(lp.constraints) == 15  # 14 subset rows + the capacity pin
    # The pin, total packing minus total rate >= I = 3/2, written times 2.
    pin = lp.constraints[-1]
    assert pin.coeffs == (2,) * 4 + (-2,) * 4 and pin.rhs == 3
    # packing entries carry their weight bounds, rates only the bound 0
    assert lp.upper == [2, 1, 1, 1] + [None] * 4


def test_gamma_lp_feasibility_witness():
    # the full weight vector with an omniscience-optimal rate point is feasible
    lp = build_gamma_lp(EXAMPLE1_INT, F(3, 2), proper_subsets(4))
    _, rates = r_co_direct(EXAMPLE1_INT)
    point = [EXAMPLE1_INT.weights[e] for e in EXAMPLE1_INT.edges] + list(rates.rates)
    for con in lp.constraints:
        lhs = sum(c * x for c, x in zip(con.coeffs, point))
        assert lhs >= con.rhs


def test_upper_bound_example1_value_and_unique_packing():
    bound, packing = upper_bound_theorem1(EXAMPLE1)
    assert bound == 3
    expected = {e: EXAMPLE1.weights[e] for e in EXAMPLE1.edges}
    expected[mask_of((1, 2))] = F(3, 2)
    assert packing.entries == expected
    assert sum(packing.entries.values()) == F(9, 2)


def test_upper_bound_two_terminal():
    bound, packing = upper_bound_theorem1(TWO_TERMINAL)
    assert bound == 0
    assert packing.entries == {0b11: F(5, 3)}


def test_upper_bound_triangle():
    bound, packing = upper_bound_theorem1(TRIANGLE)
    assert bound == F(3, 2)
    assert sum(packing.entries.values()) == 3  # nothing can come off without losing capacity


def test_upper_bound_rowgen_agrees():
    for hg in (EXAMPLE1, EXAMPLE2, TRIANGLE, TWO_TERMINAL):
        full, _ = upper_bound_theorem1(hg, method="full")
        rowgen, _ = upper_bound_theorem1(hg, method="rowgen")
        assert full == rowgen


def test_upper_bound_dominated_by_rco():
    for hg in (EXAMPLE1, EXAMPLE2, TRIANGLE, TWO_TERMINAL):
        assert upper_bound_theorem1(hg)[0] <= r_co_direct(hg)[0]


def _separation_cases():
    cases = [
        # {1,2,3} and {1,2,4} both violate by 3 at zero rates; the smallest mask wins.
        pytest.param(EXAMPLE1, None, (F(0),) * 4, mask_of((1, 2, 3)), id="example1-tie"),
        # An optimal R_CO rate point of EXAMPLE1 satisfies every subset row.
        pytest.param(EXAMPLE1, None, (F(3, 2), F(1), F(1, 2), F(1, 2)), None, id="witness"),
        pytest.param(TWO_TERMINAL, None, (F(0), F(0)), None, id="two-terminal"),
    ]
    rng = random.Random(4409)
    for m in (3, 4, 5, 6):
        hg = random_hypergraph(rng, m)
        x = {e: w * F(rng.randint(0, 3), 3) for e, w in hg.weights.items()}
        for n in range(3):
            rates = tuple(F(rng.randint(-2, 6), rng.choice((1, 2, 3))) for _ in range(m))
            # ... marks a case checked against the brute-force minimum only.
            cases.append(pytest.param(hg, None, rates, ..., id=f"cond-m{m}-{n}"))
            cases.append(pytest.param(hg, x, rates, ..., id=f"packing-m{m}-{n}"))
    return cases


@pytest.mark.parametrize("hg, x, rates, expected", _separation_cases())
def test_separation_oracle_finds_the_most_violated_subset(hg, x, rates, expected):
    # x is None for R_CO (the table is cond) and a packing otherwise.
    entries = hg.weights if x is None else x
    table = subset_weight_table(hg.m, entries)

    def slack(b):  # rates(B) - weight inside B, by direct sums
        rate = sum((r for i, r in enumerate(rates) if b >> i & 1), F(0))
        return rate - sum((v for e, v in entries.items() if e & ~b == 0), F(0))

    most = min(range(1, hg.full_mask), key=lambda b: (slack(b), b))
    brute = most if slack(most) < 0 else None
    found = separation_oracle(table, rates)
    assert found == brute
    if expected is not ...:
        assert found == expected


def test_rco_builds_the_conditional_table_once(monkeypatch):
    # A seeded m = 8 source whose R_CO row generation takes 6 rounds.  The
    # seed LP and the oracle read the one cond table of the solve; no round
    # builds another.
    hg = random_hypergraph(random.Random(5), 8)
    builds, rounds = [], []
    table, oracle = skbounds.hypergraph.subset_weight_table, skbounds.bounds.separation_oracle

    def counted_table(*args):
        builds.append(args)
        return table(*args)

    def counted_oracle(*args):
        rounds.append(args)
        return oracle(*args)

    monkeypatch.setattr(skbounds.hypergraph, "subset_weight_table", counted_table)
    monkeypatch.setattr(skbounds.bounds, "subset_weight_table", counted_table)
    monkeypatch.setattr(skbounds.bounds, "separation_oracle", counted_oracle)
    r_co_direct(hg, method="rowgen")
    assert len(rounds) >= 3
    assert len(builds) == 1
    builds.clear()
    r_co_direct(hg, method="full")
    assert len(builds) == 1


@pytest.mark.parametrize("entry", [analyze, r_co_direct, upper_bound_theorem1])
def test_an_unknown_row_method_fails_before_any_work(entry, monkeypatch):
    # An m = 12 source takes about a second to scan; the method is checked
    # before that, so the scan must not run at all.
    def no_scan(*args, **kwargs):
        raise AssertionError("the partition scan ran before the method was checked")

    monkeypatch.setattr(skbounds.bounds, "mmi", no_scan)
    with pytest.raises(ValueError, match="unknown method"):
        entry(cycle_plus_edges(random.Random(12), 12), method="bogus")


@pytest.mark.parametrize("m", range(2, 10))
def test_the_default_row_method_is_row_generation_at_every_m(m):
    # No size rule: the default solves both LPs by row generation, so it
    # reports exactly what method="rowgen" reports, x* and rate point included.
    hg = cycle_plus_edges(random.Random(m), m)
    report = analyze(hg)
    assert report.method == "rowgen"
    assert report == analyze(hg, method="rowgen")  # field for field, x* included
    assert r_co_direct(hg) == r_co_direct(hg, method="rowgen")
    assert upper_bound_theorem1(hg) == upper_bound_theorem1(hg, method="rowgen")


@pytest.mark.parametrize("m, expected", [(14, 37), (16, 54)])
def test_rco_row_generation_at_large_m(m, expected):
    # Past the partition cap only R_CO runs; its rate point must meet all
    # 2^m - 2 subset rows, checked here in ints over one denominator d.
    hg = cycle_plus_edges(random.Random(m), m)
    value, point = r_co_direct(hg, method="rowgen")
    assert value == expected == sum(point.rates)
    src, scale = hg.integer_source()
    table = subset_weight_table(m, src.weights)
    d = math.lcm(scale, *(r.denominator for r in point.rates))
    sums = [0]
    for r in point.rates:
        sums += [s + r.numerator * (d // r.denominator) for s in sums]
    assert all(sums[b] * scale >= table[b] * d for b in range(1, (1 << m) - 1))


def test_capacity_identity_at_the_partition_cap():
    # The largest source the partition scan accepts: a seeded cycle-plus-edges
    # source with m = PARTITION_CAP and a single minimizer.
    hg = cycle_plus_edges(random.Random(12), PARTITION_CAP)
    result = mmi(hg)
    assert Partition(hg.m, result.fundamental.cells) == result.fundamental
    assert result.value == hg.total_entropy - r_co_direct(hg, method="rowgen")[0]


def test_gamma_membership():
    _, packing = upper_bound_theorem1(EXAMPLE1)
    assert verify_gamma_membership(EXAMPLE1, packing)
    assert verify_gamma_membership(EXAMPLE1, EXAMPLE1.weights)

    lowered = dict(EXAMPLE1.weights)
    lowered[mask_of((1, 2))] = F(1)  # below the 3/2 threshold: capacity drops
    assert not verify_gamma_membership(EXAMPLE1, lowered)
    with pytest.raises(TypeError, match="float"):
        verify_gamma_membership(EXAMPLE1, {e: float(w) for e, w in EXAMPLE1.weights.items()})


def test_gamma_membership_lists_no_minimizers(monkeypatch):
    # Both capacities come from `flow.dinkelbach`: the check never runs
    # `mmi`, which also certifies P* and counts the minimizers.
    def no_mmi(hg):
        raise AssertionError("verify_gamma_membership ran mmi")

    monkeypatch.setattr(skbounds.bounds, "mmi", no_mmi)
    assert verify_gamma_membership(EXAMPLE1, EXAMPLE1.weights)
    assert not verify_gamma_membership(EXAMPLE1, {**EXAMPLE1.weights, mask_of((1, 2)): F(1)})


def test_analyze_scales_the_input_and_the_reduced_source_once_each(monkeypatch):
    # `mmi`, `r_co_direct` and `upper_bound_theorem1` each read the input's
    # integer source, and the Gamma check the reduced source's: a hypergraph
    # keeps the one it builds.
    built = []

    def counting(values):
        values = list(values)
        built.append(values)
        return to_integers(values)

    monkeypatch.setattr(skbounds.hypergraph, "to_integers", counting)
    hg = cycle_plus_edges(random.Random(7), 7)
    hg = WeightedHypergraph(7, {e: w / 3 for e, w in hg.weights.items()})
    report = analyze(hg)
    assert len(built) == 2
    assert built[0] == list(hg.weights.values())
    assert built[1] == list(hg.restrict(report.x_star.entries).weights.values())


GAMMA = "x* preserves capacity (Gamma membership)"
TYPE_S = "reduced source is Type S"


@pytest.mark.parametrize("m", [8, 10])
def test_gamma_check_reports_the_reduced_capacity(m):
    # x* halved on one positive entry leaves Gamma (x* is LP-optimal over it).
    # The check reports the capacity of the reduced source, by the integer
    # scan made here as the oracle.
    hg = cycle_plus_edges(random.Random(m), m)
    report = analyze(hg)
    capacity = report.mmi.value
    for e, x in report.x_star.entries.items():
        if x > 0:
            entries = {**report.x_star.entries, e: x / 2}
            broken = dataclasses.replace(report, x_star=FractionalPacking(entries))
            checks = {c[0]: c[1:] for c in _report_checks(hg, broken)}
            ok, kept, expected = checks[GAMMA]
            assert not ok and expected == capacity
            assert kept == integer_scan(hg.restrict(entries)).value


def test_gamma_and_type_s_lines_read_the_reduced_source():
    # Packings x_e = w_e * k / 4 with k in 0..4, in Gamma and out of it: the
    # Gamma line prints the capacity of the reduced source, the Type S line
    # the size of its P*, and verify_gamma_membership holds exactly when that
    # capacity is I, all by the `Fraction` scan made here as the oracle.
    rng = random.Random("reduced-capacity")
    outside = type_s_lines = 0
    for family in ("hypergraph", "graph", "cycle", "type_s", "tie"):
        for m in range(2, 8):
            hg = FAMILIES[family](rng, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # graph-plus-singleton sources warn
                report = analyze(hg)
            capacity = report.mmi.value
            for _ in range(36):
                entries = {e: w * rng.randint(0, 4) / 4 for e, w in hg.weights.items()}
                reduced = reference_mmi(hg.restrict(entries))
                kept = reduced.value == capacity
                broken = dataclasses.replace(report, x_star=FractionalPacking(entries))
                checks = {c[0]: c[1:] for c in _report_checks(hg, broken)}
                assert checks[GAMMA] == (kept, reduced.value, capacity), (family, m, entries)
                assert verify_gamma_membership(hg, entries) == kept
                if TYPE_S in checks:
                    assert checks[TYPE_S][1] == reduced.fundamental.size, (family, m, entries)
                    type_s_lines += 1
                outside += not kept
    assert outside >= 500 and type_s_lines >= 300, (outside, type_s_lines)


def test_analyze_on_a_graph_scans_only_the_input(monkeypatch):
    hg = random_graph(random.Random(12), 12)
    scans = []

    def counting(source):
        scans.append(source)
        return mmi(source)

    monkeypatch.setattr(skbounds.bounds, "mmi", counting)
    report = analyze(hg)
    assert scans == [hg]
    ok, size, expected = next(c[1:] for c in _report_checks(hg, report) if "Type S" in c[0])
    assert ok and size == expected == 12


def test_graphical_upper_bound():
    assert graphical_bounds(EXAMPLE2).ub_theorem2 == 2
    assert graphical_bounds(TWO_TERMINAL).ub_theorem2 == 0
    assert graphical_bounds(TRIANGLE).ub_theorem2 == upper_bound_theorem1(TRIANGLE)[0] == F(3, 2)


def test_graphical_lower_bound():
    assert graphical_bounds(EXAMPLE2).lower_bound == 0  # two-cell fundamental partition
    assert graphical_bounds(TRIANGLE).lower_bound == F(3, 2)
    assert graphical_bounds(EXAMPLE1).lower_bound == F(3, 2)


def test_ci_graphical():
    assert graphical_bounds(EXAMPLE2).ci == 1
    assert graphical_bounds(TRIANGLE).ci == 3
    assert graphical_bounds(TWO_TERMINAL).ci == F(5, 3)


def test_graphical_ops_reject_hyperedges():
    for weights in ({0b111: F(1)}, {0b011: F(1), 0b100: F(1)}):
        with pytest.raises(ValueError, match="exactly two vertices"):
            graphical_bounds(WeightedHypergraph(3, weights))


def test_analyze_example1():
    report = analyze(EXAMPLE1)
    assert report.entropy_total == 5
    assert report.mmi.value == F(3, 2)
    assert str(report.mmi.fundamental) == "{{1,2},{3},{4}}"
    assert report.r_co == F(7, 2)
    assert report.ub_theorem1 == 3
    assert report.graphical is not None
    assert report.graphical.ub_theorem2 == 3
    assert report.graphical.lower_bound == F(3, 2)
    assert report.graphical.ci == 3


def test_analyze_example2():
    report = analyze(EXAMPLE2)
    assert report.entropy_total == 4
    assert report.mmi.value == 1
    assert str(report.mmi.fundamental) == "{{1,2,3},{4}}"
    assert report.r_co == 3
    assert report.graphical.ub_theorem2 == 2
    assert report.graphical.lower_bound == 0
    assert report.graphical.ci == 1


def test_analyze_two_terminal():
    q = F(5, 3)
    report = analyze(TWO_TERMINAL)
    assert report.entropy_total == q
    assert report.mmi.value == q
    assert report.r_co == 0
    assert report.ub_theorem1 == 0
    assert report.graphical.lower_bound == 0
    assert report.graphical.ci == q


def test_analyze_skips_graphical_block_for_hypergraphs():
    hyper = WeightedHypergraph(3, {0b111: F(1), 0b011: F(1)})
    report = analyze(hyper)
    assert report.graphical is None


def test_analyze_warns_on_singleton_edges():
    hg = WeightedHypergraph(3, {0b011: F(1), 0b110: F(1), 0b100: F(2)})
    with pytest.warns(UserWarning):
        report = analyze(hg)
    assert report.graphical is None
    assert report.r_co == report.entropy_total - report.mmi.value


def test_lower_bound_decomposes_as_ci_minus_capacity(make_random_graph):
    rng = random.Random(31)
    graphs = [EXAMPLE1, EXAMPLE2, TRIANGLE] + [make_random_graph(rng, m) for m in (3, 4, 5)]
    for hg in graphs:
        mres = mmi(hg)
        weight = cross_edges(hg, mres.fundamental)
        cross_value = weight / (mres.fundamental.size - 1)
        bounds = graphical_bounds(hg, mmi_result=mres)
        assert bounds.lower_bound == bounds.ci - cross_value


def test_packing_validation():
    # The packing LP's declared bounds keep x* on the edge set and inside [0, w].
    for method in ("full", "rowgen"):
        _, packing = upper_bound_theorem1(EXAMPLE1, method=method)
        assert set(packing.entries) == set(EXAMPLE1.weights)
        assert all(0 <= x <= EXAMPLE1.weights[e] for e, x in packing.entries.items())
    packing = FractionalPacking({mask_of((1, 2)): F(3)})
    with pytest.raises(ValueError):
        EXAMPLE1.restrict(packing.entries)


@pytest.mark.parametrize("method", ["full", "rowgen"])
@pytest.mark.parametrize("c", [F(10**100, 3), F(1, 10**100 + 1)], ids=["huge", "tiny"])
def test_bounds_scale_exactly_with_the_weights(c, method, make_random_hypergraph, make_random_graph):
    # Scaling every weight by c scales I, R_CO and UB(Thm 1) by exactly c.
    rng = random.Random(1907)
    sources = [parse_document(fixture_text("example1.hg"))]
    sources += [make_random_hypergraph(rng, m) for m in (3, 4, 5)]
    sources += [make_random_graph(rng, m) for m in (4, 6)]
    for hg in sources:
        scaled = WeightedHypergraph(hg.m, {e: c * w for e, w in hg.weights.items()})
        assert mmi(scaled).value == c * mmi(hg).value
        assert r_co_direct(scaled, method=method)[0] == c * r_co_direct(hg, method=method)[0]
        assert (
            upper_bound_theorem1(scaled, method=method)[0]
            == c * upper_bound_theorem1(hg, method=method)[0]
        )


@pytest.mark.parametrize("method", ["full", "rowgen"])
def test_an_int_source_reports_fractions(method):
    # Int weights are stored as ints, yet every reported value is a Fraction.
    hg = WeightedHypergraph(4, {e: int(w) for e, w in EXAMPLE1.weights.items()})
    assert {type(w) for w in hg.weights.values()} == {int}
    report = analyze(hg, method=method)
    _, rates = r_co_direct(hg, method=method)
    g = report.graphical
    values = [report.entropy_total, report.mmi.value, report.r_co, report.ub_theorem1]
    values += [*report.x_star.entries.values(), *rates.rates, g.ub_theorem2, g.lower_bound, g.ci]
    assert {type(v) for v in values} == {Fraction}
    assert (report.mmi.value, report.r_co, report.ub_theorem1) == (F(3, 2), F(7, 2), 3)


def _metamorphic_sources():
    rng = random.Random(2718)
    sources = [random_hypergraph(rng, m) for m in (3, 4, 5, 6)]
    return rng, sources + [random_graph(rng, m) for m in (3, 4, 5, 6)]


@pytest.mark.parametrize("method", ["full", "rowgen"])
def test_relabeling_permutes_the_fundamental_partition(method):
    # Renaming the terminals permutes P* and leaves I, R_CO and UB(Thm 1) unchanged.
    rng, sources = _metamorphic_sources()
    for hg in sources:
        perm = list(range(1, hg.m + 1))
        rng.shuffle(perm)

        def relabel(mask):
            return mask_of(perm[i] for i in range(hg.m) if mask >> i & 1)

        moved = WeightedHypergraph(hg.m, {relabel(e): w for e, w in hg.weights.items()})
        mres, moved_mres = mmi(hg), mmi(moved)
        assert moved_mres.value == mres.value
        cells = tuple(relabel(cell) for cell in mres.fundamental.cells)
        assert moved_mres.fundamental == Partition(hg.m, cells)
        assert r_co_direct(moved, method=method)[0] == r_co_direct(hg, method=method)[0]
        assert (
            upper_bound_theorem1(moved, method=method)[0]
            == upper_bound_theorem1(hg, method=method)[0]
        )


@pytest.mark.parametrize("method", ["full", "rowgen"])
def test_singleton_edge_adds_its_weight_to_h_and_rco(method):
    # Private randomness at one terminal leaves I unchanged and raises H and R_CO by its weight.
    rng, sources = _metamorphic_sources()
    for hg in sources:
        singleton = 1 << rng.randrange(hg.m)
        w = F(rng.randint(1, 7), rng.choice((1, 2, 5)))
        weights = dict(hg.weights)
        weights[singleton] = weights.get(singleton, F(0)) + w
        grown = WeightedHypergraph(hg.m, weights)
        assert mmi(grown).value == mmi(hg).value
        assert grown.total_entropy == hg.total_entropy + w
        assert r_co_direct(grown, method=method)[0] == r_co_direct(hg, method=method)[0] + w
