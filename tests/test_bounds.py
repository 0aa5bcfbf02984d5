import dataclasses
import math
import random
import re
import warnings
from fractions import Fraction

import pytest

import skbounds.bounds
import skbounds.flow
import skbounds.hypergraph
import skbounds.partitions
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
from skbounds.bounds import FractionalPacking, _report_checks, build_gamma_lp, build_rco_lp, run_checks
from skbounds.cli import parse_document
from skbounds.flow import fundamental
from skbounds.hypergraph import format_subset, vertices_of
from skbounds.lp import OPTIMAL, Constraint, solve
from skbounds.partitions import PARTITION_CAP, Partition
from skbounds.rational import format_rational, to_integers

from conftest import (
    FIXTURE_DIR,
    GRAPHICAL_CORPUS_SIZE,
    IDENTITY_CORPUS_SIZE,
    cycle_plus_edges,
    fixture_text,
    proper_subsets,
    random_graph,
    random_hypergraph,
)
import reference_rco as reference_rco_module
from reference_gamma import reduced_source_lines
from reference_packing import reference_packing
from reference_rco import cosingleton_rco_lp, full_rco_lp, per_cell_rco_lp, per_terminal_rco_lp, reference_rco, rowgen_rco
from reference_scan import _raw_partitions, integer_scan, reference_mmi
from reference_separation import reference_separation
from test_scan_oracle import FAMILIES, type_s_source

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
        assert reference_rco(hg)[0] == rowgen_rco(hg)[0] == r_co_direct(hg, method="rowgen")[0]


def _rco(hg, method):
    """R_CO by the package ("rowgen") or by the full-row reference LP ("full")."""
    return r_co_direct(hg)[0] if method == "rowgen" else reference_rco(hg)[0]


def _ub(hg, method):
    """UB(Thm 1) by the package ("rowgen") or by the full-row subset reference LP ("full")."""
    if method == "rowgen":
        return upper_bound_theorem1(hg)[0]
    return reference_packing(hg, mmi(hg).value, "full")[0]


# EXAMPLE1's weights are whole, so its integer source has L = 1 and the same weights as ints.
EXAMPLE1_INT, _ = EXAMPLE1.integer_source()


def test_build_rco_lp_row_count():
    cond = subset_weight_table(4, EXAMPLE1_INT.weights)
    # One column, the total rate y, and one row, the sum of the rows of the
    # cells' complements: (|P| - 1) * y >= the entropies of M - C given C.
    # P* = {1,2},{3},{4}.
    cells = (0b0011, 0b0100, 0b1000)
    lp = build_rco_lp(EXAMPLE1_INT.weights, cells)
    assert lp.variables == ["y"]
    assert [(con.coeffs, con.rhs) for con in lp.constraints] == [((2,), cond[0b1100] + cond[0b1011] + cond[0b0111])]
    # The reference keeps those rows one by one, one column per cell.
    per_cell = per_cell_rco_lp(EXAMPLE1_INT.weights, cells)
    assert [(con.coeffs, con.rhs) for con in per_cell.constraints] == [
        ((0, 1, 1), cond[0b1100]), ((1, 0, 1), cond[0b1011]), ((1, 1, 0), cond[0b0111])
    ]
    # Over the singletons the row sums the co-singleton rows that row generation started from.
    singletons = build_rco_lp(EXAMPLE1_INT.weights, (1, 2, 4, 8))
    cosingletons = cosingleton_rco_lp(EXAMPLE1_INT, cond).constraints
    assert singletons.constraints == [Constraint((3,), sum(con.rhs for con in cosingletons))]
    assert per_cell_rco_lp(EXAMPLE1_INT.weights, (1, 2, 4, 8)).constraints == cosingletons
    # The reference writes every row: 2^4 - 2 proper nonempty subsets.
    full = full_rco_lp(EXAMPLE1_INT)
    assert len(full.constraints) == len(proper_subsets(4)) == 14
    assert [con.rhs for con in full.constraints] == [cond[mask] for mask in proper_subsets(4)]


# P* = {1,2},{3},{4}: {1,2} lies inside a cell, and the three other pairs cross P*.
EXAMPLE1_INNER = [mask_of((1, 2))]
EXAMPLE1_FIXED = {mask_of(pair): 1 for pair in ((1, 4), (2, 3), (3, 4))}


def test_build_gamma_lp_shape(monkeypatch):
    # I = 3/2 is n / d = 3 / 2 on the integer source (L = 1).
    lp = build_gamma_lp(EXAMPLE1_INT, EXAMPLE1_INNER, EXAMPLE1_FIXED, 3, 2)
    assert lp.variables == ["x3"]  # one packing entry per edge inside a cell, named by its mask; no rates
    assert lp.objective == [1]
    # The working LP starts from the singletons' row, written times d = 2:
    # every pair meets two cells, and 3 * (4 - 1) = 9 less the crossing
    # pairs' 2 * 1 * 3 = 6 leaves 3.
    (row,) = lp.constraints
    assert row.coeffs == (2,) and row.rhs == 3
    # packing entries carry their weight bounds
    assert lp.upper == [2]
    # That is the LP `upper_bound_theorem1` builds from `mmi`'s P*.
    built = []
    build = skbounds.bounds.build_gamma_lp

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(skbounds.bounds, "build_gamma_lp", recording)
    upper_bound_theorem1(WeightedHypergraph(4, EXAMPLE1.weights))
    assert built == [lp]


def test_gamma_lp_feasibility_witness():
    # The weight of the inner edge meets the row of every partition of the
    # terminals, the working LP's singletons row among them, with the
    # crossing edges at their weights on the right-hand side.  P*'s row is
    # tight at w: it reads 0 >= 0.
    edges, weights = EXAMPLE1_INT.edges, EXAMPLE1_INT.weights
    lp = build_gamma_lp(EXAMPLE1_INT, EXAMPLE1_INNER, EXAMPLE1_FIXED, 3, 2)
    for cells in _raw_partitions(4, min_cells=2):
        coeffs = {e: 2 * (sum(1 for c in cells if c & e) - 1) for e in edges}
        rhs = 3 * (len(cells) - 1) - sum(coeffs[e] * w for e, w in EXAMPLE1_FIXED.items())
        lp.add_constraint([coeffs[e] for e in EXAMPLE1_INNER], rhs)
        if sorted(cells) == [0b0011, 0b0100, 0b1000]:
            assert lp.constraints[-1].coeffs == (0,) and lp.constraints[-1].rhs == 0
    assert len(lp.constraints) == 1 + 14  # the seed row, then Bell(4) - 1 partitions
    for con in lp.constraints:
        assert sum(c * weights[e] for c, e in zip(con.coeffs, EXAMPLE1_INNER)) >= con.rhs


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
        full, _ = reference_packing(hg, mmi(hg).value, "full")
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
    # x is None for R_CO (the entries are the weights) and a packing otherwise.
    entries = hg.weights if x is None else x

    def slack(b):  # rates(B) - weight inside B, by direct sums
        rate = sum((r for i, r in enumerate(rates) if b >> i & 1), F(0))
        return rate - sum((v for e, v in entries.items() if e & ~b == 0), F(0))

    most = min(range(1, hg.full_mask), key=lambda b: (slack(b), b))
    brute = most if slack(most) < 0 else None
    found = separation_oracle(entries, rates)
    assert found == brute
    if expected is not ...:
        assert found == expected


def test_rco_builds_the_conditional_table_once(monkeypatch):
    # The m = 10 ladder source, whose R_CO row generation in
    # `tests/reference_rco.py` takes 6 rounds.  The seed LP and the oracle
    # read the one cond table of the solve; no round builds another.
    hg = cycle_plus_edges(random.Random(10), 10)
    builds, rounds = [], []
    table, oracle = skbounds.hypergraph.subset_weight_table, skbounds.bounds.separation_oracle

    def counted_table(*args):
        builds.append(args)
        return table(*args)

    def counted_oracle(*args):
        rounds.append(args)
        return oracle(*args)

    monkeypatch.setattr(reference_rco_module, "subset_weight_table", counted_table)
    monkeypatch.setattr(reference_rco_module, "separation_oracle", counted_oracle)
    rowgen_rco(hg)
    assert len(rounds) >= 3
    assert len(builds) == 1


@pytest.mark.parametrize("m, rounds", [(10, 6), (12, 7), (14, 6)])
def test_rco_rounds_on_the_ladder(m, rounds, monkeypatch):
    # Seeded with the complements of the singletons, R_CO's row generation
    # on the ladder sources calls the separation 6 / 7 / 6 times; seeded
    # with the singletons it took 12 / 11 / 14.
    calls = []
    oracle = skbounds.bounds.separation_oracle

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(reference_rco_module, "separation_oracle", counted)
    rowgen_rco(cycle_plus_edges(random.Random(m), m))
    assert len(calls) == rounds


def _counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("m", [10, 12, 14])
def test_rco_builds_one_table_runs_one_sweep_and_one_solve(m, monkeypatch):
    # The greedy point of one `dinkelbach`, read from `fundamental`, is
    # proved optimal by one check of every subset row and one solve of the
    # relaxation; no row generation, and the check builds no list table.
    calls = []
    _counted(monkeypatch, skbounds.flow, "dinkelbach", calls)
    for name in ("fundamental", "subset_weight_table", "separation_oracle", "solve"):
        _counted(monkeypatch, skbounds.bounds, name, calls)

    def forbidden(*args, **kwargs):
        raise AssertionError("R_CO ran row generation")

    monkeypatch.setattr(skbounds.bounds, "solve_with_row_generation", forbidden)
    r_co_direct(cycle_plus_edges(random.Random(m), m))
    assert calls == ["fundamental", "dinkelbach", "separation_oracle", "solve"]


def test_r_co_on_a_run_the_rows_decided_builds_no_second_table(monkeypatch, table_calls):
    # A Type-S source whose singletons' rate rows decide its run: those rows
    # are R_CO's check of every subset row, on the same ints, so `fundamental`
    # and `r_co_direct` build one 2^m table between them, not two.  With the
    # rows step off, the truncation's run keeps the same table, which
    # `separation_oracle` reads, and R_CO and its rate point are the same.
    hg = type_s_source(random.Random(3), 8)
    run = fundamental(hg)
    result = r_co_direct(hg)
    assert run.rows is not None and table_calls == [("packed_table", 8)]
    table_calls.clear()
    monkeypatch.setattr(skbounds.flow, "_singleton_rows", lambda *args: None)
    again = WeightedHypergraph(hg.m, dict(hg.weights))
    assert r_co_direct(again) == result and fundamental(again).rows is None
    assert table_calls == [("packed_table", 8)]
    assert result[0] == reference_rco(hg)[0]


def test_r_co_on_a_split_start_reads_the_table_its_run_kept(kernel_calls):
    # The ladder at m = 10 starts at a split {v} | M - v, and 2^m <= 8 m |E|:
    # `dinkelbach` builds the source's table once, every truncation step
    # reads it with no cut, and R_CO's check of every subset row reads it
    # times d.
    hg = cycle_plus_edges(random.Random(10), 10)
    run = fundamental(hg)
    assert (run.rows, run.table[0]) == (None, 16)
    assert r_co_direct(hg)[0] == reference_rco(hg)[0]
    assert kernel_calls == [("packed_table", 10), ("rate_rows", 10)]


def test_a_failed_singletons_start_builds_one_table_for_the_run_and_r_co(kernel_calls):
    # An m = 10 ladder source that starts at the singletons: their rows
    # fail, and the same table serves the truncations, whose steps all read
    # it with no cut, and R_CO's check.  No reader writes into the run: it
    # keeps its table, and a second R_CO reads it again.
    hg = cycle_plus_edges(random.Random(22), 10)
    run = fundamental(hg)
    table = run.table
    assert r_co_direct(hg)[0] == reference_rco(hg)[0]
    assert kernel_calls == [("packed_table", 10), ("rate_rows", 10), ("rate_rows", 10)]
    assert run.table is table is not None and fundamental(hg) is run
    assert r_co_direct(hg)[0] == reference_rco(hg)[0]
    assert kernel_calls[3:] == [("rate_rows", 10)]


def test_run_checks_reads_the_table_r_co_read(kernel_calls):
    # A dense source at m = 12 whose truncations decide its run: R_CO's
    # check reads the run's table times d, and so does `run_checks` times
    # its own denominator, so neither packs a table of its own.
    rng, weights = random.Random(12), {}
    while len(weights) < 80:
        mask = rng.randrange(1, 1 << 12)
        if mask & (mask - 1):
            weights[mask] = F(rng.randint(1, 9), rng.randint(1, 3))
    hg = WeightedHypergraph(12, weights)
    run = fundamental(hg)
    assert run.rows is None and run.table is not None and 1 << 12 <= 8 * 12 * len(weights)
    r_co_direct(hg)
    assert kernel_calls.count(("packed_table", 12)) == 1  # the run's own
    report = analyze(hg)
    kernel_calls.clear()
    lines = run_checks(hg, report)
    assert all(line[1] for line in lines)
    assert kernel_calls == [("rate_rows", 12)]


def test_a_dense_source_past_m_13_keeps_its_table(kernel_calls):
    # 2^m <= 8 m |E| at m = 14: a split start builds and keeps the
    # source's table as at any m, every step reads it with no cut, and
    # R_CO's check reads it times d, packing no second table.
    rng, weights = random.Random(0), {}
    while len(weights) < 150:
        mask = rng.randrange(1, 1 << 14)
        if mask & (mask - 1):
            weights[mask] = rng.randint(1, 9)
    hg = WeightedHypergraph(14, weights)
    run = fundamental(hg)
    assert (run.rows, run.table[0]) == (None, 16) and 1 << 14 <= 8 * 14 * len(weights)
    assert r_co_direct(hg)[0] == reference_rco(hg)[0]
    assert kernel_calls == [("packed_table", 14), ("rate_rows", 14)]


def test_a_run_the_rows_decided_keeps_its_table_for_run_checks(kernel_calls):
    # A Type-S source whose singletons' rate rows decide its run: the run
    # keeps the table its guard built, which the rows read, and
    # `run_checks` reads it times its own denominator, packing none.
    hg = type_s_source(random.Random(3), 8)
    report = analyze(hg)
    run = fundamental(hg)
    assert run.rows is not None and run.table is not None
    kernel_calls.clear()
    assert all(line[1] for line in run_checks(hg, report))
    assert kernel_calls == [("rate_rows", 8)]


def test_the_ladder_at_m_16_keeps_no_table(kernel_calls):
    # 2^m > 8 m |E|: no table is kept, every step cuts, and R_CO's check
    # builds its own table, the same calls as with no table step.
    hg = cycle_plus_edges(random.Random(16), 16)
    assert fundamental(hg).table is None
    r_co_direct(hg)
    cuts = [("bipartite_cut", k) for k in (1, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15)]
    assert kernel_calls == [*cuts, ("packed_table", 16), ("rate_rows", 16)]


def test_ub_reads_one_packed_table_per_round_where_the_guard_passes(kernel_calls, monkeypatch):
    # ladder6.hg (m = 6, 9 edges), as `corpus` sizes go: each of UB's three
    # rounds truncates its point off one packed table, with no cut.  The
    # ladder at m = 16 is sparse, 2^m > 8 m |E|: its rounds build no
    # table, and their steps cut.
    rounds = []
    truncate = skbounds.bounds.truncation

    def counting(m, weights, n, d, table=None):
        rounds.append(table is not None)
        return truncate(m, weights, n, d, table)

    monkeypatch.setattr(skbounds.bounds, "truncation", counting)
    monkeypatch.setattr(skbounds.partitions, "PARTITION_CAP", 16)  # UB certifies I by `mmi`
    for hg in (parse_document(fixture_text("ladder6.hg")), cycle_plus_edges(random.Random(16), 16)):
        mmi(hg)
        rounds.clear()
        kernel_calls.clear()
        upper_bound_theorem1(hg)
        if hg.m == 6:
            assert rounds == [True] * 3
            assert kernel_calls == [("packed_table", 6)] * 3
        else:
            assert rounds and not any(rounds)
            assert kernel_calls and all(name == "bipartite_cut" for name, _ in kernel_calls)


def _with_greedy_point(monkeypatch, change):
    """`bounds.fundamental` with its run's (L * I, P*, xs, d) passed through `change`.

    The kept run is wrapped, not changed, so the module's fixtures keep theirs.
    The changed run carries no `rows`: a run's rows are the check of its
    own rate point, which the change moves.
    """
    exact = skbounds.bounds.fundamental

    def changed(hg):
        run = exact(hg)
        n, cells, xs, d = change(run.n, run.cells, run.xs, run.d)
        return dataclasses.replace(run, n=n, cells=cells, xs=xs, d=d, rows=None)

    monkeypatch.setattr(skbounds.bounds, "fundamental", changed)


@pytest.mark.parametrize("i", range(4))
def test_a_greedy_rate_lowered_by_one_over_l_is_an_internal_error(i, monkeypatch):
    # Each rate lies on a tight row: the complement of a cell of P* that
    # does not hold it.  Lowered by 1/L (d in xs over d), it misses that row.
    hg = WeightedHypergraph(4, {e: w / 3 for e, w in EXAMPLE1.weights.items()})

    def lowered(value, cells, xs, d):
        return value, cells, tuple(x - d * (j == i) for j, x in enumerate(xs)), d

    _with_greedy_point(monkeypatch, lowered)
    with pytest.raises(skbounds.InternalInvariantError, match="greedy rate point misses the subset row of"):
        r_co_direct(hg)


def test_a_relaxation_from_a_wrong_partition_is_an_internal_error(monkeypatch):
    # The singletons' relaxation of Example 1 has optimum 10/3, below
    # R_CO = 7/2, so it proves nothing about the (right) rate point.  Every
    # minimizer's relaxation reaches 7/2.
    for cells in mmi(EXAMPLE1).minimizer_cells:
        with monkeypatch.context() as patch:
            _with_greedy_point(patch, lambda value, _, xs, d: (value, cells, xs, d))
            assert r_co_direct(EXAMPLE1)[0] == F(7, 2)
    _with_greedy_point(monkeypatch, lambda value, _, xs, d: (value, (1, 2, 4, 8), xs, d))
    message = "the relaxation over P*'s cells has optimum 10/3, not the rate point's sum 7/2"
    with pytest.raises(skbounds.InternalInvariantError, match=re.escape(message)):
        r_co_direct(EXAMPLE1)


def _rco_sources():
    """The fixtures and the ladder at m = 2..12."""
    sources = [parse_document(fixture_text(path.name)) for path in sorted(FIXTURE_DIR.glob("*.hg"))]
    return sources + [cycle_plus_edges(random.Random(m), m) for m in range(2, 13)]


def test_every_rate_point_sums_to_r_co_and_meets_every_subset_row(identity_corpus, graphical_corpus):
    # The `Fraction` sweep of `tests/reference_separation.py` over all
    # 2^m - 2 rows, on the fixtures, both corpora and the ladder.
    sources = _rco_sources() + identity_corpus + graphical_corpus
    for hg in sources:
        value, point = r_co_direct(hg)
        assert sum(point.rates) == value == hg.total_entropy - mmi(hg).value, hg
        cond = subset_weight_table(hg.m, hg.weights)
        assert reference_separation(hg.m, cond, point.rates) is None, hg
    assert len(sources) == 6 + 11 + IDENTITY_CORPUS_SIZE + GRAPHICAL_CORPUS_SIZE


def test_analysis_tables_are_packed_and_match_the_list_transform(identity_corpus, graphical_corpus, monkeypatch):
    # Every table `analyze` and `run_checks` build on the fixtures, both
    # corpora and the ladder holds non-negative ints with a total below
    # 2^64, so none falls back to the list transform; each list equals it.
    # The rate point's two checks, R_CO's and run_checks', and the check of
    # UB's last round that certifies x* run on packed ints and unpack no
    # table.  R_CO's and run_checks' build none where the run kept its
    # source's table: every kept table here is wide enough for both, and
    # the run still holds it after `analyze`.
    list_table, unpacked_table = skbounds.hypergraph._list_table, skbounds.hypergraph._packed_table
    rows_table = skbounds.bounds.packed_table
    unpacked, checks = 0, 0

    def no_fallback(m, entries):
        raise AssertionError(f"the list transform ran on {dict(entries)}")

    def checked(m, entries, width):
        nonlocal unpacked
        unpacked += 1
        table = unpacked_table(m, entries, width)
        assert table == list_table(m, entries)
        return table

    def counted(m, entries, width):
        nonlocal checks
        checks += 1
        return rows_table(m, entries, width)

    monkeypatch.setattr(skbounds.hypergraph, "_list_table", no_fallback)
    monkeypatch.setattr(skbounds.hypergraph, "_packed_table", checked)
    monkeypatch.setattr(skbounds.bounds, "packed_table", counted)
    sources = _rco_sources() + identity_corpus + graphical_corpus
    decided = kept = 0  # runs the singletons' rate rows decided, and runs that kept a table
    for hg in sources:
        hg = WeightedHypergraph(hg.m, dict(hg.weights))  # keeps no run or mmi result yet
        decided += fundamental(hg).rows is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # graph-plus-singleton sources warn
            report = analyze(hg)
        kept += fundamental(hg).table is not None
        run_checks(hg, report)
    assert (decided, kept) == (23, 202)
    # R_CO's, UB's certificate of x* and run_checks': a kept table serves the first and the last.
    assert checks == 3 * len(sources) - 2 * kept
    assert unpacked > len(sources) // 2  # mmi's union tables, wherever I > 0


def test_r_co_builds_no_list_table_on_int_sources(identity_corpus, graphical_corpus, monkeypatch):
    # With both list forms of the table patched to raise, R_CO still runs
    # on every fixture, both corpora and the ladder: its check of every
    # subset row stays on packed ints.
    def no_list(*args):
        raise AssertionError("R_CO built a list of 2^m entries")

    sources = _rco_sources() + identity_corpus + graphical_corpus
    expected = [r_co_direct(hg) for hg in sources]
    monkeypatch.setattr(skbounds.hypergraph, "_list_table", no_list)
    monkeypatch.setattr(skbounds.hypergraph, "_packed_table", no_list)
    for hg, result in zip(sources, expected):
        assert r_co_direct(WeightedHypergraph(hg.m, dict(hg.weights))) == result, hg


def _no_list_sweep(*args):
    raise AssertionError("the check fell back to the list sweep")


def test_the_packed_check_passes_every_greedy_point_without_the_list_sweep(
    identity_corpus, graphical_corpus, monkeypatch
):
    # On the fixtures, both corpora and the ladder at m = 2..12 the greedy
    # point's ints meet every row, as the `Fraction` sweep finds, and the
    # packed check alone shows it.
    monkeypatch.setattr(skbounds.bounds, "subset_weight_table", _no_list_sweep)
    for hg in _rco_sources() + identity_corpus + graphical_corpus:
        run = fundamental(hg)
        entries = {e: w * run.d for e, w in run.src.weights.items()}
        assert reference_separation(hg.m, subset_weight_table(hg.m, entries), run.xs) is None, hg
        assert separation_oracle(entries, run.xs) is None, hg


def test_a_greedy_rate_moved_by_one_is_checked_like_the_fraction_sweep(
    identity_corpus, graphical_corpus, monkeypatch
):
    # Every single rate of the greedy point at m <= 8, moved by -1 or +1 in
    # its ints: the check names the row the `Fraction` sweep names.  Each
    # rate lies on a tight row, so every lowered one misses a row, and
    # r_co_direct names it with both sides, as before the packed check.
    sources = [hg for hg in _rco_sources() if hg.m <= 8] + identity_corpus + graphical_corpus
    for hg in sources:
        run = fundamental(hg)
        src, scale, xs, d = run.src, run.scale, run.xs, run.d
        entries = {e: w * d for e, w in src.weights.items()}
        table = subset_weight_table(hg.m, entries)
        for i in range(hg.m):
            for step in (-1, 1):
                moved = tuple(x + step * (j == i) for j, x in enumerate(xs))
                mask = reference_separation(hg.m, table, moved)
                assert separation_oracle(entries, moved) == mask, (hg, i, step)
                if step > 0:
                    continue
                have = sum(x for j, x in enumerate(moved) if mask >> j & 1)
                message = (
                    f"the greedy rate point misses the subset row of {format_subset(mask)}:"
                    f" {F(have, d * scale)} vs {F(table[mask], d * scale)}"
                )
                with monkeypatch.context() as patch:
                    _with_greedy_point(patch, lambda value, cells, _, d: (value, cells, moved, d))
                    with pytest.raises(skbounds.InternalInvariantError) as raised:
                        r_co_direct(hg)
                assert str(raised.value) == message


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_the_packed_check_at_the_edge_of_each_field_width(width, monkeypatch):
    # Fields of W bits hold totals up to 2^(W - 1) - 1 with the bit of
    # headroom; a total of 2^(W - 1) takes the next width, or the list sweep
    # past 64 bits.  Rows that hold with equality, and rows missed by one
    # next to full fields, are found as the `Fraction` sweep finds them.
    widths = []
    packed = skbounds.bounds.packed_table

    def recorded(m, entries, w):
        widths.append(w)
        return packed(m, entries, w)

    monkeypatch.setattr(skbounds.bounds, "packed_table", recorded)
    for top in (2 ** (width - 1) - 1, 2 ** (width - 1)):
        cases = [
            # H = top: the edge {1,2} of weight top - 1 and the singleton {3}.
            ({0b011: top - 1, 0b100: 1}, (top - 1, 0, 1), None),
            ({0b011: top - 1, 0b100: 1}, (0, top - 1, 1), None),
            ({0b011: top - 1, 0b100: 1}, (top - 2, 0, 2), 0b011),
            ({0b011: top - 1, 0b100: 1}, (top, 0, 0), 0b100),
            # The rates sum to top over the edge {2,3} of weight 2.
            ({0b110: 2}, (top - 2, 1, 1), None),
            ({0b110: 2}, (top - 1, 1, 0), 0b110),
        ]
        for entries, rates, expected in cases:
            widths.clear()
            assert reference_separation(3, subset_weight_table(3, entries), rates) == expected
            assert separation_oracle(entries, rates) == expected, (top, rates)
            if top < 2 ** (width - 1):
                assert widths == [width]
            else:
                assert widths == ([] if width == 64 else [2 * width])


def test_negative_and_fraction_values_go_to_the_list_sweep():
    # Int rates with some negative, the same rates over 1, 2 or 3, and
    # `Fraction` weights: the check names the row the `Fraction` sweep
    # names, through the packed check when every value is an int >= 0.
    rng = random.Random("packed-or-list")
    for m in range(2, 7):
        hg = random_hypergraph(rng, m)
        src, _ = hg.integer_source()
        tables = {id(src): subset_weight_table(m, src.weights), id(hg): subset_weight_table(m, hg.weights)}
        for _ in range(20):
            ints = [rng.randint(-3, 12) for _ in range(m)]
            for rates in (ints, [F(r, rng.choice((1, 2, 3))) for r in ints]):
                for source in (src, hg):
                    expected = reference_separation(m, tables[id(source)], rates)
                    assert separation_oracle(source.weights, rates) == expected, (hg, rates)


def test_one_terminal_has_no_subset_row():
    # No subset of one terminal is both nonempty and proper, on either path.
    assert separation_oracle({1: 5}, [3]) is None
    assert separation_oracle({1: F(5)}, [F(3)]) is None
    assert separation_oracle({1: 5}, [-3]) is None


def test_r_co_equals_the_full_row_lp_on_a_random_set():
    rng = random.Random("rco-random")
    families = (random_hypergraph, random_graph, cycle_plus_edges)
    for i in range(300):
        hg = families[i % 3](rng, rng.randint(2, 7))
        assert r_co_direct(hg)[0] == reference_rco(hg)[0], i


@pytest.mark.parametrize("entry", [analyze, r_co_direct, upper_bound_theorem1])
def test_an_unknown_row_method_fails_before_any_work(entry, monkeypatch):
    # An m = 12 source takes about a second to scan; the method is checked
    # before that, so the scan must not run at all.
    def no_scan(*args, **kwargs):
        raise AssertionError("the partition scan ran before the method was checked")

    monkeypatch.setattr(skbounds.bounds, "mmi", no_scan)
    monkeypatch.setattr(skbounds.bounds, "fundamental", no_scan)
    monkeypatch.setattr(skbounds.flow, "dinkelbach", no_scan)
    # "full" named the full-row path, which is gone from the package.
    for method in ("bogus", "full"):
        with pytest.raises(ValueError, match="unknown method"):
            entry(cycle_plus_edges(random.Random(12), 12), method=method)


@pytest.mark.parametrize("m", range(2, 10))
def test_the_default_row_method_is_row_generation_at_every_m(m):
    # No size rule: the default solves both LPs by row generation, so it
    # reports exactly what method="rowgen" reports, x* and rate point included.
    hg = cycle_plus_edges(random.Random(m), m)
    report = analyze(hg)
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


def test_analyze_scales_the_input_once(monkeypatch):
    # `mmi`, `r_co_direct` and `upper_bound_theorem1` each read the input's
    # integer source, which the run `flow.fundamental` keeps holds, and the
    # Gamma check reads UB's last round: no reduced source is scaled.
    built = []

    def counting(values):
        values = list(values)
        built.append(values)
        return to_integers(values)

    monkeypatch.setattr(skbounds.hypergraph, "to_integers", counting)
    hg = cycle_plus_edges(random.Random(7), 7)
    hg = WeightedHypergraph(7, {e: w / 3 for e, w in hg.weights.items()})
    analyze(hg)
    assert built == [list(hg.weights.values())]


def _count_dinkelbach(monkeypatch) -> list:
    """The integer sources `flow.dinkelbach` runs on, in order."""
    calls = []
    run = skbounds.flow.dinkelbach

    def counting(src, *args):
        calls.append(src)
        return run(src, *args)

    monkeypatch.setattr(skbounds.flow, "dinkelbach", counting)
    return calls


def test_analyze_runs_dinkelbach_once_on_the_input(monkeypatch):
    # `mmi`, `r_co_direct` and UB read one kept run on the input, and the
    # Gamma and Type S lines read UB's last round: on every fixture
    # `analyze` runs one Dinkelbach, builds no hypergraph but the integer
    # source, which skips `__post_init__`, and restricts no source.
    calls = _count_dinkelbach(monkeypatch)
    built = []
    init = WeightedHypergraph.__post_init__

    def counting_init(self):
        built.append(self.m)
        init(self)

    def no_restrict(self, packing):
        raise AssertionError("analyze built the reduced source")

    for path in sorted(FIXTURE_DIR.glob("*.hg")):
        calls.clear()
        hg = parse_document(fixture_text(path.name))
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            patch.setattr(WeightedHypergraph, "__post_init__", counting_init)
            patch.setattr(WeightedHypergraph, "restrict", no_restrict)
            analyze(hg)
        assert calls == [hg.integer_source()[0]], path.name
        assert calls[0] is skbounds.flow.fundamental(hg).src
        assert built == [], path.name


def test_ub_after_mmi_builds_no_hypergraph(monkeypatch):
    # UB reads the integer source and L * I from the run `mmi` kept, and each
    # oracle round hands `flow.truncation` the point as ints: no round
    # builds a `WeightedHypergraph`.  ladder6's LP takes two cuts.
    hg = parse_document(fixture_text("ladder6.hg"))
    mmi(hg)
    built, rounds = [], []
    init, truncate = WeightedHypergraph.__post_init__, skbounds.bounds.truncation

    def counting_init(self):
        built.append(self.m)
        init(self)

    def counting_truncation(*args):
        rounds.append(args)
        return truncate(*args)

    monkeypatch.setattr(WeightedHypergraph, "__post_init__", counting_init)
    monkeypatch.setattr(skbounds.bounds, "truncation", counting_truncation)
    assert upper_bound_theorem1(hg)[0] == 12
    assert built == []
    assert len(rounds) == 3


def test_a_faulty_ub_oracle_raises_at_once(monkeypatch):
    # A truncation that sees every weight of the point lowered by 1 returns,
    # from the third round on here, rows the point already meets.  Row
    # generation names the first one at once; it used to re-add it until
    # the Bell(9) - 1 = 21,146 round cap.
    hg = cycle_plus_edges(random.Random(9), 9)
    mmi(hg)
    rounds = []
    truncate = skbounds.bounds.truncation

    def lowered(m, weights, n, d, table=None):
        # A table of the point as given would bypass the fault: build it from the lowered weights.
        rounds.append(n)
        low = {e: max(w - 1, 0) for e, w in weights.items()}
        return truncate(m, low, n, d, table and subset_weight_table(m, low))

    monkeypatch.setattr(skbounds.bounds, "truncation", lowered)
    with pytest.raises(skbounds.InternalInvariantError, match=r"returned the row .* which the point already meets"):
        upper_bound_theorem1(hg)
    assert len(rounds) == 3


def test_mmi_then_r_co_direct_runs_one_dinkelbach(monkeypatch):
    calls = _count_dinkelbach(monkeypatch)
    hg = parse_document(fixture_text("example1.hg"))
    mmi(hg)
    r_co_direct(hg)
    assert calls == [hg.integer_source()[0]]
    # The Gamma check reuses the input's run and truncates the reduced source once.
    assert verify_gamma_membership(hg, hg.weights)
    assert not verify_gamma_membership(hg, {**hg.weights, mask_of((1, 2)): F(1)})
    assert len(calls) == 1


def test_an_analyzed_hypergraph_equals_a_fresh_parse():
    # The values kept on a hypergraph are not fields: equality still reads m and the weights.
    text = fixture_text("example1.hg")
    hg = parse_document(text)
    assert analyze(hg).mmi is mmi(hg)  # the certified `mmi` result is kept too
    assert hg == parse_document(text)
    assert repr(hg) == repr(parse_document(text))


GAMMA = "x* preserves capacity (Gamma membership)"
TYPE_S = "reduced source is Type S"
NO_CERTIFICATE = "no certificate from UB's last round"


def _no_rerun(patch) -> None:
    """Make building a reduced source and running `flow.dinkelbach` raise: a broken report is
    judged by its certificate alone."""
    patch.setattr(WeightedHypergraph, "restrict", _no_reduced_source)
    patch.setattr(skbounds.flow, "dinkelbach", _no_reduced_source)


def _failed_lines(hg, report):
    """The Gamma and Type S lines (None off graphs) of a report whose x* UB's round does not certify."""
    capacity = report.mmi.value
    return (False, NO_CERTIFICATE, capacity), None if report.graphical is None else (False, NO_CERTIFICATE, hg.m)


def _judged_on_the_certificate(hg, report, monkeypatch):
    """Assert that `report` fails both lines on the certificate, with no reduced source and no
    Dinkelbach run, and that `run_checks` reads it with neither too."""
    with monkeypatch.context() as patch:
        _no_rerun(patch)
        assert skbounds.bounds._certified_round(hg, report.x_star) is None, hg
        assert _lines(hg, report) == _failed_lines(hg, report), hg
        assert run_checks(hg, report)[1][1], hg  # the rate point, unchanged


@pytest.mark.parametrize("m", [8, 10])
def test_gamma_check_reports_the_reduced_capacity(m, monkeypatch):
    # x* halved on one positive entry leaves Gamma (x* is LP-optimal over
    # it): the reduced capacity, by the integer scan made here as the
    # oracle, is below I, and the Gamma check (`verify_gamma_membership`)
    # rejects it.  UB's round is not of that packing: the report's Gamma
    # line fails on the certificate.
    hg = cycle_plus_edges(random.Random(m), m)
    report = analyze(hg)
    capacity = report.mmi.value
    for e, x in report.x_star.entries.items():
        if x > 0:
            entries = {**report.x_star.entries, e: x / 2}
            assert integer_scan(hg.restrict(entries)).value < capacity
            assert not verify_gamma_membership(hg, entries)
            broken = dataclasses.replace(report, x_star=dataclasses.replace(report.x_star, entries=entries))
            _judged_on_the_certificate(hg, broken, monkeypatch)


def test_only_the_reports_own_round_certifies_the_gamma_and_type_s_lines(monkeypatch):
    # Packings x_e = w_e * k / 4 with k in 0..4, in Gamma and out of it:
    # verify_gamma_membership holds exactly when the reduced source's
    # capacity is I, by the `Fraction` scan made here as the oracle, and it
    # runs no Dinkelbach: one truncation and its check.  None carries its
    # own round, so both lines of the report fail on the certificate, the
    # packings in Gamma too.
    calls = _count_dinkelbach(monkeypatch)
    rng = random.Random("reduced-capacity")
    inside = outside = type_s_lines = 0
    for family in ("hypergraph", "graph", "cycle", "type_s", "tie"):
        for m in range(2, 8):
            hg = FAMILIES[family](rng, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # graph-plus-singleton sources warn
                report = analyze(hg)
            capacity = report.mmi.value
            for _ in range(36):
                entries = {e: w * rng.randint(0, 4) / 4 for e, w in hg.weights.items()}
                kept = reference_mmi(hg.restrict(entries)).value == capacity
                runs = len(calls)
                assert verify_gamma_membership(hg, entries) == kept, (family, m, entries)
                assert len(calls) == runs
                if entries == report.x_star.entries:
                    continue  # the report's own x*, which its round certifies
                broken = dataclasses.replace(report, x_star=dataclasses.replace(report.x_star, entries=entries))
                with monkeypatch.context() as patch:
                    _no_rerun(patch)
                    assert _lines(hg, broken) == _failed_lines(hg, broken), (family, m, entries)
                type_s_lines += report.graphical is not None
                inside += kept
                outside += not kept
    assert outside >= 500 and inside >= 200 and type_s_lines >= 300, (outside, inside, type_s_lines)


def _lines(hg, report):
    """The Gamma line and the Type S line (None off graphs) that `_report_checks` prints."""
    checks = {c[0]: c[1:] for c in _report_checks(hg, report)}
    return checks[GAMMA], checks.get(TYPE_S)


def _reduced_lines(hg, report):
    """The same two lines from the reduced source's own Dinkelbach run (`tests/reference_gamma.py`)."""
    kept, size = reduced_source_lines(hg, report.x_star.entries)
    capacity = report.mmi.value
    return (kept == capacity, kept, capacity), None if report.graphical is None else (size == hg.m, size, hg.m)


def _no_reduced_source(*args):
    raise AssertionError("the Gamma line fell back to the reduced source")


def _analyzed(hg):
    """A fresh copy of `hg`, which keeps no run, analyzed: (copy, report)."""
    hg = WeightedHypergraph(hg.m, dict(hg.weights))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # graph-plus-singleton sources warn
        return hg, analyze(hg)


def test_the_certified_gamma_and_type_s_lines_equal_the_reduced_source(identity_corpus, graphical_corpus, monkeypatch):
    # On the fixtures, both corpora and the ladder at m = 2..12, UB's last
    # round certifies x* with no reduced source, and both lines read what
    # the reduced source's own Dinkelbach run gives.
    type_s = 0
    for hg, report in map(_analyzed, _rco_sources() + identity_corpus + graphical_corpus):
        expected = _reduced_lines(hg, report)
        with monkeypatch.context() as patch:
            patch.setattr(WeightedHypergraph, "restrict", _no_reduced_source)
            assert _lines(hg, report) == expected, hg
        type_s += report.graphical is not None
    assert type_s >= 100


def _sum_kept(round_, i, step):
    point, den, cells, ys = round_
    return point, den, cells, (*ys[:i], ys[i] + step, *ys[i + 1:])


def _below_zero(round_):
    # The sum stays, so only the subset rows can catch it: y_1 < 0 misses
    # the row of {1}, whose entropy given the rest is >= 0.
    point, den, cells, ys = round_
    return point, den, cells, (-1, ys[1] + ys[0] + 1, *ys[2:])


def _point_moved(round_, step):
    point, den, cells, ys = round_
    e = next(iter(point))
    return {**point, e: point[e] + step}, den, cells, ys


ROUND_MUTATIONS = {
    "ys-up": lambda r: [_sum_kept(r, i, 1) for i in range(len(r[3]))],
    "ys-down": lambda r: [_sum_kept(r, i, -1) for i in range(len(r[3]))],
    "ys-below-zero": lambda r: [_below_zero(r)],
    "point-up": lambda r: [_point_moved(r, 1)],
    "point-down": lambda r: [_point_moved(r, -1)],
}


@pytest.mark.parametrize("mutation", list(ROUND_MUTATIONS))
def test_a_broken_round_fails_the_gamma_and_type_s_lines(mutation, identity_corpus, monkeypatch):
    # Each entry of the greedy point moved by 1, a point below zero that
    # keeps the sum, and a point entry off by one: the round no longer
    # certifies x*, and both lines fail on the certificate, though x* is
    # the report's own and in Gamma.
    checked = 0
    for hg, report in map(_analyzed, _rco_sources() + identity_corpus[:60]):
        kept = report.x_star.last_round
        if mutation.startswith("point") and not kept[0]:
            continue  # no edge with more than one vertex
        for broken in ROUND_MUTATIONS[mutation](kept):
            x_star = dataclasses.replace(report.x_star, last_round=broken)
            _judged_on_the_certificate(hg, dataclasses.replace(report, x_star=x_star), monkeypatch)
            checked += 1
    assert checked >= 70


def test_a_round_from_another_packing_fails_the_gamma_and_type_s_lines(identity_corpus, monkeypatch):
    # The report's x* replaced by w, which is in Gamma, and by w with one
    # singleton edge kept at its weight, which UB sets to 0: each carries
    # the report's round, which is of another x*, so both lines fail on the
    # certificate.  Only the report's own x* passes.
    singletons = 0
    for hg, report in map(_analyzed, _rco_sources() + identity_corpus):
        packings = [dict(hg.weights)]
        assert verify_gamma_membership(hg, packings[0])
        for e, w in hg.weights.items():
            if not e & (e - 1):
                packings.append({**report.x_star.entries, e: w})
                singletons += 1
                break
        for entries in packings:
            x_star = dataclasses.replace(report.x_star, entries=entries)  # the round of the report's x*
            other = dataclasses.replace(report, x_star=x_star)
            if entries == report.x_star.entries:  # UB's x* is w: its own round certifies it
                assert _lines(hg, other) == _reduced_lines(hg, other), (hg, entries)
            else:
                _judged_on_the_certificate(hg, other, monkeypatch)
    assert singletons >= 50


def test_a_report_whose_x_star_is_w_fails_on_the_certificate(monkeypatch):
    # x* = w keeps I, so it is in Gamma, but on the ladder at m = 6 UB's
    # LP lowers some edge: the report's round is not of w, and `analyze`
    # raises on the Gamma line, naming the certificate.
    hg, report = _analyzed(cycle_plus_edges(random.Random(6), 6))
    assert report.x_star.entries != dict(hg.weights) and verify_gamma_membership(hg, hg.weights)
    exact = skbounds.bounds.upper_bound_theorem1

    def w_with_its_round(hg, *, method="auto"):
        bound, packing = exact(hg, method=method)
        total = sum(hg.weights.values())
        return bound + total - sum(packing.entries.values()), dataclasses.replace(packing, entries=dict(hg.weights))

    again = WeightedHypergraph(hg.m, dict(hg.weights))
    with monkeypatch.context() as patch:
        patch.setattr(skbounds.bounds, "upper_bound_theorem1", w_with_its_round)
        with pytest.raises(skbounds.InternalInvariantError) as raised:
            analyze(again)
    assert str(raised.value) == f"{GAMMA}: {NO_CERTIFICATE} vs {report.mmi.value}"


def test_a_packing_missing_an_edge_or_above_w_fails_on_the_certificate(monkeypatch):
    # x* with one edge left out, which UB's round matches on every other
    # edge; and a round whose point, which x* matches, is above w on one
    # edge: its greedy point passes, as more weight keeps I, but it is not
    # in Gamma.  Neither certifies its x*, and both fail on the certificate
    # with no reduced source built.
    hg, report = _analyzed(EXAMPLE1)
    run = fundamental(hg)
    src, n, d = run.src, run.n, run.d
    e = next(iter(src.weights))
    missing = dataclasses.replace(report.x_star, entries={f: x for f, x in report.x_star.entries.items() if f != e})
    _judged_on_the_certificate(hg, dataclasses.replace(report, x_star=missing), monkeypatch)
    point = {**src.weights, e: 2 * src.weights[e]}
    cells, ys = skbounds.flow.truncation(hg.m, point, n, d)
    assert skbounds.bounds._proves_capacity(point, ys, n, d)
    above = FractionalPacking({f: F(p, run.scale) for f, p in point.items()}, (point, 1, cells, ys))
    _judged_on_the_certificate(hg, dataclasses.replace(report, x_star=above), monkeypatch)


def test_gamma_membership_raises_when_the_certificate_fails(monkeypatch):
    # A truncation whose least sum is the one-cell partition's, but whose
    # greedy point misses a subset row or sums above it, is a fault.
    truncate = skbounds.bounds.truncation
    for broken in (_below_zero, lambda r: _sum_kept(r, 0, 1)):

        def faulty(m, weights, n, d, broken=broken):
            cells, ys = truncate(m, weights, n, d)
            return cells, broken(({}, 0, cells, ys))[3]

        monkeypatch.setattr(skbounds.bounds, "truncation", faulty)
        with pytest.raises(skbounds.InternalInvariantError, match="greedy point does not show it"):
            verify_gamma_membership(EXAMPLE1, EXAMPLE1.weights)


def test_the_relaxation_over_cells_has_the_per_terminal_optimum(identity_corpus, graphical_corpus):
    # The summed row's optimum is exactly H - value(P), from the entropies
    # of the cells, on every partition tried: P* on the fixtures, both
    # corpora, the ladder at m <= 12 and 300 random sources, and the
    # singletons and one random partition on the random ones.  At P* it
    # equals the optima with the rows kept one by one, one column per cell
    # and one per terminal (`tests/reference_rco.py`).  Off P* the summed
    # row is still exact, where the row-by-row LPs may reach the rate sum.
    rng = random.Random("rco-cells")
    families = (random_hypergraph, random_graph, cycle_plus_edges)
    randoms = [families[i % 3](rng, rng.randint(2, 9)) for i in range(300)]
    fixed = _rco_sources() + identity_corpus + graphical_corpus
    for i, hg in enumerate(fixed + randoms):
        run = fundamental(hg)
        entries = {e: w * run.d for e, w in run.src.weights.items()}
        partitions = [run.cells]
        if i >= len(fixed):
            labels = [rng.randrange(hg.m) for _ in range(hg.m)]
            split = [sum(1 << v for v in range(hg.m) if labels[v] == k) for k in set(labels)]
            partitions += [[1 << v for v in range(hg.m)], split][: 1 + (len(split) > 1)]
        total = sum(entries.values())
        for partition in partitions:
            met = sum(sum(w for e, w in entries.items() if e & c) for c in partition)  # the sum of H(C)
            summed = solve(build_rco_lp(entries, partition))
            assert summed.status == OPTIMAL, hg
            assert summed.objective_value == total - Fraction(met - total, len(partition) - 1), (hg, partition)
        per_cell = solve(per_cell_rco_lp(entries, run.cells))
        per_terminal = solve(per_terminal_rco_lp(hg.m, entries, run.cells))
        assert per_cell.status == per_terminal.status == OPTIMAL, hg
        at_star = solve(build_rco_lp(entries, run.cells)).objective_value
        assert at_star == per_cell.objective_value == per_terminal.objective_value == sum(run.xs), hg


def test_analyze_on_a_graph_scans_only_the_input(monkeypatch):
    # `mmi` certifies the input's P* once, for UB and the graph bounds too:
    # it reads the kept run only to build the result it keeps.  The Type S
    # line reads the reduced source's run, not `mmi`.
    hg = random_graph(random.Random(12), 12)
    certified = []
    run = skbounds.partitions.fundamental

    def counting(source):
        certified.append(source)
        return run(source)

    monkeypatch.setattr(skbounds.partitions, "fundamental", counting)
    report = analyze(hg)
    assert certified == [hg]
    ok, size, expected = next(c[1:] for c in _report_checks(hg, report) if "Type S" in c[0])
    assert ok and size == expected == 12


def _document(hg: WeightedHypergraph) -> str:
    lines = [f"edge {' '.join(map(str, vertices_of(e)))} : {format_rational(w)}\n" for e, w in hg.weights.items()]
    return f"m = {hg.m}\n" + "".join(lines)


@pytest.mark.parametrize(
    "text",
    [_document(cycle_plus_edges(random.Random(8), 8)), fixture_text("example2.hg")],
    ids=["ladder-8", "example2"],
)
def test_analyze_certifies_mmi_once_though_each_bound_calls_it(monkeypatch, text):
    hg = parse_document(text)
    calls, certified = [], []
    read, certify = skbounds.bounds.mmi, skbounds.partitions._certified_rows

    def reading(source):
        calls.append(source)
        return read(source)

    def certifying(run, *args):
        certified.append(run.src)
        return certify(run, *args)

    monkeypatch.setattr(skbounds.bounds, "mmi", reading)
    monkeypatch.setattr(skbounds.partitions, "_certified_rows", certifying)
    report = analyze(hg)
    assert report.mmi.value > 0
    # analyze, UB and, on a graph, graphical_bounds each call `mmi`; one certifies.
    assert calls == [hg] * (3 if hg.is_graph else 2)
    assert certified == [hg.integer_source()[0]]
    assert report.mmi is mmi(hg)


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


def test_run_checks_judges_a_replaced_report_on_its_own_values():
    # `dataclasses.replace` copies no verdicts `analyze` kept, so
    # `run_checks` judges the copy's own R_CO and UB, and equality reads
    # no verdicts either.
    hg = parse_document(fixture_text("example1.hg"))
    report = analyze(hg)
    r, u = report.r_co, report.ub_theorem1
    broken = dataclasses.replace(report, r_co=r + 1, ub_theorem1=u + 5)
    assert broken.checks == () and len(report.checks) == 8
    lines = {label: (ok, value) for label, ok, value, _ in run_checks(hg, broken)}
    assert lines["R_CO identity (H - I)"] == (False, r + 1)
    assert lines["UB = x*(E) - I"] == (False, u + 5)
    assert run_checks(hg, dataclasses.replace(report)) == run_checks(hg, report)
    assert dataclasses.replace(report) == report


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
        bounds = graphical_bounds(hg)
        assert bounds.lower_bound == bounds.ci - cross_value


def test_packing_validation():
    # The packing LP's declared bounds keep x* on the edge set and inside [0, w].
    # So do those of the full-row reference.
    full = reference_packing(EXAMPLE1, mmi(EXAMPLE1).value, "full")[1]
    for entries in (upper_bound_theorem1(EXAMPLE1)[1].entries, full):
        assert set(entries) == set(EXAMPLE1.weights)
        assert all(0 <= x <= EXAMPLE1.weights[e] for e, x in entries.items())
    packing = FractionalPacking({mask_of((1, 2)): F(3)})
    with pytest.raises(ValueError):
        EXAMPLE1.restrict(packing.entries)


@pytest.mark.parametrize("method", ["full", "rowgen"])
@pytest.mark.parametrize("c", [F(10**100, 3), F(1, 10**100 + 1)], ids=["huge", "tiny"])
def test_bounds_scale_exactly_with_the_weights(c, method, make_random_hypergraph, make_random_graph):
    # Scaling every weight by c scales I, R_CO and UB(Thm 1) by exactly c, by
    # row generation and by the full-row references alike.
    rng = random.Random(1907)
    sources = [parse_document(fixture_text("example1.hg"))]
    sources += [make_random_hypergraph(rng, m) for m in (3, 4, 5)]
    sources += [make_random_graph(rng, m) for m in (4, 6)]
    for hg in sources:
        scaled = WeightedHypergraph(hg.m, {e: c * w for e, w in hg.weights.items()})
        assert mmi(scaled).value == c * mmi(hg).value
        assert _rco(scaled, method) == c * _rco(hg, method)
        assert _ub(scaled, method) == c * _ub(hg, method)


@pytest.mark.parametrize("method", ["full", "rowgen"])
def test_an_int_source_reports_fractions(method):
    # Int weights are stored as ints, yet every reported value is a Fraction,
    # and so is every value of the full-row references.
    hg = WeightedHypergraph(4, {e: int(w) for e, w in EXAMPLE1.weights.items()})
    assert {type(w) for w in hg.weights.values()} == {int}
    report = analyze(hg)
    rco, rates = report.r_co, report.rates.rates
    ub, packing = report.ub_theorem1, report.x_star.entries
    assert r_co_direct(hg) == (rco, report.rates)
    if method == "full":
        rco, rates = reference_rco(hg)
        ub, packing = reference_packing(hg, report.mmi.value, "full")
    g = report.graphical
    values = [report.entropy_total, report.mmi.value, rco, ub]
    values += [*packing.values(), *rates, g.ub_theorem2, g.lower_bound, g.ci]
    assert {type(v) for v in values} == {Fraction}
    assert (report.mmi.value, rco, ub) == (F(3, 2), F(7, 2), 3)


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
        assert _rco(moved, method) == _rco(hg, method)
        assert _ub(moved, method) == _ub(hg, method)


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
        assert _rco(grown, method) == _rco(hg, method) + w
