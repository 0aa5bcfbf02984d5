"""Rate rows on packed ints: `hypergraph.rate_rows`, `mmi`'s certificate and `dinkelbach`'s first step.

`hypergraph.rate_rows` checks every subset row rates(B) >= table(B) in one
subtraction of packed ints, and `tight_rows` counts the rows that hold
with equality.  `partitions._certified_rows` certifies I and P* on P*'s
rate rows with it, and `tests/reference_certificate.py` keeps the list
form it replaced, every rate and slack a list entry: both must give the
same verdict, message, tight count, slacks, count and listing, on true
runs and on wrong ones.  `flow.dinkelbach` decides a run that starts at
the singletons on their rate rows when a 2^m table costs less than a
truncation; with that step off it must return the same run, and where
the table costs more it builds none.
"""

import dataclasses
import random
from array import array
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skbounds.flow
import skbounds.hypergraph
from skbounds import InternalInvariantError, WeightedHypergraph, mask_of, mmi, r_co_direct
from skbounds.cli import parse_document
from skbounds.flow import Run, dinkelbach, fundamental
from skbounds.hypergraph import pack, packed_table, rate_rows, row_width, tight_rows, unpack
from skbounds.partitions import _certified_rows, _list_coarsenings, _slack

from conftest import FIXTURE_DIR, clustered_source, cycle_plus_edges, random_weight
from reference_certificate import list_count, list_slack
from test_scan_oracle import all_terminal_edge, tie_heavy_source, type_s_source


def _fixtures():
    return [parse_document(path.read_text(encoding="utf-8")) for path in sorted(FIXTURE_DIR.glob("*.hg"))]


def chorded_cycle(rng: random.Random, m: int) -> WeightedHypergraph:
    """A uniform m-cycle plus 1 to 3 light pairs: the start is often the singletons, and P* is not."""
    c = random_weight(rng)
    weights = {mask_of((i, i % m + 1)): c for i in range(1, m + 1)}
    for _ in range(rng.randint(1, 3)):
        e = mask_of(rng.sample(range(1, m + 1), 2))
        weights[e] = weights.get(e, 0) + random_weight(rng) / 4
    return WeightedHypergraph(m, weights)


FAMILIES = {
    "fixtures": _fixtures,
    "ladder": lambda: [cycle_plus_edges(random.Random(m), m) for m in range(2, 13)],
    "type_s": lambda: [type_s_source(random.Random(f"rows/{m}"), m) for m in range(3, 13)],
    "clustered": lambda: [clustered_source(random.Random(f"rows/{m}"), m) for m in range(4, 13)],
    "tie": lambda: [tie_heavy_source(random.Random(f"rows/{m}"), m) for m in range(3, 9)],
    "all-terminal": lambda: [all_terminal_edge(random.Random(m), m) for m in range(3, 9)],
    "chorded": lambda: [chorded_cycle(random.Random(f"rows/{m}"), m) for m in range(3, 13)],
}


def _sources(family, identity_corpus, graphical_corpus):
    if family == "corpora":
        return identity_corpus + graphical_corpus
    return FAMILIES[family]()


def _fresh(hg: WeightedHypergraph) -> WeightedHypergraph:
    return WeightedHypergraph(hg.m, hg.weights)


def _value(src: WeightedHypergraph, cells) -> tuple[int, int]:
    """(n, d) in lowest terms: the value of the partition `cells` of the integer source."""
    def entropy(a):
        return sum(w for e, w in src.weights.items() if e & a)

    n = sum(entropy(c) for c in cells) - entropy(src.full_mask)
    d = len(cells) - 1
    g = gcd(n, d)
    return n // g, d // g


def _packed(run: Run, value):
    """The packed certificate's outcome on `run`: (slacks, tight count), or the error's message."""
    try:
        rows = _certified_rows(run, value)
    except InternalInvariantError as exc:
        return str(exc)
    return _slack(len(run.cells), rows), tight_rows(len(run.cells), *rows)


def _listed(src, units, num, den, value):
    """The list form's outcome, in the same shape."""
    try:
        slack = list_slack(src, units, num, den, value)
    except InternalInvariantError as exc:
        return str(exc)
    return slack, slack.count(0)


def _runs(hg: WeightedHypergraph) -> list[Run]:
    """The true run, with its `rows` if they decided it, and on its integer source, with no
    `rows`, the singletons and two-cell merges at their own values, and I one unit too high."""
    run = fundamental(hg)
    src, units = run.src, run.cells
    runs = []
    singletons = tuple(1 << v for v in range(hg.m))
    runs.append((singletons, *_value(src, singletons)))
    for i in range(min(len(units) - 1, 3)):
        merged = sorted((*units[:i], units[i] | units[i + 1], *units[i + 2:]), key=lambda c: c & -c)
        if len(merged) > 1:
            runs.append((tuple(merged), *_value(src, merged)))
    runs.append((units, run.n + 1, run.d))
    wrong = [dataclasses.replace(run, cells=cells, n=n, d=d, rows=None) for cells, n, d in runs if n > 0]
    return ([run] if run.n else []) + wrong


@pytest.mark.parametrize("family", ["corpora", *FAMILIES])
def test_the_packed_certificate_equals_the_list_form(family, identity_corpus, graphical_corpus):
    outcomes = {"certified": 0, "failed": 0}
    for hg in _sources(family, identity_corpus, graphical_corpus):
        hg = _fresh(hg)  # a shared corpus source may keep an `mmi` result
        result, run = mmi(hg), fundamental(hg)
        if run.n:
            slack = list_slack(run.src, run.cells, run.n, run.d, result.value)
            assert result.minimizer_count == list_count(slack), hg
            assert result.minimizer_cells == tuple(_list_coarsenings(run.cells, slack)), hg
        for run in _runs(hg):
            value = Fraction(run.n, run.d * run.scale)
            packed = _packed(run, value)
            assert packed == _listed(run.src, run.cells, run.n, run.d, value), (hg, run.cells, run.n, run.d)
            outcomes["failed" if isinstance(packed, str) else "certified"] += 1
    # Every tie-heavy source has I = 0, which the rows do not certify.
    assert outcomes["failed"] and bool(outcomes["certified"]) == (family != "tie"), outcomes


@st.composite
def sources_and_partitions(draw):
    m = draw(st.integers(2, 7))
    masks = st.integers(1, (1 << m) - 1)
    weights = draw(st.dictionaries(masks, st.integers(1, 6), min_size=1, max_size=9))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    cells = {}
    for v, label in enumerate(labels):
        cells[label] = cells.get(label, 0) | 1 << v
    return WeightedHypergraph(m, weights), tuple(sorted(cells.values(), key=lambda c: c & -c))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sources_and_partitions())
def test_the_packed_certificate_equals_the_list_form_on_any_partition(case):
    # Any partition with two cells or more at its own value, and at one
    # unit above it: certified, or failed with the same message.
    hg, cells = case
    src = hg.integer_source()[0]
    if len(cells) > 1:
        n, d = _value(src, cells)
        for num in (n, n + 1):
            if num:
                value = Fraction(num, d)
                assert _packed(Run(src, 1, num, cells, (), d), value) == _listed(src, cells, num, d, value)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 6), st.data())
def test_rate_rows_reads_every_row_of_the_brute_force(m, data):
    # Negative rates and wide values included: the field of every B but the
    # full set is rates(B) - table(B) + 2^(W-1), at the width `row_width` picks.
    entries = data.draw(st.dictionaries(st.integers(0, (1 << m) - 1), st.integers(0, 2**70 if m % 2 else 40)))
    rates = data.draw(st.lists(st.integers(-30, 2**68 if m % 3 == 1 else 30), min_size=m, max_size=m))
    total = sum(entries.values())
    table = [sum(w for e, w in entries.items() if not e & ~b) for b in range(1 << m)]
    sums = [sum(r for i, r in enumerate(rates) if b >> i & 1) for b in range(1 << m)]
    width = row_width(total, rates)
    gaps, holds = rate_rows(m, pack(table, width), width, rates)
    fields = list(unpack(gaps, 1 << m, width))[:-1]
    assert fields == [s - t + (1 << width - 1) for s, t in zip(sums, table)][:-1]
    assert holds == all(s >= t for s, t in zip(sums[:-1], table))
    if holds:
        assert tight_rows(m, width, gaps) == sum(s == t for s, t in zip(sums[:-1], table))


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_pack_and_unpack_round_trip_at_every_width(width):
    values = [0, 1, (1 << width) - 1, 1 << width - 1, 5]
    fields = unpack(pack(values, width), len(values), width)
    # Up to 64 bits the truncations index an `array` of the fields, with no list of 2^m ints.
    assert list(fields) == values and isinstance(fields, array) == (width <= 64)
    if width <= 64:
        entries = {0b011: (1 << width - 2) - 1, 0b100: 1}
        table = [sum(w for e, w in entries.items() if not e & ~b) for b in range(8)]
        assert pack(table, width) == packed_table(3, entries, width)


@pytest.mark.parametrize("m", range(1, 15))
def test_the_kept_constants_give_every_kernel_the_plain_sums(m, monkeypatch):
    # `packed_table`, `rate_rows` and `tight_rows` read their masks through
    # `hypergraph._kept`: on the call that builds them, empty kept
    # store first, and on the next, which reads them kept up to m = 13,
    # every result equals the plain sums, at every packed width.  The rates
    # on the tight side are the weight of the edges that hold each vertex,
    # so every row holds and the edges alone make some tight.
    monkeypatch.setattr(skbounds.hypergraph, "_KEPT", {})
    rng = random.Random(f"kept/{m}")
    for width in (8, 16, 32, 64):
        top = (1 << width - 3) // (4 * (m + 1))  # every rate sum and table entry below 2^(W - 3)
        entries = {rng.randrange(1, 1 << m): rng.randint(0, top) for _ in range(4)}
        table = [sum(w for e, w in entries.items() if not e & ~b) for b in range(1 << m)]
        edges = [sum(w for e, w in entries.items() if e >> i & 1) for i in range(m)]
        drawn = [rng.randint(-top, top) for _ in range(m)]
        cases = [(rates, [sum(r for i, r in enumerate(rates) if b >> i & 1) for b in range(1 << m)]) for rates in (edges, drawn)]
        for _ in range(2):
            packed = packed_table(m, entries, width)
            assert list(unpack(packed, 1 << m, width)) == table
            for rates, sums in cases:
                gaps, holds = rate_rows(m, packed, width, rates)
                assert list(unpack(gaps, 1 << m, width))[:-1] == [s - t + (1 << width - 1) for s, t in zip(sums, table)][:-1]
                assert holds == all(s >= t for s, t in zip(sums[:-1], table))
                if holds:
                    assert tight_rows(m, width, gaps) == sum(s == t for s, t in zip(sums[:-1], table))
            assert rate_rows(m, packed, width, edges)[1]
        kept = [key[0].__name__ for key in skbounds.hypergraph._KEPT if key[1:] == (m, width)]
        assert sorted(kept) == (["_fields", "_zeta"] if m <= 13 else [])


def test_the_kept_constants_stop_at_m_13_and_64_bit_fields(monkeypatch):
    # Past m = 13, and at fields wider than 64 bits (`row_width` past
    # 2^63), the constants are built on each call and not kept: R_CO on a
    # dense source at m = 14 and on the ladder at m = 16, and a 128-bit
    # check, keep nothing, and nothing the earlier tests ran kept such a
    # key.  The two values of one (m, W) hold at most (m + 2) * 2^m * W
    # bits of ints, the most at (13, 64).
    kept = skbounds.hypergraph._KEPT  # what the tests so far have kept
    monkeypatch.setattr(skbounds.hypergraph, "_KEPT", {})
    rng, weights = random.Random(0), {}
    while len(weights) < 150:
        mask = rng.randrange(1, 1 << 14)
        if mask & (mask - 1):
            weights[mask] = rng.randint(1, 9)
    for hg in (WeightedHypergraph(14, weights), cycle_plus_edges(random.Random(16), 16)):
        r_co_direct(hg)  # its check of every row builds a table and reads the rate rows at m
    assert rate_rows(3, pack([0] * 8, 128), 128, [1 << 70, 0, 0])[1]
    assert skbounds.hypergraph._KEPT == {}
    assert all(m <= 13 and width <= 64 for _, m, width in kept)
    zeta = skbounds.hypergraph._zeta(13, 64)
    ones, rest, high = skbounds.hypergraph._fields(13, 64)
    bits = sum(x.bit_length() for x in (*[mask for _, mask in zeta], *ones, rest, high))
    assert bits <= (13 + 2) * 2**13 * 64


@pytest.mark.parametrize(
    "total, rates, width",
    [(127, [0, 0], 8), (128, [0, 0], 16), (0, [127], 8), (0, [128], 16), (40, [-47, 40], 8), (40, [-48, 40], 16),
     (2**63 - 2, [1], 64), (2**63 - 1, [1], 128), (2**127, [], 192)],
)
def test_row_width_leaves_the_top_bit_of_each_field_free(total, rates, width):
    assert row_width(total, rates) == width


# dinkelbach's first step.


def _without_rows(monkeypatch):
    monkeypatch.setattr(skbounds.flow, "_singleton_rows", lambda *args: None)


@pytest.mark.parametrize("family", ["corpora", *FAMILIES])
def test_dinkelbach_returns_the_same_run_with_the_rows_step_off(family, identity_corpus, graphical_corpus, monkeypatch):
    sources = _sources(family, identity_corpus, graphical_corpus)
    decided = []
    rows = skbounds.flow._singleton_rows

    def recording(*args):
        found = rows(*args)
        decided.append(found is not None)
        return found

    monkeypatch.setattr(skbounds.flow, "_singleton_rows", recording)
    runs = [dinkelbach(hg.integer_source()[0]) for hg in sources]
    assert sum(run.rows is not None for run in runs) == sum(decided)
    _without_rows(monkeypatch)
    # A `Run` compares its source, L, n, P*, xs and d, and not its `rows`.
    assert [dinkelbach(hg.integer_source()[0]) for hg in sources] == runs
    if family in ("type_s", "all-terminal"):
        # Every Type-S source starts at the singletons, at I, and its rows
        # hold: the step decides each one where 2^m <= 8 m |E|.
        dense = [1 << hg.m <= 8 * hg.m * len(hg.weights) for hg in sources]
        assert decided == [True] * sum(dense) and 0 < sum(dense) < len(sources)
    if family == "chorded":
        assert any(decided) and not all(decided), decided


def test_a_singletons_start_whose_rows_fail_still_truncates(monkeypatch, table_calls):
    # An m = 10 ladder source that starts at the singletons: its rows fail,
    # and the truncations find P* as they would with no first step.
    hg = cycle_plus_edges(random.Random(22), 10)
    truncations = []
    truncate = skbounds.flow.truncation

    def recording(m, weights, n, d, table=None):
        truncations.append((n, d))
        return truncate(m, weights, n, d, table)

    monkeypatch.setattr(skbounds.flow, "truncation", recording)
    src = hg.integer_source()[0]
    run = dinkelbach(src)
    assert table_calls == [("packed_table", 10)] and run.rows is None
    assert len(run.cells) < 10 and len(truncations) >= 2
    _without_rows(monkeypatch)
    assert dinkelbach(hg.integer_source()[0]) == run


@pytest.mark.parametrize("m", [12, 14, 16, 18, 20])
def test_sparse_sources_build_no_start_table(m, table_calls):
    # 2^m > 8 m |E|: the ladder, and at m = 16 and 20 a uniform cycle and a
    # chorded one, both starting at the singletons, run their truncations
    # with no 2^m table.
    sources = [cycle_plus_edges(random.Random(m), m)]
    if m in (16, 20):
        sources += [type_s_source(random.Random(1), m), chorded_cycle(random.Random(2), m)]
    for hg in sources:
        src = hg.integer_source()[0]
        assert 1 << m > 8 * m * len(src.weights)
        dinkelbach(src)
    assert table_calls == []

