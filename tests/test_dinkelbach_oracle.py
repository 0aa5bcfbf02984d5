"""`flow.fundamental` and `r_co_direct` against the loop of `reference_dinkelbach`, at m = 10 to 16.

Above m = 9 the exhaustive scans are too slow for the suite, so I, P* and
R_CO there are checked against the Dinkelbach loop over the general
truncation.  The ladder, Type-S and clustered sources at m = 10 to 16 are
sparse past m = 13, and their runs cut.  The block and dense sources of
`tests/table_scale.py` at m = 14, and one more block source at m = 12,
keep their table, so both sides of `flow.step_table` are checked; the
last starts at the singletons, whose rows fail.  Neither `fundamental` nor
`r_co_direct` checks the partition cap.  The loop is itself checked
against the exhaustive integer scan of `reference_scan` at m <= 8.
"""

import random
from fractions import Fraction

import pytest

from skbounds import WeightedHypergraph, r_co_direct
from skbounds.flow import fundamental

from conftest import clustered_source, cycle_plus_edges, random_graph, random_hypergraph
from reference_dinkelbach import reference_dinkelbach
from reference_scan import integer_scan
from table_scale import FAMILIES as TABLE_FAMILIES
from test_scan_oracle import tie_heavy_source, type_s_source

FAMILIES = {"ladder": cycle_plus_edges, "type-s": type_s_source, "clustered": clustered_source}

# The block and dense sources of `table_scale.measure` at m = 14, and a block source at m = 12 whose run
# starts at the singletons and fails their rows; each has the fewest edges with 2^m <= 8 m |E|.
TABLE_SOURCES = [("block", 14, "block/14"), ("dense", 14, "dense/14"), ("block", 12, "block/12/10")]


def _sources(family: str):
    """(hypergraph, label) of each source of `family`: "table" for `TABLE_SOURCES`."""
    if family == "table":
        for name, m, seed in TABLE_SOURCES:
            weights = TABLE_FAMILIES[name](random.Random(seed), m, -(-(1 << m) // (8 * m)))
            yield WeightedHypergraph(m, weights), seed
    else:
        for m in range(10, 17):
            for seed in (1, 2):
                yield FAMILIES[family](random.Random(f"{family}/{m}/{seed}"), m), f"{family}/{m}/{seed}"


@pytest.mark.parametrize("family", [*FAMILIES, "table"])
def test_the_run_and_r_co_match_the_general_dinkelbach_loop(family):
    for hg, label in _sources(family):
        value, cells, rates = reference_dinkelbach(hg)
        run = fundamental(hg)
        assert (Fraction(run.n, run.d * run.scale), run.cells) == (value, cells), label
        r_co, point = r_co_direct(hg)
        assert r_co == hg.total_entropy - value == sum(rates), label
        assert point.rates == rates, label


@pytest.mark.parametrize("family", [random_hypergraph, random_graph, cycle_plus_edges, tie_heavy_source])
def test_the_loop_matches_the_integer_scan(family):
    rng = random.Random(f"dinkelbach-oracle/{family.__name__}")
    for m in [*range(2, 9)] * 3:
        hg = family(rng, m)
        expected = integer_scan(hg)
        value, cells, rates = reference_dinkelbach(hg)
        assert (value, cells) == (expected.value, expected.fundamental.cells), (hg, m)
        assert sum(rates) == hg.total_entropy - value, (hg, m)
