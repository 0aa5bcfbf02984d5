"""Warm-started row generation against the cold loop it replaced.

`solve_with_row_generation` appends each cut to the previous round's
optimal dictionary and re-optimizes by the dual simplex;
`reference_row_generation` re-solves the grown LP from scratch every round.
Both must reach the same status and value, and so must `solve` on the
final working LP.  The optimal vertex may differ where the optimum is not
unique, so the package results are certified on their own: values equal to
the full-row LPs, a capacity-preserving x*, a rate point inside every
subset row, and every invariant of `run_checks`.
"""

import random
import warnings
from collections import Counter
from dataclasses import replace

import pytest

import skbounds.bounds
import skbounds.lp
from skbounds import (
    WeightedHypergraph,
    analyze,
    mmi,
    r_co_direct,
    subset_weight_table,
    upper_bound_theorem1,
    verify_gamma_membership,
)
from skbounds.bounds import run_checks
from skbounds.lp import solve, solve_with_row_generation

from conftest import cycle_plus_edges, random_graph, random_hypergraph, random_weight
from reference_rowgen import reference_row_generation
from reference_separation import reference_separation
from test_lp_oracle import random_lp

SPLIT_LP_COUNT = 300


def _holds(con, xs, den) -> bool:
    return sum(c * x for c, x in zip(con.coeffs, xs)) >= con.rhs * den


def _first_violated(cuts, added):
    """Oracle returning the first of `cuts` the point violates, recorded in `added`."""

    def oracle(xs, den):
        con = next((con for con in cuts if not _holds(con, xs, den)), None)
        if con is not None:
            added.append(con)
        return con

    return oracle


def test_split_lps_match_the_cold_loop_and_the_final_lp():
    rng = random.Random(1313)
    seen = Counter()
    for i in range(SPLIT_LP_COUNT):
        lp = random_lp(rng)
        k = rng.randint(0, len(lp.constraints))
        base, cuts = replace(lp, constraints=lp.constraints[:k]), lp.constraints[k:]
        warm_cuts, cold_cuts = [], []
        warm = solve_with_row_generation(base, _first_violated(cuts, warm_cuts), len(cuts) + 1)
        cold = reference_row_generation(base, _first_violated(cuts, cold_cuts), len(cuts) + 1)
        final = solve(replace(base, constraints=base.constraints + warm_cuts))
        assert warm.status == cold.status == final.status, f"lp {i}"
        assert warm.objective_value == cold.objective_value == final.objective_value, f"lp {i}"
        seen.update("rhs > 0" if con.rhs > 0 else "rhs <= 0" for con in warm_cuts)
        if warm_cuts and warm.status == "infeasible":
            seen["a cut made it infeasible"] += 1
    # Cuts with a positive rhs and with one <= 0 (violated only through a
    # negative coefficient) must reach the dual simplex, and so must a cut
    # that leaves no feasible point, or the comparison misses a branch.
    assert set(seen) == {"rhs > 0", "rhs <= 0", "a cut made it infeasible"}, seen
    assert min(seen.values()) >= 20, seen


def _pivots(monkeypatch, run, cold: bool):
    """`run()` with the warm or the cold loop, and the `lp._pivot` calls it made."""
    count = 0
    pivot = skbounds.lp._pivot

    def counted(*args):
        nonlocal count
        count += 1
        return pivot(*args)

    with monkeypatch.context() as patch:
        patch.setattr(skbounds.lp, "_pivot", counted)
        if cold:
            patch.setattr(skbounds.bounds, "solve_with_row_generation", reference_row_generation)
        value = run()
    return value, count


@pytest.mark.parametrize("m", [8, 10])
def test_warm_start_makes_at_most_half_the_pivots_of_the_cold_loop(monkeypatch, m):
    hg = cycle_plus_edges(random.Random(m), m)
    mres = mmi(hg)
    for name, run in (
        ("R_CO", lambda: r_co_direct(hg, method="rowgen")[0]),
        ("UB", lambda: upper_bound_theorem1(hg, mmi_result=mres, method="rowgen")[0]),
    ):
        warm, warm_pivots = _pivots(monkeypatch, run, cold=False)
        cold, cold_pivots = _pivots(monkeypatch, run, cold=True)
        assert warm == cold, name
        assert 2 * warm_pivots <= cold_pivots, (name, warm_pivots, cold_pivots)


def _type_s(rng: random.Random, m: int) -> WeightedHypergraph:
    """A uniform-weight cycle on shuffled terminals: the singletons are the only minimizer."""
    order = rng.sample(range(m), m)
    c = random_weight(rng)
    return WeightedHypergraph(m, {1 << order[i] | 1 << order[i - 1]: c for i in range(m)})


def _tie(rng: random.Random, m: int) -> WeightedHypergraph:
    """Singleton edges plus one pair, where Bell(m - 1) - 1 partitions tie."""
    weights = {1 << i: random_weight(rng) for i in range(m)}
    i, j = rng.sample(range(m), 2)
    weights[1 << i | 1 << j] = random_weight(rng)
    return WeightedHypergraph(m, weights)


FAMILIES = {
    "hyper": random_hypergraph,
    "graph": random_graph,
    "cycle": cycle_plus_edges,
    "type_s": _type_s,
    "tie": _tie,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_row_generation_results_are_certified(family):
    rng = random.Random(f"rowgen-certified/{family}")
    for m in range(3, 9):
        hg = FAMILIES[family](rng, m)
        label = f"{family} m={m}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sources with singleton edges warn
            report = analyze(hg, method="rowgen")
        # run_checks solves both LPs again with full rows and compares the
        # values, and checks that x* keeps the capacity.
        failed = [check for check in run_checks(hg, report) if not check[1]]
        assert not failed, (label, failed)
        assert verify_gamma_membership(hg, report.x_star), label
        r_co, rates = r_co_direct(hg, method="rowgen")
        cond = subset_weight_table(m, hg.weights)
        assert reference_separation(m, cond, rates.rates) is None, label
        assert sum(rates.rates) == r_co == report.r_co, label
