"""`lp.solve` against the dense two-phase `Fraction` simplex it replaced.

The two solvers pivot by different rules, so where the optimum is not
unique they may stop at different optimal vertices.  Status and objective
value must be equal; the package's point must pass `lp._verify` and reach
the reference's objective value.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from skbounds import mmi, solve, subset_weight_table
from skbounds.bounds import build_gamma_lp, build_rco_lp
from skbounds.lp import RELATIONS, LinearProgram, _verify

from conftest import proper_subsets, random_graph, random_hypergraph
from reference_simplex import reference_solve

RANDOM_LP_COUNT = 200


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))


def random_lp(rng: random.Random) -> LinearProgram:
    """A small LP mixing every bound kind and relation, zero right-hand sides included.

    Most rows hold at a point inside the bounds (tightly half the time, a
    degenerate vertex); the rest have a zero or an arbitrary right-hand side.
    """
    n = rng.randint(1, 5)
    lower, upper, inside, kinds = [], [], [], []
    for _ in range(n):
        kind = rng.choice(("nonneg", "shift", "box", "mirror", "free"))
        a, b = _value(rng), abs(_value(rng))
        lower.append({"nonneg": Fraction(0), "shift": a, "box": a}.get(kind))
        upper.append({"box": a + b, "mirror": a}.get(kind))
        inside.append({"nonneg": b, "shift": a + b, "mirror": a - b}.get(kind, a))
        kinds.append(kind)
    # Dual feasible at the slack basis, as `solve` requires: a cost >= 0 at
    # a lower bound, <= 0 at an upper bound alone, 0 when free.  Zero costs
    # leave several optimal vertices.
    costs = [abs(_value(rng)) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
    objective = [
        {"mirror": -cost, "free": Fraction(0)}.get(kind, cost) for kind, cost in zip(kinds, costs)
    ]
    lp = LinearProgram([f"v{t}" for t in range(n)], objective, [], lower, upper)
    for _ in range(rng.randint(0, 6)):
        coeffs = [_value(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
        relation = rng.choice(RELATIONS)
        draw = rng.random()
        if draw < 0.25:
            rhs = Fraction(0)
        elif draw < 0.4:
            rhs = _value(rng)
        else:
            lhs = sum(c * x for c, x in zip(coeffs, inside))
            slack = Fraction(0) if rng.random() < 0.5 else abs(_value(rng))
            rhs = lhs + slack if relation == "<=" else lhs - slack if relation == ">=" else lhs
        lp.add_constraint(coeffs, relation, rhs)
    return lp


def _assert_same(lp: LinearProgram, label: str) -> str:
    got, want = solve(lp), reference_solve(lp)
    assert got.status == want.status, label
    assert got.objective_value == want.objective_value, label
    if got.status == "optimal":
        _verify(lp, got.point)
        assert sum(c * x for c, x in zip(lp.objective, got.point)) == want.objective_value, label
    return got.status


def test_random_lps_match_reference():
    rng = random.Random(4242)
    statuses = Counter(
        _assert_same(random_lp(rng), f"lp {i}") for i in range(RANDOM_LP_COUNT)
    )
    # The family must reach both outcomes often, or the comparison misses a branch.
    assert set(statuses) == {"optimal", "infeasible"}, statuses
    assert min(statuses.values()) >= 50, statuses


@pytest.mark.parametrize("family", ["hyper", "graph"])
def test_package_lps_match_reference(family):
    rng = random.Random(77 if family == "hyper" else 78)
    make = random_hypergraph if family == "hyper" else random_graph
    for i in range(10):
        hg = make(rng, 3 + i % 4)
        masks, cond = proper_subsets(hg.m), subset_weight_table(hg.m, hg.weights)
        assert _assert_same(build_rco_lp(hg, masks, cond), f"rco {i}") == "optimal"
        gamma = build_gamma_lp(hg, mmi(hg).value, masks)
        assert _assert_same(gamma, f"gamma {i}") == "optimal"
