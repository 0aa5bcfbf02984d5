"""`lp.solve` against the dense two-phase `Fraction` simplex it replaced.

The two solvers pivot by different rules, so where the optimum is not
unique they may stop at different optimal vertices.  Status and objective
value must be equal; the package's point must pass `lp._verify` and reach
the reference's objective value.  The reference also solves both LPs in
the paper's form, with free rates and the packing LP's equality pin, as
the spec of the one form the package solves.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from skbounds import mmi, r_co_direct, subset_weight_table, upper_bound_theorem1
from skbounds.bounds import build_gamma_lp
from skbounds.cli import parse_document
from skbounds.lp import LinearProgram, _verify, solve
from skbounds.rational import to_integers

from conftest import FIXTURE_DIR, fixture_text, proper_subsets, random_graph, random_hypergraph
from reference_packing import reference_packing, subset_packing_lp
from reference_rco import full_rco_lp, reference_rco
from reference_scan import _raw_partitions
from reference_simplex import GeneralLP, reference_solve

RANDOM_LP_COUNT = 200


def _value(rng: random.Random) -> int:
    return rng.randint(-4, 4)


def random_lp(rng: random.Random) -> LinearProgram:
    """A small int LP in the one form, nonnegative and boxed variables, zero right-hand sides included.

    Most rows hold at one integer point (tightly half the time, a
    degenerate vertex), which lies inside the bounds for some variables and
    below 0 for others; the rest have a zero or an arbitrary right-hand
    side.  The vertices are rational all the same.
    """
    n = rng.randint(1, 5)
    upper, inside = [], []
    for _ in range(n):
        a, b = _value(rng), abs(_value(rng))
        upper.append(abs(a) + b if rng.random() < 0.5 else None)
        inside.append(a)
    # Costs >= 0, as `solve` requires; zero costs leave several optimal vertices.
    objective = [abs(_value(rng)) if rng.random() < 0.8 else 0 for _ in range(n)]
    lp = LinearProgram([f"v{t}" for t in range(n)], objective, [], upper)
    for _ in range(rng.randint(0, 6)):
        coeffs = [_value(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
        draw = rng.random()
        if draw < 0.25:
            rhs = 0
        elif draw < 0.4:
            rhs = _value(rng)
        else:
            slack = 0 if rng.random() < 0.5 else abs(_value(rng))
            rhs = sum(c * x for c, x in zip(coeffs, inside)) - slack
        lp.add_constraint(coeffs, rhs)
    return lp


def _assert_same(lp: LinearProgram, label: str) -> str:
    got, want = solve(lp), reference_solve(lp)
    assert got.status == want.status, label
    assert got.objective_value == want.objective_value, label
    if got.status == "optimal":
        _verify(lp, *to_integers(got.point))
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
        src, scale = hg.integer_source()  # the LPs take ints
        masks = proper_subsets(src.m)
        assert _assert_same(full_rco_lp(src), f"rco {i}") == "optimal"
        # The LP over Gamma with the row of every partition, the edges that
        # cross P* fixed at their weights, and the subset-row packing LP of
        # the reference: one optimum, once the fixed weight is added back.
        mres = mmi(hg)
        capacity = mres.value * scale
        (n,), d = to_integers([capacity])
        units = mres.fundamental.cells
        fixed = {e: w for e, w in src.weights.items() if not any(e & ~c == 0 for c in units)}
        edges = [e for e in src.edges if e & (e - 1) and e not in fixed]
        gamma = build_gamma_lp(src, edges, fixed, n, d)
        for cells in _raw_partitions(src.m, min_cells=2):
            coeffs = {e: d * (sum(1 for c in cells if c & e) - 1) for e in src.edges}
            rhs = n * (len(cells) - 1) - sum(coeffs[e] * w for e, w in fixed.items())
            gamma.add_constraint([coeffs[e] for e in edges], rhs)
        assert _assert_same(gamma, f"gamma {i}") == "optimal"
        subset_rows = subset_packing_lp(src, capacity, masks)
        assert _assert_same(subset_rows, f"subset rows {i}") == "optimal"
        packed = sum(fixed.values())
        assert solve(gamma).objective_value + packed == solve(subset_rows).objective_value, i


def _subset_rows(m: int, edges, inside):
    """rates(B) - x(edges inside B) >= inside(B) for every nonempty proper subset B."""
    for mask in range(1, (1 << m) - 1):
        coeffs = [Fraction(-1 if e & ~mask == 0 else 0) for e in edges]
        coeffs += [Fraction(mask >> i & 1) for i in range(m)]
        yield coeffs, ">=", inside(mask)


def paper_packing_lp(hg, capacity: Fraction) -> GeneralLP:
    """The packing LP as the paper states it: free rates, and total packing minus total rate = I."""
    edges, m, k = hg.edges, hg.m, len(hg.edges)
    rows = list(_subset_rows(m, edges, lambda mask: Fraction(0)))
    rows.append(([Fraction(1)] * k + [Fraction(-1)] * m, "=", capacity))
    return GeneralLP(
        [f"x{e}" for e in edges] + [f"r{i}" for i in range(m)],
        [Fraction(1)] * k + [Fraction(0)] * m,
        rows,
        lower=[Fraction(0)] * k + [None] * m,
        upper=[Fraction(hg.weights[e]) for e in edges] + [None] * m,
    )


def paper_rco_lp(hg) -> GeneralLP:
    """R_CO with free rates: min total rate over the conditional-entropy rows."""
    cond = subset_weight_table(hg.m, hg.weights)
    rows = list(_subset_rows(hg.m, (), lambda mask: Fraction(cond[mask])))
    return GeneralLP([f"R{i}" for i in range(hg.m)], [Fraction(1)] * hg.m, rows)


def test_free_rate_lps_match_both_bounds(identity_corpus, graphical_corpus):
    # The subset-row reference solves the packing LP with rates >= 0 and the
    # pin as ">=" (tests/reference_packing.py); the paper's form, free rates
    # and an equality pin, solved by the two-phase reference, must give the
    # same UB(Thm 1) as it and as the package's LP over Gamma.  On the
    # fixtures, free R_CO rates must also give the same R_CO.
    fixtures = [parse_document(fixture_text(path.name)) for path in sorted(FIXTURE_DIR.glob("*.hg"))]
    corpus = [hg for hg in identity_corpus + graphical_corpus if hg.m <= 5]
    assert len(fixtures) == 6 and len(corpus) == 180
    for i, hg in enumerate(fixtures + corpus):
        capacity = mmi(hg).value
        packing = reference_solve(paper_packing_lp(hg, capacity))
        assert packing.status == "optimal", i
        rco = reference_solve(paper_rco_lp(hg)) if i < len(fixtures) else None
        # The package by row generation, and the full-row reference LPs.
        ubs = {"rowgen": upper_bound_theorem1(hg)[0]}
        ubs["full"] = reference_packing(hg, capacity, "full")[0]
        for method, ub in ubs.items():
            assert packing.objective_value - capacity == ub, (i, method)
        if rco is not None:
            assert rco.objective_value == r_co_direct(hg)[0] == reference_rco(hg)[0], i
