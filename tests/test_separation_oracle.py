"""Integer row generation against the plain Fraction sweep it replaced.

Row generation separates in ints, each round's point as the LP's dictionary
holds it, over its denominator; `reference_separation` is the old
`Fraction` sweep.  At every point the
solver reaches, the row it adds (or its certificate that none is violated)
must be the one the sweep picks, so the rows, pivots and optimal points
are those of the Fraction code.  Both LPs are solved on the integer source
(weights times L, the lcm of their denominators), so the reference tables
are built from it too.
"""

import random
from fractions import Fraction

import pytest

import skbounds.bounds
import skbounds.lp
from skbounds import WeightedHypergraph, r_co_direct, subset_weight_table, upper_bound_theorem1
from skbounds.rational import to_integers

from conftest import cycle_plus_edges, random_graph, random_hypergraph
from reference_separation import reference_separation

FAMILIES = {
    "hypergraph": random_hypergraph,
    "graph": random_graph,
    "cycle": cycle_plus_edges,
}

# Factors on the weights: huge and tiny ones make their common denominator
# or their integer form large.
SCALES = {
    "unit": Fraction(1),
    "huge": Fraction(10**100, 3),
    "tiny": Fraction(1, 10**100 + 1),
}


def _scaled(hg, factor):
    return WeightedHypergraph(hg.m, {e: factor * w for e, w in hg.weights.items()})


def _row_mask(row, m):
    """The subset B of an added row rates(B) - x(inside B) >= rhs, or None for no row."""
    return None if row is None else sum(1 << i for i, c in enumerate(row.coeffs[-m:]) if c == 1)


def _record_rounds(monkeypatch, hg, reference_table):
    """Check each round's row against the reference sweep; returns the list of added masks."""
    m, added = hg.m, []
    solve_rowgen = skbounds.bounds.solve_with_row_generation

    def checked(base, oracle, max_rounds):
        def compare(xs, den):
            extra = oracle(xs, den)
            mask = _row_mask(extra, m)
            if mask is not None:
                added.append(mask)
            point = [Fraction(x, den) for x in xs]
            assert mask == reference_separation(m, reference_table(point), point[-m:])
            return extra

        return solve_rowgen(base, compare, max_rounds)

    monkeypatch.setattr(skbounds.bounds, "solve_with_row_generation", checked)
    return added


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_row_generation_adds_the_rows_of_the_fraction_sweep(monkeypatch, family, scale):
    rng = random.Random(f"separation-oracle/{family}")
    rco_rows = packing_rows = 0
    for m in range(3, 10):
        hg = _scaled(FAMILIES[family](rng, m), SCALES[scale])
        src, _ = hg.integer_source()
        edges, cond = src.edges, subset_weight_table(m, src.weights)
        with monkeypatch.context() as patch:
            added = _record_rounds(patch, hg, lambda point: cond)
            r_co_direct(hg, method="rowgen")
            rco_rows += len(added)
        with monkeypatch.context() as patch:
            added = _record_rounds(
                patch, hg, lambda point: subset_weight_table(m, dict(zip(edges, point)))
            )
            upper_bound_theorem1(hg, method="rowgen")
            packing_rows += len(added)
    # Both LPs needed rows beyond the singletons they start from.
    assert rco_rows > 0 and packing_rows > 0


class _Captured(Exception):
    pass


def _round_oracle(monkeypatch, solve_lp):
    """The per-round oracle that `solve_lp()` hands to row generation, before any solve."""

    def capture(base, oracle, max_rounds):
        raise _Captured(oracle)

    with monkeypatch.context() as patch:
        patch.setattr(skbounds.bounds, "solve_with_row_generation", capture)
        with pytest.raises(_Captured) as captured:
            solve_lp()
    return captured.value.args[0]


@pytest.mark.parametrize("scale", list(SCALES))
def test_a_round_separates_like_the_fraction_sweep_at_any_point(monkeypatch, scale):
    # The solver's own points rarely carry a denominator.  Rates over 2, 5
    # and 7 do, so most rounds here multiply the R_CO table.  The points
    # are those of the LPs on the integer source, whose weights are L times
    # the scaled ones.  A round reads a point as ints over a denominator
    # that need not be the least one, so each goes over the lcm times 1, 2
    # or 7.
    rng = random.Random(f"separation-points/{scale}")
    k_rng = random.Random(f"separation-points/{scale}/factor")

    def ints(point):
        xs, den = to_integers(point)
        k = k_rng.choice((1, 2, 7))
        return [k * x for x in xs], k * den

    for m in range(3, 8):
        hg = _scaled(random_hypergraph(rng, m), SCALES[scale])
        src, common = hg.integer_source()
        factor = common * SCALES[scale]
        edges, cond = src.edges, subset_weight_table(m, src.weights)
        rco = _round_oracle(monkeypatch, lambda: r_co_direct(hg, method="rowgen"))
        packing = _round_oracle(monkeypatch, lambda: upper_bound_theorem1(hg, method="rowgen"))
        for _ in range(20):
            rates = tuple(
                factor * Fraction(rng.randint(-2, 8), rng.choice((1, 2, 5, 7))) for _ in range(m)
            )
            x = tuple(src.weights[e] * Fraction(rng.randint(0, 4), 4) for e in edges)
            assert _row_mask(rco(*ints(rates)), m) == reference_separation(m, cond, rates)
            table = subset_weight_table(m, dict(zip(edges, x)))
            assert _row_mask(packing(*ints(x + rates)), m) == reference_separation(m, table, rates)


def test_row_generation_separates_in_ints(monkeypatch):
    # Weights with denominators 1, 2 and 3: every round must still reach the
    # oracle as ints, never as Fractions.
    hg = cycle_plus_edges(random.Random(8), 8)
    seen = []
    oracle = skbounds.bounds.separation_oracle

    def typed(inside, rates):
        seen.append({type(v) for v in (*inside, *rates)})
        return oracle(inside, rates)

    monkeypatch.setattr(skbounds.bounds, "separation_oracle", typed)
    r_co_direct(hg, method="rowgen")
    rco_rounds = len(seen)
    upper_bound_theorem1(hg, method="rowgen")
    assert 0 < rco_rounds < len(seen)
    assert all(types == {int} for types in seen)


def _bits(lp):
    """Largest numerator or denominator bit length among an LP's entries."""
    values = [*lp.objective, *(b for b in lp.upper if b is not None)]
    for con in lp.constraints:
        values += [*con.coeffs, con.rhs]
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


@pytest.mark.parametrize("method", ["full", "rowgen"])
def test_tiny_weights_reach_the_simplex_as_small_integers(monkeypatch, method):
    # Weights times 1/(10^100 + 1) have a 333-bit denominator.  Both LPs run
    # on the integer source, so no coefficient, right-hand side or bound that
    # reaches lp.solve carries it.
    hg = _scaled(cycle_plus_edges(random.Random(8), 8), SCALES["tiny"])
    solve, seen = skbounds.lp.solve, []

    def recorded(lp):
        seen.append(_bits(lp))
        return solve(lp)

    monkeypatch.setattr(skbounds.bounds, "solve", recorded)
    monkeypatch.setattr(skbounds.lp, "solve", recorded)
    r_co_direct(hg, method=method)
    rco_solves = len(seen)
    upper_bound_theorem1(hg, method=method)
    assert 0 < rco_solves < len(seen)
    assert max(seen) <= 64
