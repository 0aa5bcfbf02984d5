"""The integer point check against the `Fraction` check it replaced.

`skbounds.lp._verify` reads the point as ints xs over a positive den and
checks every bound and row of the int LP in ints; `reference_verify`
forms the rationals xs / den and sums every row in `Fraction`s.  On seeded
LPs and points both must raise on the same points with the same message.
The LP engine scales nothing to integers itself, and no round of row
generation calls `to_integers` or builds a `Fraction`: the oracle reads the
dictionary's own ints.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import skbounds.lp
from skbounds import InternalInvariantError, WeightedHypergraph, mmi, r_co_direct, upper_bound_theorem1
from skbounds.lp import LinearProgram, _verify
from skbounds.rational import to_integers

from conftest import cycle_plus_edges
from reference_verify import reference_verify

DENOMINATORS = (1, 2, 3, 7, 10**100, 10**100 + 1)
# A step far below the values' own precision: only an exact check sees it.
STEP = Fraction(1, (10**100 + 1) ** 3)


def _value(rng: random.Random) -> Fraction:
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5 * d), d)


def _slack(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(0), abs(_value(rng))))


def _case(rng: random.Random):
    """A random int LP and a rational point that meets all its bounds and rows.

    Each row is drawn in `Fraction`s and scaled to ints by the lcm of its
    denominators; each upper bound is an int at or above the point: its
    ceiling, on it where the point is whole, or the ceiling past a slack.
    """
    n = rng.randint(1, 4)
    point = [rng.choice((Fraction(0), abs(_value(rng)))) for _ in range(n)]
    upper = [rng.choice((None, math.ceil(x), math.ceil(x + _slack(rng)))) for x in point]
    lp = LinearProgram([f"x{t}" for t in range(n)], [0] * n, upper=upper)
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.choice((0, _value(rng), _value(rng))) for _ in range(n)]
        coeffs[rng.randrange(n)] = _value(rng)
        rhs = sum(c * x for c, x in zip(coeffs, point)) - _slack(rng)
        (rhs, *coeffs), _ = to_integers([rhs, *coeffs])
        lp.add_constraint(coeffs, rhs)
    return lp, point


def _on_row(rng: random.Random, lp: LinearProgram, point, step: Fraction):
    """`point` moved along one variable onto a random row, then `step` past it."""
    con = rng.choice(lp.constraints)
    t = rng.choice([t for t, c in enumerate(con.coeffs) if c])
    c = con.coeffs[t]
    lhs = sum(a * x for a, x in zip(con.coeffs, point))
    moved = list(point)
    moved[t] += (con.rhs - lhs) / c
    # Past the row: lower its lhs.
    moved[t] += -step if c > 0 else step
    return tuple(moved)


def _outcome(check, lp, xs, den):
    try:
        check(lp, xs, den)
    except InternalInvariantError as exc:
        return str(exc)
    return None


def _kind(message):
    if message is None:
        return "ok"
    return "row" if "constraint" in message else "lower" if "negative" in message else "upper"


def test_integer_check_matches_the_fraction_check():
    rng = random.Random(1515)
    outcomes = Counter()
    for _ in range(300):
        lp, point = _case(rng)
        for p in (tuple(point), _on_row(rng, lp, point, 0), _on_row(rng, lp, point, STEP)):
            # The solver's den is a basis determinant, not always the lcm of
            # the point's denominators, so xs / den need not be reduced.
            xs, den = to_integers(p)
            k = rng.choice((1, 2, 7))
            xs, den = [k * x for x in xs], k * den
            expected = _outcome(reference_verify, lp, xs, den)
            assert _outcome(_verify, lp, xs, den) == expected, (lp, p)
            outcomes[_kind(expected)] += 1
    # Every verdict occurs often: a pass, a broken row and each broken bound.
    assert min(outcomes[k] for k in ("ok", "row", "lower", "upper")) >= 50, outcomes


def test_row_generation_builds_each_integer_form_once(monkeypatch):
    # Count to_integers calls by caller through R_CO and UB solves by row
    # generation at m = 10.  `lp` takes ints and scales nothing, and the
    # oracle reads each round's point as the dictionary's ints: the only
    # calls are the integer source, built once per hypergraph (each solve
    # gets a fresh copy, which has not built it yet), and the packing LP's
    # capacity pin.  `lp` builds `Fraction`s only for a solution:
    # round one's `solve` and the result, each n + 1 of them.
    assert not hasattr(skbounds.lp, "to_integers")
    calls = Counter()
    fractions = []

    def counting_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    def counting(values):
        caller = sys._getframe(1)
        calls[caller.f_globals["__name__"], caller.f_code.co_name] += 1
        return to_integers(values)

    checked = []  # rows of the working LP at each check
    verify = skbounds.lp._verify

    def recording(lp, xs, den):
        checked.append(len(lp.constraints))
        verify(lp, xs, den)

    hg = cycle_plus_edges(random.Random(1010), 10)
    capacity = mmi(hg)
    for name, module in list(sys.modules.items()):
        if name.startswith("skbounds") and hasattr(module, "to_integers"):
            monkeypatch.setattr(module, "to_integers", counting)
    monkeypatch.setattr(skbounds.lp, "_verify", recording)
    monkeypatch.setattr(skbounds.lp, "Fraction", counting_fraction)
    k = len(hg.edges)
    for run, pins, n in (
        (lambda g: r_co_direct(g, method="rowgen"), 0, hg.m),
        (lambda g: upper_bound_theorem1(g, mmi_result=capacity, method="rowgen"), 1, k + hg.m),
    ):
        calls.clear()
        checked.clear()
        fractions.clear()
        run(WeightedHypergraph(hg.m, hg.weights))
        assert len(checked) >= 10
        expected = {
            ("skbounds.hypergraph", "integer_source"): 1,
            ("skbounds.bounds", "build_gamma_lp"): pins,
        }
        assert calls == Counter({k: v for k, v in expected.items() if v}), calls
        assert len(fractions) == 2 * (n + 1)
