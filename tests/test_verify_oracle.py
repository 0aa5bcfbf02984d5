"""The integer point check against the `Fraction` check it replaced.

`skbounds.lp._verify` reads each constraint in its integer form, built
once when the constraint is made, and the point over one common
denominator; `reference_verify` sums every row in `Fraction`s.  On seeded
LPs and points both must raise on the same points with the same message,
and row generation must build each integer form once, not once per round,
and read it for the dictionary row as well as for the check.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import skbounds.lp
from skbounds import InternalInvariantError, mmi, r_co_direct, upper_bound_theorem1
from skbounds.lp import LinearProgram, _verify

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
    """A random LP and a point that meets all its bounds and rows."""
    n = rng.randint(1, 4)
    point = [rng.choice((Fraction(0), abs(_value(rng)))) for _ in range(n)]
    upper = [rng.choice((None, x + _slack(rng))) for x in point]
    lp = LinearProgram([f"x{t}" for t in range(n)], [0] * n, upper=upper)
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.choice((0, _value(rng), _value(rng))) for _ in range(n)]
        coeffs[rng.randrange(n)] = _value(rng)
        lp.add_constraint(coeffs, sum(c * x for c, x in zip(coeffs, point)) - _slack(rng))
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


def _outcome(check, lp, point):
    try:
        check(lp, point)
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
            expected = _outcome(reference_verify, lp, p)
            assert _outcome(_verify, lp, p) == expected, (lp, p)
            outcomes[_kind(expected)] += 1
    # Every verdict occurs often: a pass, a broken row and each broken bound.
    assert min(outcomes[k] for k in ("ok", "row", "lower", "upper")) >= 50, outcomes


def test_row_generation_builds_each_integer_form_once(monkeypatch):
    # Count to_integers calls by caller through R_CO and UB solves at
    # m = 10: each constraint's integer form is built once, when it is made,
    # and `solve` and `add_cut` read it there; `solve` scales only the
    # objective and each upper-bound row, and each round's check only its
    # point.
    calls = Counter()
    to_integers = skbounds.lp.to_integers

    def counting(values):
        calls[sys._getframe(1).f_code.co_name] += 1
        return to_integers(values)

    checked = []  # rows of the working LP at each check
    verify = skbounds.lp._verify

    def recording(lp, point):
        checked.append(len(lp.constraints))
        verify(lp, point)

    monkeypatch.setattr(skbounds.lp, "to_integers", counting)
    monkeypatch.setattr(skbounds.lp, "_verify", recording)
    hg = cycle_plus_edges(random.Random(1010), 10)
    capacity = mmi(hg)
    # R_CO's rates have no upper bound; the packing entries have one each.
    for run, upper_bounds in (
        (lambda: r_co_direct(hg, method="rowgen"), 0),
        (lambda: upper_bound_theorem1(hg, mmi_result=capacity, method="rowgen"), len(hg.edges)),
    ):
        calls.clear()
        checked.clear()
        run()
        assert len(checked) >= 10
        assert set(calls) == {"__post_init__", "solve", "_verify"}, calls
        assert calls["__post_init__"] == checked[-1]
        assert calls["solve"] == 1 + upper_bounds
        assert calls["_verify"] == len(checked)
