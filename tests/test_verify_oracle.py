"""The integer point check against the `Fraction` check it replaced.

`skbounds.lp._verify` reads the point as ints xs over a positive den and
checks every bound and row of the int LP in ints; `reference_verify`
forms the rationals xs / den and sums every row in `Fraction`s.  On seeded
LPs and points both must raise on the same points with the same message.
The LP engine scales nothing to integers itself, and no round of row
generation builds a `Fraction` in `lp` or calls `to_integers`: the sweep
of R_CO's row generation (`tests/reference_rco.py`) reads the
dictionary's own ints, and the packing LP's truncation takes its gamma as
ints.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import skbounds.lp
from skbounds import InternalInvariantError, WeightedHypergraph, mmi, upper_bound_theorem1
from skbounds.lp import LinearProgram, _verify
from skbounds.rational import to_integers

from conftest import cycle_plus_edges
from reference_rco import rowgen_rco
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
    # generation, each on a source where it takes at least 10 rounds: UB on
    # an m = 12 ladder source whose P* keeps 11 terminals in one cell,
    # R_CO's (in `tests/reference_rco.py`) on another seed's.  `lp`
    # takes ints and scales nothing, and the oracles read each round's
    # point as the dictionary's ints.  Each source's integer form is built
    # once, on a fresh copy: R_CO's by its `integer_source`, UB's by the run
    # `flow.fundamental` keeps, which `mmi` makes before UB runs.  That run
    # builds the integer source, and Dinkelbach keeps gamma as ints, which
    # leaves L * I as the ints n / d with no call to `to_integers`.  UB
    # reads both from the run and calls `to_integers` on no round: its
    # truncation takes gamma n * den / d as ints.  `lp` builds `Fraction`s
    # only for the result: n + 1 of them, n the LP's columns: the rates for
    # R_CO, the k' non-singleton edges inside P*'s cells for UB.
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

    truncations = {"skbounds.flow": [], "skbounds.bounds": []}  # Dinkelbach's, UB's rounds'

    def counted(module):
        truncate = sys.modules[module].truncation

        def counting_truncation(m, weights, n, d, table=None):
            truncations[module].append((n, d))
            return truncate(m, weights, n, d, table)

        return counting_truncation

    hg = cycle_plus_edges(random.Random(7), 12)
    rco_hg = cycle_plus_edges(random.Random(3), 12)
    for name, module in list(sys.modules.items()):
        if name.startswith("skbounds") and hasattr(module, "to_integers"):
            monkeypatch.setattr(module, "to_integers", counting)
    for name in truncations:
        monkeypatch.setattr(sys.modules[name], "truncation", counted(name))
    monkeypatch.setattr(skbounds.lp, "_verify", recording)
    monkeypatch.setattr(skbounds.lp, "Fraction", counting_fraction)
    k = sum(1 for e in hg.edges if e & (e - 1) and any(e & ~c == 0 for c in mmi(hg).fundamental.cells))
    for run, source, ub, n in (
        (rowgen_rco, rco_hg, 0, rco_hg.m),
        (lambda g: upper_bound_theorem1(g, method="rowgen"), hg, 1, k),
    ):
        copy = WeightedHypergraph(source.m, source.weights)
        calls.clear()
        truncations["skbounds.flow"].clear()
        if ub:
            mmi(copy)
        built = Counter(calls)
        calls.clear()
        checked.clear()
        fractions.clear()
        truncations["skbounds.bounds"].clear()
        run(copy)
        assert len(checked) >= 10
        if ub:
            assert len(truncations["skbounds.flow"]) >= 1  # Dinkelbach ran in `mmi`
            assert built == Counter({("skbounds.hypergraph", "integer_source"): 1}), built
            assert calls == Counter(), calls
            # One truncation per check: each checked point goes to the oracle.
            assert len(truncations["skbounds.bounds"]) == len(checked)
        else:
            assert calls == Counter({("skbounds.hypergraph", "integer_source"): 1}), calls
        assert len(fractions) == n + 1
