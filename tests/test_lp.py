import re
from fractions import Fraction

import pytest

import skbounds.lp
from skbounds import InternalInvariantError
from skbounds.lp import Constraint, LinearProgram, _verify, solve, solve_with_row_generation

from reference_simplex import reference_solve

F = Fraction


def test_single_variable_bounds():
    lp = LinearProgram(["x"], [1], upper=[2])
    lp.add_constraint([2], 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.point == (F(3, 2),)
    assert sol.objective_value == F(3, 2)


def test_facet_optimum_value_forced():
    lp = LinearProgram(["x", "y"], [1, 1])
    lp.add_constraint([1, 1], 1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert sum(sol.point) == 1


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(["x"], [0], upper=[0])
    lp.add_constraint([1], 1)
    assert solve(lp).status == "infeasible"


def test_infeasible_constraints():
    # -x >= 1 caps x at -1, below its bound 0.
    lp = LinearProgram(["x"], [0])
    lp.add_constraint([-1], 1)
    assert solve(lp).status == "infeasible"


def test_unbounded():
    # A negative cost leaves the slack basis dual infeasible (without an
    # upper bound the program would be unbounded), and `solve` refuses it,
    # naming the variable, with or without an upper bound.
    lp = LinearProgram(["w", "x"], [0, -1])
    with pytest.raises(ValueError, match=re.escape("variable x has cost -1,")):
        solve(lp)
    lp = LinearProgram(["y"], [-2], upper=[3])
    with pytest.raises(ValueError, match=re.escape("variable y has cost -2,")):
        solve(lp)


def test_exact_rational_solution():
    # min x + y  s.t.  6x + 2y >= 5, 3x + 12y >= 7, x,y >= 0
    lp = LinearProgram(["x", "y"], [1, 1])
    lp.add_constraint([6, 2], 5)
    lp.add_constraint([3, 12], 7)
    sol = solve(lp)
    assert sol.status == "optimal"
    x, y = sol.point
    # unique optimum at the intersection of both facets
    assert (x, y) == (F(23, 33), F(9, 22))
    assert sol.objective_value == F(73, 66)


def test_duality_certificate():
    # primal: min x + y  s.t.  x + 2y >= 3, 2x + y >= 3, x,y >= 0   (optimum 2)
    lp = LinearProgram(["x", "y"], [1, 1])
    lp.add_constraint([1, 2], 3)
    lp.add_constraint([2, 1], 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    # independently constructed feasible dual point u = v = 1/3:
    u = v = F(1, 3)
    assert u + 2 * v <= 1 and 2 * u + v <= 1
    assert sol.objective_value == 3 * u + 3 * v == 2


def _first_slack_column(d) -> int:
    """The obj index of the first nonbasic slack of the final dictionary `d`."""
    return 1 + next(j for j, vid in enumerate(d.col_vars) if vid >= d.n)


def _raise_obj(d):
    d.obj[0] += 1


def _negate_a_dual(d):
    j = _first_slack_column(d)
    d.obj[j] = -d.obj[j]


def _double_a_dual(d):
    d.obj[_first_slack_column(d)] *= 2


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_raise_obj, "0, values: point 2, dual 2, dictionary 7/3"),
        (_negate_a_dual, "-1/3, values: point 2, dual 0, dictionary 2"),
        (_double_a_dual, "-2/3, values: point 2, dual 3, dictionary 2"),
    ],
    ids=["objective", "negative-dual", "dual-infeasible"],
)
def test_the_certificate_rejects_a_tampered_dictionary(monkeypatch, tamper, message):
    # The LP of test_duality_certificate with an upper bound; at its
    # optimum both rows are tight, with duals 1/3 and 1/3, and x <= 5 is
    # slack.  The point stays optimal and feasible, so the primal check
    # passes; only the objective row is tampered with, after that check.
    lp = LinearProgram(["x", "y"], [1, 1], upper=[5, None])
    lp.add_constraint([1, 2], 3)
    lp.add_constraint([2, 1], 3)
    assert solve(lp).objective_value == 2
    check = skbounds.lp._Dictionary.check

    def check_then_tamper(self, program):
        check(self, program)
        tamper(self)

    monkeypatch.setattr(skbounds.lp._Dictionary, "check", check_then_tamper)
    message = f"no optimality certificate: least dual or reduced cost {message}"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        solve(lp)


@pytest.mark.parametrize(
    "pivot, message",
    [(0, "dual 3, dictionary 7/3"), (1, "dual 3, dictionary 2")],
)
def test_the_certificate_rejects_a_skipped_elimination(monkeypatch, pivot, message):
    # The same LP solves in two pivots.  In one of them, one entry of the
    # objective row moves to the new denominator but misses its elimination:
    # the point and its check are untouched, and a reduced cost is wrong.
    lp = LinearProgram(["x", "y"], [1, 1], upper=[5, None])
    lp.add_constraint([1, 2], 3)
    lp.add_constraint([2, 1], 3)
    dual_simplex, eliminate = skbounds.lp._dual_simplex, skbounds.lp._eliminate
    seen = {"pivots": 0}

    def recording(rows, obj, *rest):
        seen["obj"] = obj
        return dual_simplex(rows, obj, *rest)

    def skipping(row, support, k, p, den):
        new = eliminate(row, support, k, p, den)
        if row is seen["obj"]:
            if seen["pivots"] == pivot:
                j = support[-1][0]
                new[j] = row[j] * p // den
            seen["pivots"] += 1
        return new

    monkeypatch.setattr(skbounds.lp, "_dual_simplex", recording)
    monkeypatch.setattr(skbounds.lp, "_eliminate", skipping)
    message = f"least dual or reduced cost -2/3, values: point 2, {message}"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        solve(lp)
    assert seen["pivots"] == 2


def test_degenerate_program_terminates():
    # many redundant facets through the same vertex
    lp = LinearProgram(["x", "y", "z"], [1, 1, 1])
    lp.add_constraint([1, 1, 0], 0)
    lp.add_constraint([0, 1, 1], 0)
    lp.add_constraint([1, 0, 1], 0)
    lp.add_constraint([1, 1, 1], 1)
    lp.add_constraint([2, 2, 2], 2)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1


def test_beale_cycling_program_terminates():
    # Beale (1955): min c.x s.t. A x <= b, x >= 0, on which the
    # largest-coefficient primal rule cycles, read as its LP dual, which is
    # dual feasible at the slack basis: min y3 s.t. A^T y >= -c, y >= 0,
    # each row times the lcm of its denominators.  The degenerate dual
    # simplex must reach 5/4, minus Beale's optimum.
    lp = LinearProgram(["y1", "y2", "y3"], [0, 0, 1])
    lp.add_constraint([1, 2, 0], 3)
    lp.add_constraint([-8, -12, 0], -20)
    lp.add_constraint([-2, -1, 2], 1)
    lp.add_constraint([9, 3, 0], -6)
    sol, want = solve(lp), reference_solve(lp)
    assert sol.status == want.status == "optimal"
    assert sol.objective_value == want.objective_value == F(5, 4)
    assert sol.point == (F(0), F(3, 2), F(5, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: LinearProgram(["x"], [1], [Constraint((bad,), 0)]),
        lambda bad: LinearProgram(["x"], [1], [Constraint((1,), bad)]),
        lambda bad: LinearProgram(["x"], [bad]),
        lambda bad: LinearProgram(["x"], [1], upper=[bad]),
        lambda bad: LinearProgram(["x"], [1]).add_constraint([bad], 1),
    ],
    ids=["coefficient", "rhs", "objective", "upper", "added-row"],
)
def test_floats_are_rejected(build):
    # Not only floats: the engine divides with //, which would floor a
    # Fraction silently, so anything but an int is refused where it enters.
    for bad in (0.5, F(1, 2), "1"):
        with pytest.raises(TypeError, match=re.escape(f"{bad!r}, not an int")):
            build(bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinearProgram(["x", "y"], [1]), "objective length"),
        (lambda: LinearProgram(["x", "y"], [1, 1], upper=[1]), "upper bound vector"),
        (lambda: LinearProgram(["x", "y"], [1, 1], [Constraint((1,), 0)]), "constraint"),
    ],
    ids=["objective", "upper", "constraint"],
)
def test_vectors_must_match_the_variable_count(build, message):
    with pytest.raises(ValueError, match=f"{message} .*variable count"):
        build()


def _leaving_ids(monkeypatch, lp):
    """The basic ids that leave, in order, as `solve` pivots on `lp`."""
    leaving = []
    pivot = skbounds.lp._pivot

    def recording(rows, obj, row_vars, col_vars, den, pr, pc):
        leaving.append(row_vars[pr])
        return pivot(rows, obj, row_vars, col_vars, den, pr, pc)

    with monkeypatch.context() as patch:
        patch.setattr(skbounds.lp, "_pivot", recording)
        assert solve(lp).status == "optimal"
    return leaving


def test_dual_simplex_leaving_rule(monkeypatch):
    def bounds(costs, rhs):
        # Ids: one column per variable, then the slack of each row v_j >= rhs[j].
        n = len(costs)
        lp = LinearProgram([f"v{j}" for j in range(n)], costs)
        for j, b in enumerate(rhs):
            lp.add_constraint([int(t == j) for t in range(n)], b)
        return lp

    # The most negative row leaves first: v0 >= 1 reads -1, v1 >= 3 reads -3.
    assert _leaving_ids(monkeypatch, bounds([1, 1], [1, 3])) == [3, 2]
    # Of two equally negative rows the least id leaves first.
    assert _leaving_ids(monkeypatch, bounds([1, 1], [2, 2])) == [2, 3]
    # v0 costs 0, so its pivot (row 4) leaves the objective unchanged, and
    # the least id, 5, leaves next ahead of the more negative 6 and 7.  That
    # pivot raises the objective, and the most negative row, 7, leads again.
    assert _leaving_ids(monkeypatch, bounds([0, 1, 1, 1], [5, 1, 2, 3])) == [4, 5, 7, 6]


def test_row_generation_degenerate_oracle():
    lp = LinearProgram(["x"], [1])
    lp.add_constraint([1], 2)
    direct = solve(lp)
    generated = solve_with_row_generation(lp, lambda xs, den: None, max_rounds=4)
    assert generated == direct


def test_row_generation_reaches_full_answer():
    # family: x + y >= k for k = 1..3; only the last one binds
    family = [Constraint((1, 1), k) for k in (1, 2, 3)]
    full = LinearProgram(["x", "y"], [1, 1])
    full.constraints.extend(family)

    base = LinearProgram(["x", "y"], [1, 1])

    def oracle(xs, den):
        for con in family:
            if sum(c * v for c, v in zip(con.coeffs, xs)) < con.rhs * den:
                return con
        return None

    generated = solve_with_row_generation(base, oracle, max_rounds=8)
    assert generated.objective_value == solve(full).objective_value == 3


def test_row_generation_cap_is_hard_error():
    base = LinearProgram(["x"], [1])
    returned = []

    # Each row x >= k is violated at the point, x = k - 1, so every cut makes
    # progress, but the family never ends.
    def endless_oracle(xs, den):
        returned.append(Fraction(xs[0], den))
        return Constraint((1,), len(returned))

    with pytest.raises(InternalInvariantError, match="did not certify within 3 rounds"):
        solve_with_row_generation(base, endless_oracle, max_rounds=3)
    assert returned == [0, 1, 2]


@pytest.mark.parametrize(
    "row, message",
    [
        (Constraint((1, 0), 0), "the row 1 x >= 0, which the point already meets: lhs 0"),
        (Constraint((0, 2), 1), "the row 2 y >= 1, which the point already meets: lhs 3"),
        (Constraint((0, 0), -1), "the row 0 >= -1, which the point already meets: lhs 0"),
    ],
    ids=["tight", "slack", "empty"],
)
def test_row_generation_rejects_a_row_the_point_already_meets(row, message):
    # A returned row the point meets cannot move it: the oracle is at fault,
    # and row generation raises at once, naming the row, not at the round cap.
    base = LinearProgram(["x", "y"], [1, 1])
    base.add_constraint([0, 2], 3)  # the point is x = 0, y = 3/2
    calls = []

    def faulty_oracle(xs, den):
        calls.append((xs, den))
        return row

    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        solve_with_row_generation(base, faulty_oracle, max_rounds=10**9)
    assert calls == [([0, 3], 2)]


def test_row_generation_passes_through_infeasible():
    base = LinearProgram(["x"], [1], upper=[-1])
    sol = solve_with_row_generation(base, lambda xs, den: None, max_rounds=2)
    assert sol.status == "infeasible"
    # A cut that makes the working LP infeasible is a result even in the
    # last allowed round.
    cuts = [Constraint((1,), 2)]

    def one_cut(xs, den):
        return cuts.pop() if cuts else None

    base = LinearProgram(["x"], [1], upper=[1])
    assert solve_with_row_generation(base, one_cut, max_rounds=1).status == "infeasible"


@pytest.mark.parametrize("cuts", [0, 3])
def test_row_generation_calls_no_solve_and_certifies_only_the_result(monkeypatch, cuts):
    # Round one starts from the slack basis itself, and only the result is
    # certified and built in `Fraction`s, however many cuts came before it.
    family = [Constraint((1, 1), k) for k in (1, 2, 3)][:cuts]
    calls = []
    certify = skbounds.lp._Dictionary.solution

    def certifying(self, lp):
        calls.append("certificate")
        return certify(self, lp)

    def oracle(xs, den):
        return next((c for c in family if xs[0] + xs[1] < c.rhs * den), None)

    monkeypatch.setattr(skbounds.lp, "solve", lambda lp: calls.append("solve"))
    monkeypatch.setattr(skbounds.lp._Dictionary, "solution", certifying)
    sol = solve_with_row_generation(LinearProgram(["x", "y"], [1, 1]), oracle, max_rounds=8)
    assert sol.objective_value == cuts
    assert calls == ["certificate"]


def test_row_generation_leaves_the_base_lp_unchanged():
    family = [Constraint((1, 1), k) for k in (1, 2, 3)]
    base = LinearProgram(["x", "y"], [1, 1])
    base.add_constraint([-1, 0], -5)
    rows = base.constraints
    before = list(rows)

    def oracle(xs, den):
        return next((c for c in family if xs[0] + xs[1] < c.rhs * den), None)

    sol = solve_with_row_generation(base, oracle, max_rounds=8)
    assert sol.objective_value == 3
    assert base.constraints is rows
    assert rows == before


def _verify_lp():
    # x >= 0, y in [0, 2], z in [0, 3]; a row that caps x + y at 4, written
    # -x - y >= -4, and one that holds y + z at 2 or more.
    lp = LinearProgram(["x", "y", "z"], [0] * 3, upper=[None, 2, 3])
    lp.add_constraint([-1, -1, 0], -4)
    lp.add_constraint([0, 1, 1], 2)
    return lp


@pytest.mark.parametrize(
    "xs, den, message",
    [
        ((3, 2, 3), 1, "constraint 0: lhs -5 is not >= rhs -4"),
        ((1, 0, 1), 1, "constraint 1: lhs 1 is not >= rhs 2"),
        ((-1, 2, 1), 1, "x = -1 is negative"),
        ((4, 5, 4), 2, "y = 5/2 above upper bound 2"),
        ((2, 2, -1), 2, "z = -1/2 is negative"),
        ((4, 0, 4), 1, "z = 4 above upper bound 3"),
    ],
    ids=["le-row", "ge-row", "x-lower", "y-upper", "z-lower", "z-upper"],
)
def test_verify_rejects_a_point_that_breaks_a_row_or_bound(xs, den, message):
    # The point is xs / den; messages show it as rationals.
    lp = _verify_lp()
    _verify(lp, (2, 2, 2), 2)  # feasible: passes silently
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        _verify(lp, xs, den)
