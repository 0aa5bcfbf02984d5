import re
from fractions import Fraction

import pytest

import skbounds.lp
from skbounds import InternalInvariantError
from skbounds.lp import Constraint, LinearProgram, _verify, solve, solve_with_row_generation

from reference_simplex import reference_solve

F = Fraction


def test_single_variable_bounds():
    # Ints, strings and Fractions all come out as equal Fractions, and a
    # Fraction is kept as it is, not re-wrapped.
    low, one = F(3, 2), F(1)
    for cost, upper, coeff, rhs in (
        (one, F(2), one, low),
        (1, 2, 1, "3/2"),
        ("1", "2", "1", low),
    ):
        lp = LinearProgram(["x"], [cost], upper=[upper])
        lp.add_constraint([coeff], rhs)
        con = lp.constraints[0]
        values = (*lp.objective, *lp.upper, *con.coeffs, con.rhs)
        assert values == (F(1), F(2), F(1), F(3, 2))
        assert all(type(v) is Fraction for v in values)
        given = (cost, upper, coeff, rhs)
        assert all(v is g for v, g in zip(values, given) if type(g) is Fraction)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.point == (F(3, 2),)
        assert sol.objective_value == F(3, 2)


def test_facet_optimum_value_forced():
    lp = LinearProgram(["x", "y"], [F(1), F(1)])
    lp.add_constraint([F(1), F(1)], F(1))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert sum(sol.point) == 1


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(["x"], [F(0)], upper=[F(0)])
    lp.add_constraint([F(1)], F(1))
    assert solve(lp).status == "infeasible"


def test_infeasible_constraints():
    # -x >= 1 caps x at -1, below its bound 0.
    lp = LinearProgram(["x"], [F(0)])
    lp.add_constraint([F(-1)], F(1))
    assert solve(lp).status == "infeasible"


def test_unbounded():
    # A negative cost leaves the slack basis dual infeasible (without an
    # upper bound the program would be unbounded), and `solve` refuses it,
    # naming the variable, with or without an upper bound.
    lp = LinearProgram(["w", "x"], [F(0), F(-1)])
    with pytest.raises(ValueError, match=re.escape("variable x has cost -1,")):
        solve(lp)
    lp = LinearProgram(["y"], [F(-1, 2)], upper=[F(3)])
    with pytest.raises(ValueError, match=re.escape("variable y has cost -1/2,")):
        solve(lp)


def test_exact_rational_solution():
    # min x + y  s.t.  3x + y >= 5/2, x + 4y >= 7/3, x,y >= 0
    lp = LinearProgram(["x", "y"], [F(1), F(1)])
    lp.add_constraint([F(3), F(1)], F(5, 2))
    lp.add_constraint([F(1), F(4)], F(7, 3))
    sol = solve(lp)
    assert sol.status == "optimal"
    x, y = sol.point
    # unique optimum at the intersection of both facets
    assert (x, y) == (F(23, 33), F(9, 22))
    assert sol.objective_value == F(73, 66)


def test_duality_certificate():
    # primal: min x + y  s.t.  x + 2y >= 3, 2x + y >= 3, x,y >= 0   (optimum 2)
    lp = LinearProgram(["x", "y"], [F(1), F(1)])
    lp.add_constraint([F(1), F(2)], F(3))
    lp.add_constraint([F(2), F(1)], F(3))
    sol = solve(lp)
    assert sol.status == "optimal"
    # independently constructed feasible dual point u = v = 1/3:
    u = v = F(1, 3)
    assert u + 2 * v <= 1 and 2 * u + v <= 1
    assert sol.objective_value == 3 * u + 3 * v == 2


def test_degenerate_program_terminates():
    # many redundant facets through the same vertex
    lp = LinearProgram(["x", "y", "z"], [F(1), F(1), F(1)])
    lp.add_constraint([F(1), F(1), F(0)], F(0))
    lp.add_constraint([F(0), F(1), F(1)], F(0))
    lp.add_constraint([F(1), F(0), F(1)], F(0))
    lp.add_constraint([F(1), F(1), F(1)], F(1))
    lp.add_constraint([F(2), F(2), F(2)], F(2))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1


def test_beale_cycling_program_terminates():
    # Beale (1955): min c.x s.t. A x <= b, x >= 0, on which the
    # largest-coefficient primal rule cycles, read as its LP dual, which is
    # dual feasible at the slack basis: min y3 s.t. A^T y >= -c, y >= 0.
    # The degenerate dual simplex must reach 5/4, minus Beale's optimum.
    lp = LinearProgram(["y1", "y2", "y3"], [F(0), F(0), F(1)])
    lp.add_constraint([F(1, 4), F(1, 2), F(0)], F(3, 4))
    lp.add_constraint([F(-8), F(-12), F(0)], F(-20))
    lp.add_constraint([F(-1), F(-1, 2), F(1)], F(1, 2))
    lp.add_constraint([F(9), F(3), F(0)], F(-6))
    sol, want = solve(lp), reference_solve(lp)
    assert sol.status == want.status == "optimal"
    assert sol.objective_value == want.objective_value == F(5, 4)
    assert sol.point == (F(0), F(3, 2), F(5, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Constraint((0.1,), 0),
        lambda: Constraint((1,), 0.1),
        lambda: LinearProgram(["x"], [0.1]),
        lambda: LinearProgram(["x"], [1], upper=[0.5]),
        lambda: LinearProgram(["x"], [1]).add_constraint([0.5], 1),
    ],
    ids=["coefficient", "rhs", "objective", "upper", "added-row"],
)
def test_floats_are_rejected(build):
    # Ints, strings and Fractions are accepted (test_single_variable_bounds).
    with pytest.raises(TypeError, match="float"):
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
            lp.add_constraint([F(int(t == j)) for t in range(n)], F(b))
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
    lp = LinearProgram(["x"], [F(1)])
    lp.add_constraint([F(1)], F(2))
    direct = solve(lp)
    generated = solve_with_row_generation(lp, lambda point: None, max_rounds=4)
    assert generated == direct


def test_row_generation_reaches_full_answer():
    # family: x + y >= k for k = 1..3; only the last one binds
    family = [Constraint((F(1), F(1)), F(k)) for k in (1, 2, 3)]
    full = LinearProgram(["x", "y"], [F(1), F(1)])
    full.constraints.extend(family)

    base = LinearProgram(["x", "y"], [F(1), F(1)])

    def oracle(point):
        for con in family:
            if sum(c * v for c, v in zip(con.coeffs, point)) < con.rhs:
                return con
        return None

    generated = solve_with_row_generation(base, oracle, max_rounds=8)
    assert generated.objective_value == solve(full).objective_value == 3


def test_row_generation_cap_is_hard_error():
    base = LinearProgram(["x"], [F(1)])
    # oracle keeps returning an already satisfied row: loop cannot make progress
    def broken_oracle(point):
        return Constraint((F(1),), F(0))

    with pytest.raises(InternalInvariantError, match="did not certify within 3 rounds"):
        solve_with_row_generation(base, broken_oracle, max_rounds=3)


def test_row_generation_passes_through_infeasible():
    base = LinearProgram(["x"], [F(1)], upper=[F(-1)])
    sol = solve_with_row_generation(base, lambda point: None, max_rounds=2)
    assert sol.status == "infeasible"


def test_row_generation_leaves_the_base_lp_unchanged():
    family = [Constraint((F(1), F(1)), F(k)) for k in (1, 2, 3)]
    base = LinearProgram(["x", "y"], [F(1), F(1)])
    base.add_constraint([F(-1), F(0)], F(-5))
    rows = base.constraints
    before = list(rows)

    def oracle(point):
        return next((c for c in family if point[0] + point[1] < c.rhs), None)

    sol = solve_with_row_generation(base, oracle, max_rounds=8)
    assert sol.objective_value == 3
    assert base.constraints is rows
    assert rows == before


def _verify_lp():
    # x >= 0, y in [0, 2], z in [0, 3]; a row that caps x + y at 4, written
    # -x - y >= -4, and one that holds y + z at 2 or more.
    lp = LinearProgram(["x", "y", "z"], [F(0)] * 3, upper=[None, F(2), F(3)])
    lp.add_constraint([F(-1), F(-1), F(0)], F(-4))
    lp.add_constraint([F(0), F(1), F(1)], F(2))
    return lp


@pytest.mark.parametrize(
    "point, message",
    [
        ((F(3), F(2), F(3)), "constraint 0: lhs -5 is not >= rhs -4"),
        ((F(1), F(0), F(1)), "constraint 1: lhs 1 is not >= rhs 2"),
        ((F(-1), F(2), F(1)), "x = -1 is negative"),
        ((F(2), F(5, 2), F(2)), "y = 5/2 above upper bound 2"),
        ((F(1), F(1), F(-1, 2)), "z = -1/2 is negative"),
        ((F(4), F(0), F(4)), "z = 4 above upper bound 3"),
    ],
    ids=["le-row", "ge-row", "x-lower", "y-upper", "z-lower", "z-upper"],
)
def test_verify_rejects_a_point_that_breaks_a_row_or_bound(point, message):
    lp = _verify_lp()
    _verify(lp, (F(1), F(1), F(1)))  # feasible: passes silently
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        _verify(lp, point)
