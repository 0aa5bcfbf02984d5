from fractions import Fraction

import pytest

from skbounds import Constraint, LinearProgram, RowGenerationLimitError, solve, solve_with_row_generation

F = Fraction


def test_single_variable_bounds():
    # Ints, strings and Fractions all come out as equal Fractions, and a
    # Fraction is kept as it is, not re-wrapped.
    low, one = F(3, 2), F(1)
    for cost, lower, upper, coeff, rhs in (
        (one, low, F(2), one, one),
        (1, "3/2", 2, 1, "1"),
        ("1", low, "2", "1", 1),
    ):
        lp = LinearProgram(["x"], [cost], lower=[lower], upper=[upper])
        lp.add_constraint([coeff], ">=", rhs)
        con = lp.constraints[0]
        values = (*lp.objective, *lp.lower, *lp.upper, *con.coeffs, con.rhs)
        assert values == (F(1), F(3, 2), F(2), F(1), F(1))
        assert all(type(v) is Fraction for v in values)
        given = (cost, lower, upper, coeff, rhs)
        assert all(v is g for v, g in zip(values, given) if type(g) is Fraction)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.point == (F(3, 2),)
        assert sol.objective_value == F(3, 2)


def test_facet_optimum_value_forced():
    lp = LinearProgram(["x", "y"], [F(1), F(1)], lower=[F(0), F(0)])
    lp.add_constraint([F(1), F(1)], ">=", F(1))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert sum(sol.point) == 1


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(["x"], [F(0)], lower=[F(1)], upper=[F(0)])
    assert solve(lp).status == "infeasible"


def test_infeasible_constraints():
    lp = LinearProgram(["x"], [F(0)], lower=[F(0)])
    lp.add_constraint([F(1)], "<=", F(-1))
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(["x"], [F(-1)], lower=[F(0)])
    assert solve(lp).status == "unbounded"


def test_free_variable_unbounded_without_constraint():
    lp = LinearProgram(["x"], [F(1)])
    assert solve(lp).status == "unbounded"


def test_free_variable_with_constraint():
    lp = LinearProgram(["x"], [F(1)])
    lp.add_constraint([F(1)], ">=", F(-5))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.point == (F(-5),)


def test_equality_constraint():
    lp = LinearProgram(["x", "y"], [F(1), F(2)], lower=[F(0), F(0)])
    lp.add_constraint([F(1), F(1)], "=", F(2))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 2
    assert sol.point == (F(2), F(0))


def test_mirror_variable_upper_bound_only():
    lp = LinearProgram(["x"], [F(-1)], upper=[F(7, 3)])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.point == (F(7, 3),)


def test_exact_rational_solution():
    # min x + y  s.t.  3x + y >= 5/2, x + 4y >= 7/3, x,y >= 0
    lp = LinearProgram(["x", "y"], [F(1), F(1)], lower=[F(0), F(0)])
    lp.add_constraint([F(3), F(1)], ">=", F(5, 2))
    lp.add_constraint([F(1), F(4)], ">=", F(7, 3))
    sol = solve(lp)
    assert sol.status == "optimal"
    x, y = sol.point
    # unique optimum at the intersection of both facets
    assert (x, y) == (F(23, 33), F(9, 22))
    assert sol.objective_value == F(73, 66)


def test_duality_certificate():
    # primal: min x + y  s.t.  x + 2y >= 3, 2x + y >= 3, x,y >= 0   (optimum 2)
    lp = LinearProgram(["x", "y"], [F(1), F(1)], lower=[F(0), F(0)])
    lp.add_constraint([F(1), F(2)], ">=", F(3))
    lp.add_constraint([F(2), F(1)], ">=", F(3))
    sol = solve(lp)
    assert sol.status == "optimal"
    # independently constructed feasible dual point u = v = 1/3:
    u = v = F(1, 3)
    assert u + 2 * v <= 1 and 2 * u + v <= 1
    assert sol.objective_value == 3 * u + 3 * v == 2


def test_degenerate_program_terminates():
    # many redundant facets through the same vertex
    lp = LinearProgram(["x", "y", "z"], [F(1), F(1), F(1)], lower=[F(0)] * 3)
    lp.add_constraint([F(1), F(1), F(0)], ">=", F(0))
    lp.add_constraint([F(0), F(1), F(1)], ">=", F(0))
    lp.add_constraint([F(1), F(0), F(1)], ">=", F(0))
    lp.add_constraint([F(1), F(1), F(1)], ">=", F(1))
    lp.add_constraint([F(2), F(2), F(2)], ">=", F(2))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == 1


def test_beale_cycling_program_terminates():
    # Beale (1955): the largest-coefficient entering rule cycles on this
    # degenerate program; Bland's rule must reach the optimum.
    lp = LinearProgram(
        ["x4", "x5", "x6", "x7"], [F(-3, 4), F(20), F(-1, 2), F(6)], lower=[F(0)] * 4
    )
    lp.add_constraint([F(1, 4), F(-8), F(-1), F(9)], "<=", F(0))
    lp.add_constraint([F(1, 2), F(-12), F(-1, 2), F(3)], "<=", F(0))
    lp.add_constraint([F(0), F(0), F(1), F(0)], "<=", F(1))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.point == (F(1), F(0), F(1), F(0))
    assert sol.objective_value == F(-5, 4)


def test_constraint_validates_relation():
    with pytest.raises(ValueError):
        Constraint((F(1),), "<", F(0))


def test_row_generation_degenerate_oracle():
    lp = LinearProgram(["x"], [F(1)], lower=[F(0)])
    lp.add_constraint([F(1)], ">=", F(2))
    direct = solve(lp)
    generated = solve_with_row_generation(lp, lambda point: None, max_rounds=4)
    assert generated == direct


def test_row_generation_reaches_full_answer():
    # family: x + y >= k for k = 1..3; only the last one binds
    family = [Constraint((F(1), F(1)), ">=", F(k)) for k in (1, 2, 3)]
    full = LinearProgram(["x", "y"], [F(1), F(1)], lower=[F(0), F(0)])
    full.constraints.extend(family)

    base = LinearProgram(["x", "y"], [F(1), F(1)], lower=[F(0), F(0)])

    def oracle(point):
        for con in family:
            if sum(c * v for c, v in zip(con.coeffs, point)) < con.rhs:
                return con
        return None

    generated = solve_with_row_generation(base, oracle, max_rounds=8)
    assert generated.objective_value == solve(full).objective_value == 3


def test_row_generation_cap_is_hard_error():
    base = LinearProgram(["x"], [F(1)], lower=[F(0)])
    # oracle keeps returning an already satisfied row: loop cannot make progress
    def broken_oracle(point):
        return Constraint((F(1),), ">=", F(0))

    with pytest.raises(RowGenerationLimitError):
        solve_with_row_generation(base, broken_oracle, max_rounds=3)


def test_row_generation_passes_through_infeasible():
    base = LinearProgram(["x"], [F(1)], lower=[F(0)], upper=[F(-1)])
    sol = solve_with_row_generation(base, lambda point: None, max_rounds=2)
    assert sol.status == "infeasible"
