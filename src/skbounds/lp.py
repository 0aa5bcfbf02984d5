"""Exact linear programming over rationals, in one form.

A program minimizes c . x subject to rows coeffs . x >= rhs, x >= 0, and
x <= u for each variable that has an upper bound u, with every cost
c >= 0.  Both LPs of the package have that form.

One method solves it: the dual simplex on a compact dictionary (only
nonbasic columns are stored; a pivot swaps a basic row label with a
nonbasic column label), started from the slack basis.  There every reduced
cost is a column's cost, so the start is dual feasible exactly when no
cost is negative, and `solve` raises ValueError on a negative one.  A
dual-feasible program is bounded below, so the outcome is optimal (no
basic variable negative) or infeasible (a negative one that no column can
raise).

The most negative basic value leaves, least basic id on ties; after a
pivot whose entering reduced cost is 0, the least basic id among the
negative ones leaves instead, until the objective next changes.  The
column of least ratio of reduced cost to row entry enters, least column
id on ties.  This is finite: a pivot that changes the objective strictly
raises it, so no basis recurs across such pivots, and in a run at one
objective every pivot after the first is Bland's rule read on the dual,
which cannot cycle (Chvatal, *Linear Programming*, 1983, ch. 3 and 10).
Optimality is certified by the final dictionary, and the point is checked
exactly against every original row and bound before it is returned; the
row check runs in integers, over one common denominator per point.

The dictionary is fraction-free (Edmonds 1967; Bareiss 1968): every entry
is an integer over one positive common denominator, the determinant of
the current basis up to sign.  Each constraint builds its integer form
once, the row times the lcm of its own denominators; negated, that is the
dictionary row of its slack, rescaled by that lcm.  Each upper bound adds
one row, and the objective is scaled to integers the same way.  A pivot
computes (a * p - f * b) // den, which is exact, touches the elimination
only where the pivot row is nonzero, and makes |p| the new denominator.
Integers are arbitrary precision, so there is no overflow to detect.

`solve_with_row_generation` wraps `solve` with a caller-supplied separation
oracle for constraint families too large to materialize.  Each round after
the first appends the cut to the previous optimal dictionary: its integer
row is put over the current denominator and its slack, a unit column,
becomes basic, so the fraction-free invariant holds.  The old basis stays
dual feasible, and the same dual simplex restores primal feasibility in a
few pivots.  Every round's point is checked against the whole working LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InternalInvariantError
from .rational import to_integers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)


def _rational(value) -> Fraction:
    # Fractions are immutable and kept as they are: wrapping each coefficient
    # again costs a measurable share of LP set-up.
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float, not exact")
    return Fraction(value)


@dataclass(frozen=True)
class Constraint:
    """The row coeffs . x >= rhs."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    # The row times the lcm of its denominators, built once for `solve`,
    # `add_cut` and `_verify`: the integer rhs and (index, coefficient) for
    # each nonzero coefficient.
    _integer_form: tuple[int, list[tuple[int, int]]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_rational(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", _rational(self.rhs))
        (rhs, *ints), _ = to_integers([self.rhs, *self.coeffs])
        terms = [(t, c) for t, c in enumerate(ints) if c]
        object.__setattr__(self, "_integer_form", (rhs, terms))


@dataclass
class LinearProgram:
    """Minimize objective . x subject to the constraints, x >= 0 and x <= upper where given."""

    variables: list[str]
    objective: list[Fraction]
    constraints: list[Constraint] = field(default_factory=list)
    upper: list[Optional[Fraction]] = None

    def __post_init__(self):
        n = len(self.variables)
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        self.objective = [_rational(c) for c in self.objective]
        if self.upper is None:
            self.upper = [None] * n
        if len(self.upper) != n:
            raise ValueError("upper bound vector does not match variable count")
        self.upper = [None if b is None else _rational(b) for b in self.upper]
        for con in self.constraints:
            self._check(con)

    def _check(self, con: Constraint) -> None:
        if len(con.coeffs) != len(self.variables):
            raise ValueError("constraint coefficient vector does not match variable count")

    def add_constraint(self, coeffs: Sequence[Fraction], rhs: Fraction) -> None:
        con = Constraint(tuple(coeffs), rhs)
        self._check(con)
        self.constraints.append(con)


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]
    # The optimal dictionary behind the point, which row generation extends
    # with each cut; not part of the result.
    _dictionary: Optional[_Dictionary] = field(default=None, compare=False, repr=False)


def _pivot(rows, obj, row_vars, col_vars, den, pr, pc):
    """Pivot on rows[pr][pc + 1] and return the new common denominator.

    Dictionary convention, every entry an integer over the positive `den`:
    basic_i = (row[0] - sum_j row[j+1] * nonbasic_j) / den, and the
    objective is (obj[0] - sum_j obj[j+1] * nonbasic_j) / den.  Up to sign,
    each entry is a minor of the starting integer matrix and `den` the
    determinant of the current basis, so every division below is exact.
    """
    k = pc + 1
    prow = rows[pr]
    p = prow[k]
    sign = 1
    if p < 0:
        # The same values with numerators and denominator negated, so the
        # new denominator |p| is positive.
        prow = [-b for b in prow]
        p, sign = -p, -1
    col_vars[pc], row_vars[pr] = row_vars[pr], col_vars[pc]
    # Only the columns where the pivot row is nonzero need elimination; the
    # rest only move to the new denominator.
    support = [(j, b) for j, b in enumerate(prow) if b and j != k]
    for r, row in enumerate(rows):
        if r != pr:
            rows[r] = _eliminate(row, support, k, p, den, sign)
    obj[:] = _eliminate(obj, support, k, p, den, sign)
    prow[k] = sign * den
    rows[pr] = prow
    return p


def _eliminate(row, support, k, p, den, sign):
    f = row[k]
    if p == den:
        # The denominator stays, so each entry only loses f * b / den, an
        # integer because the new entry and the old one are.
        if not f:
            return row
        new = row[:]
        for j, b in support:
            new[j] -= f * b // den
    else:
        new = [a * p // den for a in row]
        if not f:
            return new
        for j, b in support:
            new[j] = (row[j] * p - f * b) // den
    new[k] = -sign * f
    return new


def _dual_simplex(rows, obj, row_vars, col_vars, den):
    """Run the dual simplex on a dual-feasible dictionary, the only pivot routine.

    The most negative basic value leaves, least basic id on ties, or, after
    a pivot whose entering reduced cost was 0, the least basic id among the
    negative ones.  Among the columns that can raise the leaving variable
    (negative entry in its row), the one with the least ratio
    obj[j] / row[j] enters, least column id on ties, which keeps every
    reduced cost nonpositive.  Returns the status, optimal or infeasible (no
    column can raise the leaving variable), and the final common
    denominator.
    """
    least_id = False
    while True:
        pr = -1
        for i, row in enumerate(rows):
            b = row[0]
            if b < 0 and (
                pr < 0 or (row_vars[i] < row_vars[pr] if least_id or b == best else b < best)
            ):
                pr, best = i, b
        if pr < 0:
            return OPTIMAL, den
        prow = rows[pr]
        pc = -1
        for j in range(len(col_vars)):
            a = prow[j + 1]
            # obj[j + 1] / a < best_o / best_a, cross-multiplied (a * best_a > 0).
            if a < 0 and (
                pc < 0
                or (d := obj[j + 1] * best_a - best_o * a) < 0
                or (d == 0 and col_vars[j] < col_vars[pc])
            ):
                best_o, best_a, pc = obj[j + 1], a, j
        if pc < 0:
            return INFEASIBLE, den
        # A zero reduced cost leaves the objective where it is.
        least_id = not obj[pc + 1]
        den = _pivot(rows, obj, row_vars, col_vars, den, pr, pc)


def _slack_row(con: Constraint, n: int) -> list[int]:
    """The dictionary row [rhs, *coefficients] of `con`'s slack, from its integer form.

    The slack L * (coeffs . x - rhs), with L > 0 the scale of the integer
    form, reads (row[0] - sum row[t + 1] * x_t) in the dictionary's
    convention: the integer form negated.
    """
    rhs, terms = con._integer_form
    row = [-rhs] + [0] * n
    for t, c in terms:
        row[t + 1] = -c
    return row


class _Dictionary:
    """An optimal fraction-free dictionary of `solve`, kept to add rows to.

    Variable ids are 0..n - 1 for the LP's n variables, then one slack per
    row in order of addition; the objective row is over `den * obj_scale`.
    """

    def __init__(self, n, rows, obj, obj_scale, row_vars, col_vars, den):
        self.n, self.rows, self.obj, self.obj_scale = n, rows, obj, obj_scale
        self.row_vars, self.col_vars, self.den = row_vars, col_vars, den

    def solution(self, lp: LinearProgram) -> LpSolution:
        """The dictionary's point, checked against every row and bound of `lp`."""
        point = [_ZERO] * self.n
        for row, vid in zip(self.rows, self.row_vars):
            if vid < self.n:
                point[vid] = Fraction(row[0], self.den)
        objective_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
        dictionary_value = Fraction(self.obj[0], self.den * self.obj_scale)
        if objective_value != dictionary_value:
            raise InternalInvariantError(
                f"objective mismatch: dictionary {dictionary_value}"
                f" vs point value {objective_value}"
            )
        _verify(lp, point)
        return LpSolution(OPTIMAL, tuple(point), objective_value, self)

    def add_cut(self, lp: LinearProgram, con: Constraint) -> LpSolution:
        """Add the row of `con`, the last constraint of `lp`, and re-optimize.

        Its slack row f, f0 - sum f[t + 1] * x_t, is put over `den` by
        replacing each basic variable with its row (slacks have no entry in
        f), and the slack, with the next free id, becomes basic.  That
        slack's column is a unit column, so the basis determinant `den` is
        unchanged and every entry stays an integer minor.  The old basis
        stays dual feasible, so the dual simplex finishes the round.
        """
        rows, row_vars, col_vars, den, n = self.rows, self.row_vars, self.col_vars, self.den, self.n
        form = _slack_row(con, n)
        new = [den * form[0]] + [den * form[vid + 1] if vid < n else 0 for vid in col_vars]
        for row, vid in zip(rows, row_vars):
            a = form[vid + 1] if vid < n else 0
            if a:
                new = [b - a * r for b, r in zip(new, row)]
        row_vars.append(len(rows) + len(col_vars))
        rows.append(new)
        status, self.den = _dual_simplex(rows, self.obj, row_vars, col_vars, den)
        if status != OPTIMAL:
            return LpSolution(status, None, None)
        return self.solution(lp)


def solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of a program whose costs are all >= 0.

    Returns status "optimal" with an exactly feasible point and objective
    value, or "infeasible".  Raises ValueError, naming the variable, on a
    negative cost, which leaves the slack basis dual infeasible.
    """
    n = len(lp.variables)
    for name, cost in zip(lp.variables, lp.objective):
        if cost < 0:
            raise ValueError(
                f"variable {name} has cost {cost}, so the slack basis is not dual feasible:"
                " every cost must be >= 0"
            )
    # The slack basis: one row per constraint, then one per upper bound
    # x_t <= u, each scaled to integers by its own L > 0, and the objective,
    # whose reduced costs are the negated costs, scaled by their lcm.
    rows = [_slack_row(con, n) for con in lp.constraints]
    for t, up in enumerate(lp.upper):
        if up is not None:
            rows.append(to_integers([up] + [int(j == t) for j in range(n)])[0])
    col_vars = list(range(n))
    row_vars = [n + i for i in range(len(rows))]
    costs, obj_scale = to_integers(lp.objective)
    obj = [0] + [-c for c in costs]

    status, den = _dual_simplex(rows, obj, row_vars, col_vars, 1)
    if status != OPTIMAL:
        return LpSolution(status, None, None)
    return _Dictionary(n, rows, obj, obj_scale, row_vars, col_vars, den).solution(lp)


def _verify(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    """Raise unless `point` meets every bound and every row of `lp` exactly.

    The bounds are compared as rationals.  For the rows the point is put
    over one common denominator D once, as ints xs = D * point, and each row
    is read in its integer form, L * (rhs, coeffs) with L > 0: the row holds
    exactly when sum L*c * xs[t] >= L*rhs * D.  Only a failing row is summed
    again in rationals, for the message.
    """
    for name, x, up in zip(lp.variables, point, lp.upper):
        if x < 0:
            raise InternalInvariantError(f"{name} = {x} is negative")
        if up is not None and x > up:
            raise InternalInvariantError(f"{name} = {x} above upper bound {up}")
    xs, d = to_integers(point)
    for i, con in enumerate(lp.constraints):
        rhs, terms = con._integer_form
        if sum([c * xs[t] for t, c in terms]) < rhs * d:
            lhs = sum((c * x for c, x in zip(con.coeffs, point) if c), _ZERO)
            raise InternalInvariantError(
                f"returned point violates constraint {i}: lhs {lhs} is not >= rhs {con.rhs}"
            )


SeparationOracle = Callable[[tuple[Fraction, ...]], Optional[Constraint]]


def solve_with_row_generation(
    lp_base: LinearProgram,
    oracle: SeparationOracle,
    max_rounds: int,
) -> LpSolution:
    """Iterate solve -> separate -> add row until the oracle certifies.

    The oracle receives the current optimal point and returns a violated
    Constraint or None (feasible for the whole family).  The result then
    equals a solve over the fully materialized family.  Only the first round
    calls `solve`; each later round appends the cut to the previous round's
    optimal dictionary, which stays dual feasible, and re-optimizes it by
    the dual simplex.  Every round's point is rebuilt and checked against
    the whole working LP, as `solve` checks its own.  Exceeding
    `max_rounds` is a hard error: the families used here are finite, so
    running past them proves a bug.
    """
    lp = replace(lp_base, constraints=list(lp_base.constraints))
    sol = solve(lp)
    for _ in range(max_rounds):
        if sol.status != OPTIMAL:
            return sol
        extra = oracle(sol.point)
        if extra is None:
            return sol
        lp._check(extra)
        lp.constraints.append(extra)
        sol = sol._dictionary.add_cut(lp, extra)
    raise InternalInvariantError(
        f"separation oracle did not certify within {max_rounds} rounds"
    )
