"""Exact linear programming over integers, in one form.

A program minimizes c . x subject to rows coeffs . x >= rhs, x >= 0, and
x <= u for each variable that has an upper bound u, with every cost
c >= 0.  Every cost, bound, coefficient and right-hand side is an int, as
in both LPs of the package, which are built on the integer source.
`LinearProgram` raises TypeError, naming the entry, on anything else: the
integer arithmetic below would floor a `Fraction` silently.

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
Each returned point is checked exactly against every original row and
bound, in integers: the basic values xs over the dictionary's denominator.
LP duality certifies it optimal, with the duals read off the final
objective row (`_Dictionary.solution`; Chvatal 1983, ch. 5).

The dictionary is fraction-free (Edmonds 1967; Bareiss 1968): every entry
is an integer over one positive common denominator, the determinant of
the current basis up to sign.  A constraint's row, negated, is the
dictionary row of its slack; each upper bound u of x_t adds the row
[u, unit row t], and the objective row is [0, -c].  A pivot computes
(a * p - f * b) // den, which is exact, touches the elimination only
where the pivot row is nonzero, and makes |p| the new denominator.
Integers are arbitrary precision, so there is no overflow to detect.

`solve_with_row_generation` solves with a caller-supplied separation
oracle, for constraint families too large to materialize.  Round one
starts from the slack basis as `solve` does (`_optimal`), without calling
it.  Each round after the first appends the cut to that one dictionary,
which stays optimal between rounds: its row is
put over the current denominator and its slack, a unit column, becomes
basic, so the fraction-free invariant holds.  The old basis stays dual
feasible, and the same dual simplex restores primal feasibility in a few
pivots.  Every round's point is checked against the whole working LP in
the ints xs over den that the oracle then reads, and each row the oracle
returns must be violated there, in the same ints; only the final point
is certified by duality and built in `Fraction`s.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InternalInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


def _require_ints(kind: str, names: Sequence[str], values: Sequence) -> None:
    """Raise TypeError, naming the entry, on the first of `values` that is not an int."""
    for name, value in zip(names, values):
        if type(value) is not int:
            raise TypeError(f"{kind} of {name} is {value!r}, not an int")


@dataclass(frozen=True)
class Constraint:
    """The row coeffs . x >= rhs, in ints."""

    coeffs: tuple[int, ...]
    rhs: int


@dataclass
class LinearProgram:
    """Minimize objective . x subject to the constraints, x >= 0 and x <= upper where given."""

    variables: list[str]
    objective: list[int]
    constraints: list[Constraint] = field(default_factory=list)
    upper: list[Optional[int]] = None

    def __post_init__(self):
        n = len(self.variables)
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        _require_ints("cost", self.variables, self.objective)
        if self.upper is None:
            self.upper = [None] * n
        if len(self.upper) != n:
            raise ValueError("upper bound vector does not match variable count")
        _require_ints("upper bound", self.variables, [0 if u is None else u for u in self.upper])
        for con in self.constraints:
            self._check(con)

    def _check(self, con: Constraint) -> None:
        if len(con.coeffs) != len(self.variables):
            raise ValueError("constraint coefficient vector does not match variable count")
        _require_ints("coefficient", self.variables, con.coeffs)
        if type(con.rhs) is not int:
            raise TypeError(f"right-hand side is {con.rhs!r}, not an int")

    def add_constraint(self, coeffs: Sequence[int], rhs: int) -> None:
        con = Constraint(tuple(coeffs), rhs)
        self._check(con)
        self.constraints.append(con)


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]


def _pivot(rows, obj, row_vars, col_vars, den, pr, pc):
    """Pivot on rows[pr][pc + 1] and return the new common denominator.

    Dictionary convention, every entry an integer over the positive `den`:
    basic_i = (row[0] - sum_j row[j+1] * nonbasic_j) / den, and the
    objective is (obj[0] - sum_j obj[j+1] * nonbasic_j) / den.  Up to sign,
    each entry is a minor of the starting integer matrix and `den` the
    determinant of the current basis, so every division below is exact.

    The pivot entry is negative (`_dual_simplex` enters only a column that
    raises the leaving variable), so its row is negated first: the same
    values over the negated denominator, which makes the new one |p| > 0.
    """
    k = pc + 1
    prow = [-b for b in rows[pr]]
    p = prow[k]
    col_vars[pc], row_vars[pr] = row_vars[pr], col_vars[pc]
    # Only the columns where the pivot row is nonzero need elimination; the
    # rest only move to the new denominator.
    support = [(j, b) for j, b in enumerate(prow) if b and j != k]
    for r, row in enumerate(rows):
        if r != pr:
            rows[r] = _eliminate(row, support, k, p, den)
    obj[:] = _eliminate(obj, support, k, p, den)
    prow[k] = -den
    rows[pr] = prow
    return p


def _eliminate(row, support, k, p, den):
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
    new[k] = f
    return new


def _dual_simplex(rows, obj, row_vars, col_vars, den):
    """Run the dual simplex on a dual-feasible dictionary, the only pivot routine.

    The leaving and entering rules are the module docstring's.  The
    entering column has a negative entry in the leaving row, and its least
    ratio obj[j] / row[j] keeps every reduced cost nonpositive.  Returns
    the status, optimal or infeasible (no column can raise the leaving
    variable), and the final common denominator.
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


def _slack_row(con: Constraint) -> list[int]:
    """The dictionary row of `con`'s slack coeffs . x - rhs over den 1: the row negated."""
    return [-con.rhs, *(-c for c in con.coeffs)]


class _Dictionary:
    """An optimal fraction-free dictionary from `_optimal` and its point xs / den, to add rows to.

    Variable ids are 0..n - 1 for the LP's n variables, then one slack per
    row in order of addition: the constraints, the upper bounds, then each
    cut.  `slack_rows[vid - n]` is the index of slack vid's constraint in
    `lp.constraints`, or ~t for the upper bound of x_t.
    """

    def __init__(self, lp, rows, obj, row_vars, col_vars, den):
        self.n, self.rows, self.obj = len(lp.variables), rows, obj
        self.row_vars, self.col_vars, self.den = row_vars, col_vars, den
        self.slack_rows = [*range(len(lp.constraints))]
        self.slack_rows += [~t for t, up in enumerate(lp.upper) if up is not None]
        self.check(lp)

    def check(self, lp: LinearProgram) -> None:
        """Set xs, the point times den, once it meets all of `lp` in ints."""
        xs = [0] * self.n
        for row, vid in zip(self.rows, self.row_vars):
            if vid < self.n:
                xs[vid] = row[0]
        _verify(lp, xs, self.den)
        self.xs = xs

    def solution(self, lp: LinearProgram) -> LpSolution:
        """The checked point and its value, as `Fraction`s, once duality proves them optimal.

        The duals times den are the nonbasic slacks' negated reduced costs, y_i
        for row i and z_t for x_t <= u_t (0 if basic).  Over `lp`'s ints, raise
        unless y, z and every c_t * den - sum_i y_i * a_it + z_t are >= 0 and
        sum_i y_i * b_i - sum_t z_t * u_t equals both obj[0] and c . xs.
        """
        n, den, obj, xs = self.n, self.den, self.obj, self.xs
        y, z = [0] * len(lp.constraints), [0] * n
        for j, vid in enumerate(self.col_vars):
            if vid >= n:
                row = self.slack_rows[vid - n]
                if row >= 0:
                    y[row] = -obj[j + 1]
                else:
                    z[~row] = -obj[j + 1]
        reduced = [c * den + zt for c, zt in zip(lp.objective, z)]
        dual = -sum([zt * up for zt, up in zip(z, lp.upper) if zt])
        for yi, con in zip(y, lp.constraints):
            if yi:
                dual += yi * con.rhs
                for t, a in enumerate(con.coeffs):
                    if a:
                        reduced[t] -= yi * a
        primal = sum([c * x for c, x in zip(lp.objective, xs)])
        least = min([*y, *z, *reduced])
        if least < 0 or not primal == dual == obj[0]:
            raise InternalInvariantError(
                f"no optimality certificate: least dual or reduced cost {Fraction(least, den)},"
                f" values: point {Fraction(primal, den)}, dual {Fraction(dual, den)},"
                f" dictionary {Fraction(obj[0], den)}"
            )
        point = tuple(Fraction(x, den) for x in xs)
        return LpSolution(OPTIMAL, point, Fraction(obj[0], den))

    def add_cut(self, lp: LinearProgram, con: Constraint) -> bool:
        """Add the row of `con`, the last constraint of `lp`; re-optimize; True unless infeasible.

        Its slack row f, f0 - sum f[t + 1] * x_t, is put over `den` by
        replacing each basic variable with its row (slacks have no entry in
        f), and the slack, with the next free id, becomes basic.  That
        slack's column is a unit column, so the basis determinant `den` is
        unchanged and every entry stays an integer minor.  The old basis
        stays dual feasible, so the dual simplex finishes the round.
        """
        rows, row_vars, col_vars, den, n = self.rows, self.row_vars, self.col_vars, self.den, self.n
        form = _slack_row(con)
        new = [den * form[0]] + [den * form[vid + 1] if vid < n else 0 for vid in col_vars]
        for row, vid in zip(rows, row_vars):
            a = form[vid + 1] if vid < n else 0
            if a:
                new = [b - a * r for b, r in zip(new, row)]
        row_vars.append(len(rows) + len(col_vars))
        rows.append(new)
        self.slack_rows.append(len(lp.constraints) - 1)
        status, self.den = _dual_simplex(rows, self.obj, row_vars, col_vars, den)
        if status == OPTIMAL:
            self.check(lp)
        return status == OPTIMAL


def solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of a program whose costs are all >= 0.

    Returns status "optimal" with an exactly feasible point and objective
    value, or "infeasible".  Raises ValueError, naming the variable, on a
    negative cost, which leaves the slack basis dual infeasible.
    """
    dictionary = _optimal(lp)
    return LpSolution(INFEASIBLE, None, None) if dictionary is None else dictionary.solution(lp)


def _optimal(lp: LinearProgram) -> Optional[_Dictionary]:
    """The optimal dictionary of `lp` from its slack basis, checked against `lp`, or None if infeasible.

    Raises ValueError on a negative cost, as `solve` documents.
    """
    n = len(lp.variables)
    for name, cost in zip(lp.variables, lp.objective):
        if cost < 0:
            raise ValueError(
                f"variable {name} has cost {cost}, so the slack basis is not dual feasible:"
                " every cost must be >= 0"
            )
    # The slack basis: one row per constraint, then one per upper bound
    # x_t <= u, and the objective, whose reduced costs are the negated costs.
    rows = [_slack_row(con) for con in lp.constraints]
    for t, up in enumerate(lp.upper):
        if up is not None:
            rows.append([up] + [int(j == t) for j in range(n)])
    col_vars = list(range(n))
    row_vars = [n + i for i in range(len(rows))]
    obj = [0] + [-c for c in lp.objective]
    status, den = _dual_simplex(rows, obj, row_vars, col_vars, 1)
    return _Dictionary(lp, rows, obj, row_vars, col_vars, den) if status == OPTIMAL else None


def _lhs(con: Constraint, xs: Sequence[int]) -> int:
    """The left-hand side of `con` at the ints xs: the one evaluation of a row."""
    return sum([c * x for c, x in zip(con.coeffs, xs) if c])


def _verify(lp: LinearProgram, xs: Sequence[int], den: int) -> None:
    """Raise unless the point xs / den, den > 0, meets every bound and row of `lp` exactly.

    Each check is in ints: xs[t] >= 0, xs[t] <= u * den and, for each row,
    sum c * xs[t] >= rhs * den.  Only a message shows rationals.
    """
    for name, x, up in zip(lp.variables, xs, lp.upper):
        if x < 0:
            raise InternalInvariantError(f"{name} = {Fraction(x, den)} is negative")
        if up is not None and x > up * den:
            raise InternalInvariantError(f"{name} = {Fraction(x, den)} above upper bound {up}")
    for i, con in enumerate(lp.constraints):
        if (lhs := _lhs(con, xs)) < con.rhs * den:
            raise InternalInvariantError(
                f"returned point violates constraint {i}:"
                f" lhs {Fraction(lhs, den)} is not >= rhs {con.rhs}"
            )


SeparationOracle = Callable[[Sequence[int], int], Optional[Constraint]]


def solve_with_row_generation(
    lp_base: LinearProgram,
    oracle: SeparationOracle,
    max_rounds: int,
) -> LpSolution:
    """Iterate solve -> separate -> add row until the oracle certifies.

    Round one starts from the slack basis, as `solve` does, and each cut
    extends that dictionary.  The oracle receives each round's optimal
    point as ints xs over den > 0, checked against the whole working LP,
    and returns a violated Constraint or None (feasible for the whole
    family).  The result then equals a solve over the fully materialized
    family; only it is built in `Fraction`s and certified by duality.  An
    infeasible base LP, or a cut that makes the working LP infeasible, the
    last one included, returns "infeasible".  A returned row that the
    point already meets, by `_lhs` as `_verify` checks a row, is a
    hard error at once, naming the row: adding it cannot move the point,
    so the oracle would return it again until the cap.  A point still
    uncertified after `max_rounds` cuts is a hard error too: the families
    used here are finite, so running past them proves a bug.
    """
    lp = copy(lp_base)  # checked when built; each cut is checked by `add_constraint`
    lp.constraints = list(lp_base.constraints)
    dictionary = _optimal(lp)
    if dictionary is None:
        return LpSolution(INFEASIBLE, None, None)
    for _ in range(max_rounds):
        if (extra := oracle(dictionary.xs, dictionary.den)) is None:
            return dictionary.solution(lp)
        if (lhs := _lhs(extra, dictionary.xs)) >= extra.rhs * dictionary.den:
            row = " + ".join(f"{c} {name}" for c, name in zip(extra.coeffs, lp.variables) if c) or 0
            raise InternalInvariantError(
                f"separation oracle returned the row {row} >= {extra.rhs},"
                f" which the point already meets: lhs {Fraction(lhs, dictionary.den)}"
            )
        lp.add_constraint(extra.coeffs, extra.rhs)
        if not dictionary.add_cut(lp, extra):
            return LpSolution(INFEASIBLE, None, None)  # the cut proved the working LP infeasible
    raise InternalInvariantError(f"separation oracle did not certify within {max_rounds} rounds")
