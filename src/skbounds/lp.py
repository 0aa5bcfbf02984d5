"""Exact linear programming over rationals.

A two-phase primal simplex on a compact dictionary: only nonbasic columns
are stored, and pivoting swaps a basic row label with a nonbasic column
label.  Bland's least-index rule governs both the entering and the leaving
choice, so the method terminates even on the highly degenerate polyhedra
this package produces (subset constraints with zero right-hand sides).
Every comparison is exact; integers are arbitrary precision, so there is no
overflow to detect.  Optimality is certified by the final dictionary (no
improving reduced cost for minimization), and the returned point is
re-checked against every original constraint and bound before the solver
reports it.

Free variables are split into differences of nonnegative parts, variables
with a lower bound are shifted, upper bounds become rows, and equalities
become opposing inequalities.  Infeasible starts are repaired in phase one
with a single artificial variable.

`solve_with_row_generation` wraps `solve` with a caller-supplied separation
oracle for constraint families too large to materialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InternalInvariantError, RowGenerationLimitError
from .rational import format_rational

RELATIONS = ("<=", ">=", "=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))


@dataclass
class LinearProgram:
    """Minimization program with named variables and optional var bounds."""

    variables: list[str]
    objective: list[Fraction]
    constraints: list[Constraint] = field(default_factory=list)
    lower: list[Optional[Fraction]] = None
    upper: list[Optional[Fraction]] = None

    def __post_init__(self):
        n = len(self.variables)
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        self.objective = [Fraction(c) for c in self.objective]
        if self.lower is None:
            self.lower = [None] * n
        if self.upper is None:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match variable count")
        self.lower = [None if b is None else Fraction(b) for b in self.lower]
        self.upper = [None if b is None else Fraction(b) for b in self.upper]
        for con in self.constraints:
            self._check(con)

    def _check(self, con: Constraint) -> None:
        if len(con.coeffs) != len(self.variables):
            raise ValueError("constraint coefficient vector does not match variable count")

    def add_constraint(self, coeffs: Sequence[Fraction], relation: str, rhs: Fraction) -> None:
        con = Constraint(tuple(coeffs), relation, rhs)
        self._check(con)
        self.constraints.append(con)

    def copy(self) -> "LinearProgram":
        return LinearProgram(
            list(self.variables),
            list(self.objective),
            list(self.constraints),
            list(self.lower),
            list(self.upper),
        )


def _linear_expr(coeffs: Sequence[Fraction], names: Sequence[str]) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        if c == 1:
            terms.append(("+", name))
        elif c == -1:
            terms.append(("-", name))
        elif c > 0:
            terms.append(("+", f"{format_rational(c)} {name}"))
        else:
            terms.append(("-", f"{format_rational(-c)} {name}"))
    if not terms:
        return "0"
    sign, first = terms[0]
    out = first if sign == "+" else f"-{first}"
    for sign, term in terms[1:]:
        out += f" {sign} {term}"
    return out


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]


def _pivot(rows, obj, row_vars, col_vars, pr, pc):
    # Dictionary convention: basic_i = row[0] - sum_j row[j+1] * nonbasic_j,
    # objective z = obj[0] - sum_j obj[j+1] * nonbasic_j.
    prow = rows[pr]
    piv = prow[pc + 1]
    inv = 1 / piv
    newrow = [v * inv for v in prow]
    newrow[pc + 1] = inv
    rows[pr] = newrow
    col_vars[pc], row_vars[pr] = row_vars[pr], col_vars[pc]
    for r, row in enumerate(rows):
        if r == pr:
            continue
        f = row[pc + 1]
        if f == 0:
            continue
        updated = [a - f * b for a, b in zip(row, newrow)]
        updated[pc + 1] = -f * inv
        rows[r] = updated
    f = obj[pc + 1]
    if f != 0:
        updated = [a - f * b for a, b in zip(obj, newrow)]
        updated[pc + 1] = -f * inv
        obj[:] = updated


def _bland(rows, obj, row_vars, col_vars):
    """Run Bland's rule to optimality or unboundedness on the dictionary."""
    while True:
        pc = -1
        best_id = None
        for j in range(len(col_vars)):
            if obj[j + 1] > 0 and (best_id is None or col_vars[j] < best_id):
                best_id = col_vars[j]
                pc = j
        if pc < 0:
            return OPTIMAL
        pr = -1
        best_ratio = None
        best_rid = None
        for i, row in enumerate(rows):
            a = row[pc + 1]
            if a > 0:
                ratio = row[0] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and row_vars[i] < best_rid)
                ):
                    best_ratio = ratio
                    best_rid = row_vars[i]
                    pr = i
        if pr < 0:
            return UNBOUNDED
        _pivot(rows, obj, row_vars, col_vars, pr, pc)


def solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of a minimization program.

    Returns status "optimal" with an exactly feasible point and objective
    value, or "infeasible"/"unbounded".
    """
    n = len(lp.variables)

    # Map each original variable onto nonnegative columns.
    transforms = []
    ncols = 0
    bound_rows = []  # (column, rhs): column value <= rhs
    for t in range(n):
        lo, up = lp.lower[t], lp.upper[t]
        if lo is not None:
            transforms.append(("shift", ncols, lo))
            if up is not None:
                bound_rows.append((ncols, up - lo))
            ncols += 1
        elif up is not None:
            transforms.append(("mirror", ncols, up))
            ncols += 1
        else:
            transforms.append(("split", ncols, ncols + 1))
            ncols += 2

    def to_columns(coeffs: Sequence[Fraction]):
        # Coefficients over the nonnegative columns, plus the constant the shifts add.
        acc = [_ZERO] * ncols
        const = _ZERO
        for t, c in enumerate(coeffs):
            if c == 0:
                continue
            tr = transforms[t]
            if tr[0] == "shift":
                acc[tr[1]] += c
                const += c * tr[2]
            elif tr[0] == "mirror":
                acc[tr[1]] -= c
                const += c * tr[2]
            else:
                acc[tr[1]] += c
                acc[tr[2]] -= c
        return acc, const

    def le_rows(con: Constraint):
        acc, const = to_columns(con.coeffs)
        rhs = con.rhs - const
        if con.relation in ("<=", "="):
            yield acc, rhs
        if con.relation in (">=", "="):
            yield [-a for a in acc], -rhs

    rows: list[list[Fraction]] = []
    for con in lp.constraints:
        for acc, rhs in le_rows(con):
            rows.append([rhs] + acc)
    for col, rhs in bound_rows:
        acc = [_ZERO] * ncols
        acc[col] = Fraction(1)
        rows.append([rhs] + acc)

    col_vars = list(range(ncols))
    row_vars = [ncols + i for i in range(len(rows))]

    # Phase one: repair an infeasible slack basis with one artificial column.
    if any(row[0] < 0 for row in rows):
        art_id = ncols + len(rows)
        for row in rows:
            row.append(Fraction(-1))
        col_vars.append(art_id)
        aux = [_ZERO] * (len(col_vars) + 1)
        aux[len(col_vars)] = Fraction(-1)  # z_aux = artificial value
        pr = min(range(len(rows)), key=lambda i: (rows[i][0], row_vars[i]))
        _pivot(rows, aux, row_vars, col_vars, pr, len(col_vars) - 1)
        status = _bland(rows, aux, row_vars, col_vars)
        if status != OPTIMAL:
            raise InternalInvariantError("phase-one objective cannot be unbounded")
        if aux[0] != 0:
            return LpSolution(INFEASIBLE, None, None)
        if art_id in row_vars:
            r = row_vars.index(art_id)
            pc = -1
            best_id = None
            for j in range(len(col_vars)):
                if rows[r][j + 1] != 0 and (best_id is None or col_vars[j] < best_id):
                    best_id = col_vars[j]
                    pc = j
            if pc >= 0:
                _pivot(rows, aux, row_vars, col_vars, r, pc)
            else:
                del rows[r]
                del row_vars[r]
        pos = col_vars.index(art_id)
        for row in rows:
            del row[pos + 1]
        del col_vars[pos]

    # Phase two: install the real objective, expressed over the current basis.
    col_coeff, const = to_columns(lp.objective)
    obj = [_ZERO] * (len(col_vars) + 1)
    obj[0] = const
    position = {vid: j for j, vid in enumerate(col_vars)}
    basic_row = {vid: i for i, vid in enumerate(row_vars)}
    for vid, c in enumerate(col_coeff):
        if c == 0:
            continue
        if vid in position:
            obj[position[vid] + 1] += -c
        else:
            i = basic_row[vid]
            obj[0] += c * rows[i][0]
            for j in range(len(col_vars)):
                obj[j + 1] += c * rows[i][j + 1]

    status = _bland(rows, obj, row_vars, col_vars)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    values: dict[int, Fraction] = {}
    for i, vid in enumerate(row_vars):
        if vid < ncols:
            values[vid] = rows[i][0]
    point = []
    for t in range(n):
        tr = transforms[t]
        if tr[0] == "shift":
            point.append(tr[2] + values.get(tr[1], _ZERO))
        elif tr[0] == "mirror":
            point.append(tr[2] - values.get(tr[1], _ZERO))
        else:
            point.append(values.get(tr[1], _ZERO) - values.get(tr[2], _ZERO))
    objective_value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    if objective_value != obj[0]:
        raise InternalInvariantError(
            f"objective mismatch: dictionary {obj[0]} vs point value {objective_value}"
        )
    _verify(lp, point)
    return LpSolution(OPTIMAL, tuple(point), objective_value)


def _verify(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    for t, x in enumerate(point):
        lo, up = lp.lower[t], lp.upper[t]
        if lo is not None and x < lo:
            raise InternalInvariantError(f"{lp.variables[t]} = {x} below lower bound {lo}")
        if up is not None and x > up:
            raise InternalInvariantError(f"{lp.variables[t]} = {x} above upper bound {up}")
    for con in lp.constraints:
        lhs = sum((c * x for c, x in zip(con.coeffs, point)), _ZERO)
        ok = (
            lhs <= con.rhs if con.relation == "<="
            else lhs >= con.rhs if con.relation == ">="
            else lhs == con.rhs
        )
        if not ok:
            raise InternalInvariantError(
                f"returned point violates {_linear_expr(con.coeffs, lp.variables)}"
                f" {con.relation} {format_rational(con.rhs)} (lhs = {lhs})"
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
    equals a solve over the fully materialized family.  Exceeding
    `max_rounds` is a hard error: the families used here are finite, so
    running past them proves a bug.
    """
    lp = lp_base.copy()
    for _ in range(max_rounds):
        sol = solve(lp)
        if sol.status != OPTIMAL:
            return sol
        extra = oracle(sol.point)
        if extra is None:
            return sol
        lp._check(extra)
        lp.constraints.append(extra)
    raise RowGenerationLimitError(
        f"separation oracle did not certify within {max_rounds} rounds"
    )
