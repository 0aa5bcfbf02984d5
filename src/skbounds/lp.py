"""Exact linear programming over rationals.

A two-phase primal simplex on a compact dictionary: only nonbasic columns
are stored, and pivoting swaps a basic row label with a nonbasic column
label.  Bland's least-index rule governs both the entering and the leaving
choice, so the method terminates even on the highly degenerate polyhedra
this package produces (subset constraints with zero right-hand sides).
Optimality is certified by the final dictionary (no improving reduced cost
for minimization), and the returned point is re-checked against every
original constraint and bound before the solver reports it.

The dictionary is fraction-free (Edmonds 1967; Bareiss 1968): every entry
is an integer over one positive common denominator, the determinant of
the current basis up to sign.  Each "<=" row starts as integers, scaled by
the lcm of its own denominators, which only rescales that row's slack
variable; the phase-two objective is scaled the same way.  A pivot
computes (a * p - f * b) // den, which is exact, touches the elimination
only where the pivot row is nonzero, and makes |p| the new denominator.
Positive rescaling of a row, a variable or the objective changes no sign
of an entry and no order between the ratios of one column, and these are
all that Bland's rule reads, so the pivots are exactly those of the same
simplex on the rational dictionary and the returned point is the same.
Rationals are rebuilt only for the result.  Integers are arbitrary
precision, so there is no overflow to detect.

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
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import InternalInvariantError, RowGenerationLimitError
from .rational import format_rational

RELATIONS = ("<=", ">=", "=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def _rational(value) -> Fraction:
    # Fractions are immutable and kept as they are: wrapping each coefficient
    # again costs a measurable share of LP set-up.
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(_rational(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", _rational(self.rhs))


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
        self.objective = [_rational(c) for c in self.objective]
        if self.lower is None:
            self.lower = [None] * n
        if self.upper is None:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match variable count")
        self.lower = [None if b is None else _rational(b) for b in self.lower]
        self.upper = [None if b is None else _rational(b) for b in self.upper]
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
    if not f:
        return row if p == den else [a * p // den for a in row]
    new = [a * p // den for a in row]
    for j, b in support:
        new[j] = (row[j] * p - f * b) // den
    new[k] = -sign * f
    return new


def _bland(rows, obj, row_vars, col_vars, den):
    """Run Bland's rule to optimality or unboundedness on the dictionary.

    Returns the status and the final common denominator.  Every decision
    reads a sign or compares two ratios of entries over the same
    denominator, so it matches the decision on the rational dictionary.
    """
    while True:
        pc = -1
        best_id = None
        for j in range(len(col_vars)):
            if obj[j + 1] > 0 and (best_id is None or col_vars[j] < best_id):
                best_id = col_vars[j]
                pc = j
        if pc < 0:
            return OPTIMAL, den
        k = pc + 1
        pr = -1
        for i, row in enumerate(rows):
            a = row[k]
            if a > 0:
                # row[0] / a < best_b / best_a, cross-multiplied (a, best_a > 0).
                if pr < 0:
                    take = True
                else:
                    lhs = row[0] * best_a
                    rhs = best_b * a
                    take = lhs < rhs or (lhs == rhs and row_vars[i] < best_rid)
                if take:
                    best_b, best_a, best_rid = row[0], a, row_vars[i]
                    pr = i
        if pr < 0:
            return UNBOUNDED, den
        den = _pivot(rows, obj, row_vars, col_vars, den, pr, pc)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """`values` times the lcm of their denominators, as integers, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


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
        # Coefficients over the nonnegative columns, plus the constant the
        # shifts add.  Each column belongs to one variable.
        acc = [0] * ncols
        const = 0
        for t, c in enumerate(coeffs):
            if c == 0:
                continue
            tr = transforms[t]
            if tr[0] == "shift":
                acc[tr[1]] = c
                const += c * tr[2]
            elif tr[0] == "mirror":
                acc[tr[1]] = -c
                const += c * tr[2]
            else:
                acc[tr[1]] = c
                acc[tr[2]] = -c
        return acc, const

    def le_rows(con: Constraint):
        # Each "<=" row is scaled to integers by its own L > 0, which only
        # rescales its slack: no sign and no ratio Bland's rule reads changes.
        acc, const = to_columns(con.coeffs)
        row, scale = _integer_row([con.rhs - const] + acc)
        if con.relation in ("<=", "="):
            yield row, scale
        if con.relation in (">=", "="):
            yield [-a for a in row], scale

    rows: list[list[int]] = []
    scales: list[int] = []
    for con in lp.constraints:
        for row, scale in le_rows(con):
            rows.append(row)
            scales.append(scale)
    for col, rhs in bound_rows:
        row = [0] * (ncols + 1)
        row[0] = rhs.numerator
        row[col + 1] = rhs.denominator
        rows.append(row)
        scales.append(rhs.denominator)
    den = 1

    col_vars = list(range(ncols))
    row_vars = [ncols + i for i in range(len(rows))]

    # Phase one: repair an infeasible slack basis with one artificial column.
    if any(row[0] < 0 for row in rows):
        art_id = ncols + len(rows)
        for row, scale in zip(rows, scales):
            row.append(-scale)  # -1 in the row before it was scaled by `scale`
        col_vars.append(art_id)
        aux = [0] * (len(col_vars) + 1)
        aux[len(col_vars)] = -1  # z_aux = artificial value
        pr = min(
            range(len(rows)), key=lambda i: (Fraction(rows[i][0], scales[i]), row_vars[i])
        )
        den = _pivot(rows, aux, row_vars, col_vars, den, pr, len(col_vars) - 1)
        status, den = _bland(rows, aux, row_vars, col_vars, den)
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
                den = _pivot(rows, aux, row_vars, col_vars, den, r, pc)
            else:
                del rows[r]
                del row_vars[r]
        pos = col_vars.index(art_id)
        for row in rows:
            del row[pos + 1]
        del col_vars[pos]

    # Phase two: install the real objective, expressed over the current
    # basis, as integers over `den` scaled by the lcm of its coefficients.
    col_coeff, const = to_columns(lp.objective)
    (const, *col_coeff), obj_scale = _integer_row([const] + col_coeff)
    obj = [0] * (len(col_vars) + 1)
    obj[0] = const * den
    position = {vid: j for j, vid in enumerate(col_vars)}
    basic_row = {vid: i for i, vid in enumerate(row_vars)}
    for vid, c in enumerate(col_coeff):
        if c == 0:
            continue
        if vid in position:
            obj[position[vid] + 1] -= c * den
        else:
            obj = [o + c * a for o, a in zip(obj, rows[basic_row[vid]])]

    status, den = _bland(rows, obj, row_vars, col_vars, den)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    values: dict[int, Fraction] = {}
    for i, vid in enumerate(row_vars):
        if vid < ncols:
            values[vid] = Fraction(rows[i][0], den)
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
    dictionary_value = Fraction(obj[0], den * obj_scale)
    if objective_value != dictionary_value:
        raise InternalInvariantError(
            f"objective mismatch: dictionary {dictionary_value} vs point value {objective_value}"
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
        lhs = sum((c * x for c, x in zip(con.coeffs, point) if c), _ZERO)
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
