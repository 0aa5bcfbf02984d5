"""Reference solver: the dense `Fraction` two-phase simplex on general LPs.

This is the two-phase Bland's-rule primal simplex that `skbounds.lp.solve`
used before it became a dual simplex on a fraction-free dictionary.  It
stores every entry as a `Fraction`, updates whole rows on each pivot, and
repairs an infeasible start with an artificial column, so it shares no
arithmetic and no pivot rule with the package's solver and serves as an
independent oracle.  Both must return the same status and objective
value; where the optimum is not unique the two may stop at different
optimal vertices.

It keeps the general input form `solve` no longer takes, `GeneralLP`:
lower bounds, upper-only and free variables, "<=", ">=" and "=" rows and
costs of either sign, so it may also report a program unbounded.  A
package `LinearProgram` is read as the `GeneralLP` with every lower bound
0, every row ">=" and every int a `Fraction`.  It returns the package's
`LpSolution` and does not re-check the point (`solve` does that on its
side).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from skbounds.lp import LinearProgram, LpSolution

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass
class GeneralLP:
    """Minimize objective . x subject to rows (coeffs, relation, rhs) and optional bounds."""

    variables: list[str]
    objective: Sequence[Fraction]
    rows: list[tuple[Sequence[Fraction], str, Fraction]] = field(default_factory=list)
    lower: Optional[list[Optional[Fraction]]] = None
    upper: Optional[list[Optional[Fraction]]] = None

    def __post_init__(self):
        n = len(self.variables)
        self.lower = [None] * n if self.lower is None else self.lower
        self.upper = [None] * n if self.upper is None else self.upper


def general_form(lp: LinearProgram) -> GeneralLP:
    """A package program as a `GeneralLP`: every variable >= 0, every row ">=".

    The package's ints become `Fraction`s, which this solver divides by.
    """
    rows = [([Fraction(c) for c in con.coeffs], ">=", Fraction(con.rhs)) for con in lp.constraints]
    upper = [None if u is None else Fraction(u) for u in lp.upper]
    objective = [Fraction(c) for c in lp.objective]
    return GeneralLP(list(lp.variables), objective, rows, [_ZERO] * len(lp.variables), upper)


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


def reference_solve(lp: GeneralLP | LinearProgram) -> LpSolution:
    if isinstance(lp, LinearProgram):
        lp = general_form(lp)
    n = len(lp.variables)

    transforms = []
    ncols = 0
    bound_rows = []
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

    rows = []
    for coeffs, relation, rhs in lp.rows:
        acc, const = to_columns(coeffs)
        rhs = rhs - const
        if relation in ("<=", "="):
            rows.append([rhs] + acc)
        if relation in (">=", "="):
            rows.append([-rhs] + [-a for a in acc])
    for col, rhs in bound_rows:
        acc = [_ZERO] * ncols
        acc[col] = Fraction(1)
        rows.append([rhs] + acc)

    col_vars = list(range(ncols))
    row_vars = [ncols + i for i in range(len(rows))]

    if any(row[0] < 0 for row in rows):
        art_id = ncols + len(rows)
        for row in rows:
            row.append(Fraction(-1))
        col_vars.append(art_id)
        aux = [_ZERO] * (len(col_vars) + 1)
        aux[len(col_vars)] = Fraction(-1)
        pr = min(range(len(rows)), key=lambda i: (rows[i][0], row_vars[i]))
        _pivot(rows, aux, row_vars, col_vars, pr, len(col_vars) - 1)
        _bland(rows, aux, row_vars, col_vars)
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

    if _bland(rows, obj, row_vars, col_vars) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    values = {vid: rows[i][0] for i, vid in enumerate(row_vars) if vid < ncols}
    point = []
    for tr in transforms:
        if tr[0] == "shift":
            point.append(tr[2] + values.get(tr[1], _ZERO))
        elif tr[0] == "mirror":
            point.append(tr[2] - values.get(tr[1], _ZERO))
        else:
            point.append(values.get(tr[1], _ZERO) - values.get(tr[2], _ZERO))
    value = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
    return LpSolution(OPTIMAL, tuple(point), value)
