"""The cold row-generation loop, kept as a test oracle.

This is the loop `skbounds.lp.solve_with_row_generation` ran before it
warm-started: every round appends the cut to the working LP and solves it
again from its slack basis with `solve`, so no dictionary carries over
from one round to the next.
`tests/test_rowgen_oracle.py` asserts that both loops reach the same
status and value.
"""

from __future__ import annotations

from dataclasses import replace

from skbounds.errors import InternalInvariantError
from skbounds.lp import OPTIMAL, LinearProgram, LpSolution, SeparationOracle, solve


def reference_row_generation(
    lp_base: LinearProgram, oracle: SeparationOracle, max_rounds: int
) -> LpSolution:
    """Solve, separate, add the row and solve again, until the oracle certifies."""
    lp = replace(lp_base, constraints=list(lp_base.constraints))
    for _ in range(max_rounds):
        sol = solve(lp)
        if sol.status != OPTIMAL:
            return sol
        extra = oracle(sol.point)
        if extra is None:
            return sol
        lp.constraints.append(extra)
    raise InternalInvariantError(f"separation oracle did not certify within {max_rounds} rounds")
