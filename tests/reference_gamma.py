"""The reduced-source path of the Gamma and Type S lines, kept as a test oracle.

Before `analyze` read UB's last round, `_report_checks` built the source
reduced by x* (`restrict`, then its own integer source) and ran
`flow.dinkelbach` on it: the capacity of the reduced source is the Gamma
line's value, and the size of its P* the Type S line's.  This module runs
that path directly, with no kept run and no certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from skbounds import WeightedHypergraph
from skbounds.flow import dinkelbach


def reduced_source_lines(hg: WeightedHypergraph, entries: Mapping[int, Fraction]) -> tuple[Fraction, int]:
    """(I, |P*|) of `hg` reduced by the packing `entries`, by one Dinkelbach run of its own."""
    src, scale = hg.restrict(entries).integer_source()
    run = dinkelbach(src)
    return Fraction(run.n, run.d * scale), len(run.cells)
