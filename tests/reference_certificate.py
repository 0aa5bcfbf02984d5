"""The list form of `mmi`'s certificate, kept as the test oracle of the packed one.

`list_slack` is the certificate `skbounds.partitions` ran before it moved
to packed ints: the source contracted to the units of P*, one
`subset_weight_table` of the edges inside each union B times den, every
rate sum r(B) a list entry by doubling, and every slack a list entry,
slack[a] = den * w(E[M - a]) - r(M - a).  It raises the certificate's two
errors: r(M) other than den * H(M) - num, and a union of positive slack,
the first of the largest.  `list_count` counts the minimizers from that
list: 1 when `slack.count(0)` says that only the units and their union are
tight, else by the package's walk over the same list.
`tests/test_rate_rows.py` asserts that the packed certificate gives the
same verdict, message, tight count, slacks, count and listing.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from skbounds import InternalInvariantError, WeightedHypergraph
from skbounds.hypergraph import format_subset, subset_weight_table
from skbounds.partitions import Partition, _count_coarsenings


def list_slack(src: WeightedHypergraph, units: tuple[int, ...], num: int, den: int, value: Fraction) -> list[int]:
    """slack[a] for each union a of the units (bit i for units[i]), once every check passes."""
    bit = [0] * src.m
    for i, unit in enumerate(units):
        for v in range(src.m):
            if unit >> v & 1:
                bit[v] = 1 << i
    contracted: dict[int, int] = {}
    for e, w in src.weights.items():
        a = 0
        for v in range(src.m):
            if e >> v & 1:
                a |= bit[v]
        contracted[a] = contracted.get(a, 0) + w * den
    table = subset_weight_table(len(units), contracted)  # table[B] = den * w(E[B])
    top = table[-1]  # den * H(M)
    rates = [0]  # rates[B] = r(B), by doubling
    for i in range(len(units)):
        rate = top - table[-1 - (1 << i)] - num  # r_C = den * (H(M) - w(E[M - C])) - num
        rates = [*rates, *(r + rate for r in rates)]
    if rates[-1] != top - num:
        raise InternalInvariantError(
            f"the truncation's partition {Partition(src.m, units)} does not have its value I = {value}"
        )
    slack = list(map(sub, reversed(table), reversed(rates)))
    worst = max(slack[1:])
    if worst > 0:
        a = slack.index(worst, 1)
        merged = format_subset(sum(unit for i, unit in enumerate(units) if a >> i & 1))
        raise InternalInvariantError(
            f"merging the cells of P* inside {merged} gives a partition of value below I = {value}"
        )
    return slack


def list_count(slack: list[int]) -> int:
    """The number of partitions of the units into >= 2 tight unions, from the slack list."""
    if slack.count(0) == len(slack).bit_length():
        return 1
    return _count_coarsenings(slack)
