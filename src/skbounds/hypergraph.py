"""Weighted hypergraphs on the terminal set {1..m} and their entropies.

Vertex subsets are bitmasks (vertex i occupies bit i-1), so subset algebra
is plain integer arithmetic.  A hypergraph stores only hyperedges of
strictly positive weight: the edge set is exactly the support of the weight
function.  The weight of a hyperedge is the entropy of the independent
randomness shared by the terminals it contains, which yields the two closed
forms used throughout this package:

* the entropy of a group A is the total weight of hyperedges meeting A;
* the entropy of A given the remaining terminals is the total weight of
  hyperedges contained in A.

Hypergraphs are immutable after construction and all operations are pure,
so instances can be shared freely across concurrent work; the one value a
hypergraph keeps, its integer source, is the same whoever builds it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import CapExceededError
from .rational import to_integers

# Hyperedges are bitmasks; parsing rejects anything wider than this.
MAX_VERTICES = 20


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection (vertices are 1-based)."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Ascending vertex tuple of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def format_subset(mask: int) -> str:
    """Render a vertex subset as "{1,2}"."""
    return "{" + ",".join(str(v) for v in vertices_of(mask)) + "}"


def subset_weight_table(m: int, entries: Mapping[int, Fraction | int]) -> list[Fraction | int]:
    """table[B] = total value of entries on hyperedges e contained in B.

    With a source's weights as entries this is the entropy of every group B
    given the rest.  Computed with a subset-sum (zeta) transform in
    O(2^m * m) additions.  Sums stay in the type of the entries (Fractions
    or ints); a subset that contains no hyperedge holds int 0.
    """
    table = [0] * (1 << m)
    for mask, value in entries.items():
        table[mask] += value
    for bit in range(m):
        b = 1 << bit
        # The masks containing the bit come in runs of b, every 2b masks.
        for lo in range(b, 1 << m, 2 * b):
            for s in range(lo, lo + b):
                table[s] += table[s ^ b]
    return table


@dataclass(frozen=True)
class WeightedHypergraph:
    """Terminal count plus a map from hyperedge bitmasks to positive weights.

    Zero-weight entries are dropped on construction (the edge set is the
    support of the weight function); negative weights are rejected, and so
    are floats, which are not exact.  Int weights are stored as ints, every
    other weight as a `Fraction`.
    """

    m: int
    weights: dict[int, Fraction | int]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("a source needs at least 2 terminals")
        if self.m > MAX_VERTICES:
            raise CapExceededError(
                f"m = {self.m} exceeds the supported maximum of {MAX_VERTICES}"
            )
        full = (1 << self.m) - 1
        clean: dict[int, Fraction | int] = {}
        for mask, value in self.weights.items():
            if not isinstance(mask, int) or mask <= 0 or mask > full:
                raise ValueError(f"hyperedge mask {mask!r} is not a nonempty subset of {{1..{self.m}}}")
            if isinstance(value, float):
                raise TypeError(f"weight {value!r} on {format_subset(mask)} is a float, not exact")
            if type(value) is not int:
                value = Fraction(value)
            if value < 0:
                raise ValueError(f"negative weight {value} on hyperedge {format_subset(mask)}")
            if value > 0:
                clean[mask] = value
        object.__setattr__(self, "weights", clean)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def edges(self) -> tuple[int, ...]:
        """Hyperedge masks in canonical order (sorted by vertex tuple)."""
        return tuple(sorted(self.weights, key=vertices_of))

    @property
    def total_entropy(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    @property
    def is_graph(self) -> bool:
        """True when every hyperedge has exactly two vertices."""
        return all(mask.bit_count() == 2 for mask in self.weights)

    def integer_source(self) -> tuple["WeightedHypergraph", int]:
        """(source, L): L the lcm of the weights' denominators, source's weights L * w as ints.

        Built on the first call and kept on the instance, so `analyze` and
        the solvers it calls scale each hypergraph once.
        """
        built = self.__dict__.get("_integer_source")
        if built is None:
            ints, scale = to_integers(self.weights.values())
            built = WeightedHypergraph(self.m, dict(zip(self.weights, ints))), scale
            self.__dict__["_integer_source"] = built
        return built

    def entropy_table(self) -> list[Fraction]:
        """Entropy of every group A (weight of the hyperedges meeting A), by mask."""
        cond = subset_weight_table(self.m, self.weights)
        total = self.total_entropy
        full = self.full_mask
        return [total - cond[full ^ a] for a in range(full + 1)]

    def restrict(self, packing: Mapping[int, Fraction]) -> "WeightedHypergraph":
        """Source left after partially removing hyperedge randomness.

        `packing` must assign a value 0 <= x(e) <= w(e) to every hyperedge,
        of any type the constructor accepts as a weight; hyperedges reduced
        to zero drop out of the new support.
        """
        if set(packing) != set(self.weights):
            raise ValueError("packing must assign a value to exactly the hyperedges of the source")
        reduced = WeightedHypergraph(self.m, dict(packing))
        for mask, value in reduced.weights.items():
            if value > self.weights[mask]:
                raise ValueError(
                    f"packing entry {value} exceeds weight {self.weights[mask]} on {format_subset(mask)}"
                )
        return reduced
