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

Hypergraphs are immutable after construction, which is enforced: the
weights are a read-only view (`types.MappingProxyType`), so assigning to
one raises TypeError.  All operations are pure, so instances can be
shared freely across concurrent work.  A hypergraph keeps two values,
each the same whoever builds it first, each under one key of its
`__dict__` that only its owner reads and writes: the `flow.Run` that
`flow.fundamental` keeps (its integer source and L, I, P*, an optimal
rate point, the packed subset table where its guard built one and, when
the singletons' rate rows decided the run, those rows, `mmi`'s
certificate), and the `MmiResult` that `partitions.mmi` certifies from
it.  UB's last round, which certifies x* in Gamma, rides on the packing
it certifies, not here.  Neither value is a dataclass field, so equality
and `repr` read only m and the weights, and a pickle or deep copy
carries only those two and rebuilds the rest when read.

The packed kernels, `packed_table`, `rate_rows` and `tight_rows`, read
their masks through `_kept`, which keeps them per (m, W) in `_KEPT` for
m <= KEPT_M = 13 and W <= 64, and builds them on each call past that,
each kernel only its own: the m zeta masks of `packed_table` (`_zeta`),
and the doubling's ones and the ones and top bits of every field but
the full set's (`_fields`).  Each value is the same whoever builds it
first, and the two of one (m, W) hold under (m + 2) * 2^m * W bits of
ints: at most 983,040 bytes, at (13, 64), or 1.0 MiB in CPython's 30-bit
digits, and 3.3 MiB over all 52 pairs (m, W); everything a benchmark
pool reaches (m <= 10, W <= 16) adds up to 11-33 KB.  At m = 20 and
W = 64 they would hold 176 MiB.  The cap is on the masks only: a
subset table is built and kept at any m (`flow.step_table`).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import CapExceededError
from .rational import to_integers

# Hyperedges are bitmasks; parsing rejects anything wider than this.
MAX_VERTICES = 20

# The largest m whose packed kernels' masks `_KEPT` keeps per (m, W) (module docstring).
KEPT_M = 13
_KEPT: dict[tuple, tuple] = {}


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


# `edges` sorts by a key that reads no vertex tuple: vertex v gives
# character v - 1, "0" if v is in the mask and "1" if not, up to its
# largest vertex.  Two vertex tuples first differ where one holds a vertex
# the other lacks, or ends; a tuple that ends there is a prefix and so
# the shorter key.
_FLIP = str.maketrans("01", "10")


def format_subset(mask: int) -> str:
    """Render a vertex subset as "{1,2}"."""
    return "{" + ",".join(str(v) for v in vertices_of(mask)) + "}"


def subset_weight_table(m: int, entries: Mapping[int, Fraction | int]) -> list[Fraction | int]:
    """table[B] = total value of entries on hyperedges e contained in B.

    With a source's weights as entries this is the entropy of every group B
    given the rest.  Computed with a subset-sum (zeta) transform in
    O(2^m * m) additions, in one of two forms chosen by the values alone.
    Each mask must lie in 0..2^m - 1, else ValueError.

    * Every value a non-negative int (not bool) and their total below 2^64:
      the table is `packed_table` at the narrowest width of 8, 16, 32 and
      64 bits that holds the total, unpacked through an `array` in
      little-endian order, byte-swapped on a big-endian host.
    * Otherwise (Fractions, negative ints, totals of 2^64 or more): for
      each bit b, the half of the table without b is added to the half
      with it by list slices, b strided ones while b^2 < 2^m and
      2^m / 2b contiguous runs after.

    Sums stay in the type of the entries (Fractions or ints); a subset
    that contains no hyperedge holds int 0.
    """
    values = entries.values()
    width = packed_width(sum(values)) if naturals(values) else 0
    return _packed_table(m, entries, width) if width else _list_table(m, entries)


# Array type code of unsigned W-bit fields, by W, narrowest first.
_CODES = {8 * array(code).itemsize: code for code in "BHIQ"}


def naturals(values: Collection) -> bool:
    """True when every value is an int >= 0 (not a bool), as a packed table needs."""
    return {*map(type, values)} <= {int} and min(values, default=0) >= 0


def packed_width(bound: int) -> int:
    """The narrowest W of 8, 16, 32 and 64 with bound < 2^W, or 0 if none is that wide."""
    return next((width for width in _CODES if bound >> width == 0), 0)


def _check_masks(m: int, entries: Mapping[int, object]) -> None:
    """ValueError unless every mask of `entries` lies in 0..2^m - 1."""
    if entries:
        lo, hi = min(entries), max(entries)
        if lo < 0 or hi >> m:
            raise ValueError(f"mask {lo if lo < 0 else hi} is not a subset of m = {m} terminals")


def packed_table(m: int, entries: Mapping[int, int], width: int) -> int:
    """`subset_weight_table` packed into one int of W-bit fields, field B at bits W*B.

    Every value is an int >= 0 and their total is below 2^W, W = `width`
    (8, 16, 32 or 64); no table entry exceeds the total, so no field
    carries into the next.  Each bit b is one addition of the fields
    without b, shifted onto those with it: T += (T & M_b) << W*2^b, with
    the masks M_b of `_zeta`, kept (`_kept`).
    """
    _check_masks(m, entries)
    fields = array(_CODES[width], [0]) * (1 << m)
    for mask, value in entries.items():
        fields[mask] = value
    if sys.byteorder == "big":
        fields.byteswap()
    packed = int.from_bytes(fields, "little")
    for s, mask in _kept(_zeta, m, width):
        packed += (packed & mask) << s
        del mask  # past KEPT_M the masks come one at a time: free this one before the next is made
    return packed


def rate_rows(m: int, table: int, width: int, rates: Sequence[int]) -> tuple[int, bool]:
    """(gaps, holds): every row rates(B) >= table(B), B a mask other than 2^m - 1, in one subtraction.

    `table` is packed in W-bit fields, W = `width`, as `packed_table`
    packs, and rates(B) is the sum of the int `rates` of B's members.
    Both sides go in with a bias of HALF = 2^(W-1): the rate sums are
    packed by doubling from HALF in field 0, so field B of `gaps`, the
    difference, is rates(B) - table(B) + HALF.  Every |rates(B)| and
    |rates(B) - table(B)| must be below HALF (`row_width` gives such a W);
    then no field borrows from the next, and row B holds exactly when the
    top bit of its field is set.  The full set's field holds no row.
    `holds` is True when every row holds, and `tight_rows` counts the
    tight ones from the same gaps.  The doubling's ones and the top bits
    are those of `_fields`, kept (`_kept`).
    """
    ones, _, high = _kept(_fields, m, width)
    have = 1 << width - 1  # field B: rates(B) + HALF
    for i, (rate, unit) in enumerate(zip(rates, ones)):
        have |= (have + rate * unit) << (width << i)
    gaps = have - table
    return gaps, gaps & high == high


def tight_rows(m: int, width: int, gaps: int) -> int:
    """The number of rows of `rate_rows`' `gaps` that hold with equality, once every row holds.

    Each such field is rates(B) - table(B) + HALF >= HALF, and it keeps
    its top bit when 1 is taken off exactly when the row is not tight.
    """
    _, rest, high = _kept(_fields, m, width)
    return (1 << m) - 1 - ((gaps - rest) & high).bit_count()


def _zeta(m: int, width: int) -> Iterator[tuple[int, int]]:
    """`packed_table`'s steps (W*2^b, M_b) on m terminals in W-bit fields, from the top bit b down.

    M_b holds the runs of s = W*2^b bits at even multiples of s:
    (comb << s) - comb, comb having a 1 at each of them.  Each step
    halves the period.  They are made one at a time, so that a table
    whose masks are not kept holds one at a time.
    """
    comb = 1
    for bit in reversed(range(m)):
        s = width << bit
        up = comb << s
        yield s, up - comb
        comb |= up


def _fields(m: int, width: int) -> tuple[tuple[int, ...], int, int]:
    """(ones, rest, high) on m terminals in W-bit fields: ones[i] has a 1 in each of the first
    2^i fields, for `rate_rows`' doubling; rest has a 1 in every field but the full set's, and
    high has their top bits."""
    ones, unit = [], 1
    for i in range(m):
        ones.append(unit)
        unit |= unit << (width << i)
    rest = unit ^ 1 << width * ((1 << m) - 1)
    return tuple(ones), rest, rest << width - 1


def _kept(build, m: int, width: int):
    """build(m, width), `_zeta` or `_fields`, kept as a tuple in `_KEPT` for m <= KEPT_M and
    W <= 64 (module docstring), else built on each call."""
    found = _KEPT.get((build, m, width))
    if found is None:
        found = build(m, width)
        if m <= KEPT_M and width <= 64:
            found = _KEPT[build, m, width] = tuple(found)
    return found


def row_width(total: int, rates: Sequence[int]) -> int:
    """The field width `rate_rows` needs for a table of total `total` >= 0 and these int rates.

    Every |rates(B)| is at most the sum of the |rates|, and every
    |rates(B) - table(B)| at most that plus `total`, so twice that bound
    below 2^W leaves the top bit of each field free.  The narrowest of 8,
    16, 32 and 64 bits that holds it, as `packed_table` packs, or else the
    least multiple of 64.
    """
    bound = (sum(map(abs, rates)) + total) << 1
    return packed_width(bound) or -(-bound.bit_length() // 64) * 64


def pack(values: Sequence[int], width: int) -> int:
    """The ints 0 <= v < 2^W, W = `width` a multiple of 8, as one int of W-bit fields, the first lowest."""
    if width in _CODES:
        fields = array(_CODES[width], values)
        if sys.byteorder == "big":
            fields.byteswap()
        return int.from_bytes(fields, "little")
    return int.from_bytes(b"".join([v.to_bytes(width >> 3, "little") for v in values]), "little")


def unpack(packed: int, count: int, width: int) -> Sequence[int]:
    """The `count` W-bit fields of `packed` >= 0, W = `width` a multiple of 8, lowest first:
    an `array` of W-bit fields, W bits a field, for W of 8, 16, 32 and 64, else a list."""
    data = packed.to_bytes(width * count >> 3, "little")
    if width in _CODES:
        fields = array(_CODES[width], data)
        if sys.byteorder == "big":
            fields.byteswap()
        return fields
    size = width >> 3
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _packed_table(m: int, entries: Mapping[int, int], width: int) -> list[int]:
    """`subset_weight_table` from `packed_table` at `width`, unpacked to a list."""
    return unpack(packed_table(m, entries, width), 1 << m, width).tolist()


def _list_table(m: int, entries: Mapping[int, Fraction | int]) -> list[Fraction | int]:
    """`subset_weight_table` by list slices, in the type of the entries."""
    _check_masks(m, entries)
    size = 1 << m
    table = [0] * size
    for mask, value in entries.items():
        table[mask] += value
    for bit in range(m):
        b = 1 << bit
        if b * b < size:
            for j in range(b):
                table[j + b::2 * b] = map(add, table[j + b::2 * b], table[j::2 * b])
        else:
            for j in range(0, size, 2 * b):
                table[j + b:j + 2 * b] = map(add, table[j + b:j + 2 * b], table[j:j + b])
    return table


@dataclass(frozen=True)
class WeightedHypergraph:
    """Terminal count plus a map from hyperedge bitmasks to positive weights.

    Zero-weight entries are dropped on construction (the edge set is the
    support of the weight function); negative weights are rejected, and so
    are floats, which are not exact.  Int weights are stored as ints, every
    other weight as a `Fraction`, in a read-only mapping.
    """

    m: int
    weights: Mapping[int, Fraction | int]

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
            if type(mask) is not int or mask <= 0 or mask > full:  # bool is an int subclass
                raise ValueError(f"hyperedge mask {mask!r} is not a nonempty subset of {{1..{self.m}}}")
            if isinstance(value, float):
                raise TypeError(f"weight {value!r} on {format_subset(mask)} is a float, not exact")
            if type(value) is not int and type(value) is not Fraction:
                value = Fraction(value)
            if value.numerator > 0:  # an int's numerator is itself: no Fraction comparison
                clean[mask] = value
            elif value:
                raise ValueError(f"negative weight {value} on hyperedge {format_subset(mask)}")
        object.__setattr__(self, "weights", MappingProxyType(clean))

    def __reduce__(self):
        # A mapping proxy does not pickle; the kept values are rebuilt when read.
        return WeightedHypergraph, (self.m, dict(self.weights))

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def edges(self) -> tuple[int, ...]:
        """Hyperedge masks in canonical order (sorted by vertex tuple)."""
        return tuple(sorted(self.weights, key=lambda e: bin(e)[:1:-1].translate(_FLIP)))

    @property
    def total_entropy(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    @property
    def is_graph(self) -> bool:
        """True when every hyperedge has exactly two vertices."""
        return all(mask.bit_count() == 2 for mask in self.weights)

    def integer_source(self) -> tuple["WeightedHypergraph", int]:
        """(source, L): L the lcm of the weights' denominators, source's weights L * w as ints.

        Built on each call and kept nowhere: `flow.fundamental`, its one
        caller in the package, keeps it with the run, so `analyze` and the
        solvers it calls scale each hypergraph once.  Its masks are this
        hypergraph's and its weights positive ints, so it is built by
        `_unchecked`.
        """
        ints, scale = to_integers(self.weights.values())
        return _unchecked(self.m, dict(zip(self.weights, ints))), scale

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


def _unchecked(m: int, weights: dict[int, Fraction | int]) -> WeightedHypergraph:
    """A hypergraph that holds `weights` itself, read-only, with none of the constructor's checks.

    For callers that have made them already: m in 2..MAX_VERTICES, every
    mask a nonempty subset of {1..m} and every weight a positive int or
    `Fraction`.  The integer source and `cli.parse_document` build theirs
    this way.
    """
    hg = object.__new__(WeightedHypergraph)
    hg.__dict__.update(m=m, weights=MappingProxyType(weights))
    return hg
