"""Exact secret-key capacity and communication bounds for hypergraphical sources."""

from .bounds import (
    analyze,
    graphical_bounds,
    r_co_direct,
    separation_oracle,
    upper_bound_theorem1,
    verify_gamma_membership,
)
from .errors import (
    CapExceededError,
    InputFormatError,
    InternalInvariantError,
    SkboundsError,
)
from .hypergraph import WeightedHypergraph, mask_of, subset_weight_table
from .partitions import cross_edges, mmi

__all__ = [
    "CapExceededError",
    "InputFormatError",
    "InternalInvariantError",
    "SkboundsError",
    "WeightedHypergraph",
    "analyze",
    "cross_edges",
    "graphical_bounds",
    "mask_of",
    "mmi",
    "r_co_direct",
    "separation_oracle",
    "subset_weight_table",
    "upper_bound_theorem1",
    "verify_gamma_membership",
]
