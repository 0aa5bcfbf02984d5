"""The line parser of hypergraph documents, kept as a test oracle.

This is `skbounds.cli.parse_document` as it was before the edge line built
its vertex mask while reading the tokens: every token is stripped of its
leading zeros, checked for repeats as a set and range-checked on its own,
and every weight literal is searched for a long digit run before it is
matched.  It shares no parsing code with the package, only the error types
and `WeightedHypergraph`; `tests/test_parse_fuzz.py` asserts that the
package's parser returns an equal source, or raises the same error with
the same message, on generated documents.
"""

from __future__ import annotations

import re
from fractions import Fraction

from skbounds import CapExceededError, InputFormatError, WeightedHypergraph, mask_of
from skbounds.hypergraph import MAX_VERTICES

_HEADER_RE = re.compile(r"^m[ \t]*=[ \t]*(\d+)$", re.ASCII)
_EDGE_RE = re.compile(r"^edge((?:[ \t]+\d+)+)[ \t]*:[ \t]*([^ \t]+)$", re.ASCII)
_MAX_DIGITS = len(str(MAX_VERTICES))
_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)
_DECIMAL_RE = re.compile(r"[+-]?\d+\.\d+", re.ASCII)
_MAX_DIGIT_RUN = 4300
_LONG_RUN_RE = re.compile(rf"\d{{{_MAX_DIGIT_RUN + 1}}}", re.ASCII)


def _digits(token: str) -> str:
    return token.lstrip("0") or "0"


def _rational(text: str) -> Fraction:
    s = text.strip(" \t")
    if _LONG_RUN_RE.search(s):
        raise ValueError(f"more than {_MAX_DIGIT_RUN} digits in a row")
    if _FRACTION_RE.fullmatch(s):
        num, _, den = s.partition("/")
        if den:
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(int(num), d)
        return Fraction(int(num))
    if _DECIMAL_RE.fullmatch(s):
        return Fraction(s)
    raise ValueError(f"not a rational literal: {text!r}")


def reference_parse(text: str) -> WeightedHypergraph:
    """Parse a hypergraph document line by line; raises InputFormatError with line numbers."""
    m = None
    weights: dict[int, Fraction] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        if m is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise InputFormatError("expected header 'm = <count>'", line_no)
            count = _digits(match.group(1))
            if len(count) > _MAX_DIGITS or int(count) > MAX_VERTICES:
                raise CapExceededError(
                    f"line {line_no}: m = {count} exceeds the supported maximum of {MAX_VERTICES}"
                )
            m = int(count)
            if m < 2:
                raise InputFormatError("need at least 2 terminals", line_no)
            continue
        match = _EDGE_RE.match(line)
        if not match:
            raise InputFormatError(f"unrecognized line: {line!r}", line_no)
        tokens = [_digits(tok) for tok in match.group(1).split()]
        if len(set(tokens)) != len(tokens):
            raise InputFormatError("repeated vertex in edge", line_no)
        for tok in tokens:
            if len(tok) > _MAX_DIGITS or not 1 <= int(tok) <= m:
                raise InputFormatError(f"vertex {tok} outside 1..{m}", line_no)
        vertices = [int(tok) for tok in tokens]
        try:
            weight = _rational(match.group(2))
        except ValueError as exc:
            raise InputFormatError(str(exc), line_no) from exc
        if weight <= 0:
            raise InputFormatError(f"weight must be positive, got {weight}", line_no)
        mask = mask_of(vertices)
        weights[mask] = weights[mask] + weight if mask in weights else weight
    if m is None:
        raise InputFormatError("empty document: missing 'm = <count>' header")
    if not weights:
        raise InputFormatError("document lists no edges")
    return WeightedHypergraph(m, weights)
