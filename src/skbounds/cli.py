"""Command-line front end.

Reads a line-oriented hypergraph document, runs the requested analysis, and
prints a human-readable or JSON report.

Document format::

    # comment
    m = 4
    edge 1 2 : 2
    edge 3 4 : 1.5

Duplicate edge lines merge by summing weights.  Lines end with LF or
CRLF, the only whitespace is space and tab, and `#` starts a comment.
One regex pass reads every line, and one loop over its matches checks
the header, each edge line and each distinct literal once, and words
every error.
Exit codes: 0 success, 1 invariant violation (under --check),
2 malformed or unsuitable input (input that is not UTF-8 included),
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from fractions import Fraction

from .bounds import (
    analyze,
    graphical_bounds,
    r_co_direct,
    run_checks,
    upper_bound_theorem1,
)
from .errors import CapExceededError, InputFormatError, InternalInvariantError, SkboundsError
from .hypergraph import MAX_VERTICES, WeightedHypergraph, _unchecked, format_subset, mask_of
from .partitions import mmi
from .rational import format_rational, parse_rational

# A line's end: a comment, a CR and the LF.
_END = r"(?:#[^\n]*)?\r?\n"
# One line of a document, after its leading blanks: an edge line, a header,
# a blank or comment line, or else the rest of the line.  The last always
# matches, so the leading blanks are never given back.  The literal has no
# CR, or else one that is not right before the LF, and then stops where the
# line can end: a CR right before the LF ends the line, and any other CR
# belongs to the literal.  No run of blanks can be split between two
# quantifiers, so a line is read in linear time, whether it matches or not.
_LINE_RE = re.compile(
    rf"[ \t]*(?:edge([ \t]+\d[ \t\d]*):[ \t]*([^ \t#\n\r]+|[^ \t#\n\r]*\r(?!\n)[^ \t#\n]*?)(?:\n|[ \t]*{_END})"
    rf"|m[ \t]*=[ \t]*(\d+)[ \t]*{_END}|{_END}|([^\n]*)\n)",
    re.ASCII,
)
# Counts and vertices never exceed MAX_VERTICES, so a longer token is out of
# range without converting it (int() refuses strings over 4,300 digits).
_MAX_DIGITS = len(str(MAX_VERTICES))
# The mask of each plain vertex token "1".."20".  Any other token adds no
# bit, so its line has fewer bits than tokens.
_VERTEX_MASKS = {str(v): 1 << (v - 1) for v in range(1, MAX_VERTICES + 1)}


def _digits(token: str) -> str:
    """A digit token without its leading zeros: its length bounds its value."""
    return token.lstrip("0") or "0"


def parse_document(text: str) -> WeightedHypergraph:
    """Parse a hypergraph document; raises InputFormatError with line numbers.

    One `findall` of `_LINE_RE` over the text reads one match per line, so
    the match index is the line number; a line it does not recognize is
    split off the text only to word the error.  An edge line's vertex mask
    is built from its plain tokens ("1".."20"); only when a token is not
    one, or the bits are not one per token within 1..m, are the tokens
    checked one by one, for the message.  Each distinct literal goes
    through `parse_rational`, its one validator, and the positivity check
    once per document; a repeat reads the weight kept for it.  The weights
    are then checked, so the hypergraph is built without the constructor
    checking them again (`hypergraph._unchecked`).
    """
    m = 0  # until the header
    weights: dict[int, Fraction] = {}
    parsed: dict[str, Fraction] = {}  # each literal read so far, with its checked weight
    for line_no, (vertices, literal, count, other) in enumerate(_LINE_RE.findall(text + "\n"), 1):
        if vertices and m:
            tokens = vertices.split()
            mask = 0
            for tok in tokens:
                mask |= _VERTEX_MASKS.get(tok, 0)
            if mask >> m or mask.bit_count() != len(tokens):
                tokens = [_digits(tok) for tok in tokens]
                if len(set(tokens)) != len(tokens):
                    raise InputFormatError("repeated vertex in edge", line_no)
                for tok in tokens:
                    if len(tok) > _MAX_DIGITS or not 1 <= int(tok) <= m:
                        raise InputFormatError(f"vertex {tok} outside 1..{m}", line_no)
                mask = mask_of(map(int, tokens))  # only zero-padded vertices get here
            weight = parsed.get(literal)
            if weight is None:
                try:
                    weight = parse_rational(literal)
                except ValueError as exc:
                    raise InputFormatError(str(exc), line_no) from exc
                if weight.numerator <= 0:
                    raise InputFormatError(f"weight must be positive, got {weight}", line_no)
                parsed[literal] = weight
            weights[mask] = weights[mask] + weight if mask in weights else weight
        elif count and not m:
            count = _digits(count)
            if len(count) > _MAX_DIGITS or int(count) > MAX_VERTICES:
                raise CapExceededError(
                    f"line {line_no}: m = {count} exceeds the supported maximum of {MAX_VERTICES}"
                )
            m = int(count)
            if m < 2:
                raise InputFormatError("need at least 2 terminals", line_no)
        elif count or vertices or other:
            if not m:
                raise InputFormatError("expected header 'm = <count>'", line_no)
            # The line without its final CR, its comment and its outer blanks.
            line = text.split("\n")[line_no - 1].removesuffix("\r").split("#", 1)[0].strip(" \t")
            raise InputFormatError(f"unrecognized line: {line!r}", line_no)
    if not m:
        raise InputFormatError("empty document: missing 'm = <count>' header")
    if not weights:
        raise InputFormatError("document lists no edges")
    return _unchecked(m, weights)


# Each renderer and command returns (JSON fields, text lines); main adds "m"
# and prints one of the two.


def _mmi_output(result):
    doc = {
        "mmi": {
            "value": format_rational(result.value),
            "fundamental": [list(cell) for cell in result.fundamental.vertex_cells()],
            "minimizer_count": result.minimizer_count,
        }
    }
    lines = [
        f"I(X_M) = {format_rational(result.value)}",
        f"P* = {result.fundamental}",
        f"minimizers = {result.minimizer_count}",
    ]
    return doc, lines


def _ub_output(hg: WeightedHypergraph, bound, packing):
    doc = {
        "ub_theorem1": format_rational(bound),
        "x_star": {format_subset(e): format_rational(packing.entries[e]) for e in hg.edges},
    }
    lines = [f"UB(Thm 1) = {format_rational(bound)}"] + [
        f"x*({format_subset(e)}) = {format_rational(packing.entries[e])}"
        for e in hg.edges
    ]
    return doc, lines


# Each command takes (hg, report), where report is the analyze report for
# analyze and under --check: a command reads its quantity from it, and
# without one computes only that quantity.  `mmi` reads the result kept on
# hg, which is the report's.
def _cmd_analyze(hg, report):
    mmi_doc, mmi_lines = _mmi_output(report.mmi)
    ub_doc, ub_lines = _ub_output(hg, report.ub_theorem1, report.x_star)
    doc = {
        "entropy_total": format_rational(report.entropy_total),
        **mmi_doc,
        "r_co": format_rational(report.r_co),
        **ub_doc,
        "graphical": None
        if report.graphical is None
        else {
            "ub_theorem2": format_rational(report.graphical.ub_theorem2),
            "lower_bound": format_rational(report.graphical.lower_bound),
            "ci": format_rational(report.graphical.ci),
            # Always equal to ci; the key stays for schema compatibility.
            "cross_edge_sum": format_rational(report.graphical.ci),
        },
    }
    lines = [
        f"m = {hg.m}",
        f"H(X_M) = {format_rational(report.entropy_total)}",
        *mmi_lines,
        f"R_CO = {format_rational(report.r_co)}",
        *ub_lines,
    ]
    if report.graphical is not None:
        lines.extend(
            [
                f"UB(Thm 2) = {format_rational(report.graphical.ub_theorem2)}",
                f"LB(Thm 3) = {format_rational(report.graphical.lower_bound)}",
                f"CI = {format_rational(report.graphical.ci)}",
                f"cross(P*) = {format_rational(report.graphical.ci)}",
            ]
        )
    else:
        lines.append("graphical bounds: n/a (not a graph)")
    return doc, lines


def _cmd_mmi(hg, report):
    return _mmi_output(mmi(hg))


def _cmd_rco(hg, report):
    value = r_co_direct(hg)[0] if report is None else report.r_co
    return {"r_co": format_rational(value)}, [f"R_CO = {format_rational(value)}"]


def _cmd_ub(hg, report):
    if report is None:
        return _ub_output(hg, *upper_bound_theorem1(hg))
    return _ub_output(hg, report.ub_theorem1, report.x_star)


def _cmd_lb(hg, report):
    graphical = graphical_bounds(hg) if report is None else report.graphical
    bound = format_rational(graphical.lower_bound)
    return {"lower_bound": bound}, [f"LB(Thm 3) = {bound}"]


# Each command's handler and its --help line.
_COMMANDS = {
    "analyze": (
        _cmd_analyze,
        "full report: entropy, capacity, omniscience rate, packing bound, graph bounds",
    ),
    "mmi": (_cmd_mmi, "capacity (shared-information minimum) and fundamental partition"),
    "rco": (_cmd_rco, "minimum communication rate for omniscience"),
    "ub": (_cmd_ub, "packing-LP upper bound with an optimal packing"),
    "lb": (_cmd_lb, "graphical lower bound on the communication for capacity"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skbounds",
        description="Exact secret-key capacity and communication bounds for hypergraphical sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="hypergraph document, or - for stdin")
        cmd.add_argument("--json", action="store_true", help="emit a machine-readable report")
        cmd.add_argument(
            "--check",
            action="store_true",
            help="additionally run the invariant suite; exit 1 on any violation",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Bytes, decoded strictly: CR and CRLF reach the parser untranslated,
        # and input that is not UTF-8 exits 2 on both paths.
        if args.path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.path, "rb") as handle:
                data = handle.read()
        hg = parse_document(data.decode("utf-8"))
        if args.command == "lb" and not hg.is_graph:
            raise InputFormatError("lower bound needs a graphical source (all edges of size 2)")
        report = None
        if args.command == "analyze" or args.check:
            # A library warning prints as one plain stderr line, on every
            # call, not in Python's format with a source path and line.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = analyze(hg)
            for warning in caught:
                print(f"skbounds: warning: {warning.message}", file=sys.stderr)
        doc, lines = _COMMANDS[args.command][0](hg, report)
        if args.json:
            lines = [json.dumps({"m": hg.m, **doc}, indent=2)]
        for line in lines:
            print(line)
        if args.check:
            failures = 0
            for label, ok, value, expected in run_checks(hg, report):
                if ok:
                    print(f"check {label}: ok", file=sys.stderr)
                else:
                    failures += 1
                    print(f"check {label}: FAIL ({value} vs {expected})", file=sys.stderr)
            if failures:
                return 1
    except CapExceededError as exc:
        print(f"skbounds: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"skbounds: internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, SkboundsError) as exc:
        print(f"skbounds: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
