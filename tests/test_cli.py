import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skbounds import CapExceededError, InputFormatError, InternalInvariantError, analyze
from skbounds.bounds import run_checks
from skbounds.cli import main, parse_document
from skbounds.hypergraph import vertices_of
from skbounds.rational import format_rational, parse_rational

from conftest import FIXTURE_DIR, fixture_text, random_graph, random_hypergraph
from reference_packing import reference_packing
from reference_rco import reference_rco

# Runs `python -m skbounds.cli` on this checkout's src/.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_example1():
    hg = parse_document(fixture_text("example1.hg"))
    assert hg.m == 4
    assert hg.total_entropy == 5


def test_parse_merges_duplicate_edges():
    hg = parse_document("m = 3\nedge 1 2 : 1\nedge 2 1 : 1\n")
    assert hg.weights == {0b011: 2}


def _edge_line(mask, weight):
    return f"edge {' '.join(map(str, vertices_of(mask)))} : {format_rational(weight)}"


@pytest.mark.parametrize("make", [random_hypergraph, random_graph], ids=["hypergraph", "graph"])
def test_splitting_an_edge_line_changes_nothing(make, tmp_path, capsys):
    # One edge line becomes two duplicate lines whose weights sum to its
    # weight, the second moved to the end of the document.
    rng = random.Random(3141)
    for m in range(3, 7):
        hg = make(rng, m)
        split = rng.choice(hg.edges)
        w = hg.weights[split]
        part = w * Fraction(rng.randint(1, 4), 5)
        others = [_edge_line(e, hg.weights[e]) for e in hg.edges if e != split]
        whole = "\n".join([f"m = {m}", _edge_line(split, w), *others, ""])
        halves = "\n".join(
            [f"m = {m}", _edge_line(split, part), *others, _edge_line(split, w - part), ""]
        )
        halves_hg, whole_hg = parse_document(halves), parse_document(whole)
        report = analyze(whole_hg)
        assert analyze(halves_hg) == report
        assert analyze(halves_hg).mmi.minimizer_cells == report.mmi.minimizer_cells
        # So do the full-row reference LPs, rate point and x* included.
        assert reference_rco(halves_hg) == reference_rco(whole_hg)
        capacity = report.mmi.value
        assert reference_packing(halves_hg, capacity, "full") == reference_packing(
            whole_hg, capacity, "full"
        )
        outputs = []
        for name, text in (("whole.hg", whole), ("halves.hg", halves)):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            outputs.append(run_cli(capsys, "analyze", "--json", str(path))[:2])
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


def test_parse_accepts_decimal_weights():
    hg = parse_document("m = 2\nedge 1 2 : 1.5\n")
    assert hg.weights[0b11] == parse_rational("3/2")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("m = 4\nedge 1 5 : 1\n", "line 2"),
        ("m = 1\nedge 1 : 1\n", "line 1"),
        ("edge 1 2 : 1\n", "header"),
        ("m = 3\nedge 1 1 : 1\n", "repeated"),
        ("m = 3\nedge 1 2 : 0\n", "positive"),
        ("m = 3\nedge 1 2 : -1/2\n", "positive"),
        ("m = 3\nedge 1 2 : nope\n", "line 2"),
        ("m = 3\nedge : 1\n", "line 2"),
        ("m = 3\n", "no edges"),
        ("", "header"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(InputFormatError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_analyze_example1_lines(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "example1.hg"))
    assert code == 0
    lines = out.splitlines()
    assert "I(X_M) = 3/2" in lines
    assert "P* = {{1,2},{3},{4}}" in lines
    assert "R_CO = 7/2" in lines
    assert "UB(Thm 1) = 3" in lines
    assert "x*({1,2}) = 3/2" in lines


def test_lb_example2(capsys):
    code, out, _ = run_cli(capsys, "lb", str(FIXTURE_DIR / "example2.hg"))
    assert code == 0
    assert out.strip() == "LB(Thm 3) = 0"


def test_mmi_json_two_terminal(capsys):
    code, out, _ = run_cli(capsys, "mmi", "--json", str(FIXTURE_DIR / "two_terminal.hg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["mmi"]["value"] == "5/3"
    assert doc["mmi"]["fundamental"] == [[1], [2]]
    assert doc["mmi"]["minimizer_count"] == 1


def test_analyze_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json", str(FIXTURE_DIR / "example1.hg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4
    assert parse_rational(doc["entropy_total"]) == 5
    assert parse_rational(doc["mmi"]["value"]) == parse_rational("3/2")
    assert parse_rational(doc["r_co"]) == parse_rational("7/2")
    assert parse_rational(doc["ub_theorem1"]) == 3
    assert {k: parse_rational(v) for k, v in doc["x_star"].items()} == {
        "{1,2}": parse_rational("3/2"),
        "{1,4}": 1,
        "{2,3}": 1,
        "{3,4}": 1,
    }
    for key in ("ub_theorem2", "lower_bound", "ci", "cross_edge_sum"):
        parse_rational(doc["graphical"][key])  # must be canonical rationals


def test_analyze_json_graphical_null_for_hypergraph(tmp_path, capsys):
    doc_path = tmp_path / "hyper.hg"
    doc_path.write_text("m = 3\nedge 1 2 3 : 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "--json", str(doc_path))
    assert code == 0
    assert json.loads(out)["graphical"] is None


def test_skipped_graphical_bounds_warn_in_one_plain_line(tmp_path, capsys):
    # Every in-process call prints the same line, with no source path in it.
    path = tmp_path / "singleton.hg"
    path.write_text("m = 3\nedge 1 : 1\nedge 1 2 : 1\nedge 2 3 : 2\n", encoding="utf-8")
    warning = "skbounds: warning: graphical bounds skipped: singleton hyperedges present\n"
    for _ in range(2):
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (0, warning)
        assert out.startswith("m = 3\n")
    code, _, err = run_cli(capsys, "rco", "--check", str(path))
    assert code == 0
    assert err.startswith(warning)
    assert all(line.startswith("check ") for line in err[len(warning):].splitlines())


def test_analyze_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "example1.hg"))
    _, second, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "example1.hg"))
    assert first == second


@pytest.mark.parametrize(
    "name",
    ["example1.hg", "example2.hg", "triangle.hg", "path3.hg", "two_terminal.hg"],
)
def test_check_passes_on_bundled_fixtures(name, capsys):
    code, _, err = run_cli(capsys, "analyze", "--check", str(FIXTURE_DIR / name))
    assert code == 0
    assert "FAIL" not in err
    assert "check R_CO identity (H - I): ok" in err


@pytest.mark.parametrize("flag", ["--row-gen", "--full-rows"])
def test_row_gen_flag_is_gone(flag, capsys):
    # The command line has one row method, the default: argparse rejects
    # both row flags as unknown options.  Full rows stay in the library as
    # the reference that --check solves.
    for command in ("analyze", "mmi", "rco", "ub", "lb"):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(FIXTURE_DIR / "example2.hg")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("m = 4\nedge 1 5 : 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/nowhere.hg")
    assert code == 2


def test_cap_exceeded_exit_code(tmp_path, capsys):
    big = tmp_path / "big.hg"
    big.write_text("m = 21\nedge 1 2 : 1\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "analyze", str(big))
    assert code == 3

    wide = tmp_path / "wide.hg"
    lines = ["m = 13"] + [f"edge {i} {i + 1} : 1" for i in range(1, 13)]
    wide.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "mmi", str(wide))
    assert code == 3


def test_lb_rejects_non_graph(tmp_path, capsys):
    doc = tmp_path / "hyper.hg"
    doc.write_text("m = 3\nedge 1 2 3 : 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "lb", str(doc))
    assert code == 2
    assert "graphical" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(fixture_text("triangle.hg").encode("utf-8")))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run_cli(capsys, "mmi", "-")
    assert code == 0
    assert "I(X_M) = 3/2" in out


NOT_UTF8 = b"m = 2\nedge 1 2 : 1\xff\n"


def test_input_that_is_not_utf8_exits_2(tmp_path):
    # A file or stdin, even under a strict text encoding for stdin: one
    # stderr line and exit 2, not a traceback and exit 1.
    doc = tmp_path / "latin1.hg"
    doc.write_bytes(NOT_UTF8)
    for args, stdin in (([str(doc)], None), (["-"], NOT_UTF8)):
        proc = subprocess.run(
            [sys.executable, "-m", "skbounds.cli", "mmi", *args],
            input=stdin,
            capture_output=True,
            env={**SUBPROCESS_ENV, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"skbounds: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"
        )


NON_ASCII_DOC = "m = ٤\nedge ١ 2 : 1\nedge 3 4 : ٣/2\n"  # Arabic-Indic 4, 1 and 3


def test_parse_rejects_non_ascii_digits(tmp_path, capsys):
    with pytest.raises(InputFormatError):
        parse_document(NON_ASCII_DOC)
    doc = tmp_path / "digits.hg"
    doc.write_text(NON_ASCII_DOC, encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(doc))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "text",
    [
        "m = 2\u3000\nedge 1 2 : 1\xa0\n",
        "m = 2\u2028edge 1 2 : 1\n",
        "m = 2\x0cedge 1 2 : 1\n",
        "m = 2\x0bedge 1 2 : 1\n",
        "m = 2\nedge 1 2 : 1\xa0\n",
        "m = 2\redge 1 2 : 1\n",
    ],
    ids=[
        "ideographic-space", "line-separator", "form-feed", "vertical-tab",
        "nbsp-after-weight", "bare-cr",
    ],
)
def test_parse_rejects_whitespace_outside_the_grammar(text, tmp_path, capsys):
    # The grammar's whitespace is space and tab, and lines end with LF or CRLF.
    with pytest.raises(InputFormatError):
        parse_document(text)
    doc = tmp_path / "spaces.hg"
    doc.write_bytes(text.encode("utf-8"))
    code, out, _ = run_cli(capsys, "analyze", str(doc))
    assert code == 2
    assert out == ""


def test_parse_accepts_crlf_and_tabs(tmp_path, capsys):
    text = "# crlf\r\nm =\t2\r\nedge 1\t2 : 3/2 \r\n"
    assert parse_document(text) == parse_document("m = 2\nedge 1 2 : 3/2\n")
    doc = tmp_path / "crlf.hg"
    doc.write_bytes(text.encode("utf-8"))
    code, out, _ = run_cli(capsys, "mmi", str(doc))
    assert code == 0
    assert "I(X_M) = 3/2" in out


def _count_solves(monkeypatch):
    """Record each LP that bounds solves, by entry point, as "R_CO" or "packing"."""
    import skbounds.bounds

    solves = {"solve": [], "rowgen": []}

    def count(kind, fn):
        def wrapper(lp, *args):
            solves[kind].append("R_CO" if lp.variables == ["y"] else "packing")
            return fn(lp, *args)
        return wrapper

    monkeypatch.setattr(skbounds.bounds, "solve", count("solve", skbounds.bounds.solve))
    monkeypatch.setattr(
        skbounds.bounds,
        "solve_with_row_generation",
        count("rowgen", skbounds.bounds.solve_with_row_generation),
    )
    return solves


def test_check_reuses_the_analyze_report(monkeypatch, capsys):
    import skbounds.flow
    import skbounds.partitions

    source = parse_document(fixture_text("example2.hg"))
    certified = {"input": 0, "reduced": 0}
    run = skbounds.partitions.fundamental

    # `mmi` reads the kept run only to certify the result it keeps.
    def certifying(hg):
        certified["input" if hg == source else "reduced"] += 1
        return run(hg)

    monkeypatch.setattr(skbounds.partitions, "fundamental", certifying)
    truncations = []

    def counting(src, *args, _run=skbounds.flow.dinkelbach):
        truncations.append(src)
        return _run(src, *args)

    monkeypatch.setattr(skbounds.flow, "dinkelbach", counting)
    solves = _count_solves(monkeypatch)
    # Every command prints from the report, so it does the work of analyze --check.
    for command in ("analyze", "mmi", "rco", "ub", "lb"):
        certified.update(input=0, reduced=0)
        truncations.clear()
        solves["solve"].clear()
        solves["rowgen"].clear()
        code, _, err = run_cli(capsys, command, "--check", str(FIXTURE_DIR / "example2.hg"))
        assert code == 0, command
        assert "FAIL" not in err
        # `mmi` certifies the input once, however many callers read it.
        # Gamma membership and Type S read UB's last round: no `mmi` of a reduced source.
        assert certified == {"input": 1, "reduced": 0}, command
        # One Dinkelbach run, as in `analyze` alone: the input's, which its
        # `mmi`, R_CO's rate point and UB read; the Gamma and Type S lines,
        # which the suite reads from the report, come from UB's last round.
        assert len(truncations) == 1, command
        # The LPs of analyze, and no other: the suite solves no LP.
        assert solves == {"solve": ["R_CO"], "rowgen": ["packing"]}, command


def test_check_of_a_report_solves_no_lp(monkeypatch):
    hg = parse_document(fixture_text("example1.hg"))
    report = analyze(hg)
    solves = _count_solves(monkeypatch)
    checks = run_checks(hg, report)
    assert all(ok for _, ok, _, _ in checks)
    assert solves == {"solve": [], "rowgen": []}


def _ub_plus_one(monkeypatch):
    """UB(Thm 1) returned one too high, x* unchanged."""
    import skbounds.bounds

    exact = skbounds.bounds.upper_bound_theorem1

    def mutated(hg, *, method="auto"):
        bound, packing = exact(hg, method=method)
        return bound + 1, packing

    monkeypatch.setattr(skbounds.bounds, "upper_bound_theorem1", mutated)


def _rate_lowered(monkeypatch):
    """The first rate of R_CO's point lowered by 1/L, R_CO unchanged."""
    import skbounds.bounds

    exact = skbounds.bounds.r_co_direct

    def mutated(hg, *, method="auto"):
        value, point = exact(hg, method=method)
        rates = list(point.rates)
        rates[0] -= Fraction(1, hg.integer_source()[1])
        return value, dataclasses.replace(point, rates=tuple(rates))

    monkeypatch.setattr(skbounds.bounds, "r_co_direct", mutated)


def _ub_oracle_none(monkeypatch):
    """UB's oracle certifies round one."""
    import skbounds.bounds

    exact = skbounds.bounds.solve_with_row_generation

    def mutated(lp, oracle, max_rounds):
        return exact(lp, lambda xs, den: None, max_rounds)

    monkeypatch.setattr(skbounds.bounds, "solve_with_row_generation", mutated)


def _greedy_rate_lowered(monkeypatch):
    """The first rate of the truncation's greedy point, which R_CO reads, lowered by 1/L."""
    import skbounds.bounds

    exact = skbounds.bounds.fundamental

    def mutated(hg):
        run = exact(hg)
        return dataclasses.replace(run, xs=(run.xs[0] - run.d, *run.xs[1:]))

    monkeypatch.setattr(skbounds.bounds, "fundamental", mutated)


def _objective_raised(monkeypatch):
    """obj[0] + 1 in each final dictionary, after the point passed its primal check."""
    import skbounds.lp

    check = skbounds.lp._Dictionary.check

    def mutated(self, lp):
        check(self, lp)
        self.obj[0] += 1

    monkeypatch.setattr(skbounds.lp._Dictionary, "check", mutated)


# Each mutation, the fixture whose `analyze --check` it breaks, and the first line that reports it.
MUTATIONS = {
    "ub-plus-one": (_ub_plus_one, "example1.hg", "internal invariant violated: UB = x*(E) - I: 4 vs 3\n"),
    "rate-lowered": (
        _rate_lowered,
        "example1.hg",
        "check rate point meets every subset row (R_CO): FAIL (2 vs 3)\n",
    ),
    "greedy-rate-lowered": (
        _greedy_rate_lowered,
        "example1.hg",
        "internal invariant violated: the greedy rate point misses the subset row of {1,2,3}: 2 vs 3\n",
    ),
    # UB's LP needs cuts on the ladder source, where round one's point leaves Gamma
    # (its capacity is 17/6): no round certifies it, and the Gamma line names that.
    "ub-oracle-none": (
        _ub_oracle_none,
        "ladder6.hg",
        "internal invariant violated: x* preserves capacity (Gamma membership):"
        " no certificate from UB's last round vs 11/3\n",
    ),
    "tampered-dictionary": (
        _objective_raised,
        "example1.hg",
        "internal invariant violated: no optimality certificate",
    ),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_check_catches_each_mutation(mutation, monkeypatch, capsys):
    mutate, fixture, message = MUTATIONS[mutation]
    mutate(monkeypatch)
    code, _, err = run_cli(capsys, "analyze", "--check", str(FIXTURE_DIR / fixture))
    assert code == 1
    assert message in err


def test_check_failure_prints_both_values(monkeypatch, capsys):
    # The rate point is the one line analyze does not enforce: the report
    # prints in full, and --check names both sides of the broken row.
    path = str(FIXTURE_DIR / "example1.hg")
    _, report_text, _ = run_cli(capsys, "analyze", path)
    _rate_lowered(monkeypatch)
    code, out, err = run_cli(capsys, "analyze", "--check", path)
    assert code == 1
    assert out == report_text
    assert MUTATIONS["rate-lowered"][2] in err
    assert err.count("FAIL") == 1


def test_analyze_raises_on_a_broken_report_identity(monkeypatch, capsys):
    import skbounds.bounds

    exact = skbounds.bounds.graphical_bounds

    def off_by_one(hg):
        bounds = exact(hg)
        return dataclasses.replace(bounds, ub_theorem2=bounds.ub_theorem2 + 1)

    monkeypatch.setattr(skbounds.bounds, "graphical_bounds", off_by_one)
    message = "graph agreement UB = (m-2) I: 2 vs 3"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        analyze(parse_document(fixture_text("example2.hg")))
    code, out, err = run_cli(capsys, "analyze", str(FIXTURE_DIR / "example2.hg"))
    assert (code, out) == (1, "")
    assert err == f"skbounds: internal invariant violated: {message}\n"


def test_analyze_raises_when_x_star_leaves_gamma(monkeypatch, capsys):
    import skbounds.bounds

    exact = skbounds.bounds.upper_bound_theorem1

    def halve_one_entry(hg, *, method="auto"):
        bound, packing = exact(hg, method=method)
        entries = dict(packing.entries)
        e = min(e for e, x in entries.items() if x > 0)
        entries[e] /= 2
        # The bound follows x*, so UB = x*(E) - I still holds and only Gamma breaks.
        return bound - entries[e], dataclasses.replace(packing, entries=entries)

    # Example 1 with x*({1,2}) = 3/4: the singletons have value 5/4 < I = 3/2.
    # UB's last round is of the LP's x*, so it certifies no halved packing.
    monkeypatch.setattr(skbounds.bounds, "upper_bound_theorem1", halve_one_entry)
    message = "x* preserves capacity (Gamma membership): no certificate from UB's last round vs 3/2"
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        analyze(parse_document(fixture_text("example1.hg")))
    code, out, err = run_cli(capsys, "analyze", str(FIXTURE_DIR / "example1.hg"))
    assert (code, out) == (1, "")
    assert err == f"skbounds: internal invariant violated: {message}\n"


LONG_ZEROS = "0" * 5000  # past the 4,300 digits int() converts from a string
LONG_RUN = "line 2: more than 4300 digits in a row"


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"m = {LONG_ZEROS}2\nedge 1 2 : 1\n", {0b11: 1}),
        (f"m = 3\nedge {LONG_ZEROS}1 3 : 1\n", {0b101: 1}),
    ],
    ids=["header", "vertex"],
)
def test_leading_zeros_do_not_limit_a_token(text, expected):
    assert parse_document(text).weights == expected


@pytest.mark.parametrize(
    "text, code, message",
    [
        (f"m = 1{LONG_ZEROS}\nedge 1 2 : 1\n", 3, "exceeds the supported maximum of 20"),
        (f"m = {LONG_ZEROS}21\nedge 1 2 : 1\n", 3, "line 1: m = 21 exceeds"),
        (f"m = 3\nedge 1{LONG_ZEROS} 2 : 1\n", 2, "outside 1..3"),
        (f"m = 3\nedge 1 2 : 1{LONG_ZEROS}\n", 2, LONG_RUN),
        (f"m = 3\nedge 1 2 : 0.{LONG_ZEROS}1\n", 2, LONG_RUN),
        (f"m = 3\nedge 1 2 : 1/1{LONG_ZEROS}\n", 2, LONG_RUN),
    ],
    ids=[
        "long-header", "zero-padded-header", "long-vertex", "long-weight", "long-decimal",
        "long-denominator",
    ],
)
def test_long_tokens_exit_by_their_value(text, code, message):
    # The value of a count or vertex decides the outcome, never its length.
    with pytest.raises(CapExceededError if code == 3 else InputFormatError, match=message):
        parse_document(text)
    result = subprocess.run(
        [sys.executable, "-m", "skbounds.cli", "analyze", "-"],
        input=text, capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60,
    )
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr.startswith("skbounds: ")
    assert "Traceback" not in result.stderr
    assert "set_int_max_str_digits" not in result.stderr


def test_byte_order_mark_is_rejected(tmp_path, capsys):
    doc = tmp_path / "bom.hg"
    doc.write_text("\ufeffm = 2\nedge 1 2 : 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(doc))
    assert (code, out) == (2, "")
    assert err == "skbounds: line 1: expected header 'm = <count>'\n"


PATH20 = "m = 20\n" + "".join(f"edge {i} {i + 1} : 1\n" for i in range(1, 20))


def test_m20_header_parses():
    hg = parse_document(PATH20)
    assert hg.m == 20 and len(hg.edges) == 19


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["mmi"], ["ub"], ["lb"], ["analyze", "--check"], ["rco", "--check"]],
    ids=" ".join,
)
def test_m20_commands_that_scan_exit_at_the_partition_cap(argv, tmp_path, capsys):
    doc = tmp_path / "path20.hg"
    doc.write_text(PATH20, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, str(doc))
    assert (code, out) == (3, "")
    assert err == "skbounds: m = 20 exceeds the partition enumeration cap of 12\n"


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--check"], ["rco", "--check"]], ids=" ".join)
def test_m20_analyze_exits_at_the_partition_cap_before_any_lp(argv, monkeypatch, tmp_path, capsys):
    # `analyze` runs `mmi` first, so above the cap it solves neither LP;
    # run in another order, the exit code and message would be the same,
    # after seconds of R_CO.
    import skbounds.bounds
    import skbounds.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("an LP bound ran before the partition cap")

    for module in (skbounds.bounds, skbounds.cli):
        monkeypatch.setattr(module, "r_co_direct", forbidden)
        monkeypatch.setattr(module, "upper_bound_theorem1", forbidden)
    doc = tmp_path / "path20.hg"
    doc.write_text(PATH20, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, str(doc))
    assert (code, out) == (3, "")
    assert err == "skbounds: m = 20 exceeds the partition enumeration cap of 12\n"
