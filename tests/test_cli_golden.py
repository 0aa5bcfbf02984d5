"""Whole-output golden test for the command line.

`golden_cli.json` holds, for every bundled fixture, the exit code, stdout
and stderr of each subcommand in text and JSON form, each with and
without `--check`.  Any change to the printed bytes fails here.

Regenerate the data file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from skbounds.cli import main

from conftest import FIXTURE_DIR

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli.json"

FIXTURES = ("example1.hg", "example2.hg", "path3.hg", "triangle.hg", "two_terminal.hg", "ladder6.hg")
COMMANDS = ("analyze", "mmi", "rco", "ub", "lb")


def golden_argvs() -> list[list[str]]:
    """Argument vectors covered by the golden file; the last item is a fixture name."""
    argvs = []
    for name in FIXTURES:
        for command in COMMANDS:
            argvs.append([command, name])
            argvs.append([command, "--json", name])
        for command in (*COMMANDS[1:], "analyze"):
            argvs.append([command, "--check", name])
            argvs.append([command, "--json", "--check", name])
    return argvs


def run_on_fixture(argv: list[str]) -> int:
    return main(argv[:-1] + [str(FIXTURE_DIR / argv[-1])])


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    cases = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {" ".join(case["argv"]): case for case in cases}


def test_golden_file_covers_every_case(golden):
    assert list(golden) == [" ".join(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(argv, golden, capsys):
    code = run_on_fixture(argv)
    captured = capsys.readouterr()
    got = {"argv": argv, "exit": code, "stdout": captured.out, "stderr": captured.err}
    assert got == golden[" ".join(argv)]


def _record() -> None:
    import contextlib
    import io

    cases = []
    for argv in golden_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_on_fixture(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
