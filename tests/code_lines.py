"""Count the code lines of the package's modules: `python tests/code_lines.py [dir]`.

A code line holds at least one code token, by `tokenize`: comments, blank
lines and docstrings (a string that is a statement by itself) count for
nothing, and a token over several lines counts each of them.  Prints one
line per module, `name count`, and the total; `dir` defaults to the
package's source directory.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skbounds"
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    tokens = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines: set[int] = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        statement = i == 0 or tokens[i - 1].type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        if token.type == tokenize.STRING and statement and tokens[i + 1].type == tokenize.NEWLINE:
            continue  # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict[str, int]:
    """{module stem: code lines} for every `*.py` file in `directory`, by name."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> None:
    counts = count(Path(argv[0]) if argv else SRC)
    for name, lines in counts.items():
        print(f"{name} {lines}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main(sys.argv[1:])
