"""The table-scale script that README and ROADMAP quote (`tests/table_scale.py`), at m = 8."""

import subprocess
import sys
from pathlib import Path

from table_scale import FAMILIES, HEADER


def test_the_script_prints_one_line_per_family_and_m():
    script = Path(__file__).resolve().parent / "table_scale.py"
    out = subprocess.run([sys.executable, str(script), "8"], capture_output=True, text=True, check=True, timeout=30)
    header, *lines = out.stdout.splitlines()
    assert header == HEADER
    rows = [dict(zip(header.split(), line.split(), strict=True)) for line in lines]
    assert [(row["family"], row["m"]) for row in rows] == [(family, "8") for family in FAMILIES]
    for row in rows:
        # 4 edges, the fewest with 2^8 <= 8 * 8 * |E|: the run keeps its table and its steps read it.
        assert (row["edges"], row["run"]) == ("4", "table")
        assert float(row["seconds"]) > 0 and float(row["peak_mib"]) >= 0
