"""The in-process A/B script that CHANGES.md cites for its timings (`tests/pool_ab.py`), on tiny pools."""

import shutil
import subprocess
import sys
from pathlib import Path

from pool_ab import HEADER

TESTS = Path(__file__).resolve().parent


def test_the_script_prints_one_line_per_workload(tmp_path):
    trees = []
    for side in ("parent", "change"):
        shutil.copytree(TESTS.parent / "src" / "skbounds", tmp_path / side / "skbounds",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(str(tmp_path / side))
    out = subprocess.run([sys.executable, str(TESTS / "pool_ab.py"), *trees, "--size", "tiny", "--rounds", "1"],
                         capture_output=True, text=True, check=True, timeout=30)
    header, *lines = out.stdout.splitlines()
    assert header == HEADER
    rows = [dict(zip(header.split(), line.split(), strict=True)) for line in lines]
    # The tiny rounds hold 4, 3 and 3 sources, at seeds 1 to 3.
    assert [(row["workload"], row["ops"], row["fails"]) for row in rows] == [
        ("corpus", "12", "0"), ("partition-scan", "9", "0"), ("rowgen", "9", "0")]
    for row in rows:
        assert float(row["parent_ms"]) > 0 and float(row["summed"]) > 0 and float(row["p50"]) > 0
