"""The listing-memory script that README and CHANGES.md quote (`tests/listing_memory.py`), at m = 6."""

import subprocess
import sys
from pathlib import Path

from listing_memory import HEADER


def test_the_script_prints_each_reads_growth_and_peak():
    script = Path(__file__).resolve().parent / "listing_memory.py"
    out = subprocess.run([sys.executable, str(script), "6"], capture_output=True, text=True, check=True, timeout=30)
    header, line = out.stdout.splitlines()
    assert header == HEADER
    fields = dict(zip(header.split(), line.split(), strict=True))
    # Singleton edges plus one pair: Bell(5) - 1 tied minimizers.
    assert (fields["m"], fields["minimizers"]) == ("6", "51")
    for read in ("cells", "partitions"):
        assert 0 <= float(fields[f"{read}_mib"]) <= float(fields[f"{read}_peak_mib"])
        assert int(fields[f"{read}_b_each"]) > 0
