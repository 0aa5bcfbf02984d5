"""Fast tests of the benchmark itself, at the tiny size profile.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, trace, seed=3, seconds=0.3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_ratio: 0.000000") for line in lines)
    assert any(line.startswith("env: ") for line in lines)
    if not trace:
        assert any(line.startswith("op_p90_ms: ") for line in lines)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_value_is_counted_in_fail_ratio(capsys, monkeypatch):
    real = workloads.entropy_total
    monkeypatch.setattr(workloads, "entropy_total", lambda weights: real(weights) + 1)
    lines, result = _run(capsys, "corpus", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("fail_ratio: 1.000000") for line in lines)


def test_feasible_but_suboptimal_rate_point_fails_the_rco_check():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    sk = run.import_program()
    src = workloads.make_source(random.Random(5), workloads.RCO, "cycle", 6)
    hg, (value, point) = workloads.run_op(sk, src, "rowgen")
    assert workloads.check(sk, src, (hg, (value, point)), "rowgen") == []
    # Raising one rate keeps every subset constraint met but loses optimality.
    rates = (point.rates[0] + 1,) + tuple(point.rates[1:])
    fails = workloads.check(sk, src, (hg, (value + 1, type(point)(rates))), "rowgen")
    assert fails and "certifies" in fails[0]


def test_pace_scales_each_item_by_the_pieces_around_it(monkeypatch):
    # Reference pieces at the nominal time, then at twice it: a machine
    # that slowed to half speed halfway through.
    nominal = run.PACE_NOMINAL_S
    pieces = iter([nominal] * 12 + [2 * nominal] * 12)
    monkeypatch.setattr(run, "reference_piece", lambda: next(pieces))
    pace = run.Pace()
    for _ in range(20):
        pace.add(0.1)
    scaled = pace.scaled()
    assert pace.raw() == [0.1] * 20
    assert scaled[:4] == pytest.approx([0.1] * 4)
    assert scaled[-4:] == pytest.approx([0.05] * 4)


COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(capsys, workload):
    first = _run(capsys, workload, 1)[1]["metrics"]
    second = _run(capsys, workload, 1)[1]["metrics"]
    assert {n: first[n]["value"] for n in COUNTS} == {n: second[n]["value"] for n in COUNTS}
    assert first["lp.solve_calls"]["value"] + first["partitions.scanned"]["value"] > 0
    assert first["hypergraph.table_calls"]["value"] > 0
    # The wrappers are gone once the traced run ends.
    sk = sys.modules["skbounds"]
    assert not hasattr(sk.bounds.solve, "__wrapped__")
    assert not hasattr(sk.cli.mmi, "__wrapped__")


def test_coverage_check_fails_loudly_on_a_silent_span():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="lp.solve"):
        tracer.check_coverage({"lp.solve"})


def test_tie_heavy_minimizer_count_matches_bell():
    assert [workloads.bell(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
