"""Toy-size smoke tests of the benchmark command and its traced run.

Run from the root of the checkout (not part of the tier-1 suite):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
from spec import SPEC, WORKLOAD_NAMES as WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def end_to_end_rows(stdout: str) -> dict[str, list[str]]:
    """The indented rows under the "end-to-end" heading."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("end-to-end"))
    rows = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        rows[line.split()[0]] = line.split()
    return rows


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_unit_and_no_failures(workload, trace):
    # a traced run compares alternating rounds, so it gets a few of each
    proc = run_bench("--workload", workload, "--seed", "2",
                     "--seconds", "4" if trace else "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})

    rows = end_to_end_rows(proc.stdout)
    for metric in SPEC["end_to_end"]:
        name, value, unit, samples = rows[metric["name"]]
        assert unit == metric["unit"] and samples.startswith("n=")
        assert float(value) > 0
    assert float(rows["failed_ratio"][1]) == 0.0
    if trace:
        assert "tracing overhead" in proc.stdout
        stem = BENCH / "results" / f"{workload}-seed2-trace1"
        first = json.loads(Path(f"{stem}.spans.jsonl").read_text().splitlines()[0])
        assert set(first) == {"id", "trace", "name", "start", "end", "parent"}
        assert json.loads(Path(f"{stem}.json").read_text())["missing_hooks"] == []


def test_all_workloads_one_command():
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                      for m in SPEC["end_to_end"]}


def test_fails_without_the_program():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._spanned(lambda: sum(range(20000)), "inner")
    outer = tracer._spanned(lambda: [inner() for _ in range(3)], "outer")
    with tracer.trace("t", "root"):
        outer()
    table = tracer.layer_table()
    assert table["inner"]["calls"] == 3 and table["outer"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"])
    (root,), = tracer.root_durations().values()
    assert root == pytest.approx(sum(row["self_s"] for row in table.values()))


def test_hooks_that_no_longer_fit_are_reported():
    tracer = Tracer()
    tracer._patch("docner.model", "no_such_function", lambda original: original)
    tracer._count(lambda: [][0])
    assert tracer.missing == ["docner.model.no_such_function", "<lambda>"]


def test_expected_slowest_is_the_mean_or_the_extreme_at_the_ends():
    from measure import expected_slowest
    rates = [4.0, 1.0, 3.0, 2.0]
    assert expected_slowest(rates, 1, slow_is_high=False) == pytest.approx(2.5)
    assert expected_slowest(rates, 2, slow_is_high=False) == pytest.approx(10 / 6)
    assert expected_slowest(rates, 4, slow_is_high=False) == 1.0
    assert expected_slowest(rates, 9, slow_is_high=True) == 4.0
