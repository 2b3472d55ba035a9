"""Tests of tools/bench.py, the two-tree benchmark comparison."""

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench.py")
SIDE_KEYS = {"values", "median", "q1", "q3", "report_digests"}
KEYS = {"schema", "workload", "seed", "rounds", "quick", "unit", "experiments", "host",
        "change_wins", "reports_identical", "parent", "change"}


def check_schema(record):
    assert set(record) == KEYS
    assert record["schema"] == "ellbethe-bench/1"
    assert set(record["host"]) == {"python", "numpy", "machine", "cpus"}
    for side in ("parent", "change"):
        values = record[side]["values"]
        assert set(record[side]) == SIDE_KEYS
        assert len(values) == record["rounds"] and all(v > 0 for v in values)
        assert record[side]["q1"] <= record[side]["median"] <= record[side]["q3"]
        assert len(record[side]["report_digests"]) == len(record["experiments"])
    assert record["change_wins"] == sum(
        c < p for p, c in zip(record["parent"]["values"], record["change"]["values"]))
    assert record["reports_identical"] == (record["parent"]["report_digests"]
                                           == record["change"]["report_digests"])


def test_quick_run_writes_the_schema(tmp_path):
    """One tree against itself in quick mode: 2 rounds over 3 experiments,
    with identical reports on both sides."""
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "eigen", "--quick",
                    "--out", str(out)], check=True, capture_output=True, timeout=60)
    record = json.loads(out.read_text())
    check_schema(record)
    assert (record["workload"], record["rounds"], record["quick"]) == ("eigen", 2, True)
    assert len(record["experiments"]) == 3
    assert record["reports_identical"]


def test_full_runs_take_at_least_ten_rounds(tmp_path):
    done = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "eigen",
                           "--rounds", "3", "--out", str(tmp_path / "bench.json")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "at least 10" in done.stderr
    assert not (tmp_path / "bench.json").exists()


def test_committed_files_have_the_schema():
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        check_schema(record)
        assert not record["quick"] and record["rounds"] >= 10
