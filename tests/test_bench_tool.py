"""Tests of tools/bench.py, the two-tree benchmark comparison, and of
tools/same_reports.py, the two-tree report comparison."""

import glob
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench.py")
SIDE_KEYS = {"values", "median", "q1", "q3", "report_digests"}
# written since the counting pass was added (lattice_distances, bethe_rounds,
# layers and the top-level verdict since later changes); older committed files
# lack them
OPTIONAL_SIDE_KEYS = {"theta_jets", "lattice_distances", "bethe_rounds", "layers"}
LAYERS = {"_theta_jets", "solve_bae_batch", "wr_certificates", "_render"}
KEYS = {"schema", "workload", "seed", "rounds", "quick", "unit", "experiments", "host",
        "change_wins", "reports_identical", "parent", "change"}
OPTIONAL_KEYS = {"verdict"}


def check_schema(record):
    assert KEYS <= set(record) <= KEYS | OPTIONAL_KEYS
    assert record["schema"] == "ellbethe-bench/1"
    assert set(record["host"]) == {"python", "numpy", "machine", "cpus"}
    for side in ("parent", "change"):
        values = record[side]["values"]
        assert SIDE_KEYS <= set(record[side]) <= SIDE_KEYS | OPTIONAL_SIDE_KEYS
        for order, row in record[side].get("theta_jets", {}).items():
            assert re.fullmatch(r"[0-4](\+dtau)?", order)
            assert set(row) == {"calls", "points"}
            assert row["calls"] > 0 and row["points"] >= 0
        if "lattice_distances" in record[side]:
            row = record[side]["lattice_distances"]
            assert set(row) == {"calls", "points"}
            assert row["calls"] >= 0 and row["points"] >= 0
        rounds = record[side].get("bethe_rounds", [])
        assert all(isinstance(n, int) and n > 0 for n in rounds)
        layers = record[side].get("layers", {})
        assert set(layers) <= LAYERS and all(v >= 0 for v in layers.values())
        assert len(values) == record["rounds"] and all(v > 0 for v in values)
        assert record[side]["q1"] <= record[side]["median"] <= record[side]["q3"]
        assert len(record[side]["report_digests"]) == len(record["experiments"])
    assert record["change_wins"] == sum(
        c < p for p, c in zip(record["parent"]["values"], record["change"]["values"]))
    assert record["reports_identical"] == (record["parent"]["report_digests"]
                                           == record["change"]["report_digests"])
    if "verdict" in record:
        claim, parent = record["verdict"], record["parent"]
        assert claim["win_share"] == record["change_wins"] / record["rounds"]
        assert claim["median_gap"] == parent["median"] - record["change"]["median"]
        assert claim["parent_iqr"] == parent["q3"] - parent["q1"]
        assert claim["gain"] == (claim["win_share"] >= 0.9
                                 and claim["median_gap"] > claim["parent_iqr"])


def test_quick_run_writes_the_schema(tmp_path):
    """One tree against itself in quick mode: 2 rounds over 3 experiments,
    with identical reports and jet counts on both sides."""
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "eigen", "--quick",
                    "--out", str(out)], check=True, capture_output=True, timeout=60)
    record = json.loads(out.read_text())
    check_schema(record)
    assert (record["workload"], record["rounds"], record["quick"]) == ("eigen", 2, True)
    assert len(record["experiments"]) == 3
    assert record["reports_identical"]
    # the untimed counting pass: the same tree takes the same jets and distances
    jets = record["parent"]["theta_jets"]
    assert jets == record["change"]["theta_jets"]
    assert "0" in jets and "3" in jets
    distances = record["parent"]["lattice_distances"]
    assert distances == record["change"]["lattice_distances"]
    assert distances["calls"] > 0 and distances["points"] > 0
    # the lockstep rounds: one entry per `_bethe_kernels` call, the same on both sides
    assert record["parent"]["bethe_rounds"] == record["change"]["bethe_rounds"]
    assert record["parent"]["bethe_rounds"]
    # the layer rows: every layer, in seconds per pass
    for side in ("parent", "change"):
        assert set(record[side]["layers"]) == LAYERS
        assert record[side]["layers"]["_theta_jets"] > 0
    # the claim rule's verdict (check_schema recomputes it)
    assert "verdict" in record


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


SAME = os.path.join(ROOT, "tools", "same_reports.py")


def test_same_reports_passes_one_tree_against_itself():
    done = subprocess.run([sys.executable, SAME, ROOT, ROOT, "--seeds", "1", "--limit", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "6 reports identical\n"


def test_same_reports_names_the_first_report_that_differs(tmp_path):
    """A tree whose JSON reports end in one newline more differs from the
    first experiment of the first workload on."""
    shutil.copytree(os.path.join(ROOT, "src", "ellbethe"), tmp_path / "src" / "ellbethe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ellbethe" / "cli.py"
    text = cli.read_text()
    assert text.count('return "".join(out) + "\\n"') == 1
    cli.write_text(text.replace('return "".join(out) + "\\n"', 'return "".join(out) + "\\n\\n"'))
    done = subprocess.run([sys.executable, SAME, ROOT, str(tmp_path), "--seeds", "2-3"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == "differs: workload fiber, seed 2, experiment m3-tau0-0 (exit 0 vs 0)\n"


def patched_tree(tmp_path, old, new):
    """A tree whose src/ellbethe is this one's with `old` in cli.py, found
    once, replaced by `new`."""
    shutil.copytree(os.path.join(ROOT, "src", "ellbethe"), tmp_path / "src" / "ellbethe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ellbethe" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    return str(tmp_path)


def test_same_reports_moved_prints_the_largest_moves(tmp_path):
    """A tree whose check values are all 1e-12 larger, relatively: --moved
    passes it and prints a relative move of 1e-12 for each check that moved
    (a zero value does not move) and none for ratio_table."""
    tree = patched_tree(tmp_path, '"measured": float(measured),',
                        '"measured": float(measured) * (1.0 + 1e-12),')
    done = subprocess.run([sys.executable, SAME, ROOT, tree, "--seeds", "1", "--limit", "2",
                           "--moved"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    first, *lines = done.stdout.splitlines()
    assert first == "6 reports compared, 6 moved"
    rows = {}
    for line in lines:
        place, _, rest = line.partition(": ")
        words = rest.split()
        rows[place] = int(words[0]), float(words[-3].rstrip(",")), float(words[-1])
    assert list(rows)[-1] == "ratio_table" and rows["ratio_table"] == (0, 0.0, 0.0)
    assert rows["eigen_relation"][0] == rows["weyl_ratio"][0] == 2
    assert rows["heat_equation"][0] == 2
    for count, largest, relative in rows.values():
        assert (count == 0) == (largest == 0.0)
        assert count == 0 or 0.5e-12 < relative < 2e-12


def test_same_reports_moved_fails_on_a_flipped_status(tmp_path):
    """A tree where weyl_ratio always fails: --moved compares every report
    and names each one whose status, and so exit code, differs."""
    tree = patched_tree(tmp_path, '"status": "pass" if measured <= tolerance else "fail",',
                        '"status": "pass" if measured <= tolerance and name != "weyl_ratio"'
                        ' else "fail",')
    done = subprocess.run([sys.executable, SAME, ROOT, tree, "--seeds", "1", "--limit", "2",
                           "--moved"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == ("differs: workload eigen, seed 1, experiment m2-tau0 (exit 0 vs 1)\n"
                           "differs: workload eigen, seed 1, experiment m2-tau1 (exit 0 vs 1)\n")


def test_moves_reads_only_measured_values_and_the_ratio_table():
    """At one exit code, a moved measured value or ratio is a move, and a
    flipped status, a new warning or a moved tolerance is a difference."""
    sys.path.insert(0, os.path.dirname(SAME))
    try:
        from same_reports import moves
    finally:
        sys.path.pop(0)

    def run(status="pass", measured=2.0 ** -40, tolerance=1e-8, warnings=(), ratio=1.0):
        return 0, json.dumps({"checks": [{"name": "c", "status": status, "measured": measured,
                                          "tolerance": tolerance}],
                              "warnings": list(warnings), "ratio_table": [{"ratio": [ratio, 0.0]}]})

    assert moves(run(), run()) == {"c": [], "ratio_table": []}
    assert moves(run(), run(measured=1.5 * 2.0 ** -40, ratio=1.25)) == {
        "c": [(2.0 ** -41, 0.5)], "ratio_table": [(0.25, 0.25)]}
    for changed in (run(status="fail"), run(warnings=["w"]), run(tolerance=1e-9),
                    run(measured=math.nan)):
        assert moves(run(), changed) is None
    assert moves(run(), (1, run()[1])) is None


def test_moves_lets_a_fiber_point_residual_move():
    """A moved `wr_residual` of one fiber point is a move of its own place;
    a moved root of f is a difference."""
    sys.path.insert(0, os.path.dirname(SAME))
    try:
        from same_reports import POINT_RESIDUAL, moves
    finally:
        sys.path.pop(0)

    def run(residual=2.0 ** -50, root=0.25):
        points = [{"f_roots": [[root, 0.5]], "wr_residual": residual},
                  {"f_roots": [[0.75, 0.5]], "wr_residual": 2.0 ** -49}]
        return 0, json.dumps({"checks": [], "fiber": {"count": 2, "points": points}})

    assert moves(run(), run()) == {"ratio_table": []}
    assert moves(run(), run(residual=2.0 ** -51)) == {
        "ratio_table": [], POINT_RESIDUAL: [(2.0 ** -51, 0.5)]}
    assert moves(run(), run(root=0.375)) is None
