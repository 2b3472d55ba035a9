"""Check that two source trees write the same reports on the benchmark's experiments.

    python3 tools/same_reports.py PARENT CHANGE
    python3 tools/same_reports.py PARENT CHANGE --seeds 1-30 --limit 3

PARENT and CHANGE are checkouts, each with `src/ellbethe`; both packages
are imported side by side with `tools/bench.py`'s `load_cli`.  For every
seed and each of the three workloads, `perfbench/workloads.py` of this
checkout generates the experiments (imported, not changed), and each
experiment's `cli.main([command, "--config", file, "--json"])` runs
through both trees.  The exit code and the stdout bytes must match.  The
tool exits 1 at the first report that differs, naming its workload, seed
and experiment, and 0 after printing the number of reports compared.
`--limit N` keeps the first N experiments of each workload.

    python3 tools/same_reports.py PARENT CHANGE --moved

`--moved` lets a change move numbers where a change of rounding shows:
each check's `measured` value, each fiber point's `wr_residual` and the
numbers of `ratio_table`.  Every report is compared.  The tool exits 1,
naming each report that differs, if two reports differ in exit code,
warnings, check names or statuses, or anywhere else; otherwise it
prints, for each check, for the points' `wr_residual` (if one moved)
and for `ratio_table`, how many reports moved there and the largest absolute and
relative move (relative to the parent's value), and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
POINT_RESIDUAL = "fiber.points.wr_residual"


def seed_range(text):
    """'7' or '1-30' as the list of seeds it names."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return seeds


def report(cli, command, path):
    """(exit code, stdout text) of one `--json` run of `cli`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", path, "--json"])
    return code, out.getvalue()


def leaves(value, path=()) -> list:
    """(path, leaf) of every leaf of a JSON value, in key order; an empty
    list or object is a leaf."""
    if isinstance(value, dict) and value:
        return [leaf for key in sorted(value) for leaf in leaves(value[key], path + (key,))]
    if isinstance(value, list) and value:
        return [leaf for i, item in enumerate(value) for leaf in leaves(item, path + (i,))]
    return [(path, value)]


def moves(parent, change):
    """{place: [(absolute, relative) move, ...]} of two (exit code, stdout)
    reports, for each place of a JSON report: each check's name, for its
    `measured` value, POINT_RESIDUAL, for every fiber point's `wr_residual`
    (a key only where one moved), and "ratio_table", for the table's
    numbers.  None if the reports differ anywhere else or a moved number is
    not finite in both."""
    if parent[0] != change[0]:
        return None
    try:
        old, new = json.loads(parent[1]), json.loads(change[1])
    except ValueError:
        return {} if parent[1] == change[1] else None
    old_leaves, new_leaves = leaves(old), leaves(new)
    if [path for path, _ in old_leaves] != [path for path, _ in new_leaves]:
        return None
    out = {place: [] for place in [check["name"] for check in old.get("checks", ())]
           + ["ratio_table"]}
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if a == b or (a != a and b != b):
            continue
        if path[0] == "ratio_table":
            place = "ratio_table"
        elif path[0] == "checks" and path[2:] == ("measured",):
            place = old["checks"][path[1]]["name"]
        elif path[:2] == ("fiber", "points") and path[3:] == ("wr_residual",):
            place = POINT_RESIDUAL
        else:
            return None
        if not all(type(v) is float and math.isfinite(v) for v in (a, b)):
            return None
        out.setdefault(place, []).append((abs(b - a), abs(b - a) / abs(a) if a else math.inf))
    return out


def print_moves(found):
    """The --moved summary, `found` one moves() dict per report compared."""
    places = {place: None for report in found for place in report if place != "ratio_table"}
    print("%d reports compared, %d moved"
          % (len(found), sum(any(report.values()) for report in found)))
    for place in [*places, "ratio_table"]:
        moved = [report[place] for report in found if report.get(place)]
        print("%s: %d reports moved, largest absolute move %.3g, relative %.3g" % (
            place, len(moved), max((a for ms in moved for a, _ in ms), default=0.0),
            max((r for ms in moved for _, r in ms), default=0.0)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-30"),
                        help="a seed or an inclusive range A-B (default 1-30)")
    parser.add_argument("--limit", type=int, default=None,
                        help="only the first N experiments of each workload")
    parser.add_argument("--moved", action="store_true",
                        help="compare every report, let check measured values, fiber point "
                             "wr_residual values and ratio_table numbers move, and print the "
                             "largest moves")
    args = parser.parse_args(argv)

    sys.path.insert(0, TOOLS)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from bench import load_cli
    from workloads import WORKLOADS, make_experiments

    trees = [load_cli(args.parent), load_cli(args.change)]
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for seed in args.seeds:
            for workload in WORKLOADS:
                for exp in make_experiments(workload, seed)[:args.limit]:
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(exp.config, handle)
                    parent, change = (report(cli, exp.command, path) for cli in trees)
                    moved = moves(parent, change) if args.moved else {} if parent == change else None
                    if moved is None:
                        print("differs: workload %s, seed %d, experiment %s (exit %d vs %d)"
                              % (workload, seed, exp.name, parent[0], change[0]))
                        if not args.moved:
                            return 1
                    found.append(moved)
    if None in found:
        return 1
    if args.moved:
        print_moves(found)
    else:
        print("%d reports identical" % len(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
