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
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-30"),
                        help="a seed or an inclusive range A-B (default 1-30)")
    parser.add_argument("--limit", type=int, default=None,
                        help="only the first N experiments of each workload")
    args = parser.parse_args(argv)

    sys.path.insert(0, TOOLS)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from bench import load_cli
    from workloads import WORKLOADS, make_experiments

    trees = [load_cli(args.parent), load_cli(args.change)]
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for seed in args.seeds:
            for workload in WORKLOADS:
                for exp in make_experiments(workload, seed)[:args.limit]:
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(exp.config, handle)
                    parent, change = (report(cli, exp.command, path) for cli in trees)
                    if parent != change:
                        print("differs: workload %s, seed %d, experiment %s (exit %d vs %d)"
                              % (workload, seed, exp.name, parent[0], change[0]))
                        return 1
                    count += 1
    print("%d reports identical" % count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
