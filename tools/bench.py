"""Compare two source trees on one benchmark workload, in one process.

    python3 tools/bench.py PARENT CHANGE --workload eigen --out BENCH.json
    python3 tools/bench.py PARENT CHANGE --workload eigen --out BENCH.json --quick

PARENT and CHANGE are checkouts, each with `src/ellbethe`.  Both packages
are imported side by side, and `perfbench/workloads.py` of this checkout
generates the workload's experiments from `--seed`, as the benchmark does.
Each round runs one pass of every experiment through each tree's
`cli.main([command, "--config", file, "--json"])`; the tree that goes
first alternates from round to round.  A pass is timed in reference units
as `perfbench/run.py` reports `wall_ref`: its wall time over the mean time
of `perfbench/worker.reference_work`, timed before the pass and after each
experiment.  Both modules are imported, not changed.

The JSON file holds, per tree, the per-round values, their median and
quartiles and the sha256 of every report, and the number of rounds the
change won.  Its `verdict` applies the claim rule of a gain: the change
wins at least 90 % of the rounds (a tie wins for neither side), and the
parent's median exceeds the change's by more than the parent's
interquartile range; the last line printed gives the parent's quartiles
and the verdict.

After the rounds, one more pass of each tree, untimed, counts its
top-level `_theta_jets` calls (a chunked call's passes are one call) and
their points by jet order, "0+dtau" for a jet with the d/dtau row, into
each tree's `theta_jets` field, its top-level `lattice_distances` calls
and their points into its `lattice_distances` field, and the number of
systems of each `bethe._bethe_kernels` call (one per lockstep solver
round, or a lone evaluation) into its `bethe_rounds` list.  Then
LAYER_PASSES more passes of each tree time, per pass, the top-level calls
of `_theta_jets`, of `bethe.solve_bae_batch` and `wronski.wr_certificates`
with the time of the jets they call taken out, and of `cli._render`; each
tree's `layers` field holds the median seconds per pass of each (a layer
the tree lacks is left out).  At least 10 rounds are run; `--quick` runs 2
rounds over the first 3 experiments, to check the tool itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SCHEMA = "ellbethe-bench/1"
MIN_ROUNDS = 10
QUICK_ROUNDS, QUICK_EXPERIMENTS = 2, 3
LAYER_PASSES = 3
# the claim rule of a gain: the share of rounds the change must win
CLAIM_WIN_SHARE = 0.9


def package_modules() -> dict:
    """The `ellbethe` modules imported now, by name."""
    return {n: m for n, m in sys.modules.items() if n == "ellbethe" or n.startswith("ellbethe.")}


def load_cli(tree):
    """The `ellbethe.cli` module of the checkout `tree`, imported afresh, so
    that two trees' packages live side by side (each module holds its own
    references to the others)."""
    for name in package_modules():
        del sys.modules[name]
    sys.path.insert(0, os.path.join(tree, "src"))
    try:
        return importlib.import_module("ellbethe.cli")
    finally:
        sys.path.pop(0)


def run_pass(cli, runs, reference_work):
    """One pass: (wall time over the mean reference time, report digests)."""
    def ref():
        started = time.perf_counter()
        reference_work()
        return time.perf_counter() - started

    refs, wall, digests = [ref()], 0.0, []
    for command, path in runs:
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", path, "--json"])
        wall += time.perf_counter() - started
        refs.append(ref())
        digests.append("%d:%s" % (code, hashlib.sha256(out.getvalue().encode()).hexdigest()))
    return wall / statistics.mean(refs), digests


def counted(fn, row_of):
    """fn behind a wrapper that adds each top-level call (one made outside
    another call of fn) and its points to the {"calls", "points"} row that
    row_of gives for the call's other arguments."""
    import numpy

    depth = [0]

    def wrapper(xs, *args, **kwargs):
        if depth[0] == 0:
            row = row_of(*args, **kwargs)
            row["calls"] += 1
            row["points"] += int(numpy.size(xs))
        depth[0] += 1
        try:
            return fn(xs, *args, **kwargs)
        finally:
            depth[0] -= 1

    return wrapper


def run_quietly(cli, runs):
    """One pass of `runs` through `cli`, its output discarded."""
    for command, path in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([command, "--config", path, "--json"])


@contextlib.contextmanager
def patched(modules, wrappers):
    """Within the block, every module of `modules` (by name) that binds one
    of the functions in `wrappers` ({function: wrapper}) sees the wrapper."""
    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    bound = [(m, name, fn) for m in modules.values() for name, fn in vars(m).items()
             if id(fn) in by_id]
    for module, name, fn in bound:
        setattr(module, name, by_id[id(fn)])
    try:
        yield
    finally:
        for module, name, fn in bound:
            setattr(module, name, fn)


def count_calls(cli, modules, runs) -> tuple:
    """One untimed pass of `runs` through `cli`, with every module of its
    tree (`modules`, by name) that binds `_theta_jets`, `lattice_distances`
    or `_bethe_kernels` seeing a counting wrapper: ({order: {"calls":
    top-level calls, "points": their points}} of the jets, {"calls",
    "points"} of the distances, the systems of each `_bethe_kernels` call)."""
    elliptic, jets, distances = modules["ellbethe.elliptic"], {}, {"calls": 0, "points": 0}
    rounds = []

    def jet_row(ctx, order, **kwargs):
        return jets.setdefault("%d%s" % (order, "+dtau" if kwargs.get("dtau") else ""),
                               {"calls": 0, "points": 0})

    def counted_kernels(t, *args, **kwargs):
        rounds.append(len(t))
        return kernels(t, *args, **kwargs)

    kernels = getattr(modules["ellbethe.bethe"], "_bethe_kernels", None)
    wrappers = {elliptic._theta_jets: counted(elliptic._theta_jets, jet_row),
                elliptic.lattice_distances: counted(elliptic.lattice_distances,
                                                    lambda ctx: distances)}
    if kernels is not None:
        wrappers[kernels] = counted_kernels
    with patched(modules, wrappers):
        run_quietly(cli, runs)
    return dict(sorted(jets.items())), distances, rounds


def time_layers(cli, modules, runs) -> dict:
    """LAYER_PASSES passes of `runs` through `cli`, each timing the
    top-level calls of `_theta_jets`, of `solve_bae_batch` and
    `wr_certificates` without the jets they call, and of `_render`: the
    median seconds per pass of each layer the tree has."""
    owners = {"_theta_jets": "elliptic", "solve_bae_batch": "bethe",
              "wr_certificates": "wronski", "_render": "cli"}
    layers = {name: getattr(modules["ellbethe." + owner], name) for name, owner in owners.items()
              if hasattr(modules["ellbethe." + owner], name)}
    spent, active, jets = dict.fromkeys(layers, 0.0), set(), [0.0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            if name in active:  # a pass of a chunked jet call, or a call inside the layer
                return fn(*args, **kwargs)
            active.add(name)
            jets_before, started = jets[0], time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - started
                active.discard(name)
                if name == "_theta_jets":
                    jets[0] += took
                    spent[name] += took
                else:
                    spent[name] += took - (jets[0] - jets_before)
        return wrapper

    passes = []
    with patched(modules, {fn: timed(name, fn) for name, fn in layers.items()}):
        for _ in range(LAYER_PASSES):
            spent.update(dict.fromkeys(spent, 0.0))
            run_quietly(cli, runs)
            passes.append(dict(spent))
    return {name: statistics.median(p[name] for p in passes) for name in layers}


def verdict(parent, change, wins) -> dict:
    """The claim rule of a gain on the per-round values of both trees."""
    rounds = len(parent["values"])
    gap, spread = parent["median"] - change["median"], parent["q3"] - parent["q1"]
    return {"win_share": wins / rounds, "median_gap": gap, "parent_iqr": spread,
            "gain": wins >= CLAIM_WIN_SHARE * rounds and gap > spread}


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="fiber, eigen or identities")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds over the first 3 experiments")
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    if not args.quick and args.rounds < MIN_ROUNDS:
        parser.error("--rounds must be at least %d" % MIN_ROUNDS)
    for name in THREAD_VARS:
        os.environ[name] = "1"

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from worker import reference_work
    from workloads import make_experiments

    trees, modules = {}, {}
    for name in ("parent", "change"):
        trees[name] = load_cli(getattr(args, name))
        modules[name] = package_modules()
    experiments = make_experiments(args.workload, args.seed)
    rounds = args.rounds
    if args.quick:
        experiments, rounds = experiments[:QUICK_EXPERIMENTS], QUICK_ROUNDS
    values = {name: [] for name in trees}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for k, exp in enumerate(experiments):
            runs.append((exp.command, os.path.join(tmp, "%02d-%s.json" % (k, exp.name))))
            with open(runs[-1][1], "w", encoding="utf-8") as handle:
                json.dump(exp.config, handle)
        for r in range(rounds):
            for name in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                value, seen = run_pass(trees[name], runs, reference_work)
                values[name].append(value)
                if digests.setdefault(name, seen) != seen:
                    raise SystemExit("%s: a report differs between passes" % name)
        counts = {name: count_calls(cli, modules[name], runs) for name, cli in trees.items()}
        layers = {name: time_layers(cli, modules[name], runs) for name, cli in trees.items()}

    import numpy

    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "quick": args.quick,
        "unit": "pass wall time / mean reference_work time",
        "experiments": [exp.name for exp in experiments],
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        "reports_identical": digests["parent"] == digests["change"],
    }
    for name in trees:
        record[name] = dict(summary(values[name]), report_digests=digests[name],
                            theta_jets=counts[name][0], lattice_distances=counts[name][1],
                            bethe_rounds=counts[name][2], layers=layers[name])
    record["verdict"] = verdict(record["parent"], record["change"], record["change_wins"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    parent, claim = record["parent"], record["verdict"]
    print("%s seed %d, %d rounds: parent median %.3f, change median %.3f, change won %d"
          % (args.workload, args.seed, rounds, parent["median"], record["change"]["median"],
             record["change_wins"]))
    print("parent quartiles %.3f / %.3f / %.3f; %s: won %.0f %% of rounds (needs %.0f %%), "
          "median gap %.3f against the parent's IQR %.3f"
          % (parent["q1"], parent["median"], parent["q3"],
             "gain" if claim["gain"] else "no gain", 100 * claim["win_share"],
             100 * CLAIM_WIN_SHARE, claim["median_gap"], claim["parent_iqr"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
