"""One workload in one fresh process: set up, signal ready, run timed passes.

`run.py` starts this file; it is not meant to be run by hand:

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE {setup,run}

Set-up imports `ellbethe` from ROOT/src, writes the workload's configs,
builds `repspace.zero_weight_space(n)` for every n the workload uses, and
prints `ready`.  In `setup` mode the process then exits; in `run` mode it
runs passes over the experiments (closed loop, one client: each `cli.main`
call starts when the previous one has returned), checks every report, and
prints one JSON line with the raw samples.  With TRACE = 1 untraced and
traced passes alternate, so both wall times come from the same process.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_EXP_SAMPLES = 11        # exp_s.tail needs 10 samples beyond it
MIN_PASSES = 2              # repeats are compared byte for byte
PASS_TIME_CAP_S = 120.0     # never start a pass that would end after this


def reference_work():
    """Fixed pure-Python complex arithmetic: the unit of the `*_ref` metrics.

    It is the benchmark's own code, so no change to ellbethe moves it.  On
    a 2-vCPU x86 VM whose speed flips between a fast and a slow state
    within seconds, the mean of these timings over a pass follows the
    share of slow time the experiments see (README.md, "Reference units").
    """
    acc = 0j
    w = 1 + 0j
    z = cmath.exp(0.001j)
    for n in range(30000):
        w *= z
        acc += cmath.sin(w) / (1 + n % 7)
    return acc


def _time_reference():
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def _run_one(cli, exp, path):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([exp.command, "--config", path, "--json"])
    except Exception:  # recorded as a failed experiment, the loop goes on
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - started, out.getvalue(), err.getvalue()


def _dense_bytes(space):
    """Bytes held by the numpy arrays of a ZeroWeightSpace (computed)."""
    import numpy as np

    total = 0
    stack = list(vars(space).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def main(argv):
    root, workload, seed, seconds, trace, mode = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    from ellbethe import cli, repspace
    from workloads import make_experiments, repspace_sizes

    experiments = make_experiments(workload, seed)
    workdir = os.path.join(HERE, "out", "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for k, exp in enumerate(experiments):
        paths.append(os.path.join(workdir, "%02d-%s.json" % (k, exp.name)))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(exp.config, handle)
    started = time.perf_counter()
    spaces = [repspace.zero_weight_space(n) for n in repspace_sizes(experiments)]
    zws_s = time.perf_counter() - started
    print("ready", flush=True)
    try:
        if mode == "run":
            result = measure(cli, experiments, paths, seconds, trace, workload, seed)
            result.update(setup_record(spaces, zws_s))
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_record(spaces, zws_s) -> dict:
    import numpy

    return {"zero_weight_space_s": zws_s,
            "dense_bytes": sum(_dense_bytes(s) for s in spaces),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy": numpy.__version__}


def measure(cli, experiments, paths, seconds, trace, workload, seed) -> dict:
    """Run passes until `seconds` have been measured; raw samples and checks."""
    from tracing import Tracer, layer_metrics
    from workloads import check_report

    tracer = Tracer() if trace else None
    passes, layers, problems = [], [], []
    first = {}              # experiment index -> (report digest, outcome)
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset_counters()
            tracer.install()
        times, refs = [], [_time_reference()]
        try:
            for k, (exp, path) in enumerate(zip(experiments, paths)):
                if traced:
                    tracer.experiment = "p%d/%s" % (len(passes), exp.name)
                code, elapsed, text, err = _run_one(cli, exp, path)
                times.append(elapsed)
                refs.append(_time_reference())
                digest = hashlib.sha256(text.encode()).hexdigest()
                if k not in first:
                    outcome = check_report(exp, code if code is not None else -1, text)
                    if code is None:
                        outcome.problems.append("cli.main raised: %s" % err.strip())
                    first[k] = (digest, outcome)
                elif digest != first[k][0]:
                    first[k][1].problems.append(
                        "report differs between passes of the same (config, seed)")
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": sum(times), "exp_s": times, "ref_s": refs})
        if traced:
            layers.append(layer_metrics(tracer))

        elapsed = time.perf_counter() - begin
        last = max(p["wall_s"] for p in passes[-2:])
        untraced = [p for p in passes if not p["traced"]]
        if trace:
            enough = len(passes) >= 2
        else:
            enough = (len(passes) >= MIN_PASSES
                      and sum(len(p["exp_s"]) for p in untraced) >= MIN_EXP_SAMPLES)
        if elapsed + last > PASS_TIME_CAP_S or (enough and elapsed + last > seconds):
            break

    result = {"workload": workload, "seed": seed, "passes": passes, "experiments": []}
    for k, exp in enumerate(experiments):
        outcome = first[k][1]
        problems.extend("%s: %s" % (exp.name, p) for p in outcome.problems)
        result["experiments"].append({
            "name": exp.name, "command": exp.command, "config": exp.config,
            "attempted": outcome.attempted, "certified": outcome.certified,
            "failures": outcome.failures, "notes": outcome.notes,
            "residuals": outcome.residuals, "ok": not outcome.problems,
        })
    if trace:
        counts = [{k: v for k, v in layer.items() if isinstance(v, int)} for layer in layers]
        if any(c != counts[0] for c in counts):
            problems.append("layer counts differ between traced passes of the same inputs")
        result["layers"] = {
            name: (counts[0][name] if name in counts[0]
                   else statistics.median(layer[name] for layer in layers))
            for name in layers[0]}
        result["layers"]["bethe.worst_bae_residual"] = max(
            layer["bethe.worst_bae_residual"] for layer in layers)
        spans_path = os.path.join(HERE, "out", "spans-%s-seed%d.jsonl" % (workload, seed))
        tracer.write_spans(spans_path)
        result["spans"] = {"path": os.path.relpath(spans_path, os.path.dirname(HERE)),
                           "count": len(tracer.spans)}
    result["problems"] = problems
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
