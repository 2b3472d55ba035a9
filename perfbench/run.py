"""ellbethe benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fiber --seed 1 --seconds 30 --trace 0

The workload runs in its own fresh process (`worker.py`), single-threaded
with the BLAS thread count pinned to 1, through the public entry point
`ellbethe.cli.main([..., "--json"])`.  Set-up is timed from process start
to `ready`, in SETUP_SAMPLES processes around the measuring one.  With `--trace 0` the end-to-end
metrics are printed; with `--trace 1` untraced and traced passes alternate
and the per-layer metrics and the tracing overhead are printed.  The last
line of stdout is one JSON object: correct, attempted, failed (experiments,
i.e. `cli.main` calls, and those whose report broke its contract) and the
metrics.  See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import IDENTITY_CHECKS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BAE_TOLERANCE = 1e-10       # the CLI's default bae_residual tolerance
UNITS = {"fiber": "fiber points", "eigen": "(experiment, subset) pairs",
         "identities": "check rows"}

# End-to-end metrics in the JSON result line (the ones BENCHMARK.json bounds).
# The others are printed and recorded but not bounded: see README.md.
GATED_END_TO_END = ("setup_s", "wall_ref", "exp_ref.p50", "peak_rss_mb")


def layer_unit(name) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "wall_s"):
        return "s"
    if last == "us_per_call":
        return "us"
    if last == "dense_bytes":
        return "bytes"
    if last in ("self_share", "psi_reuse", "trace_overhead") or last.endswith("_frac") \
            or last.startswith("worst_"):
        return "ratio"
    return "count"


def _spawn(workload, seed, seconds, trace, mode, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
           str(seconds), str(trace), mode]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker (%s) exited %s before finishing" % (mode, proc.returncode))
    return ready, out


def _tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError("exp_s.tail needs at least 11 samples, got %d" % len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _ref(p) -> float:
    """The pass's reference unit: mean time of worker.reference_work.

    The host's speed flips between states within seconds, so the reference
    times are bimodal; their mean, unlike their median, follows the share
    of time spent in the slow state, which is what the experiments feel.
    """
    return statistics.mean(p["ref_s"])


def _worst(experiments, stages):
    found = [e["residuals"][s] for e in experiments for s in stages if s in e["residuals"]]
    if not found:
        return None
    return max(found, key=lambda pair: pair[0] / pair[1])


def summarize(res, setups, env_record, trace):
    """Metric dict and the human-readable lines for one run."""
    exps = res["experiments"]
    untraced = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    attempted = sum(e["attempted"] for e in exps)
    certified = sum(e["certified"] for e in exps)
    samples = [t for p in untraced for t in p["exp_s"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    ref_samples = [t / _ref(p) for p in untraced for t in p["exp_s"]]
    wall_ref = statistics.median(p["wall_s"] / _ref(p) for p in untraced)
    units = UNITS.get(res["workload"], "units")
    lines = []
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append("  %-40s %14.6g %-8s %s" % (name, value, unit, note))

    lines.append("workload %s  seed %d  trace %d" % (res["workload"], res["seed"], trace))
    lines.append("environment: %s" % json.dumps(env_record, sort_keys=True))
    if not trace:
        tail, pct = _tail(samples)
        passes = "median of %d passes of %d experiments" % (len(untraced), len(exps))
        tail_note = "p%.1f of n=%d (10 samples beyond it)" % (pct, len(samples))
        put("setup_s", statistics.median(setups), "s", "median of %d set-ups" % len(setups))
        put("wall_s", wall, "s", passes)
        put("exp_s.p50", statistics.median(samples), "s", "n=%d experiments" % len(samples))
        put("exp_s.tail", tail, "s", tail_note)
        put("ref_ms", 1e3 * statistics.median(_ref(p) for p in untraced), "ms",
            "reference unit: mean time of worker.reference_work")
        put("wall_ref", wall_ref, "ref", passes)
        put("exp_ref.p50", statistics.median(ref_samples), "ref", "n=%d experiments" % len(samples))
        put("exp_ref.tail", _tail(ref_samples)[0], "ref", tail_note)
        put("certified_per_s", certified / wall, "units/s",
            "%d certified %s per pass" % (certified, units))
        put("failed_frac", (attempted - certified) / attempted, "ratio",
            "%d failed of %d attempted units" % (attempted - certified, attempted))
        put("peak_rss_mb", res["peak_rss_mb"], "MB", "workload process")
    else:
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        seconds = {}
        layers = {}
        for name, value in res["layers"].items():
            if name.endswith(".self_s"):
                # self time as a share of the traced pass: a layer a workload
                # never enters reads 0 without posing as a measured time
                share = name[:-len("self_s")] + "self_share"
                layers[share] = value / traced_wall
                seconds[share] = "%.4f s self time per pass" % value
            else:
                layers[name] = value
        fiber = [e for e in exps if e["command"] == "fiber"]
        f_att = sum(e["attempted"] for e in fiber)
        f_cert = sum(e["certified"] for e in fiber)
        layers["wronski.points_attempted"] = f_att
        layers["wronski.points_certified"] = f_cert
        layers["wronski.certified_frac"] = f_cert / f_att if f_att else 0.0
        for name, stages in (("wronski.worst_wr_residual", ("wr_certificate",)),
                             ("repspace.worst_eigen_relation", ("eigen_relation",)),
                             ("repspace.worst_s2_routes", ("s2_routes",))):
            worst = _worst(exps, stages)
            layers[name] = worst[0] if worst else 0.0
        ratios = [e["residuals"][s][0] / e["residuals"][s][1]
                  for e in exps for s in IDENTITY_CHECKS if s in e["residuals"]]
        layers["elliptic.worst_identity_ratio"] = max(ratios, default=0.0)
        layers["repspace.zero_weight_space.s"] = res["zero_weight_space_s"]
        layers["repspace.dense_bytes"] = res["dense_bytes"]
        layers["trace.wall_s"] = traced_wall
        layers["trace_overhead"] = (statistics.median(p["wall_s"] / _ref(p) for p in traced)
                                    / wall_ref)
        for name in sorted(layers):
            put(name, layers[name], layer_unit(name), seconds.get(name, ""))
        lines.append("  (untraced wall_s %.4f s over %d passes, traced over %d passes; "
                     "%d spans in %s)" % (wall, len(untraced), len(traced),
                                         res["spans"]["count"], res["spans"]["path"]))

    lines.append("worst residual per stage (measured / tolerance; stage time per pass):")
    stage_rows = [("bae_residual", None), ("wr_certificate", ("wr_certificate",)),
                  ("eigen_relation", ("eigen_relation",)), ("s2_routes", ("s2_routes",))]
    stage_rows += [(name, (name,)) for name in IDENTITY_CHECKS]
    for stage, keys in stage_rows:
        if keys is None:
            if not trace or not res["layers"]["bethe.solve_bae.calls"]:
                continue
            worst = [res["layers"]["bethe.worst_bae_residual"], BAE_TOLERANCE]
            stage_s = res["layers"]["bethe.solve_bae.self_s"]
            source = "traced solve_bae self time"
        else:
            worst = _worst(exps, keys)
            if worst is None:
                continue
            idx = [i for i, e in enumerate(exps) if any(k in e["residuals"] for k in keys)]
            stage_s = statistics.median(sum(p["exp_s"][i] for i in idx) for p in untraced)
            source = "%d experiments" % len(idx)
        lines.append("  %-26s %.3e / %.1e  %s  %.4f s (%s)"
                     % (stage, worst[0], worst[1],
                        "pass" if worst[0] <= worst[1] else "FAIL", stage_s, source))

    failures = [(e["name"], msg) for e in exps for msg in e["failures"]]
    lines.append("failed units: %d of %d (%s)" % (attempted - certified, attempted, units))
    for name, msg in failures:
        lines.append("  %s: %s" % (name, msg))
    for problem in res["problems"]:
        lines.append("REPORT CHECK FAILED: %s" % problem)
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ellbethe", "cli.py")):
        print("no ellbethe sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    def setup_only():
        return _spawn(args.workload, args.seed, args.seconds, args.trace, "setup", env)[0]

    # half the set-ups before the measuring process and half after, so their
    # median spans the run and not one moment of the host's speed
    setups = [setup_only() for _ in range((SETUP_SAMPLES - 1) // 2)]
    ready, out = _spawn(args.workload, args.seed, args.seconds, args.trace, "run", env)
    setups.append(ready)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    res = json.loads(out.strip().splitlines()[-1])

    env_record = {
        "seed": args.seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["numpy"], "blas_threads": {name: env[name] for name in THREAD_VARS},
        "setup_samples": len(setups),
        "passes": sum(1 for p in res["passes"] if not p["traced"]),
        "traced_passes": sum(1 for p in res["passes"] if p["traced"]),
        "experiments_per_pass": len(res["experiments"]),
    }
    metrics, lines = summarize(res, setups, env_record, args.trace)
    print("\n".join(lines))

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", "result-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"environment": env_record, "setup_s": setups, "metrics": metrics,
                   "worker": res}, handle, indent=1, sort_keys=True)

    print(json.dumps(result_line(res, metrics, args.trace)))
    return 0


def result_line(res, metrics, trace) -> dict:
    """The JSON result line: experiments attempted and broken, and the metrics."""
    broken = sum(1 for e in res["experiments"] if not e["ok"])
    if not trace:
        metrics = {name: metrics[name] for name in GATED_END_TO_END}
    return {"correct": not res["problems"],
            "attempted": len(res["passes"]) * len(res["experiments"]),
            "failed": broken * len(res["passes"]), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
