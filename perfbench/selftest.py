"""Fast self-test of the benchmark's output schema on the smallest inputs.

    python3 perfbench/selftest.py

Runs the measuring loop in-process on three tiny experiments (the CLI's
built-in m = 2 fixture for `fiber`, the same fixture with one subset for
`eigen`, and `identities` at tau = 2i), untraced and traced.  It checks that
every report passes the benchmark's report checks and that the JSON result
line has exactly the keys, metric names and units BENCHMARK.json declares.
Then it runs `run.py` in a copy holding only BENCHMARK.json and the
benchmark's own files, which must exit non-zero without printing a result.
Takes about ten seconds; exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import Experiment  # noqa: E402

TINY = (
    Experiment("fixture-fiber", "fiber", {"seed": 0}),
    Experiment("fixture-eigen", "eigen", {"seed": 0, "subsets": [[0, 1]]}),
    Experiment("identities-2i", "identities", {"tau": [0.0, 2.0], "seed": 0}),
)


def fail(message):
    print("selftest FAILED: %s" % message)
    sys.exit(1)


def check_line(line, declared, trace):
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(line))
    if line["correct"] is not True or line["failed"] != 0:
        fail("tiny inputs did not pass the report checks: %s" % line)
    if not isinstance(line["attempted"], int) or line["attempted"] < 1:
        fail("attempted = %r" % line["attempted"])
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != want:
        fail("trace %d metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (trace, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(n for n in set(got) & set(want) if got[n] != want[n])))
    for name, m in line["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            fail("metric %s value %r is not a number" % (name, m["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    from ellbethe import cli, repspace

    work = os.path.join(HERE, "out", "selftest-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        paths = []
        for exp in TINY:
            paths.append(os.path.join(work, exp.name + ".json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(exp.config, handle)
        spaces = [repspace.zero_weight_space(4)]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = worker.measure(cli, TINY, paths, 0.0, trace, "selftest", 0)
            res.update(worker.setup_record(spaces, 0.0))
            metrics, lines = run.summarize(res, [0.1], {"seed": 0}, trace)
            check_line(json.loads(json.dumps(run.result_line(res, metrics, trace))),
                       declared, trace)
            print("trace %d: %d metrics match BENCHMARK.json (%d passes)"
                  % (trace, len(declared), len(res["passes"])))

        bare = os.path.join(work, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(spec["command"] + ["--workload", "fiber", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("run.py without sources exited %d with %r" % (proc.returncode, proc.stdout))
        print("without sources: exit %d, no result line" % proc.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
