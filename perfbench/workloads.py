"""The benchmark's workloads: seeded experiment lists, report checks, units.

Every input is generated from the workload seed: the marked points z (drawn
uniformly in the cell 0 + a + b*tau, kept a fixed lattice distance apart),
the eigen subset picks, and the config `seed` the CLI uses for its own point
sampling.  Nothing here looks at a solver outcome.

A *unit* is what a workload certifies:

- `fiber`: one fiber point; C(2m, m) are attempted per mu value and the
  certified ones are those in the report's `count` that pair with their
  complementary subset.
- `eigen`: one (experiment, subset) pair; certified when no warning names
  the subset and every check of the experiment passes.
- `identities`: one check row; certified when its status is `pass`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA = "elliptic-bethe/1"
SITE_SEPARATION = 0.15      # minimum lattice distance between marked points
TAUS = (1j, 0.3 + 0.8j)
# Seeds are valid iff 1/(2 pi |mu|) <= min separation / 2.  With every
# separation >= SITE_SEPARATION the first three values always seed Newton
# and 1i essentially never does, so the scan crosses the threshold on every
# seed at a cost that does not depend on where the sites fell.
SCAN_GRID = (10j, 2.5j, 2.2j, 1j)
# m = 3 site sets per tau in fiber and in eigen (one seeded subset each):
# enough short experiments that exp_s.p50 and exp_s.tail fall inside them
M3_SETS = 3
IDENTITY_TAUS = (2j, 1j, 0.3 + 0.8j, 0.2j, 0.1j, 0.05j, 0.03j)
IDENTITY_SEEDS = 2          # config seeds per tau on the identities ladder
IDENTITY_CHECKS = ("theta_prime_origin", "heat_equation", "theta_quasi_periodicity",
                   "kernel_quasi_periodicity", "sigma_cross_identity",
                   "sigma_product_identity")
EIGEN_CHECKS = ("eigen_relation", "eigen_sum_rule", "eigenvalue_sum", "s2_routes",
                "s2_eigen_b2", "b2_periodicity", "kernel_membership", "weyl_ratio")
WORKLOADS = ("fiber", "eigen", "identities")


@dataclass(frozen=True)
class Experiment:
    """One `ellbethe <command> --config <file> --json` invocation."""

    name: str
    command: str
    config: dict

    @property
    def m(self) -> int:
        return self.config.get("m", 2)


def _pair(value: complex) -> list:
    return [float(value.real), float(value.imag)]


def draw_sites(rng, count, tau):
    """`count` points uniform in the cell, pairwise SITE_SEPARATION apart
    modulo the lattice (rejection sampling)."""
    from ellbethe.elliptic import Torus, lattice_distance

    ctx = Torus(tau)
    sites = []
    while len(sites) < count:
        a, b = rng.random(2)
        x = complex(a) + complex(b) * tau
        if all(lattice_distance(x - p, ctx) >= SITE_SEPARATION for p in sites):
            sites.append(x)
    return sites


def make_experiments(workload, seed) -> list:
    """The ordered experiment list of one pass, generated from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])

    def config(m, tau, **extra):
        z = draw_sites(rng, 2 * m, tau)
        out = {"tau": _pair(tau), "m": m, "z": [_pair(v) for v in z],
               "seed": int(rng.integers(0, 2 ** 31))}
        out.update(extra)
        return out

    exps = []
    if workload == "fiber":
        for k, tau in enumerate(TAUS):
            for r in range(M3_SETS):
                exps.append(Experiment("m3-tau%d-%d" % (k, r), "fiber",
                                       config(3, tau, mu=_pair(10j))))
        exps.append(Experiment("m4-tau0", "fiber", config(4, TAUS[0], mu=_pair(14j))))
        exps.append(Experiment("m3-scan", "fiber", config(
            3, TAUS[0], mu=None, mu_grid=[_pair(mu) for mu in SCAN_GRID])))
    elif workload == "eigen":
        for k, tau in enumerate(TAUS):
            exps.append(Experiment("m2-tau%d" % k, "eigen",
                                   config(2, tau, mu=_pair(6j), subsets="all")))
        for k, tau in enumerate(TAUS):
            for r in range(M3_SETS):
                pick = sorted(int(i) for i in rng.choice(6, size=3, replace=False))
                exps.append(Experiment("m3-tau%d-%d" % (k, r), "eigen",
                                       config(3, tau, mu=_pair(10j), subsets=[pick])))
    else:
        for tau in IDENTITY_TAUS:
            for k in range(IDENTITY_SEEDS):
                exps.append(Experiment("tau%g%+gi-s%d" % (tau.real, tau.imag, k), "identities",
                                       {"tau": _pair(tau),
                                        "seed": int(rng.integers(0, 2 ** 31))}))
    return exps


def repspace_sizes(experiments) -> list:
    """Site counts n = 2m whose zero weight space the workload builds."""
    return sorted({2 * e.m for e in experiments if e.command == "eigen"})


# ---------------------------------------------------------------------------
# report checks and unit accounting
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Units of one report and any way the report broke its contract."""

    attempted: int
    certified: int
    failures: list      # one message per failed unit (CLI text where it has one)
    problems: list      # contract violations: the report cannot be trusted
    residuals: dict     # stage -> [worst measured residual, tolerance]
    notes: list = ()    # warnings that fail no unit


def _subset_text(subset) -> str:
    return "subset %s" % (tuple(subset),)


def check_report(exp: Experiment, code: int, text: str) -> Outcome:
    problems = []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return Outcome(0, 0, [], ["report is not JSON (exit %d): %s" % (code, exc)], {})
    if report.get("schema") != SCHEMA:
        problems.append("schema %r, expected %r" % (report.get("schema"), SCHEMA))
    if report.get("command") != exp.command:
        problems.append("command %r, expected %r" % (report.get("command"), exp.command))
    if report.get("seed") != exp.config["seed"]:
        problems.append("seed %r, expected %r" % (report.get("seed"), exp.config["seed"]))
    checks = report.get("checks", [])
    warnings = report.get("warnings", [])
    for c in checks:
        want = "pass" if c["measured"] <= c["tolerance"] else "fail"
        if c["status"] != want:
            problems.append("check %s has status %s, measured %r vs tolerance %r"
                            % (c["name"], c["status"], c["measured"], c["tolerance"]))
    failed_checks = [c for c in checks if c["status"] == "fail"]
    if code != (1 if failed_checks else 0):
        problems.append("exit code %d with %d failing checks" % (code, len(failed_checks)))

    account = {"fiber": _fiber_units, "eigen": _eigen_units,
               "identities": _identity_units}[exp.command]
    attempted, certified, failures, residuals = account(exp, report, checks, warnings,
                                                        failed_checks, problems)
    notes = [w for w in warnings if not any(w in f for f in failures)]
    if len(failures) > attempted - certified:
        problems.append("%d failure messages for %d failed units"
                        % (len(failures), attempted - certified))
    return Outcome(attempted, certified, failures, problems, residuals, notes)


def _check_message(c) -> str:
    return "check %s failed: measured %.3e > tolerance %.3e" % (
        c["name"], c["measured"], c["tolerance"])


def _fiber_units(exp, report, checks, warnings, failed_checks, problems):
    fiber = report.get("fiber", {})
    m = exp.m
    expected = math.comb(2 * m, m)
    failures = list(warnings)
    if "scan" in fiber:
        rows = fiber["scan"]
        if len(rows) != len(exp.config["mu_grid"]):
            problems.append("scan has %d rows for %d grid values"
                            % (len(rows), len(exp.config["mu_grid"])))
        attempted = certified = 0
        for row in rows:
            if row["expected"] != expected or not 0 <= row["count"] <= row["expected"]:
                problems.append("scan row count %r of expected %r" % (row["count"], row["expected"]))
            attempted += expected
            certified += min(row["count"], expected)
        _fill_merged(failures, attempted - certified)
        return attempted, certified, failures, {}

    count = fiber.get("count", -1)
    points = fiber.get("points", [])
    if fiber.get("expected") != expected or not 0 <= count <= expected:
        problems.append("fiber count %r of expected %r" % (count, fiber.get("expected")))
    if len(points) != count:
        problems.append("fiber lists %d points for count %d" % (len(points), count))
    certified = 0
    worst = 0.0
    tolerance = next((c["tolerance"] for c in checks if c["name"] == "wr_certificate"), 1e-9)
    for p in points:
        complement = sorted(set(range(2 * m)) - set(p["subset_tag"]))
        if p["partner_tag"] == complement:
            certified += 1
        elif not any(w.startswith(_subset_text(p["subset_tag"]) + " pairs with")
                     for w in warnings):
            problems.append("subset %s pairs with %s without a warning"
                            % (p["subset_tag"], p["partner_tag"]))
        if p["wr_residual"] > tolerance:
            problems.append("counted point %s has Wr residual %.3e above %.3e"
                            % (p["subset_tag"], p["wr_residual"], tolerance))
        worst = max(worst, p["wr_residual"])
    _fill_merged(failures, expected - certified)
    residuals = {"wr_certificate": [worst, tolerance]} if points else {}
    return expected, certified, failures, residuals


def _fill_merged(failures, failed):
    # the CLI collapses points that converge to the same solution silently
    missing = failed - len(failures)
    failures.extend(["point merged with another (deduplicated, no CLI warning)"] * missing)


def _eigen_units(exp, report, checks, warnings, failed_checks, problems):
    m = exp.m
    subsets = exp.config["subsets"]
    if subsets == "all":
        subsets = [list(s) for s in itertools.combinations(range(2 * m), m)]
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(EIGEN_CHECKS):
        problems.append("eigen checks %s" % names)
    failures = []
    certified = 0
    for subset in subsets:
        key = _subset_text(subset)
        named = [w for w in warnings if w.startswith(key + " ") or w.startswith(key + ":")]
        if named or failed_checks:
            failures.append("; ".join(named + [_check_message(c) for c in failed_checks]))
        else:
            certified += 1
    residuals = {c["name"]: [c["measured"], c["tolerance"]] for c in checks
                 if c["name"] in ("eigen_relation", "s2_routes")}
    return len(subsets), certified, failures, residuals


def _identity_units(exp, report, checks, warnings, failed_checks, problems):
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(IDENTITY_CHECKS):
        problems.append("identity checks %s" % names)
    failures = ["tau %s: %s" % (exp.config["tau"], _check_message(c)) for c in failed_checks]
    residuals = {c["name"]: [c["measured"], c["tolerance"]] for c in checks}
    return len(checks), len(checks) - len(failed_checks), failures, residuals
