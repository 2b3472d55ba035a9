"""Command-line driver: experiment configs in, verification reports out.

Four subcommands cover the library surface: `identities` runs the
special-function identity matrix, `solve` the Bethe-equation solver with
normal-form output, `fiber` the Wronski-fiber enumeration and threshold
scan, and `eigen` the KZB / S2 / B2 / involution verification suite at
sampled lambda.  Reports are deterministic for a fixed (config, seed):
complex numbers appear as [re, im] pairs, keys are sorted, and timings
are excluded unless explicitly requested, so identical runs produce
identical bytes.  Exit codes: 0 = ran, 1 = a check failed, 2 = config
error; warnings leave the exit code at 0 unless --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bethe import RESIDUAL_GATE, BetheProblem, normalize_solution, solve_subsets
from .elliptic import (
    Torus,
    _rho_rows,
    _theta_table,
    eta,
    lattice_distances,
    phi,
    rho_prime,
    sigma,
    theta,
    theta_derivs,
    theta_dtau,
)
from .repspace import verify_eigen
from .thetapoly import FundamentalParallelogram, golden_points
from .wronski import (WR_RESIDUAL_GATE, GridOrderError, enumerate_fiber, scan_mu_grid,
                      scan_mu_min)

SCHEMA = "elliptic-bethe/1"
LATTICE_MARGIN = 0.05
SHIFTS = ((1, 0), (0, 1), (-1, 1), (2, -1))

DEFAULT_TOLERANCES = {
    "theta_prime_origin": 1e-12,
    "heat_equation": 1e-7,
    "theta_quasi_periodicity": 1e-10,
    "kernel_quasi_periodicity": 1e-10,
    "sigma_cross_identity": 1e-10,
    "sigma_product_identity": 1e-10,
    "bae_residual": RESIDUAL_GATE,
    "fiber_count": 0.0,
    "wr_certificate": WR_RESIDUAL_GATE,
    "mu_min_found": 0.0,
    "eigen_relation": 1e-8,
    "eigen_sum_rule": 1e-9,
    "eigenvalue_sum": 1e-8,
    "s2_routes": 1e-8,
    "s2_eigen_b2": 1e-8,
    "b2_periodicity": 1e-9,
    "kernel_membership": 1e-8,
    "weyl_ratio": 1e-8,
}

DEFAULT_CONFIG = {
    "tau": [0.0, 1.0],
    "parallelogram_base": [0.0, 0.0],
    "m": 2,
    "z": [[0.13, 0.0], [0.41, 0.12], [0.55, 0.31], [0.77, 0.05]],
    "mu": [0.0, 6.0],
    "mu_grid": None,
    "subsets": "all",
    "tolerances": {},
    "seed": 0,
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


def _is_number(value, kind=(int, float)):
    """A JSON number of that kind: bool is an int subclass, but true is not 1 here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _as_complex(value, field):
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if not all(map(_is_number, parts)):
        raise ConfigError("field %r must be a number or [re, im] pair, got %r"
                          % (field, value))
    # finite, and no JSON integer too large for a float (NaN fails too)
    if not all(abs(v) <= sys.float_info.max for v in parts):
        raise ConfigError("field %r must be finite, got %r" % (field, value))
    return complex(parts[0], parts[1])


def _parse_mu_token(token):
    """Accept '6i', '-4+2i', plain Python complex syntax, or a float."""
    text = token.strip().replace("i", "j")
    try:
        return complex(text)
    except ValueError:
        raise ConfigError("cannot parse %r as a complex number" % token) from None


@dataclass(frozen=True)
class ExperimentConfig:
    tau: complex
    parallelogram_base: complex
    m: int
    z: tuple
    mu: complex
    mu_grid: tuple
    subsets: object  # "all" or tuple of index tuples
    tolerances: dict
    seed: int

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        merged = dict(DEFAULT_CONFIG)
        unknown = sorted(set(raw) - set(merged))
        if unknown:
            raise ConfigError("unknown config fields: %s (known: %s)"
                              % (", ".join(unknown), ", ".join(sorted(merged))))
        merged.update(raw)

        m = merged["m"]
        if not (_is_number(m, int) and m >= 1):
            raise ConfigError("m must be a positive integer, got %r" % (m,))
        z = merged["z"]
        if not isinstance(z, (list, tuple)) or len(z) != 2 * m:
            raise ConfigError("z must list exactly 2m = %d sites" % (2 * m))
        z = tuple(_as_complex(v, "z[%d]" % i) for i, v in enumerate(z))

        mu = merged["mu"]
        mu = None if mu is None else _as_complex(mu, "mu")
        grid = merged["mu_grid"]
        if grid is not None:
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ConfigError("mu_grid must be a non-empty list")
            grid = tuple(_as_complex(v, "mu_grid") for v in grid)
        if mu is None and grid is None:
            raise ConfigError("one of mu or mu_grid is required")

        subsets = merged["subsets"]
        if subsets != "all":
            if not isinstance(subsets, (list, tuple)) or not subsets:
                raise ConfigError('subsets must be "all" or a non-empty list')
            cleaned = []
            for entry in subsets:
                if not (isinstance(entry, (list, tuple)) and len(entry) == m
                        and all(_is_number(i, int) and 0 <= i < 2 * m for i in entry)
                        and len(set(entry)) == m):
                    raise ConfigError(
                        "subset %r must hold %d distinct site indices in [0, %d)"
                        % (entry, m, 2 * m))
                cleaned.append(tuple(sorted(entry)))
            subsets = tuple(cleaned)

        tolerances = merged["tolerances"] or {}
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances must be an object, got %r" % (tolerances,))
        unknown = sorted(set(tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError("unknown tolerance names: %s (known: %s)"
                              % (", ".join(unknown),
                                 ", ".join(sorted(DEFAULT_TOLERANCES))))
        for name, value in tolerances.items():
            if not (_is_number(value) and 0 <= value <= sys.float_info.max):
                raise ConfigError("tolerance %r must be a number, finite and >= 0, got %r"
                                  % (name, value))
        tolerances = {k: float(v) for k, v in tolerances.items()}

        seed = merged["seed"]
        if not (_is_number(seed, int) and seed >= 0):
            raise ConfigError("seed must be a non-negative integer, got %r" % (seed,))

        return cls(
            tau=_as_complex(merged["tau"], "tau"),
            parallelogram_base=_as_complex(merged["parallelogram_base"],
                                           "parallelogram_base"),
            m=m, z=z, mu=mu, mu_grid=grid, subsets=subsets,
            tolerances=tolerances, seed=seed,
        )

    def torus(self) -> Torus:
        try:
            return Torus(self.tau)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def problem(self, mu=None) -> BetheProblem:
        ctx = self.torus()
        cell = FundamentalParallelogram(self.parallelogram_base, ctx)
        mu = self.mu if mu is None else mu
        if mu is None:
            raise ConfigError("this command requires a single mu "
                              "(mu_grid alone is not enough)")
        try:
            return BetheProblem(self.m, self.z, mu, ctx, cell)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def tolerance(self, name) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def subset_list(self) -> list:
        if self.subsets == "all":
            return list(itertools.combinations(range(2 * self.m), self.m))
        return list(self.subsets)

    def echo(self) -> dict:
        raw = dataclasses.asdict(self)
        raw["subsets"] = ("all" if self.subsets == "all"
                          else [list(s) for s in self.subsets])
        return raw


# ---------------------------------------------------------------------------
# sampling and report plumbing
# ---------------------------------------------------------------------------


def _cell_samples(cell, count, seed, avoid=()):
    """Seeded low-discrepancy points in the cell, a lattice-margin away from
    the lattice and from every point in `avoid` (mod the lattice)."""
    offset = np.random.default_rng(seed).random(2)
    return golden_points(cell, count, offset, avoid=(0.0,) + tuple(avoid),
                         margin=LATTICE_MARGIN)


def _relerr(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _worst(*errors):
    """The largest entry of any of the arrays, 0.0 if all are empty, NaN if any entry is."""
    return float(np.max([np.max(e, initial=0.0) for e in errors], initial=0.0))


def _check(name, measured, tolerance):
    return {
        "name": name,
        "status": "pass" if measured <= tolerance else "fail",
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def _json_default(value):
    """JSON form of what json does not encode: complex as [re, im], numpy scalars as floats."""
    if isinstance(value, (complex, np.complexfloating)):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    raise TypeError("%r is not JSON serializable" % (value,))


def _json_text(value, pad, out):
    """Append to `out` the text json.dumps(value, sort_keys=True, indent=2,
    default=_json_default) gives value at the level whose newline and
    indent are `pad`: json's checks in json's order, its string escaper,
    float.__repr__, and NaN and +-Infinity as json writes them; a complex
    with finite parts is written as its [re, im] text in one step.  (json
    encodes indented output with its pure-Python encoder, which this
    writer outruns.)  It takes what the commands build, acyclic trees
    with str keys: a non-str key raises TypeError, where json converts
    int, float, bool and None keys, and a cycle RecursionError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else
                   "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, complex) and math.isfinite(value.real) and math.isfinite(value.imag):
        inner = pad + "  "
        out.append("[%s%s,%s%s%s]" % (inner, float.__repr__(value.real), inner,
                                       float.__repr__(value.imag), pad))
    elif isinstance(value, (list, tuple, dict)):
        keyed = isinstance(value, dict)
        if not value:
            out.append("{}" if keyed else "[]")
            return
        inner = pad + "  "
        out.append("{" if keyed else "[")
        for i, item in enumerate(sorted(value.items()) if keyed else value):
            out.append("," + inner if i else inner)
            if keyed:
                key, item = item
                out.append(encode_basestring_ascii(key) + ": ")
            _json_text(item, inner, out)
        out.append(pad + ("}" if keyed else "]"))
    else:
        _json_text(_json_default(value), pad, out)


def _render(report, as_json):
    """The report as text: with as_json, the bytes of json.dumps(report,
    sort_keys=True, indent=2, default=_json_default) and a newline, from
    `_json_text`."""
    if as_json:
        out = []
        _json_text(report, "\n", out)
        return "".join(out) + "\n"
    lines = ["%s | command %s | seed %d"
             % (report["schema"], report["command"], report["seed"])]
    for check in report["checks"]:
        lines.append("check %-26s %s  (measured %.3e, tolerance %.3e)"
                     % (check["name"] + ":", check["status"].upper(),
                        check["measured"], check["tolerance"]))
    for warning in report["warnings"]:
        lines.append("warning: %s" % warning)
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    lines.append("result: %s (%d checks, %d warnings)"
                 % ("FAIL" if failed else "PASS",
                    len(report["checks"]), len(report["warnings"])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def cmd_identities(cfg: ExperimentConfig) -> dict:
    """Each identity is evaluated on all kept samples and the four SHIFTS
    at once, from one theta table per report over every kernel and sample
    set; pairs too near the lattice are dropped before anything is
    evaluated."""
    ctx = cfg.torus()
    base = cfg.parallelogram_base
    pts = np.array(_cell_samples(FundamentalParallelogram(base, ctx), 100, cfg.seed))
    xs, ws = pts[:50], pts[50:]
    # lattice shifts k + l tau along axis 0, against the points along axis 1
    ks, ls = (np.array(col)[:, None] for col in zip(*SHIFTS))
    shifts = ks + ls * ctx.tau
    # the kernel and product identities skip pairs with x +- w near the lattice
    apart = np.minimum(lattice_distances(xs + ws, ctx), lattice_distances(xs - ws, ctx)) >= 1e-3
    x, w = xs[apart], ws[apart]
    z1, z2 = complex(base) + 0.05 - 0.11j, complex(base) + 0.44 + 0.31j
    clear = lattice_distances(np.array([xs - z1, xs - z2, ws, ws - (z1 - z2),
                                        np.full_like(xs, z1 - z2)]), ctx)
    keep = clear.min(axis=0) >= LATTICE_MARGIN
    cx, cw = xs[keep], ws[keep]
    lhs = 4j * math.pi * theta_dtau(xs[:10], ctx)
    ((origin, d), (th_shift, th), ((r, rp), (r_shift, rp_shift), *rho_sets), (rp_w,),
     (e, e_shift), (sig, sig_minus, sig_wx, sig_x, sig_w, s1, s2, s12),
     (ph, ph_x, ph_w)) = _theta_table(
        ctx, (theta_derivs, (0.0,), (xs[:10],)), (theta, (xs + shifts,), (xs,)),
        (_rho_rows, (x,), (x + shifts,), (cx - z1,), (cx - z2,), (cw,), (cw - (z1 - z2),)),
        (rho_prime, (w,)), (eta, (x,), (x + shifts,)),
        (sigma, (x, w), (x, -w), (w, -x), (x + shifts, w), (x, w + shifts),
         (cx - z1, cw), (cx - z2, -cw), (np.full_like(cx, z1 - z2), -cw)),
        (phi, (x, w), (x + shifts, w), (x, w + shifts)))
    r1, r2, rw, rw12 = (rows[0] for rows in rho_sets)
    checks = [_check("theta_prime_origin", abs(origin[1] - 1.0),
                     cfg.tolerance("theta_prime_origin"))]

    # the heat equation of the normalized theta, on which master_gradient's dPhi/dtau rests
    rhs = d[2] - origin[3] * d[0]
    checks.append(_check("heat_equation",
                         np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))),
                         cfg.tolerance("heat_equation")))

    mult = (1.0 - 2.0 * ((ks + ls) % 2)) * np.exp(-1j * math.pi * ls * ls * ctx.tau
                                                  - 2j * math.pi * ls * xs)
    checks.append(_check("theta_quasi_periodicity", _worst(_relerr(th_shift, mult * th)),
                         cfg.tolerance("theta_quasi_periodicity")))

    twopi_l = 2j * math.pi * ls
    worst = _worst(
        _relerr(r_shift, r - twopi_l),
        _relerr(rp_shift, rp),
        _relerr(e_shift, e - 2.0 * twopi_l * r + twopi_l ** 2),
        _relerr(sig_x, np.exp(-twopi_l * w) * sig),
        _relerr(sig_w, np.exp(-twopi_l * x) * sig),
        _relerr(ph_x, np.exp(twopi_l * w) * ph),
        _relerr(ph_w, np.exp(twopi_l * x) * (ph + twopi_l * sig_wx)))
    warnings = []
    if len(x) < 30:
        warnings.append("kernel quasi-periodicity sampled only %d point pairs"
                        % len(x))
    checks.append(_check("kernel_quasi_periodicity", worst,
                         cfg.tolerance("kernel_quasi_periodicity")))

    if len(cx) < 20:
        warnings.append("cross identity sampled only %d point pairs" % len(cx))
    checks.append(_check("sigma_cross_identity",
                         _worst(_relerr(s1 * s2 / s12 + r2 - r1, rw - rw12)),
                         cfg.tolerance("sigma_cross_identity")))

    checks.append(_check("sigma_product_identity",
                         _worst(_relerr(sig * sig_minus, rp_w - rp)),
                         cfg.tolerance("sigma_product_identity")))

    return {"checks": checks, "warnings": warnings}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(cfg: ExperimentConfig) -> dict:
    prob = cfg.problem()
    warnings, records = [], []
    subsets = cfg.subset_list()
    for subset, sol in zip(subsets, solve_subsets([prob] * len(subsets), subsets)):
        record = {"subset": list(subset)}
        records.append(record)
        if isinstance(sol, Exception):
            record.update(status="no_convergence", reason=str(sol))
            warnings.append("subset %s: %s" % (subset, sol))
            continue
        sol = normalize_solution(sol)
        record.update(
            status="converged" if sol.converged else "no_convergence",
            t=list(sol.t), mu_effective=sol.mu, residual=sol.residual)
        if not sol.converged:
            warnings.append("subset %s did not converge (residual %.3e)"
                            % (subset, sol.residual))
    worst = max((r["residual"] for r in records if r["status"] == "converged"), default=0.0)
    return {"checks": [_check("bae_residual", worst, cfg.tolerance("bae_residual"))],
            "warnings": warnings, "solutions": records}


# ---------------------------------------------------------------------------
# fiber
# ---------------------------------------------------------------------------


def _point_record(point):
    return {
        "subset_tag": list(point.subset_tag),
        "partner_tag": list(point.partner_tag),
        "wr_residual": point.wr_residual,
        "f_label": point.f.mu,
        "f_roots": list(point.f.roots),
        "g_label": point.g.mu,
        "g_roots": list(point.g.roots),
    }


def cmd_fiber(cfg: ExperimentConfig) -> dict:
    if cfg.subsets != "all":
        raise ConfigError('fiber covers every subset; subsets must be "all" or absent, got %s'
                          % ([list(s) for s in cfg.subsets],))
    checks, warnings = [], []
    out = {"checks": checks, "warnings": warnings}
    if cfg.mu_grid is not None:
        try:
            scanned = scan_mu_grid(cfg.problem(cfg.mu_grid[0]), cfg.mu_grid)
        except GridOrderError as exc:
            raise ConfigError(str(exc)) from None
        rows = [{"mu": complex(mu), "abs_mu": abs(complex(mu)), "count": report.count,
                 "expected": report.expected, "complete": report.complete}
                for mu, report in scanned]
        warnings.extend("mu %s subset %s failed: %s" % (mu, subset, why)
                        for mu, report in scanned for subset, why in report.failed)
        mu_min = scan_mu_min(scanned)
        out["fiber"] = {"scan": rows, "mu_min_estimate": mu_min}
        checks.append(_check("mu_min_found", 0.0 if mu_min is not None else 1.0,
                             cfg.tolerance("mu_min_found")))
        return out

    report = enumerate_fiber(cfg.problem())
    warnings.extend("subset %s failed: %s" % failure for failure in report.failed)
    warnings.extend(report.warnings)
    out["fiber"] = {
        "count": report.count,
        "expected": report.expected,
        "pairing": [[list(a), list(b)] for a, b in report.pairing],
        "points": [_point_record(p) for p in report.points],
    }
    checks.append(_check("fiber_count", float(report.expected - report.count),
                         cfg.tolerance("fiber_count")))
    worst = max((p.wr_residual for p in report.points), default=0.0)
    checks.append(_check("wr_certificate", worst, cfg.tolerance("wr_certificate")))
    return out


def _fiber_csv(report_section):
    """Plot-ready (|mu|, count) table for a grid scan, or the single row."""
    lines = ["abs_mu,count"]
    if "scan" in report_section:
        for row in report_section["scan"]:
            lines.append("%.17g,%d" % (row["abs_mu"], row["count"]))
    else:
        lines.append(",%d" % report_section["count"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------


def cmd_eigen(cfg: ExperimentConfig) -> dict:
    prob = cfg.problem()
    lam_pts = _cell_samples(prob.cell, 10, cfg.seed)
    x_pts = _cell_samples(prob.cell, 10, cfg.seed + 1, avoid=prob.z)
    report = enumerate_fiber(prob, cfg.subset_list())
    result = verify_eigen([(p.solution, p.partner) for p in report.points], lam_pts, x_pts)
    warnings = ["subset %s skipped: %s" % failure for failure in report.failed]
    ratio_table = [dict(row, subset=list(p.subset_tag))
                   for p, rows in zip(report.points, result.ratio_rows) for row in rows]
    checks = [_check(name, value, cfg.tolerance(name)) for name, value in result.worst.items()]
    return {"checks": checks, "warnings": warnings, "ratio_table": ratio_table}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


COMMANDS = {
    "identities": cmd_identities,
    "solve": cmd_solve,
    "fiber": cmd_fiber,
    "eigen": cmd_eigen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellbethe",
        description="Verification driver for the elliptic Bethe package.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help="run the %s suite" % name)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON on stdout")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures (exit 1)")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte "
                            "determinism between runs)")
        if name == "fiber":
            p.add_argument("--csv", help="write a plot-ready CSV table")
            p.add_argument("--mu-grid",
                           help="comma-separated mu values, e.g. '8i,6i,4i,2i'")
    return parser


# built once per process (it costs more than a parse); parse_args keeps no state
_parser = functools.cache(build_parser)


def load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc) from None
    else:
        raw = {}
    # the overrides pass the same validation as the config they override
    if isinstance(raw, dict) and args.seed is not None:
        raw = dict(raw, seed=args.seed)
    if isinstance(raw, dict) and getattr(args, "mu_grid", None):
        grid = (_parse_mu_token(t) for t in args.mu_grid.split(","))
        raw = dict(raw, mu_grid=[[v.real, v.imag] for v in grid])
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args)
        # opened before the command runs, so an unwritable path costs no run
        try:
            csv = open(args.csv, "w", encoding="utf-8") if getattr(args, "csv", None) else None
        except OSError as exc:
            raise ConfigError("cannot write CSV: %s" % exc) from None
        with csv or contextlib.nullcontext():
            body = COMMANDS[args.command](cfg)
            if csv:
                csv.write(_fiber_csv(body["fiber"]))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "warnings": [],
    }
    report.update(body)
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - started}
    sys.stdout.write(_render(report, args.json))
    failed = any(c["status"] == "fail" for c in report["checks"])
    if failed:
        return 1
    if args.strict and report["warnings"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
