"""End-to-end tests for the command-line driver.

Each test invokes `main` with an argv list, so the whole pipeline is
exercised: config loading and validation, the numerical suites, report
assembly, and exit codes (0 = ran, 1 = check failure, 2 = config error).
"""

import itertools
import json
import math

import numpy as np
import pytest

from ellbethe import bethe, cli, elliptic, repspace, thetapoly, wronski
from ellbethe.cli import DEFAULT_TOLERANCES, ExperimentConfig, _cell_samples, main
from ellbethe.elliptic import Torus, lattice_distance
from ellbethe.thetapoly import FundamentalParallelogram
from test_wronski import MERGED_Z

M1_CONFIG = {"m": 1, "z": [[0.13, 0.0], [0.41, 0.12]], "mu": [0.0, 6.0]}
LOW_MU_CONFIG = {"mu": [0.0, 1.3]}
M4_CONFIG = {"m": 4, "mu": [0.0, 14.0],
             "z": [[0.13, 0.0], [0.41, 0.12], [0.55, 0.31], [0.77, 0.05],
                   [0.05, 0.55], [0.29, 0.71], [0.62, 0.83], [0.88, 0.47]]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    return code, report


class TestConfigValidation:
    def test_default_config_runs(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_rejects_nonpositive_imag_tau(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": [0.0, -1.0]})
        assert main(["identities", "--config", cfg]) == 2
        assert "Im(tau) > 0" in capsys.readouterr().err

    def test_rejects_site_outside_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "z": [[0.13, 0.0], [0.41, 0.12], [0.55, 0.31], [5.77, 0.05]]})
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "site 3" in err and "outside the fundamental cell" in err

    def test_rejects_unknown_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frobnicate": 3})
        assert main(["solve", "--config", cfg]) == 2
        assert "unknown config fields: frobnicate" in capsys.readouterr().err

    def test_rejects_unknown_tolerance_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {"nope": 1e-9}})
        assert main(["solve", "--config", cfg]) == 2
        assert "unknown tolerance names: nope" in capsys.readouterr().err

    def test_rejects_repeated_subset_index(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"subsets": [[0, 0]]})
        assert main(["solve", "--config", cfg]) == 2
        assert "distinct site indices" in capsys.readouterr().err

    def test_requires_mu_or_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mu": None})
        assert main(["solve", "--config", cfg]) == 2
        assert "mu or mu_grid" in capsys.readouterr().err

    def test_rejects_wrong_site_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"m": 1})  # default z keeps 4 sites
        assert main(["solve", "--config", cfg]) == 2
        assert "exactly 2m = 2 sites" in capsys.readouterr().err

    def test_rejects_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", None, [1e-9], True])
    def test_rejects_non_numeric_tolerance(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"tolerances": {"bae_residual": value}})
        assert main(["solve", "--config", cfg]) == 2
        assert "tolerance 'bae_residual' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, argv, text", [
        ("solve", {"mu": math.nan}, [], "field 'mu' must be finite"),
        ("fiber", {"mu": [0, math.inf]}, [], "field 'mu' must be finite"),
        ("fiber", {"mu": None, "mu_grid": [[0, 8], math.nan]}, [], "field 'mu_grid' must be finite"),
        ("fiber", {}, ["--mu-grid", "8i,nan"], "field 'mu_grid' must be finite"),
        ("identities", {"parallelogram_base": [math.nan, 0]}, [],
         "field 'parallelogram_base' must be finite"),
        ("solve", {"m": True, "z": [[0.13, 0.0], [0.41, 0.12]]}, [], "m must be"),
        ("eigen", {"m": True, "z": [[0.13, 0.0], [0.41, 0.12]]}, [], "m must be"),
        ("fiber", {"m": True, "z": [[0.13, 0.0], [0.41, 0.12]]}, [], "m must be"),
        ("solve", {"subsets": [[True, 0]]}, [], "distinct site indices"),
        ("solve", {"subsets": [5]}, [], "distinct site indices"),
        ("solve", {"tolerances": [1e-9]}, [], "tolerances must be an object"),
        ("identities", {"seed": -1}, [], "seed must be a non-negative integer"),
        ("eigen", {"seed": True}, [], "seed must be a non-negative integer"),
        ("identities", {}, ["--seed", "-1"], "seed must be a non-negative integer"),
        ("eigen", {}, ["--seed", "-1"], "seed must be a non-negative integer"),
        ("fiber", {"tolerances": {"fiber_count": math.inf}}, [],
         "tolerance 'fiber_count' must be a number, finite and >= 0"),
        ("solve", {"tolerances": {"bae_residual": math.nan}}, [],
         "tolerance 'bae_residual' must be a number, finite and >= 0"),
        ("identities", {"tolerances": {"heat_equation": -1}}, [],
         "tolerance 'heat_equation' must be a number, finite and >= 0"),
        # integers too large for a float, written out as digits
        ("solve", {"mu": [0, 10 ** 400]}, [], "field 'mu' must be finite"),
        ("solve", {"z": [[10 ** 400, 0], [0.41, 0.12], [0.55, 0.31], [0.77, 0.05]]}, [],
         "field 'z[0]' must be finite"),
        ("identities", {"tau": [0, 10 ** 400]}, [], "field 'tau' must be finite"),
        ("solve", {"tolerances": {"bae_residual": 10 ** 400}}, [],
         "tolerance 'bae_residual' must be a number, finite and >= 0"),
        # malformed values and shapes
        ("solve", [1, 2], [], "config must be a JSON object"),
        ("fiber", {}, ["--mu-grid", "8i,8x"], "cannot parse '8x' as a complex number"),
        ("fiber", {"mu_grid": []}, [], "mu_grid must be a non-empty list"),
        ("solve", {"subsets": []}, [], 'subsets must be "all" or a non-empty list'),
        ("solve", {"mu": None, "mu_grid": [[0, 8]]}, [], "requires a single mu"),
        ("identities", {"tau": "i"}, [], "field 'tau' must be a number or [re, im] pair"),
    ])
    def test_rejects_non_finite_boolean_and_negative_values(self, tmp_path, capsys, command,
                                                            payload, argv, text):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg] + argv) == 2
        assert text in capsys.readouterr().err

    def test_rejects_unreadable_config(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2
        assert "config error: cannot read config: " in capsys.readouterr().err

    def test_tolerance_override_is_applied(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tolerances": {"bae_residual": 1e-30}})
        code, report = run_json(capsys, ["solve", "--config", cfg])
        assert code == 1
        row = next(c for c in report["checks"] if c["name"] == "bae_residual")
        assert row["status"] == "fail" and row["tolerance"] == 1e-30


class TestReportFormat:
    def test_json_schema(self, capsys):
        code, report = run_json(capsys, ["identities"])
        assert code == 0
        assert report["schema"] == "elliptic-bethe/1"
        assert report["command"] == "identities"
        assert report["config"]["mu"] == [0.0, 6.0]  # complex as [re, im]
        for check in report["checks"]:
            assert set(check) == {"name", "status", "measured", "tolerance"}
            assert check["name"] in DEFAULT_TOLERANCES
        assert report["warnings"] == []

    def test_every_check_echoes_its_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M1_CONFIG)
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        assert code == 0
        for check in report["checks"]:
            assert check["tolerance"] == DEFAULT_TOLERANCES[check["name"]]

    def test_byte_deterministic_for_fixed_config_and_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M1_CONFIG)
        outputs = []
        for _ in range(2):
            assert main(["eigen", "--config", cfg, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_seed_changes_samples_not_verdict(self, capsys):
        code1, rep1 = run_json(capsys, ["identities", "--seed", "1"])
        code2, rep2 = run_json(capsys, ["identities", "--seed", "2"])
        assert code1 == code2 == 0
        m1 = [c["measured"] for c in rep1["checks"]]
        m2 = [c["measured"] for c in rep2["checks"]]
        assert m1 != m2

    def test_timings_excluded_unless_requested(self, capsys):
        _, report = run_json(capsys, ["identities"])
        assert "timings" not in report
        _, report = run_json(capsys, ["identities", "--timings"])
        assert report["timings"]["total_s"] > 0.0

    @staticmethod
    def dumps(report):
        return json.dumps(report, sort_keys=True, indent=2, default=cli._json_default) + "\n"

    def test_json_writer_gives_the_bytes_of_json_dumps(self, capsys, monkeypatch):
        """Every command's default report, as `main` hands it over."""
        render, reports = cli._render, []
        monkeypatch.setattr(cli, "_render", lambda report, as_json: (
            reports.append(report), render(report, as_json))[1])
        for name in cli.COMMANDS:
            main([name, "--json"])
        assert [r["command"] for r in reports] == list(cli.COMMANDS)
        outputs = capsys.readouterr().out
        assert outputs == "".join(self.dumps(r) for r in reports)

    def test_json_writer_on_edge_values(self):
        """Non-finite floats, a negative zero, empty containers, a tuple,
        numpy scalars, complex numbers (finite, with a NaN or infinite
        part, numpy's, and nested) and non-ASCII text."""
        report = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0,
                  "empty": [[], {}, ()], "tuple": (1, 2.5, "x"),
                  "numpy": [np.float64(0.1), np.int64(7), np.float32(0.5), np.float64(math.nan)],
                  "complex": [1 - 2j, np.complex128(3 + 0.5j), complex(-0.0, 1e-300),
                              complex(math.nan, 1), complex(2, -math.inf), np.complex64(1j),
                              {"deep": [[0.1 + 0.2j]]}],
                  "warnings": ["na\u00efve \u2603 \"quoted\"\n\t"],
                  "nested": {"b": {"z": None, "a": True}, "a": False, "": {}}, "big": 10 ** 20}
        assert cli._render(report, True) == self.dumps(report)

    def test_json_writer_rejects_what_json_cannot_encode(self):
        for value in (object(), {1, 2}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli._render({"checks": [value]}, True)

    def test_a_parse_leaves_nothing_for_the_next(self, capsys):
        """main reuses one parser: a flag given to one run is unset in the
        next run of the same process."""
        _, report = run_json(capsys, ["identities", "--timings"])
        assert "timings" in report
        _, report = run_json(capsys, ["identities"])
        assert "timings" not in report
        _, report = run_json(capsys, ["fiber", "--mu-grid", "8i,2i"])
        assert "scan" in report["fiber"]
        _, report = run_json(capsys, ["fiber"])
        assert "scan" not in report["fiber"]
        assert report["fiber"]["count"] == 6


class TestIdentitiesCommand:
    @pytest.mark.parametrize("tau", [0.05, 0.03])
    def test_all_checks_pass_at_small_imag_tau(self, tmp_path, capsys, tau):
        # the sine series lost digits here before tau was reduced into the
        # fundamental domain; default tolerances throughout
        cfg = write_config(tmp_path, {"tau": [0.0, tau]})
        code, report = run_json(capsys, ["identities", "--config", cfg])
        assert code == 0
        assert len(report["checks"]) == 6
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_table_evaluates_each_distinct_slot_once(self, capsys, monkeypatch, theta_jet_calls):
        """On the default config the report's one theta table evaluates
        1,911 points, one jet per distinct slot (3,861, one per slot, when
        the kernels that share an argument array each took their own jet):
        261 at order 3, 850 at order 2 and 800 at order 0; theta_dtau's
        jet at 10 points is the report's only other call."""
        table, tables = cli._theta_table, []

        def recorded(ctx, *requests):
            start = len(theta_jet_calls)
            out = table(ctx, *requests)
            tables.append(theta_jet_calls[start:])
            return out

        monkeypatch.setattr(cli, "_theta_table", recorded)
        code, _ = run_json(capsys, ["identities"])
        assert code == 0
        (table_calls,) = tables
        assert sorted(table_calls) == [(0, 800, False), (2, 850, False), (3, 261, False)]
        assert sorted(theta_jet_calls) == sorted(table_calls + [(0, 10, True)])

    @pytest.mark.parametrize("defect", ["dtau_scaled", "third_dropped"])
    def test_heat_row_catches_seeded_defects(self, capsys, monkeypatch, defect):
        """The heat_equation row fails by at least 100 times its tolerance
        when theta_dtau is off by 1e-4, and when the theta'''(0) theta term
        is dropped (the unnormalized heat equation applied to theta); every
        other row still passes."""
        if defect == "dtau_scaled":
            monkeypatch.setattr(cli, "theta_dtau",
                                lambda x, ctx: elliptic.theta_dtau(x, ctx) * (1.0 + 1e-4))
        else:
            def no_third(x, ctx):
                d = (yield from elliptic.theta_derivs.__wrapped__(x, ctx)).copy()
                # the origin jet, whose row 3 is theta'''(0)
                d[3, x == 0.0] = 0.0
                return d

            monkeypatch.setattr(cli, "theta_derivs", no_third)
        code, report = run_json(capsys, ["identities"])
        assert code == 1
        rows = {c["name"]: c for c in report["checks"]}
        heat = rows.pop("heat_equation")
        assert heat["status"] == "fail"
        assert heat["measured"] >= 100 * DEFAULT_TOLERANCES["heat_equation"]
        assert all(c["status"] == "pass" for c in rows.values())

    def test_few_kept_samples_are_warned_about(self, capsys, monkeypatch):
        """With 45 of the 50 (x, w) samples at x = w = z1, a point of the
        cross identity, x - w and x - z1 fall inside the cut: the kernel
        and cross identities each keep 5 pairs, warn that they were
        sampled only that many, and still report their checks."""
        samples = cli._cell_samples

        def crowded(cell, count, seed, avoid=()):
            pts = np.array(samples(cell, count, seed, avoid))
            pts[:45] = pts[50:95] = complex(cell.base) + 0.05 - 0.11j
            return pts

        monkeypatch.setattr(cli, "_cell_samples", crowded)
        _, report = run_json(capsys, ["identities"])
        assert report["warnings"] == ["kernel quasi-periodicity sampled only 5 point pairs",
                                      "cross identity sampled only 5 point pairs"]
        assert len(report["checks"]) == 6

    @pytest.mark.parametrize("tau", [1.0, 0.03])
    def test_joined_values_have_the_bits_of_separate_calls(self, tmp_path, capsys,
                                                            monkeypatch, tau):
        """Every set of the report's one theta table, on the default
        samples, has the bytes of a call of its own; at 0.03i the torus is
        S-transformed (c != 0)."""
        tables = []
        table = cli._theta_table

        def recorded(ctx, *requests):
            out = table(ctx, *requests)
            tables.append((ctx, requests, out))
            return out

        monkeypatch.setattr(cli, "_theta_table", recorded)
        cfg = write_config(tmp_path, {"tau": [0.0, tau]})
        assert main(["identities", "--config", cfg]) == 0
        capsys.readouterr()
        (ctx, requests, table_out), = tables
        assert [kernel.__name__ for kernel, *_ in requests] == [
            "theta_derivs", "theta", "_rho_rows", "rho_prime", "eta", "sigma", "phi"]
        assert (ctx.cd[0] != 0) == (tau < 1.0)
        for (kernel, *arg_sets), out in zip(requests, table_out):
            assert len(out) == len(arg_sets)
            for args, values in zip(arg_sets, out):
                alone = np.asarray(kernel(*args, ctx))
                assert values.shape == alone.shape
                assert values.tobytes() == alone.tobytes(), kernel.__name__


class TestSolveCommand:
    def test_reports_one_record_per_subset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M1_CONFIG)
        code, report = run_json(capsys, ["solve", "--config", cfg])
        assert code == 0
        records = report["solutions"]
        assert [r["subset"] for r in records] == [[0], [1]]
        for record in records:
            assert record["status"] == "converged"
            assert record["residual"] < 1e-10
            assert len(record["t"]) == 1

    def test_no_convergence_is_warning_not_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LOW_MU_CONFIG)
        code, report = run_json(capsys, ["solve", "--config", cfg])
        assert code == 0
        assert len(report["warnings"]) == 6
        statuses = {r["status"] for r in report["solutions"]}
        assert statuses == {"no_convergence"}

    def test_unconverged_solution_is_a_warning_row(self, capsys, monkeypatch):
        """A solve that returns its best iterate unconverged gets status
        no_convergence and one warning, printed in text mode too; only
        --strict turns it into exit 1."""
        solve = cli.solve_subsets

        def one_unconverged(problems, subsets):
            out = solve(problems, subsets)
            out[1] = bethe.solve_bae(problems[1], bethe.seed_asymptotic(problems[1], subsets[1]),
                                     max_iter=0)
            return out

        monkeypatch.setattr(cli, "solve_subsets", one_unconverged)
        code, report = run_json(capsys, ["solve"])
        assert code == 0
        records = report["solutions"]
        assert [r["status"] for r in records] == ["converged", "no_convergence"] + ["converged"] * 4
        warning = "subset (0, 2) did not converge (residual %.3e)" % records[1]["residual"]
        assert report["warnings"] == [warning]
        assert main(["solve", "--strict", "--json"]) == 1
        capsys.readouterr()
        assert main(["solve"]) == 0
        assert "\nwarning: %s\n" % warning in capsys.readouterr().out

    def test_every_batch_failure_is_reported_per_subset(self, tmp_path, capsys):
        # at |mu| = 1e300 each seed sits on its site, so Newton meets a pole
        cfg = write_config(tmp_path, {"mu": [0, 1e300]})
        code, report = run_json(capsys, ["solve", "--config", cfg])
        assert code == 0
        records = report["solutions"]
        assert [r["status"] for r in records] == ["no_convergence"] * 6
        for warning, record, subset in zip(report["warnings"], records,
                                           itertools.combinations(range(4), 2)):
            assert "tol_pole" in record["reason"]
            assert warning == "subset %s: %s" % (subset, record["reason"])

    def test_no_warning_where_the_fiber_certifies(self, tmp_path, capsys):
        # at 40i the residuals, 1.1e-12 to 2.0e-12, miss a fixed 1e-12
        # target but meet the one that grows with |mu| (5.0e-12)
        cfg = write_config(tmp_path, {"mu": [0.0, 40.0]})
        code, report = run_json(capsys, ["solve", "--config", cfg, "--strict"])
        assert code == 0 and report["warnings"] == []
        assert {r["status"] for r in report["solutions"]} == {"converged"}

    def test_every_subset_converges_at_80i(self, tmp_path, capsys):
        """At 80i Newton's target, 1.0e-11, lies below the rounding floor of
        some residuals; `converged` reads RESIDUAL_GATE, as `fiber` does."""
        cfg = write_config(tmp_path, {"mu": [0.0, 80.0]})
        code, report = run_json(capsys, ["solve", "--strict", "--config", cfg])
        assert code == 0 and report["warnings"] == []
        records = report["solutions"]
        assert {r["status"] for r in records} == {"converged"}
        assert max(r["residual"] for r in records) > bethe._newton_tol(80j)

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LOW_MU_CONFIG)
        assert main(["solve", "--config", cfg, "--strict", "--json"]) == 1

    @pytest.mark.parametrize("command", ["solve", "eigen"])
    def test_zero_mu_is_reported_per_subset(self, tmp_path, capsys, command):
        # the seed displacement 1/(2 pi i mu) is unbounded at mu = 0
        cfg = write_config(tmp_path, {"mu": 0})
        code, report = run_json(capsys, [command, "--config", cfg])
        if command == "eigen":
            # no subset was verified, so no check may read as a pass
            assert code == 1
            assert all(c["status"] == "fail" and c["measured"] == math.inf
                       for c in report["checks"])
        else:
            assert code == 0
        assert len(report["warnings"]) == 6
        for warning, subset in zip(report["warnings"], itertools.combinations(range(4), 2)):
            assert warning.startswith("subset %s" % (subset,))
            assert "seed displacement inf exceeds" in warning

    def test_explicit_subset_selection(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"subsets": [[0, 2], [1, 3]]})
        code, report = run_json(capsys, ["solve", "--config", cfg])
        assert code == 0
        assert [r["subset"] for r in report["solutions"]] == [[0, 2], [1, 3]]


    def test_subsets_are_solved_in_one_batch(self, capsys, monkeypatch):
        sizes = []
        batch = bethe.solve_bae_batch
        monkeypatch.setattr(bethe, "solve_bae_batch",
                            lambda problems, *a, **k: sizes.append(len(problems))
                            or batch(problems, *a, **k))
        code, report = run_json(capsys, ["solve"])
        assert code == 0 and sizes == [6]
        prob = ExperimentConfig.from_dict({}).problem()
        for record in report["solutions"]:
            subset = tuple(record["subset"])
            sol = bethe.normalize_solution(
                bethe.solve_bae(prob, bethe.seed_asymptotic(prob, subset)))
            assert record["t"] == [[v.real, v.imag] for v in sol.t]
            assert record["residual"] == sol.residual


class TestFiberCommand:
    def test_full_fiber_count(self, capsys):
        code, report = run_json(capsys, ["fiber"])
        assert code == 0
        section = report["fiber"]
        assert section["count"] == section["expected"] == 6
        assert len(section["points"]) == 6
        for point in section["points"]:
            assert point["wr_residual"] < 1e-9
            assert point["f_label"] == [0.0, 0.0]

    @pytest.mark.parametrize("grid", [[], ["--mu-grid", "8i,6i"]], ids=["mu", "mu-grid"])
    def test_explicit_subsets_are_a_config_error(self, tmp_path, capsys, grid):
        """The fiber covers every subset, so a subset list it would ignore
        is refused; "all" runs as the default does."""
        cfg = write_config(tmp_path, {"subsets": [[0, 1]]})
        assert main(["fiber", "--config", cfg] + grid) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "subsets" in captured.err
        assert "every subset" in captured.err
        cfg = write_config(tmp_path, {"subsets": "all"})
        assert run_json(capsys, ["fiber", "--config", cfg] + grid) == run_json(
            capsys, ["fiber"] + grid)

    def test_incomplete_fiber_partial_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LOW_MU_CONFIG)
        code, report = run_json(capsys, ["fiber", "--config", cfg])
        assert code == 1
        row = next(c for c in report["checks"] if c["name"] == "fiber_count")
        assert row["status"] == "fail"
        assert len(report["warnings"]) == 6
        assert all("failed" in w for w in report["warnings"])

    def test_grid_scan_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        code, report = run_json(
            capsys, ["fiber", "--mu-grid", "8i,6i,4i,2i", "--csv", str(csv_path)])
        assert code == 0
        assert report["fiber"]["mu_min_estimate"] == 2.0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "abs_mu,count"
        assert lines[1:] == ["8,6", "6,6", "4,6", "2,6"]

    def test_single_mu_writes_the_count_row(self, tmp_path, capsys):
        csv_path = tmp_path / "fiber.csv"
        assert main(["fiber", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text() == "abs_mu,count\n,6\n"

    def test_unwritable_csv_is_a_config_error(self, tmp_path, capsys):
        """A CSV path in a missing directory exits 2 with one line, not 1
        (a failed check) with a traceback."""
        csv_path = tmp_path / "missing" / "scan.csv"
        assert main(["fiber", "--mu-grid", "8i", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write CSV: ")
        assert captured.err.count("\n") == 1

    def test_unwritable_csv_fails_before_the_scan(self, tmp_path, capsys, monkeypatch):
        """The CSV path is opened before the command runs: an unwritable
        one exits 2 without computing the scan it would have held."""
        def scan(*args):
            raise AssertionError("scan_mu_grid called before the CSV path was checked")
        monkeypatch.setattr(cli, "scan_mu_grid", scan)
        csv_path = tmp_path / "missing" / "scan.csv"
        assert main(["fiber", "--mu-grid", "8i,6i,4i,2i", "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write CSV: ")

    def test_grid_scan_reports_threshold_crossing(self, tmp_path, capsys):
        code, report = run_json(capsys, ["fiber", "--mu-grid", "6i,1.3i"])
        assert code == 0
        rows = report["fiber"]["scan"]
        assert [r["complete"] for r in rows] == [True, False]
        assert report["fiber"]["mu_min_estimate"] == 6.0
        # each failure keeps its reason, not only the exception class
        assert report["warnings"]
        for warning in report["warnings"]:
            assert warning.startswith("mu 1.3j subset (")
            assert "failed: SeedTooCoarseError: seed displacement" in warning

    @pytest.mark.parametrize("grid, want", [("8i,6i,4i,2i", 2.0), ("6i,1.3i", 6.0)])
    def test_threshold_is_the_library_estimate(self, capsys, grid, want):
        mus = [cli._parse_mu_token(token) for token in grid.split(",")]
        prob = ExperimentConfig.from_dict({}).problem(mus[0])
        assert wronski.scan_mu_min(wronski.scan_mu_grid(prob, mus)) == want
        _, report = run_json(capsys, ["fiber", "--mu-grid", grid])
        assert report["fiber"]["mu_min_estimate"] == want

    def test_grid_must_descend(self, capsys):
        assert main(["fiber", "--mu-grid", "2i,4i", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: mu_grid must be sorted by |Im mu| descending\n"

    def test_a_value_error_inside_the_scan_is_not_a_config_error(self, monkeypatch):
        """The scan runs eagerly inside the command, and only its grid-order
        check is a config error: a ValueError from the solve propagates."""
        def solve(problems, subsets):
            raise ValueError("inside the solve")
        monkeypatch.setattr(wronski, "solve_subsets", solve)
        with pytest.raises(ValueError, match="inside the solve"):
            main(["fiber", "--mu-grid", "8i,6i", "--json"])


class TestEigenCommand:
    def test_all_checks_pass_with_ratio_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M1_CONFIG)
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        assert code == 0
        assert all(c["status"] == "pass" for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert {"eigen_relation", "eigen_sum_rule", "s2_routes", "s2_eigen_b2",
                "b2_periodicity", "kernel_membership", "weyl_ratio"} <= names
        table = report["ratio_table"]
        assert len(table) == 20  # 2 subsets x 10 lambda samples
        for row in table:
            assert row["component_spread"] < 1e-8

    def test_never_inverts_the_wronskian(self, tmp_path, capsys, monkeypatch):
        # fiber partners come from the Bethe solve at -mu; the Wronskian
        # inversion and its residue contour stay library-only routes
        def forbidden(*args, **kwargs):
            raise AssertionError("CLI reached the Wronskian inversion")

        for name in ("solve_wronskian", "_residues_over_f_squared"):
            monkeypatch.setattr(bethe, name, forbidden)
            monkeypatch.setattr(thetapoly, name, forbidden)
        cfg = write_config(tmp_path, M1_CONFIG)
        for argv in (["fiber"], ["fiber", "--mu-grid", "8i,2i"],
                     ["eigen", "--config", cfg]):
            code, report = run_json(capsys, argv)
            assert code == 0 and report["warnings"] == []

    def test_every_subset_is_verified_at_80i(self, tmp_path, capsys, monkeypatch):
        sizes = []
        verify = cli.verify_eigen
        monkeypatch.setattr(cli, "verify_eigen",
                            lambda pairs, *a: sizes.append(len(pairs)) or verify(pairs, *a))
        cfg = write_config(tmp_path, {"mu": [0.0, 80.0]})
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        assert code == 0 and report["warnings"] == [] and sizes == [6]
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_m4_subset_certifies(self, tmp_path, capsys):
        # the Wronskian-inversion partner of this subset has an O(1)
        # collocation residual, which used to skip it
        cfg = write_config(tmp_path, dict(M4_CONFIG, subsets=[[0, 1, 2, 3]]))
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        assert code == 0
        assert report["warnings"] == []
        assert all(c["status"] == "pass" for c in report["checks"])
        assert len(report["ratio_table"]) == 10


    def test_default_run_evaluates_each_kernel_once(self, capsys, theta_jet_calls):
        """The verifier evaluates every kernel over all (subset, lambda, x)
        at once, the eigenvalues included: the default eigen makes at most
        10 theta jet calls over at most 4,221 points."""
        code, _ = run_json(capsys, ["eigen"])
        assert code == 0
        assert 0 < len(theta_jet_calls) <= 10
        assert sum(points for _, points, _ in theta_jet_calls) <= 4221

    def test_merged_subsets_are_skipped_at_stage_dedup(self, tmp_path, capsys, newton_step):
        """Below the threshold, under Newton steps, three subsets land on
        other subsets' points; eigen skips them as fiber does, and verifies
        what the other subsets alone verify."""
        merged = {"m": 3, "z": [[v.real, v.imag] for v in MERGED_Z], "mu": [0.0, 2.2]}
        code, report = run_json(capsys, ["eigen", "--config", write_config(tmp_path, merged)])
        assert code == 0
        text = "subset %s skipped: same point as subset %s [stage dedup]"
        dedup = [(0, 3, 4), (0, 4, 5), (3, 4, 5)]
        assert [w for w in report["warnings"] if w.endswith("[stage dedup]")] == [
            text % pair for pair in zip(dedup, [(0, 1, 3), (0, 1, 5), (1, 3, 5)])]
        assert len(report["ratio_table"]) == 160
        rest = [list(s) for s in itertools.combinations(range(6), 3) if s not in dedup]
        cfg = write_config(tmp_path, dict(merged, subsets=rest), "rest.json")
        _, alone = run_json(capsys, ["eigen", "--config", cfg])
        assert report["checks"] == alone["checks"]
        assert report["ratio_table"] == alone["ratio_table"]

    def test_repeated_subset_is_verified_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(M1_CONFIG, subsets=[[0], [0]]))
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        assert code == 0 and report["warnings"] == []
        assert {tuple(row["subset"]) for row in report["ratio_table"]} == {(0,)}
        assert len(report["ratio_table"]) == 10

    def test_certificate_failure_is_a_skip_not_a_traceback(self, tmp_path, capsys,
                                                           monkeypatch):
        """An ArithmeticError in the certificate skips the subset, and the
        warning names the class and the stage, as the fiber warnings do."""
        def refuse(*args, **kwargs):
            raise ArithmeticError("could not place the sample points")

        # the one sample row of each certificate call is refused, so every
        # subset fails its certificate
        monkeypatch.setattr(wronski, "golden_points", refuse)
        cfg = write_config(tmp_path, M1_CONFIG)
        code, report = run_json(capsys, ["eigen", "--config", cfg])
        # no subset reached the checks
        assert code == 1
        assert report["warnings"] == [
            "subset (%d,) skipped: ArithmeticError: could not place the sample points "
            "[stage certificate]" % k for k in (0, 1)]


class TestNanFailsItsCheck:
    def test_worst_keeps_a_nan_wherever_it_is(self):
        assert math.isnan(cli._worst(np.array([1.0]), np.array([2.0, np.nan])))
        assert cli._worst(np.array([1.0]), np.array([2.0])) == 2.0
        assert cli._worst(np.zeros(0)) == 0.0

    def test_a_nan_kernel_value_fails_its_identity(self, capsys, monkeypatch):
        """phi enters only the last two of the seven arrays of
        kernel_quasi_periodicity, so the NaN is never the first one seen."""
        def poisoned(x, w, ctx):
            out = yield from elliptic.phi.__wrapped__(x, w, ctx)
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(cli, "phi", poisoned)
        code, report = run_json(capsys, ["identities"])
        assert code == 1
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in failed] == ["kernel_quasi_periodicity"]
        assert math.isnan(failed[0]["measured"])

    def test_a_nan_in_psi_fails_the_eigen_checks_that_read_it(self, capsys, monkeypatch):
        psi_rows = repspace._psi_rows

        def poisoned(*args):
            out = psi_rows(*args)
            out[:, 0, 4, 1] = np.nan
            return out

        monkeypatch.setattr(repspace, "_psi_rows", poisoned)
        code, report = run_json(capsys, ["eigen"])
        assert code == 1
        assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {
            "eigen_relation", "eigen_sum_rule", "s2_routes", "s2_eigen_b2", "weyl_ratio"}


class TestSampler:
    CELL = FundamentalParallelogram(0.0, Torus(1j))

    def test_points_respect_lattice_margin(self):
        pts = _cell_samples(self.CELL, 50, seed=3)
        assert len(pts) == 50
        assert all(lattice_distance(x, self.CELL.ctx) > 0.05 for x in pts)

    def test_points_respect_avoid_list(self):
        avoid = (0.13, 0.41 + 0.12j, 0.55 + 0.31j, 0.77 + 0.05j)
        pts = _cell_samples(self.CELL, 50, seed=3, avoid=avoid)
        assert all(lattice_distance(x - a, self.CELL.ctx) > 0.05
                   for x in pts for a in avoid)

    def test_deterministic_in_seed(self):
        assert (_cell_samples(self.CELL, 10, seed=4)
                == _cell_samples(self.CELL, 10, seed=4))
        assert (_cell_samples(self.CELL, 10, seed=4)
                != _cell_samples(self.CELL, 10, seed=5))


class TestUnknownCommand:
    def test_argparse_rejects(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["solve", "--csv", "x.csv"], ["eigen", "--mu-grid", "8i"],
                                      ["identities", "--mu-grid", "8i"]])
    def test_fiber_flags_belong_to_fiber(self, capsys, argv):
        """Only fiber reads --csv and --mu-grid, so only fiber takes them."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
