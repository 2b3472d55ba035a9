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
from ellbethe.thetapoly import FundamentalParallelogram, golden_points
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


@pytest.fixture
def theta_passes(monkeypatch):
    """The list that gets one entry per `_theta_jets` call (a theta pass)
    made through `elliptic`, `bethe` or `thetapoly`."""
    calls = []
    jets = elliptic._theta_jets

    def counted(*args, **kwargs):
        calls.append(None)
        return jets(*args, **kwargs)

    for module in (elliptic, bethe, thetapoly):
        monkeypatch.setattr(module, "_theta_jets", counted)
    return calls


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
    ])
    def test_rejects_non_finite_boolean_and_negative_values(self, tmp_path, capsys, command,
                                                            payload, argv, text):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg] + argv) == 2
        assert text in capsys.readouterr().err

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
        numpy scalars, complex numbers and non-ASCII text."""
        report = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0,
                  "empty": [[], {}, ()], "tuple": (1, 2.5, "x"),
                  "numpy": [np.float64(0.1), np.int64(7), np.float32(0.5), np.float64(math.nan)],
                  "complex": [1 - 2j, np.complex128(3 + 0.5j)],
                  "warnings": ["na\u00efve \u2603 \"quoted\"\n\t"],
                  "nested": {"b": {"z": None, "a": True}, "a": False, "": {}}, "big": 10 ** 20}
        assert cli._render(report, True) == self.dumps(report)

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

    def test_default_run_evaluates_each_kernel_once(self, capsys, theta_passes):
        """One theta pass per public kernel over all its sample sets: theta,
        rho, rho', eta, sigma (three jets), phi (three) and the single
        theta_derivs, theta1_dtau and theta1_derivs calls make 13."""
        code, _ = run_json(capsys, ["identities"])
        assert code == 0
        assert len(theta_passes) <= 13

    @pytest.mark.parametrize("tau", [1.0, 0.03])
    def test_joined_values_have_the_bits_of_separate_calls(self, tmp_path, capsys,
                                                            monkeypatch, tau):
        """Every set of a joined call, on the default samples, has the bytes
        of a call of its own; at 0.03i the torus is S-transformed (c != 0)."""
        joins = []
        joined = cli._joined

        def recorded(kernel, ctx, *arg_sets):
            out = joined(kernel, ctx, *arg_sets)
            joins.append((kernel, ctx, arg_sets, out))
            return out

        monkeypatch.setattr(cli, "_joined", recorded)
        cfg = write_config(tmp_path, {"tau": [0.0, tau]})
        assert main(["identities", "--config", cfg]) == 0
        capsys.readouterr()
        assert [kernel.__name__ for kernel, *_ in joins] == [
            "theta", "rho", "rho_prime", "eta", "sigma", "phi"]
        assert (joins[0][1].cd[0] != 0) == (tau < 1.0)
        for kernel, ctx, arg_sets, out in joins:
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
        assert wronski.estimate_mu_min(prob, mus) == want
        _, report = run_json(capsys, ["fiber", "--mu-grid", grid])
        assert report["fiber"]["mu_min_estimate"] == want

    def test_grid_must_descend(self, capsys):
        assert main(["fiber", "--mu-grid", "2i,4i", "--json"]) == 2
        assert "descending" in capsys.readouterr().err


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


    def test_default_run_evaluates_each_kernel_once(self, capsys, theta_passes):
        """The verifier evaluates every kernel over all (subset, lambda, x)
        at once, the eigenvalues included: the default eigen makes at most
        39 theta passes."""
        code, _ = run_json(capsys, ["eigen"])
        assert code == 0
        assert len(theta_passes) <= 39

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

        # a site on the first golden candidate, so that every pair places
        # its sample points with a `golden_points` call of its own
        first = golden_points(FundamentalParallelogram(0.0, Torus(1j)), 1, (0.5, 0.37))[0]
        monkeypatch.setattr(wronski, "golden_points", refuse)
        cfg = write_config(tmp_path, dict(M1_CONFIG, z=[[0.13, 0.0], [first.real, first.imag]]))
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
        phi = cli.phi

        def poisoned(*args):
            out = np.array(phi(*args))
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

        def poisoned(lams, sols, order):
            out = psi_rows(lams, sols, order)
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
