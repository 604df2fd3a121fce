import json
import math
import time

import numpy as np
import pytest

from muntzlab.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RANK_ONE = {
    "sequence": {"kind": "explicit", "values": [1.0]},
    "measure": {"kind": "atomic", "atoms": [[0.5, 1.0]]},
    "N": 1,
    "q_set": [0.5, 1, 2],
    "certificates": ["psi", "hilbert_schmidt"],
}


class TestAnalyze:
    def test_rank_one_report(self, tmp_path):
        cfg = write_config(tmp_path, RANK_ONE)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        op = report["spectral"]["singular_values"][0]
        assert op == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
        kinds = {c["kind"] for c in report["certificates"]}
        assert kinds == {"psi", "hilbert_schmidt_psi"}
        csv_lines = (tmp_path / "singular_values.csv").read_text().splitlines()
        assert csv_lines[0] == "n,s_n"
        assert len(csv_lines) == 2

    def test_lebesgue_identity(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 2,
                         "count": 12},
            "measure": {"kind": "lebesgue"},
            "N": 12, "certificates": ["psi"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for s in report["spectral"]["singular_values"]:
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_missing_field_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "explicit", "values": [1.0]}})
        assert main(["analyze", "--config", cfg]) == 1
        assert "measure" in capsys.readouterr().err

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"sequence": ')
        assert main(["analyze", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_hypothesis_violation_exit_two_report_written(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 2,
                         "count": 8},
            "measure": {"kind": "scaled", "c": 5.0,
                        "inner": {"kind": "lebesgue"}},
            "N": 8,
            "certificates": ["rho"],
            "rho": {"C": 1.0, "alpha": 1.0}})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificates"][0]["kind"] == "rho"

    def test_round_trip_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 2,
                         "count": 10},
            "measure": {"kind": "powertail", "C": 1, "alpha": 2, "x0": 0},
            "N": 10, "certificates": ["psi", "sublinear"],
            "m_list": [2, 4, 8]})
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
        echoed = json.loads((out1 / "report.json").read_text())["config"]
        cfg2 = write_config(tmp_path, echoed, name="echo.json")
        assert main(["analyze", "--config", cfg2, "--out", str(out2)]) == 0
        rep1 = json.loads((out1 / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        assert rep1["spectral"] == rep2["spectral"]
        assert rep1["certificates"] == rep2["certificates"]
        assert rep1["essential_norm_trend"] == rep2["essential_norm_trend"]

    def test_ill_conditioned_basis_exit_one(self, tmp_path, capsys):
        # cond(B) ~ 1e17: the double Cholesky of the Lebesgue Gramian
        # refuses, with one error line and no traceback
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 1.25,
                         "count": 28},
            "measure": {"kind": "powertail", "C": 1, "alpha": 2},
            "N": 28, "certificates": ["psi"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "Cholesky" in err[0] and "reduce N" in err[0]


MALFORMED = {
    "rho-null": {"certificates": ["rho"], "rho": None},
    "rho-list": {"certificates": ["rho"], "rho": [1, 2]},
    "rho-C-string": {"certificates": ["rho"], "rho": {"C": "x"}},
    "compact-support-null": {"certificates": ["compact_support"],
                             "compact_support": None},
    "compact-support-b-string": {"certificates": ["compact_support"],
                                 "compact_support": {"b": "x"}},
    "N-string": {"N": "abc"},
    "N-fraction": {"N": 1.5},
    "N-infinite": {"N": float("inf")},
    "m-list-string": {"m_list": ["a"]},
    "m-list-fraction": {"m_list": [2.9, 8.5]},
    "q-set-string": {"q_set": ["a"]},
    "certificates-number": {"certificates": 5},
    "sequence-count-string": {"sequence": {"kind": "geometric", "lambda1": 2,
                                           "ratio": 2, "count": "x"}},
    "measure-C-string": {"measure": {"kind": "powertail", "C": "x",
                                     "alpha": 2}},
}


class TestMalformedConfig:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_one_error_line_exit_one(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, dict(RANK_ONE, **MALFORMED[name]))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not a JSON object" in err[0]

    def test_rho_block_reaches_the_certificate(self, tmp_path):
        cfg = write_config(tmp_path, dict(RANK_ONE, certificates=["rho"],
                                          rho={"C": 2.0, "alpha": 0.5}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        cert, = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert cert["params"]["rho"] == {"kind": "powertail", "C": 2.0,
                                         "alpha": 0.5, "x0": 0.0}


class TestConstruct:
    def test_example1(self, tmp_path):
        assert main(["construct", "1", "--n-max", "6",
                     "--out", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "example1_ledger.json").read_text())
        assert len(ledger["ledger"]) == 6
        csv_rows = (tmp_path / "example1_ledger.csv").read_text().splitlines()
        assert len(csv_rows) == 7

    def test_example2(self, tmp_path):
        assert main(["construct", "2", "--q", "1", "--r", "0.5",
                     "--n-max", "6", "--out", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "example2_ledger.json").read_text())
        assert ledger["theta"] == pytest.approx(1.5)
        report = ledger["verification"]
        assert report["offdiag_hs_sq"] < math.e / 4.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example2_schatten_trend_without_overflow(self, tmp_path):
        # sum s_i^q underflows at q = 2000 and (sum s_i^r)^(1/r) overflows at
        # r = 0.001; S_q is about s_1 and S_r at n = 3 about 10^385.8
        assert main(["construct", "2", "--q", "2000", "--r", "0.001",
                     "--theta", "200", "--n-max", "3",
                     "--out", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "example2_ledger.json").read_text())
        trend_q = ledger["verification"]["schatten_trend_q"]
        trend_r = ledger["verification"]["schatten_trend_r"]
        assert [n for n, _ in trend_q] == [2, 3]
        assert all(v == pytest.approx(6.61e-61, rel=1e-3) for _, v in trend_q)
        assert trend_r[0][1] == pytest.approx(3.579e223, rel=1e-3)
        assert trend_r[1][1] == "inf"

    def test_example2_invalid_params(self, capsys):
        assert main(["construct", "2", "--q", "0.5", "--r", "1",
                     "--n-max", "6"]) == 1
        assert "r < q" in capsys.readouterr().err

    def test_example2_requires_qr(self, capsys):
        assert main(["construct", "2", "--n-max", "4"]) == 1

    def test_construction_bug_exit_three(self, monkeypatch, capsys):
        from muntzlab import ConstructionBugError, constructions

        def broken_verify(build, **kwargs):
            raise ConstructionBugError("forced", n=3, residual=0.5)

        monkeypatch.setattr(constructions, "verify_example1", broken_verify)
        assert main(["construct", "1", "--n-max", "4"]) == 3
        assert "n=3" in capsys.readouterr().err


class TestCheck:
    def test_interpolation_suite(self, tmp_path):
        assert main(["check", "interpolation", "--instances", "10",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(
            (tmp_path / "check_interpolation.json").read_text())
        assert payload["violations"] == []

    def test_inequality_suite(self):
        assert main(["check", "inequalities", "--instances", "20"]) == 0

    def test_certificate_suite(self):
        assert main(["check", "certificates"]) == 0


class TestUsage:
    def test_usage_error_exit_one_with_argparse_message(self, capsys):
        assert main(["check", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'bogus'" in err

    def test_missing_subcommand_and_argument_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["analyze"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_analyze_has_no_seed_option(self, tmp_path, capsys):
        # the report echoes the config's seed; a --seed flag would be ignored
        cfg = write_config(tmp_path, RANK_ONE)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out
        assert main(["analyze", "--help"]) == 0
        assert "--config" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("muntzlab ")


class TestConstructRefusals:
    @pytest.mark.parametrize("theta", ["900", "300"])
    def test_underflowing_alpha_exit_one(self, capsys, theta):
        # alpha_n = (n+1)^-theta: 3^-900 underflows to 0 and 4^-600 (alpha_3^2
        # at theta = 300) below the double range; refused before any search
        started = time.perf_counter()
        assert main(["construct", "2", "--q", "2000", "--r", "0.001",
                     "--theta", theta, "--n-max", "3"]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "underflows" in err[0]

    def test_exhausted_ladder_exit_one(self, monkeypatch, capsys):
        from muntzlab import constructions

        def never(lam):
            return {}, {"never": np.full(lam.shape, -1.0)}

        monkeypatch.setattr(constructions, "_example1_step",
                            lambda n, lam, *rest: never(lam))
        assert main(["construct", "1", "--n-max", "3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: no lambda_2")
