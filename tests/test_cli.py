import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from muntzlab import EmbeddingProblem, analyze, build_example2
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

    def test_second_report_replaces_the_first(self, tmp_path):
        cfg = write_config(tmp_path, RANK_ONE)
        out = tmp_path / "out"
        for _ in range(2):
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json",
                                                         "singular_values.csv"]
        assert json.loads((out / "report.json").read_text())["config"]["N"] == 1

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

    def test_failed_majorization_is_a_certificate_exit_two(self, tmp_path,
                                                          monkeypatch):
        # an under-estimated ||mu||_S (1/2 for Lebesgue, where A = B) fails
        # the entrywise majorization, which the report carries like any
        # other failed assumption
        from muntzlab import spectral
        real = spectral.modulus_report
        monkeypatch.setattr(spectral, "modulus_report", lambda mu:
                            dataclasses.replace(real(mu), sublinear_norm=0.5))
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 2,
                         "count": 8},
            "measure": {"kind": "lebesgue"},
            "N": 8, "certificates": ["psi", "sublinear"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        psi, sub = json.loads((tmp_path / "report.json").read_text())[
            "certificates"]
        assert set(sub) == set(psi) == {"kind", "value", "assumptions",
                                        "flags", "params"}
        assert sub["kind"] == "sublinear" and sub["value"] == "inf"
        assert [(a["name"], a["ok"]) for a in sub["assumptions"]] == [
            ("Lambda lacunary", True), ("mu sublinear", True),
            ("A <= ||mu||_S B entrywise", False)]

    @pytest.mark.parametrize("atom, kind, name", [
        ([0.5, 1e308], "psi", "psi-square-integrable"),
        ([0.9, 1e300], "hilbert_schmidt", "Psi-square-integrable")],
        ids=["psi", "hilbert-schmidt"])
    def test_overflowing_atom_sum_reads_inf_exit_two(self, tmp_path, capsys,
                                                     atom, kind, name):
        # the atom sum of psi^2 (Psi^2) c_k is past the double range: the
        # certificate reads inf and its integrability assumption fails
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 1, "ratio": 2,
                         "count": 8},
            "measure": {"kind": "atomic", "atoms": [atom]},
            "N": 8, "certificates": [kind]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ""
        cert, = json.loads((tmp_path / "report.json").read_text())[
            "certificates"]
        assert cert["value"] == "inf"
        assert [(a["name"], a["ok"]) for a in cert["assumptions"]] == [
            (name, False)]

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
        # cond(B) 3.2e17: the forward-error estimate cond(B) * 2^-53 is
        # beyond its tolerance, refused with one error line and no traceback
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2, "ratio": 1.25,
                         "count": 28},
            "measure": {"kind": "powertail", "C": 1, "alpha": 2},
            "N": 28, "certificates": ["psi"]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "cond(B)" in err[0] and "reduce N" in err[0]

    @pytest.mark.parametrize("sequence", [
        {"kind": "geometric", "lambda1": 2, "ratio": 1.3, "count": 22},
        {"kind": "geometric", "lambda1": 2, "ratio": 1.25, "count": 16},
        {"kind": "geometric", "lambda1": 2, "ratio": 1.25, "count": 22},
        {"kind": "geometric", "lambda1": 2, "ratio": 1.25, "count": 26},
        {"kind": "explicit", "values": [1.0, 1.0 + 1e-7, 1.0 + 2e-7]},
        {"kind": "explicit", "values": [1e-300, 2e-300]}],
        ids=["1.3-22", "1.25-16", "1.25-22", "1.25-26", "near-equal",
             "overflowing-w"])
    def test_refused_by_cond_b(self, tmp_path, capsys, sequence):
        # cond(B) 3.5e14 to 2.1e17 on the geometric sequences, where a
        # double op norm is off the 400-bit one by up to 5e-4 even on the
        # closed-form W; 3.7e30 on the near-equal exponents; inf at 1e-300,
        # where an entry of W overflows
        cfg = write_config(tmp_path, {
            "sequence": sequence,
            "measure": {"kind": "powertail", "C": 1, "alpha": 2},
            "certificates": ["psi", "sublinear"], "m_list": [2, 4]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "cond(B)" in err[0] and "reduce N" in err[0]
        assert not (tmp_path / "report.json").exists()


NAN, INF = float("nan"), float("inf")
MALFORMED = {
    "rho-null": {"certificates": ["rho"], "rho": None},
    "rho-list": {"certificates": ["rho"], "rho": [1, 2]},
    "rho-C-string": {"certificates": ["rho"], "rho": {"C": "x"}},
    "compact-support-null": {"certificates": ["compact_support"],
                             "compact_support": None},
    "compact-support-b-string": {"certificates": ["compact_support"],
                                 "compact_support": {"b": "x"}},
    "compact-support-k-fraction": {"certificates": ["compact_support"],
                                   "compact_support": {"k": 2.7}},
    "N-string": {"N": "abc"},
    "N-fraction": {"N": 1.5},
    "N-infinite": {"N": float("inf")},
    "m-list-string": {"m_list": ["a"]},
    "m-list-fraction": {"m_list": [2.9, 8.5]},
    "q-set-string": {"q_set": ["a"]},
    "certificates-number": {"certificates": 5},
    "q-set-digit-string": {"q_set": "12"},
    "q-set-number": {"q_set": 2},
    "q-set-object": {"q_set": {"1": 2}},
    "m-list-digit-string": {"m_list": "48"},
    "m-list-number": {"m_list": 4},
    "m-list-object": {"m_list": {"2": 4}},
    "certificates-string": {"certificates": "psi"},
    "certificates-object": {"certificates": {"psi": 1}},
    "sequence-count-string": {"sequence": {"kind": "geometric", "lambda1": 2,
                                           "ratio": 2, "count": "x"}},
    "measure-C-string": {"measure": {"kind": "powertail", "C": "x",
                                     "alpha": 2}},
    "log-atoms-at-one": {"measure": {"kind": "atomic", "log_atoms": [[0.0, 0.0]]}},
    "log-atoms-string": {"measure": {"kind": "atomic", "log_atoms": [["x", 0.0]]}},
    "log-atoms-triple": {"measure": {"kind": "atomic",
                                     "log_atoms": [[-0.1, 0.0, 1.0]]}},
    "log-atoms-empty": {"measure": {"kind": "atomic", "log_atoms": []}},
    "sequence-count-fraction": {"sequence": {"kind": "geometric", "lambda1": 2,
                                             "ratio": 2, "count": 8.7}},
    "sequence-count-digit-string": {"sequence": {"kind": "power", "exponent": 2,
                                                 "count": "3"}},
    "piecewise-density-nan": {"measure": {"kind": "piecewise",
                                          "breakpoints": [0, 0.5, 1],
                                          "densities": [1, NAN]}},
    "q-set-nan": {"q_set": [0.5, 1, NAN]},
    "powertail-C-nan": {"measure": {"kind": "powertail", "C": NAN, "alpha": 2}},
    "powertail-C-infinite": {"measure": {"kind": "powertail", "C": INF,
                                         "alpha": 2}},
    "powertail-alpha-nan": {"measure": {"kind": "powertail", "C": 1,
                                        "alpha": NAN}},
    "powertail-alpha-infinite": {"measure": {"kind": "powertail", "C": 1,
                                             "alpha": INF}},
    "scaled-c-nan": {"measure": {"kind": "scaled", "c": NAN,
                                 "inner": {"kind": "lebesgue"}}},
    "scaled-c-infinite": {"measure": {"kind": "scaled", "c": INF,
                                      "inner": {"kind": "lebesgue"}}},
    "rho-C-nan": {"certificates": ["rho"], "rho": {"C": NAN, "alpha": 1}},
    "rho-alpha-nan": {"certificates": ["rho"], "rho": {"C": 1, "alpha": NAN}},
    "rho-C-infinite": {"certificates": ["rho"], "rho": {"C": INF, "alpha": 1}},
    # a config number must be a JSON number: no bool, no numeric string
    "N-true": {"N": True},
    "q-set-true": {"q_set": [True, 2]},
    "m-list-true": {"m_list": [True, 4]},
    "powertail-C-true": {"measure": {"kind": "powertail", "C": True,
                                     "alpha": 2}},
    "rho-C-true": {"certificates": ["rho"], "rho": {"C": True, "alpha": 1}},
    "scaled-c-true": {"measure": {"kind": "scaled", "c": True,
                                  "inner": {"kind": "lebesgue"}}},
    "q-set-numeric-string": {"q_set": ["2"]},
    "explicit-values-numeric-strings": {"sequence": {
        "kind": "explicit", "values": ["1", "2", "3"]}},
    "piecewise-breakpoints-numeric-strings": {"measure": {
        "kind": "piecewise", "breakpoints": ["0", "1"], "densities": [1]}},
    "atoms-numeric-strings": {"measure": {"kind": "atomic",
                                          "atoms": [["0.5", "1"]]}},
    "compact-support-b-numeric-string": {"certificates": ["compact_support"],
                                         "compact_support": {"b": "0.5"}},
    "seed-string": {"seed": "1"},
}
# a misspelt or unread field, and the field the error must name
UNKNOWN_FIELDS = {
    "m-list": {"m-list": [2, 4]},
    "certificate": {"certificate": ["rho"]},
    "Q_set": {"Q_set": [1.0]},
    "xo": {"measure": {"kind": "powertail", "C": 1, "alpha": 2, "xo": 0.5}},
    "Cc": {"certificates": ["rho"], "rho": {"Cc": 5}},
    "bb": {"certificates": ["compact_support"], "compact_support": {"bb": 0.2}},
    "kind_": {"sequence": {"kind": "explicit", "values": [1.0], "kind_": 1}},
    "log_atoms": {"measure": {"kind": "atomic", "atoms": [[0.5, 1.0]],
                              "log_atoms": [[-0.1, 0.0]]}},
}
MALFORMED.update({f"unknown-{name}": over
                  for name, over in UNKNOWN_FIELDS.items()})


def count_whitening(monkeypatch):
    """(built, svds): every W ``geometry.whitener`` returns, appended as it
    is built, and the count of SVDs taken of such a W (cond(B))."""
    from muntzlab import geometry

    built, svds = [], [0]
    whitener, svd = geometry.whitener, np.linalg.svd

    def counted_whitener(seq):
        built.append(whitener(seq))
        return built[-1]

    def counted_svd(a, *args, **kwargs):
        svds[0] += any(a is w for w in built)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(geometry, "whitener", counted_whitener)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return built, svds


_ALL_FIVE = ["psi", "rho", "sublinear", "compact_support", "hilbert_schmidt"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPastTheDoubleRange:
    """Inputs whose majorant or mass leaves the double range: a report or a
    refusal by name, and no RuntimeWarning (an error here, as under
    ``python -W error::RuntimeWarning``)."""

    def _run(self, tmp_path, capsys, sequence, measure, certificates):
        cfg = write_config(tmp_path, {"sequence": sequence, "measure": measure,
                                      "certificates": certificates,
                                      "m_list": [2, 4]})
        code = main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        return code, capsys.readouterr().err

    def test_overflowing_majorant_reads_unsound(self, tmp_path, capsys):
        # lambda_1 = 1e100: Psi^2 overflows on (0, t*], t* ~ 1.1e-100
        code, err = self._run(
            tmp_path, capsys,
            {"kind": "geometric", "lambda1": 1e100, "ratio": 2, "count": 8},
            {"kind": "lebesgue"}, ["hilbert_schmidt"])
        assert (code, err) == (0, "")
        cert, = json.loads((tmp_path / "report.json").read_text())[
            "certificates"]
        assert cert["value"] == 0.0
        assert "psi-tail-unsound" in cert["flags"]

    @pytest.mark.parametrize("measure, masses", [
        ({"kind": "atomic", "atoms": [[0.5, 1e308], [0.9, 1e308]]},
         {1: 1e308, 3: 1e308}),
        ({"kind": "scaled", "c": 1e300,
          "inner": {"kind": "atomic", "atoms": [[0.5, 1e10]]}},
         {1: math.inf}),
        ({"kind": "sum", "parts": [
            {"kind": "atomic", "atoms": [[0.5, 1e308]]},
            {"kind": "atomic", "atoms": [[0.7, 1e308]]}]}, {1: math.inf})],
        ids=["atoms", "scaled", "sum"])
    def test_huge_atoms_read_their_partition_masses(self, tmp_path, capsys,
                                                    measure, masses):
        code, err = self._run(
            tmp_path, capsys,
            {"kind": "geometric", "lambda1": 1, "ratio": 2, "count": 8},
            measure, _ALL_FIVE)
        assert (code, err) == (2, "")
        report = json.loads((tmp_path / "report.json").read_text())
        hs = report["certificates"][-1]
        got = [m for _, _, m in hs["params"]["partition_masses"]]
        assert "nan" not in got
        want = [masses.get(j, 0.0) for j in range(len(got))]
        assert [float(m) for m in got] == pytest.approx(want, rel=1e-12)

    def test_heavy_density_integrands_read_inf(self, tmp_path, capsys):
        # Psi^2 times the density 1e300 overflows: the integral reads inf
        code, err = self._run(
            tmp_path, capsys,
            {"kind": "geometric", "lambda1": 1, "ratio": 2, "count": 8},
            {"kind": "scaled", "c": 1e300, "inner": {"kind": "lebesgue"}},
            _ALL_FIVE)
        assert (code, err) == (2, "")
        hs = json.loads((tmp_path / "report.json").read_text())[
            "certificates"][-1]
        assert hs["value"] == "inf"
        assert [(a["name"], a["ok"]) for a in hs["assumptions"]] == [
            ("Psi-square-integrable", False)]

    @pytest.mark.parametrize("measure", [
        {"kind": "sum", "parts": [{"kind": "lebesgue"},
                                  {"kind": "atomic", "atoms": [[0.5, 1e308]]}]},
        {"kind": "powertail", "C": 1e308, "alpha": 2.0}],
        ids=["lebesgue-atom", "powertail"])
    def test_huge_density_measure_refused_by_mass(self, tmp_path, capsys,
                                                   measure):
        code, err = self._run(
            tmp_path, capsys,
            {"kind": "geometric", "lambda1": 1, "ratio": 2, "count": 8},
            measure, _ALL_FIVE)
        assert code == 1
        assert err == ("error: the measure's mass 1e+308 is beyond the double "
                       "assembly: its whitened pencil has a non-finite entry; "
                       "scale the measure down\n")


class TestOneAnalysis:
    def test_assembles_factors_and_bisects_once(self, tmp_path, monkeypatch):
        # the geometric sequence (2, ratio 2) at N 32 on PowerTail(1, 2, 0.3),
        # all five certificates and the essential-norm trend
        from muntzlab import geometry, spectral
        from muntzlab.geometry import PsiEvaluator

        calls = {"measure_gram": [], "modulus_report": 0, "lebesgue_gram": 0,
                 "psi": 0, "width": [],
                 "log_majorant": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        measure_gram = spectral.measure_gram
        monkeypatch.setattr(spectral, "measure_gram", lambda seq, mu: (
            calls["measure_gram"].append(mu) or measure_gram(seq, mu)))
        monkeypatch.setattr(spectral, "modulus_report",
                            counted("modulus_report", spectral.modulus_report))
        monkeypatch.setattr(geometry, "lebesgue_gram",
                            counted("lebesgue_gram", geometry.lebesgue_gram))
        built, svds = count_whitening(monkeypatch)
        monkeypatch.setattr(PsiEvaluator, "from_sequence", classmethod(
            counted("psi", PsiEvaluator.from_sequence.__func__)))
        width = PsiEvaluator._unsound_width
        log_majorant = PsiEvaluator.log_majorant

        def counted_width(self, big):
            # the log_majorant calls one width makes
            before = calls["log_majorant"]
            value = width(self, big)
            calls["width"].append((big, calls["log_majorant"] - before))
            return value

        monkeypatch.setattr(PsiEvaluator, "_unsound_width", counted_width)
        monkeypatch.setattr(PsiEvaluator, "log_majorant",
                            counted("log_majorant", log_majorant))

        m_list = [2, 8, 32, 128]
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2.0, "ratio": 2.0,
                         "count": 32},
            "measure": {"kind": "powertail", "C": 1.0, "alpha": 2.0, "x0": 0.3},
            "N": 32,
            "certificates": ["psi", "rho", "sublinear", "compact_support",
                             "hilbert_schmidt"],
            "m_list": m_list})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) in (0, 2)
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["certificates"]) == 5

        # A of mu once; the restricted measures of the trend each once
        mu = calls["measure_gram"][0]
        assert sum(m is mu for m in calls["measure_gram"]) == 1
        assert len(calls["measure_gram"]) == 1 + len(m_list)
        assert calls["modulus_report"] == 1
        # each width t* is at most two evaluations
        assert sorted(big for big, _ in calls["width"]) == [False, True]
        assert all(1 <= count <= 2 for _, count in calls["width"])
        # B (for the sublinear certificate), W, cond(B) and psi once: the
        # truncated sequence keeps them for every certificate and trend point
        assert calls["lebesgue_gram"] == len(built) == 1
        assert svds == [1] and calls["psi"] == 1

    def test_n_override_factors_once(self, tmp_path, monkeypatch):
        # --n truncates the config's sequence; the trend reads that
        # truncation, so W and cond(B) are still built once
        built, svds = count_whitening(monkeypatch)
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2.0, "ratio": 2.0,
                         "count": 16},
            "measure": {"kind": "powertail", "C": 1.0, "alpha": 2.0},
            "certificates": ["psi", "sublinear"], "m_list": [2, 4]})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path),
                     "--n", "10"]) == 0
        assert [w.shape for w in built] == [(10, 10)] and svds == [1]

    @pytest.mark.parametrize("overrides, message", [
        ({"certificates": ["psi", "hilbert_schmidt"], "m_list": [8, 2]},
         "m_list [8, 2] must be increasing integers >= 2"),
        ({"certificates": ["psi", "rho", "sublinear", "compact_support"],
          "compact_support": {"b": 0.9, "b_prime": 0.5}}, "need 0 < b < b' < 1"),
        ({"certificates": ["psi", "rho", "sublinear", "compact_support"],
          "compact_support": {"k": 7}}, "k must lie in 1..4"),
        ({"certificates": ["psi", "rho"], "rho": {"C": -1.0}},
         "power tail coefficient must be positive and finite"),
        # a block that is given is read, and checked, even when unused
        ({"certificates": ["psi"], "compact_support": {"k": 0}},
         "k must lie in 1..4"),
    ])
    def test_bad_value_refused_before_any_work(
            self, tmp_path, monkeypatch, capsys, overrides, message):
        from muntzlab import spectral

        def refused(*args, **kwargs):
            raise AssertionError("analysis ran")

        for name in ("analyze", "psi_certificate", "rho_certificate",
                     "sublinear_embedding_bound", "compact_support_certificate",
                     "hilbert_schmidt_certificate", "essential_norm_trend"):
            monkeypatch.setattr(spectral, name, refused)
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2.0, "ratio": 2.0,
                         "count": 24},
            "measure": {"kind": "powertail", "C": 1.0, "alpha": 2.0},
            **overrides})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("certificates", [
        ["psi", "hilbert_schmidt", "bogus"], ["bogus"], ["psi", 3]])
    def test_unknown_certificate_refused_before_any_work(
            self, tmp_path, monkeypatch, capsys, certificates):
        from muntzlab import spectral

        def refused(*args, **kwargs):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(spectral, "analyze", refused)
        cfg = write_config(tmp_path, {
            "sequence": {"kind": "geometric", "lambda1": 2.0, "ratio": 2.0,
                         "count": 24},
            "measure": {"kind": "powertail", "C": 1.0, "alpha": 2.0},
            "certificates": certificates})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: unknown certificate kind {certificates[-1]!r}"]
        assert not any(out.iterdir())

    def test_no_triangular_solve(self, tmp_path, monkeypatch):
        # every whitening is a product with the cached inverse factor
        def refused(*args, **kwargs):
            raise AssertionError("solve_triangular called")

        monkeypatch.setattr(scipy.linalg, "solve_triangular", refused)
        for measure in ({"kind": "powertail", "C": 1.0, "alpha": 2.0},
                        {"kind": "atomic", "atoms": [[0.5, 1.0], [0.9, 0.5]]}):
            cfg = write_config(tmp_path, {
                "sequence": {"kind": "geometric", "lambda1": 2.0,
                             "ratio": 2.0, "count": 8},
                "measure": measure, "N": 8, "certificates": ["psi"],
                "m_list": [2, 4]})
            assert main(["analyze", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        assert main(["construct", "1", "--n-max", "6",
                     "--out", str(tmp_path)]) == 0
        assert main(["construct", "2", "--q", "1", "--r", "0.5",
                     "--n-max", "6", "--out", str(tmp_path)]) == 0


class TestMalformedConfig:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_one_error_line_exit_one(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, dict(RANK_ONE, **MALFORMED[name]))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("name", sorted(UNKNOWN_FIELDS))
    def test_unknown_field_named_in_the_error(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, dict(RANK_ONE, **UNKNOWN_FIELDS[name]))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err, = capsys.readouterr().err.strip().splitlines()
        assert f"{name!r}" in err
        assert not (tmp_path / "report.json").exists()

    def test_infinite_schatten_exponent_runs(self, tmp_path):
        # JSON's Infinity runs, and so does the "inf" the report echoes
        cfg = write_config(tmp_path, dict(RANK_ONE, q_set=[1, INF]))
        assert "Infinity" in Path(cfg).read_text()
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["q_set"] == [1.0, "inf"]
        assert report["spectral"]["schatten"]["inf"] == pytest.approx(
            math.sqrt(3.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("name", ["q_set", "m_list", "certificates"])
    def test_non_array_field_named_in_the_error(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, dict(RANK_ONE, **{name: "12"}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config field {name!r} is malformed: "
                       'expected a JSON array, got "12"']
        assert not (tmp_path / "report.json").exists()

    def test_array_fields_read_as_before(self, tmp_path):
        # arrays run and are echoed; a null m_list (as the report echoes an
        # absent one) reads as no trend
        cfg = write_config(tmp_path, dict(RANK_ONE, q_set=[1, 2],
                                          certificates=["psi"], m_list=None))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["q_set"] == [1.0, 2.0]
        assert report["config"]["certificates"] == ["psi"]
        assert report["essential_norm_trend"] is None

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not a JSON object" in err[0]

    def test_whole_float_k_runs_as_that_integer(self, tmp_path):
        cfg = write_config(tmp_path, dict(RANK_ONE,
                                          certificates=["compact_support"],
                                          compact_support={"k": 2.0}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        cert, = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert cert["kind"] == "compact_support_2"
        assert cert["params"]["k"] == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_truncation_override_below_one_refused(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, RANK_ONE)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path),
                     "--n", n]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: truncation {n} outside 1..1"]
        assert not (tmp_path / "report.json").exists()

    def test_rho_block_reaches_the_certificate(self, tmp_path):
        cfg = write_config(tmp_path, dict(RANK_ONE, certificates=["rho"],
                                          rho={"C": 2.0, "alpha": 0.5}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        cert, = json.loads((tmp_path / "report.json").read_text())["certificates"]
        assert cert["params"]["rho"] == {"kind": "powertail", "C": 2.0,
                                         "alpha": 0.5, "x0": 0.0}


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Example `config.json`:\s*```json\n(.*?)```", readme, re.S)
    return json.loads(block.group(1))


def _numeric_paths(node, path=()):
    """Paths to the numeric leaves of a config."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        is_number = isinstance(node, (int, float)) and not isinstance(node, bool)
        return [path] if is_number else []
    return [leaf for key, child in children
            for leaf in _numeric_paths(child, path + (key,))]


README_CONFIG = _readme_config()
NUMERIC_PATHS = _numeric_paths(README_CONFIG)
# fields read as whole numbers: a fraction there is refused
WHOLE_FIELDS = {("sequence", "count"), ("N",)} | {
    ("m_list", i) for i in range(len(README_CONFIG["m_list"]))}


ECHO_CONFIGS = {
    "rank-one": RANK_ONE,
    "readme": README_CONFIG,
    "blocks-by-default": dict(RANK_ONE,
                              certificates=["psi", "rho", "compact_support"]),
    "infinite-q": dict(RANK_ONE, q_set=[1, INF]),
}


def _masked(report: str) -> str:
    return re.sub(r'"wall_time_seconds": [^,}]+', '"wall_time_seconds": 0',
                  report)


class TestEchoReruns:
    """The echoed config of a report is the config that ran, defaults
    included: re-running it writes the same report, byte for byte apart from
    the wall time."""

    @pytest.mark.parametrize("name", sorted(ECHO_CONFIGS))
    def test_echo_reproduces_the_report(self, tmp_path, name):
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = write_config(tmp_path, ECHO_CONFIGS[name])
        code = main(["analyze", "--config", cfg, "--out", str(first)])
        assert code in (0, 2)
        report = (first / "report.json").read_text()
        echo = write_config(tmp_path, json.loads(report)["config"], "echo.json")
        assert main(["analyze", "--config", echo, "--out", str(second)]) == code
        assert _masked((second / "report.json").read_text()) == _masked(report)
        assert ((second / "singular_values.csv").read_text()
                == (first / "singular_values.csv").read_text())

    def test_blocks_that_ran_are_echoed_with_their_defaults(self, tmp_path):
        cfg = write_config(tmp_path, ECHO_CONFIGS["blocks-by-default"])
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config["rho"] == {"C": 1.0, "alpha": 1.0}
        assert config["compact_support"] == {"b": 0.5, "b_prime": 0.75, "k": 1}
        assert config["m_list"] is None and config["seed"] == 0


class TestNoTracebackFromReadmeConfig:
    """One numeric field of the README example replaced by a non-finite
    number, a fraction or a string: the CLI answers with an exit code and at
    most an ``error:`` line, never a traceback."""

    @given(path=st.sampled_from(NUMERIC_PATHS),
           value=st.one_of(st.sampled_from([NAN, INF, -INF]),
                           st.floats(0.1, 10.0).filter(lambda v: v != int(v)),
                           st.text(max_size=4)))
    @settings(max_examples=40, deadline=None)
    def test_exit_code_and_no_traceback(self, path, value):
        config = json.loads(json.dumps(README_CONFIG))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            cfg = Path(out) / "config.json"
            cfg.write_text(json.dumps(config))
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["analyze", "--config", str(cfg), "--out", out])
        err = stderr.getvalue().strip().splitlines()
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        fraction = isinstance(value, float) and math.isfinite(value)
        if (isinstance(value, float) and math.isnan(value)) or (
                fraction and path in WHOLE_FIELDS):
            assert code == 1
            assert len(err) == 1 and err[0].startswith("error:")


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

    @pytest.mark.parametrize("argv,keys", [
        (["1"], ["tool", "example", "n_max", "ledger", "verification",
                 "wall_time_seconds"]),
        (["2", "--q", "1", "--r", "0.5"],
         ["tool", "example", "n_max", "q", "r", "theta", "alphas", "ledger",
          "verification", "wall_time_seconds"]),
    ])
    def test_ledger_top_level_keys_in_order(self, tmp_path, argv, keys):
        assert main(["construct", *argv, "--n-max", "5",
                     "--out", str(tmp_path)]) == 0
        ledger = json.loads(
            (tmp_path / f"example{argv[0]}_ledger.json").read_text())
        assert list(ledger) == keys
        assert ledger["example"] == int(argv[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example2_schatten_trend_without_overflow(self):
        # sum s_i^q underflows at q = 2000 and (sum s_i^r)^(1/r) overflows at
        # r = 0.001; S_q is about s_1 and S_r at n = 3 about 10^385.8.  The
        # l^q partial sums of this build underflow, so `construct` refuses it
        # (TestConstructRefusals); its Schatten norms are read by analyze.
        build = build_example2(2000.0, 0.001, 3, theta=200.0)
        trend = [analyze(EmbeddingProblem(build.sequence, build.measure, n),
                         q_set=(0.001, 2000.0)).schatten for n in (2, 3)]
        assert all(t[2000.0] == pytest.approx(6.61e-61, rel=1e-3) for t in trend)
        assert trend[0][0.001] == pytest.approx(3.579e223, rel=1e-3)
        assert trend[1][0.001] == math.inf

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

    def test_certificate_suite(self, tmp_path):
        # a deterministic suite: its report records no seed
        assert main(["check", "certificates", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "check_certificates.json").read_text())
        assert "seed" not in payload

    @pytest.mark.parametrize("suite", ["inequalities", "interpolation"])
    def test_seeded_suite_records_its_seed(self, tmp_path, suite):
        assert main(["check", suite, "--instances", "1", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"check_{suite}.json").read_text())
        assert payload["seed"] == 7

    @pytest.mark.parametrize("suite", ["inequalities", "interpolation"])
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-5"], "--seed must be at least 0, got -5"),
        (["--instances", "0"], "--instances must be at least 1, got 0"),
        (["--instances", "-1"], "--instances must be at least 1, got -1")],
        ids=["negative-seed", "no-instances", "negative-instances"])
    def test_refuses_a_run_that_checks_nothing(self, tmp_path, capsys, suite,
                                               flags, message):
        # refused by name before any work: no traceback, no report, no pass
        assert main(["check", suite, "--instances", "1", *flags,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suite", ["inequalities", "interpolation"])
    def test_smallest_run_accepted(self, suite):
        assert main(["check", suite, "--instances", "1", "--seed", "0"]) == 0


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


class TestParserReuse:
    """One parser serves every call in a process: no option of one call
    reaches the next."""

    CONFIG = {"sequence": {"kind": "geometric", "lambda1": 2, "ratio": 2,
                           "count": 6},
              "measure": {"kind": "lebesgue"}, "N": 6,
              "certificates": ["psi"]}

    def test_truncation_override_does_not_stick(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        for argv, n in ((["--n", "4"], 4), ([], 6)):
            assert main(["analyze", "--config", cfg,
                         "--out", str(tmp_path), *argv]) == 0
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["config"]["N"] == n
            assert len(report["spectral"]["singular_values"]) == n

    def test_example2_options_do_not_stick(self, tmp_path, capsys):
        assert main(["construct", "2", "--q", "1", "--r", "0.5",
                     "--n-max", "4", "--out", str(tmp_path)]) == 0
        assert main(["construct", "1", "--n-max", "4",
                     "--out", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "example1_ledger.json").read_text())
        assert "q" not in ledger and "r" not in ledger
        capsys.readouterr()
        assert main(["construct", "2", "--n-max", "4",
                     "--out", str(tmp_path)]) == 1
        assert "requires --q and --r" in capsys.readouterr().err

    def test_analyze_after_help(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["--help"]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "usage:" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["N"] == 6


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

    def test_underflowing_lq_partial_sums_exit_one(self, tmp_path, capsys):
        # ||i g_n|| is about 4e-61 to 7e-121, so every ||i g_n||^2000 is
        # below the double range and the l^q partial sums would read 0
        assert main(["construct", "2", "--q", "2000", "--r", "0.001",
                     "--theta", "200", "--n-max", "3",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ||i g_1||^q")
        assert "underflows" in err[0]
        assert not (tmp_path / "example2_ledger.json").exists()

    def test_exhausted_ladder_exit_one(self, monkeypatch, capsys):
        from muntzlab import constructions

        def never(lam):
            return {}, {"never": np.full(lam.shape, -1.0)}

        monkeypatch.setattr(constructions, "_example1_step",
                            lambda n, lam, *rest: never(lam))
        assert main(["construct", "1", "--n-max", "3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: no lambda_2")


def _fresh_process(script: str) -> list[str]:
    """stdout lines of ``script`` run in a fresh interpreter on this ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def _imports_of(tree, package):
    """(innermost enclosing function or None, imported name) for every
    import of ``package`` in ``tree``: ``import``, ``from ... import`` (each
    name as ``module.name`` too) and ``__import__``/``import_module`` of a
    literal."""
    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("__import__", "import_module")):
            return [node.args[0].value]
        return []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            for name in names(child):
                if name == package or name.startswith(package + "."):
                    yield inner, name
            yield from visit(child, inner)
    return list(visit(tree, None))


def _numpy_linalg_names(tree):
    """Every name read from numpy.linalg in ``tree``: the attribute of any
    ``<module>.linalg`` and the names of ``from numpy.linalg import``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend(alias.name for alias in node.names)
    return found


_GEOMETRIC_8 = {"kind": "geometric", "lambda1": 2.0, "ratio": 2.0, "count": 8}
_POWERTAIL = {"kind": "powertail", "C": 0.5, "alpha": 2.0, "x0": 0.25}


class TestStartup:
    def test_scipy_loaded_only_by_a_power_tail(self, tmp_path):
        # construct, Lebesgue analyses with and without a rho block, both
        # checks, power-tail masses (nested and restricted too) and the L^p
        # layer on a power tail run on numpy alone, in a fresh process; the
        # power tail's first log moment imports scipy.special
        cfg = write_config(tmp_path, {"sequence": _GEOMETRIC_8,
                                      "measure": {"kind": "lebesgue"},
                                      "m_list": [2, 4]})
        rho_cfg = write_config(tmp_path, {"sequence": _GEOMETRIC_8,
                                          "measure": {"kind": "lebesgue"},
                                          "certificates": ["psi", "rho"],
                                          "rho": {"C": 2.0, "alpha": 1.0}},
                               name="rho.json")
        out = str(tmp_path)
        lines = _fresh_process(f"""
import sys
from muntzlab import lp
from muntzlab.cli import main
from muntzlab.measures import (PowerTailMeasure, ScaledMeasure, SumMeasure,
                               lebesgue)
from muntzlab.polynomials import MuntzPolynomial
from muntzlab.sequences import make_geometric
assert main(["construct", "1", "--n-max", "6", "--out", {out!r}]) == 0
assert main(["analyze", "--config", {cfg!r}, "--out", {out!r}]) in (0, 2)
assert main(["analyze", "--config", {rho_cfg!r}, "--out", {out!r}]) in (0, 2)
mu = PowerTailMeasure(1.0, 2.0)
tail = SumMeasure((ScaledMeasure(3.0, PowerTailMeasure(2.0, 0.5, x0=0.6)),
                   lebesgue()))
assert min(mu.total_mass, tail.total_mass, tail.mass_above(0.7),
           tail.restricted_to_tail(0.25).total_mass) > 0.0
assert main(["check", "inequalities", "--instances", "4", "--out", {out!r}]) == 0
assert main(["check", "interpolation", "--instances", "2", "--out", {out!r}]) == 0
seq = make_geometric(1.0, 2.0, 4)
lp.lp_norm(MuntzPolynomial(seq, [0.5, -0.5, 0.5, -0.5]), 3.0, mu)
lp.empirical_embedding_constant(seq, mu, 3.0, 2, 3, refine=True, seed=1)
print(sorted(m for m in ("scipy.linalg", "scipy.special") if m in sys.modules))
mu.log_moments([1.0])
print("scipy.special" in sys.modules)
""")
        assert lines[-2:] == ["[]", "True"]

    def test_numpy_ma_not_loaded(self, tmp_path):
        # np.unique imports numpy.ma on its first call; no grid or suite
        # measure is built with it
        cfg = write_config(tmp_path, {"sequence": _GEOMETRIC_8,
                                      "measure": {"kind": "lebesgue"},
                                      "certificates": ["psi", "rho"],
                                      "rho": {"C": 2.0, "alpha": 1.0},
                                      "m_list": [2, 4]})
        out = str(tmp_path)
        lines = _fresh_process(f"""
import sys
import muntzlab.cli
from muntzlab.cli import main
loaded = ["numpy.ma" in sys.modules]
assert main(["analyze", "--config", {cfg!r}, "--out", {out!r}]) in (0, 2)
loaded.append("numpy.ma" in sys.modules)
assert main(["construct", "1", "--n-max", "6", "--out", {out!r}]) == 0
loaded.append("numpy.ma" in sys.modules)
assert main(["check", "inequalities", "--instances", "4", "--out", {out!r}]) == 0
loaded.append("numpy.ma" in sys.modules)
print(loaded)
""")
        assert lines[-1] == "[False, False, False, False]"

    def test_scipy_imported_only_inside_measures_special(self):
        # no module of the package imports scipy when it is imported, and
        # scipy.special is imported in one place, measures._special
        package = Path(__file__).resolve().parents[1] / "src" / "muntzlab"
        found = {path.stem: _imports_of(ast.parse(path.read_text(), str(path)),
                                        "scipy")
                 for path in sorted(package.glob("*.py"))}
        assert ("_special", "scipy.special") in found["measures"]
        at_import = [(m, name) for m, imports in found.items()
                     for func, name in imports if func is None]
        assert at_import == []
        special = [(m, func) for m, imports in found.items()
                   for func, name in imports if name.startswith("scipy.special")]
        assert set(special) == {("measures", "_special")}

    def test_no_module_imports_mpmath(self):
        assert _imports_of(ast.parse("import mpmath as mp\nfrom mpmath import mpf"),
                           "mpmath") == [(None, "mpmath"), (None, "mpmath"),
                                         (None, "mpmath.mpf")]
        package = Path(__file__).resolve().parents[1] / "src" / "muntzlab"
        assert [(path.stem, imports) for path in sorted(package.glob("*.py"))
                if (imports := _imports_of(ast.parse(path.read_text(), str(path)),
                                           "mpmath"))] == []

    def test_distance_oracle_loads_neither_mpmath_nor_scipy(self):
        lines = _fresh_process("""
import sys
import muntzlab, muntzlab.highprec
print(muntzlab.highprec.distance_oracle([1.0, 2.0], 1) ** -2)
print(sorted(m for m in ("mpmath", "scipy") if m in sys.modules))
""")
        assert float(lines[0]) == pytest.approx(48.0, rel=1e-15)
        assert lines[1] == "[]"

    def test_no_factor_and_invert(self):
        # W is closed-form: no module of the package factors or inverts B
        assert sorted(_numpy_linalg_names(ast.parse(
            "from numpy.linalg import inv\nnp.linalg.cholesky(b)"))) == [
                "cholesky", "inv"]
        package = Path(__file__).resolve().parents[1] / "src" / "muntzlab"
        found = {path.stem: _numpy_linalg_names(ast.parse(path.read_text(),
                                                           str(path)))
                 for path in sorted(package.glob("*.py"))}
        assert "svd" in found["sequences"] and "eigvalsh" in found["spectral"]
        assert {(m, name) for m, names in found.items() for name in names
                if name in ("cholesky", "inv")} == set()

    @pytest.mark.parametrize("measure, loaded", [
        ({"kind": "lebesgue"}, "[False] False"),
        ({"kind": "piecewise", "breakpoints": [0.0, 0.5, 1.0],
          "densities": [0.5, 2.0]}, "[False] False"),
        ({"kind": "sum", "parts": [
            {"kind": "lebesgue"},
            {"kind": "scaled", "c": 2.0, "inner": _POWERTAIL}]},
         "[False] True")],
        ids=["lebesgue-rho", "piecewise-rho", "nested-powertail"])
    def test_scipy_special_loaded_only_at_a_beta_evaluation(
            self, tmp_path, measure, loaded):
        # the shape of the benchmark's analyze ops: a rho block, every
        # certificate and an m_list; the rho majorant is a power tail read
        # only through its tail masses and quadrature plan, so only a power
        # tail's first moment, inside spectral.analyze, imports scipy.special
        cfg = write_config(tmp_path, {
            "sequence": _GEOMETRIC_8, "measure": measure,
            "certificates": ["psi", "rho", "sublinear", "compact_support",
                             "hilbert_schmidt"],
            "rho": {"C": 2.0, "alpha": 1.0}, "m_list": [2, 4]})
        lines = _fresh_process(f"""
import sys
from muntzlab import spectral
from muntzlab.cli import main
entered = []
analyze = spectral.analyze
def spy(*args, **kwargs):
    entered.append("scipy.special" in sys.modules)
    return analyze(*args, **kwargs)
spectral.analyze = spy
assert main(["analyze", "--config", {cfg!r}, "--out", {str(tmp_path)!r}]) in (0, 2)
print(entered, "scipy.special" in sys.modules)
""")
        assert lines[-1] == loaded
