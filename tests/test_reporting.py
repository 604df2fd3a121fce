import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from muntzlab import reporting
from muntzlab.cli import main
from muntzlab.reporting import to_jsonable, write_csv, write_json
from muntzlab.spectral import AssumptionCheck, Certificate


class TestToJsonable:
    def test_special_floats(self):
        assert to_jsonable(math.inf) == "inf"
        assert to_jsonable(-math.inf) == "-inf"
        assert to_jsonable(math.nan) == "nan"

    def test_numpy_types(self):
        out = to_jsonable({"a": np.float64(1.5), "b": np.int32(3),
                           "c": np.array([1.0, 2.0]), "d": np.bool_(True)})
        assert out == {"a": 1.5, "b": 3, "c": [1.0, 2.0], "d": True}

    def test_dataclass(self):
        cert = Certificate(kind="psi", value=2.0,
                           assumptions=(AssumptionCheck("x", True),))
        out = to_jsonable(cert)
        assert out["kind"] == "psi"
        assert out["assumptions"][0]["ok"] is True

    def test_nested_payload_converts_in_one_call(self):
        cert = Certificate(kind="rho", value=math.inf,
                           assumptions=(AssumptionCheck("x", False),))
        payload = {"certs": [cert], "f32": np.float32(0.5),
                   "i64": np.int64(-7), "flag": np.bool_(False),
                   "grid": np.array([[1.0, math.nan], [-math.inf, 2.0]])}
        out = to_jsonable(payload)
        assert out == {
            "certs": [{"kind": "rho", "value": "inf",
                       "assumptions": [{"name": "x", "ok": False,
                                        "detail": ""}],
                       "flags": [], "params": {}}],
            "f32": 0.5, "i64": -7, "flag": False,
            "grid": [[1.0, "nan"], ["-inf", 2.0]]}
        assert [type(out[k]) for k in ("f32", "i64", "flag")] == [float, int, bool]
        assert json.loads(json.dumps(out)) == out

    def test_round_trip_float_exact(self):
        values = [1 / 3, 2.0 ** -45, 1.0 + 2.0 ** -52, 1e300]
        dumped = json.dumps(to_jsonable(values))
        assert json.loads(dumped) == values


class TestWriters:
    def test_json_atomic(self, tmp_path):
        path = tmp_path / "sub" / "r.json"
        write_json(str(path), {"x": [1.0, 2.0]})
        assert json.loads(path.read_text()) == {"x": [1.0, 2.0]}
        leftovers = [p for p in os.listdir(tmp_path / "sub")
                     if p.endswith(".tmp")]
        assert leftovers == []

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "v.csv"
        write_csv(str(path), ["n", "v"], [(1, 1 / 3), (2, 2.0 ** -45)])
        rows = path.read_text().strip().splitlines()
        assert float(rows[1].split(",")[1]) == 1 / 3
        assert float(rows[2].split(",")[1]) == 2.0 ** -45

    def test_failed_write_leaves_no_partial(self, tmp_path):
        class Boom:
            def __iter__(self):
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            write_csv(str(tmp_path / "x.csv"), ["a"], Boom())
        assert not (tmp_path / "x.csv").exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def _per_element_jsonable(obj):
    """to_jsonable before finite float arrays converted in one tolist(): one
    recursive call per element, kept as the oracle of that fast path."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.generic):
        return _per_element_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_per_element_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _per_element_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _per_element_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_per_element_jsonable(v) for v in obj]
    return str(obj)


# one analyze config per measure kind of the benchmark's analyze strata, each
# run at N 16, 24 and 32
_ANALYZE_MEASURES = {
    "powertail": {"kind": "powertail", "C": 1.3, "alpha": 1.7, "x0": 0.0},
    "powertail-x0": {"kind": "powertail", "C": 0.8, "alpha": 2.4, "x0": 0.35},
    "lebesgue": {"kind": "lebesgue"},
    "piecewise": {"kind": "piecewise", "breakpoints": [0.0, 0.3, 0.62, 0.9],
                  "densities": [0.5, 2.2, 1.1]},
    "scaled": {"kind": "scaled", "c": 2.5,
               "inner": {"kind": "powertail", "C": 1.0, "alpha": 0.8}},
    "sum": {"kind": "sum", "parts": [
        {"kind": "scaled", "c": 0.4, "inner": {"kind": "lebesgue"}},
        {"kind": "atomic", "atoms": [[0.7, 0.3]]},
        {"kind": "powertail", "C": 1.1, "alpha": 2.0}]},
}
_WALL = re.compile(r'"wall_time_seconds": [^,}]+')


def _report_files(out):
    return {name: _WALL.sub('"wall_time_seconds": 0', (out / name).read_text())
            for name in sorted(os.listdir(out))}


class TestFastPathReports:
    @pytest.mark.parametrize("argv", [
        *[["analyze", kind, n] for n in (16, 24, 32) for kind in _ANALYZE_MEASURES],
        ["construct", "1", "--n-max", "6"],
        ["construct", "2", "--q", "2.0", "--r", "1.0", "--n-max", "5"]],
        ids=lambda argv: "-".join(map(str, argv)))
    def test_byte_identical_to_per_element(self, tmp_path, monkeypatch, argv):
        if argv[0] == "analyze":
            _, kind, n = argv
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({
                "sequence": {"kind": "geometric", "lambda1": 1.2,
                             "ratio": 2.1, "count": n},
                "measure": _ANALYZE_MEASURES[kind], "N": n,
                "certificates": ["psi", "rho", "sublinear",
                                 "compact_support", "hilbert_schmidt"],
                "rho": {"C": 2.0, "alpha": 0.8},
                "compact_support": {"b": 0.7, "b_prime": 0.85, "k": 2},
                "m_list": [2, 8, 32, 128]}))
            argv = ["analyze", "--config", str(cfg)]
        files = {}
        for name, convert in (("fast", to_jsonable),
                              ("oracle", _per_element_jsonable)):
            out = tmp_path / name
            monkeypatch.setattr(reporting, "to_jsonable", convert)
            assert main([*argv, "--out", str(out)]) in (0, 2)
            files[name] = _report_files(out)
        assert files["fast"] == files["oracle"]
        assert any(name.endswith(".json") for name in files["fast"])
