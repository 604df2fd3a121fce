import json
import math
import os

import numpy as np
import pytest

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
