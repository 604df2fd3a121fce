"""Report serialization: JSON for structured reports, CSV for vectors.

JSON is written compact by the C encoder, with floats in Python's shortest
round-trip representation (all 17 significant digits of a double), so
reports re-read from disk reproduce the numerics bit-for-bit.  Writes go to
a temporary file in the target directory followed by an atomic rename, so
error paths never leave partial reports behind.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile

import numpy as np


def to_jsonable(obj):
    """Recursively convert dataclasses/arrays/numpy scalars to JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _atomic_write(path: str, write_fn) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    data = to_jsonable(payload)
    _atomic_write(path, lambda fh: fh.write(json.dumps(data)))


def write_csv(path: str, header, rows) -> None:
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])
    _atomic_write(path, emit)
