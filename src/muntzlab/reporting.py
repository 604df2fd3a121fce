"""Report serialization: JSON for structured reports, CSV for vectors.

Callers hand library objects (dataclasses, arrays, numpy scalars) straight
to :func:`write_json`, the one place a payload is converted to JSON types,
once; a float array whose entries are all finite converts in one
``tolist()``.  JSON is written compact by the C encoder, with floats in
Python's shortest round-trip representation (all 17 significant digits of a
double), so reports re-read from disk reproduce the numerics bit-for-bit.  Each
report is rendered to text in full before any file is created, then written
to a temporary file in the target directory and atomically renamed, so
error paths never leave partial reports behind.
"""

from __future__ import annotations

import csv
import dataclasses
import io
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
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()       # finite floats are JSON types as they are
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(to_jsonable(payload)))


def write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    _atomic_write(path, buf.getvalue())
