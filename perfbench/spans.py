"""In-memory span tracer that wraps muntzlab's public functions from outside.

``Tracer.install()`` replaces every public function of every muntzlab module,
and every public method of the classes those modules define, with a wrapper
that records one span per call: name, start, end, parent span, op id and
process CPU time (all threads, so BLAS helper threads count).  Names a module
imported from another muntzlab module (``spectral.lebesgue_gram``,
``constructions.analyze``, ``lp.log_sum``) are rebound to the same wrapper,
so a call is traced whichever module it goes through.  ``uninstall()``
restores the originals.  Nothing in ``src/`` is edited.

Span names are ``<module>.<qualname>`` of the defining module, for example
``geometry.PsiEvaluator.eval_many``.  Three counters are kept at the same
boundaries: ``quadrature.nodes`` (abscissae at which an integrand passed to
``quadrature.integrate*`` was evaluated, counted by wrapping that integrand),
``polynomials.eval_points`` (points x exponents per
``MuntzPolynomial.eval_at_log``) and ``reporting.bytes_written``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from array import array

import numpy as np

# cli.main's own span is meant to hold argparse, config loading and payload
# assembly, so the subcommand handlers it dispatches to stay inside it.
UNWRAPPED = {"cli.build_parser", "cli.cmd_analyze", "cli.cmd_construct",
             "cli.cmd_check"}
_QUADRATURE_ENTRIES = {"quadrature.integrate", "quadrature.integrate_refined_at_zero"}


def muntzlab_modules():
    import muntzlab
    mods = {"muntzlab": muntzlab}
    for info in pkgutil.iter_modules(muntzlab.__path__):
        mods[info.name] = importlib.import_module(f"muntzlab.{info.name}")
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.counters = {"quadrature.nodes": 0, "polynomials.eval_points": 0,
                         "reporting.bytes_written": 0}
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (one op)."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.cpu.append(-time.process_time())
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.cpu[idx] += time.process_time()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close
        counters = self.counters
        if name in _QUADRATURE_ENTRIES:
            def count_nodes(f):
                if getattr(f, "_counts_nodes", False):
                    return f

                def counted(t):
                    counters["quadrature.nodes"] += np.size(t)
                    return f(t)
                counted._counts_nodes = True
                return counted

            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(count_nodes(f), *args, **kwargs)
                finally:
                    close(idx)
        elif name == "polynomials.MuntzPolynomial.eval_at_log":
            @functools.wraps(fn)
            def wrapper(self_, log_x):
                counters["polynomials.eval_points"] += (
                    np.size(log_x) * self_.lambdas.size)
                idx = open_(nid)
                try:
                    return fn(self_, log_x)
                finally:
                    close(idx)
        elif name.startswith("reporting.write_"):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    close(idx)
                    if os.path.exists(path):
                        counters["reporting.bytes_written"] += os.path.getsize(path)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = muntzlab_modules()
        wrapped = {}      # id(original function) -> wrapper
        for short, mod in mods.items():
            if short == "muntzlab":
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name not in UNWRAPPED:
                        wrapped[id(value)] = self._wrap(value, name)
                elif (inspect.isclass(value) and value.__module__ == mod.__name__
                      and not issubclass(value, BaseException)):
                    self._install_methods(short, value)
        # rebind every module-level name that refers to a wrapped function,
        # including re-exports and names imported into other modules
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(mod, attr, value, wrapped[id(value)])

    def _install_methods(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, value, self._wrap(value, name))
            elif isinstance(value, (classmethod, staticmethod)):
                kind = type(value)
                self._patch(cls, attr, value, kind(self._wrap(value.__func__, name)))

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy columns, with self time and self CPU derived:
        a span's duration minus the durations of its direct children (calls
        nest on one thread, so children never overlap)."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        cpu = np.frombuffer(self.cpu).copy()
        has_parent = parent >= 0
        child_dur = np.zeros_like(dur)
        child_cpu = np.zeros_like(cpu)
        np.add.at(child_dur, parent[has_parent], dur[has_parent])
        np.add.at(child_cpu, parent[has_parent], cpu[has_parent])
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": parent, "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "cpu": cpu, "duration": dur, "self": dur - child_dur,
                "self_cpu": cpu - child_cpu}

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "cpu_s", "self_cpu_s"}."""
        cols = self.arrays()
        nid = cols["name_id"]
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            if not mask.any():
                continue
            out[name] = {"calls": int(mask.sum()),
                         "total_s": float(cols["duration"][mask].sum()),
                         "self_s": float(cols["self"][mask].sum()),
                         "cpu_s": float(cols["cpu"][mask].sum()),
                         "self_cpu_s": float(cols["self_cpu"][mask].sum())}
        return out

    def save(self, path: str) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: cols[k] for k in ("name_id", "parent", "op", "start", "end", "cpu")})


# metric name -> span name, where the metric keeps the shorter public name
ALIASES = {"measures.log_moment": "measures.Measure.log_moment",
           "measures.tail_mass": "measures.Measure.tail_mass"}
STATS = ("calls", "self_s", "cpu_s", "total_s")


def per_layer_metrics(declared, tracer: Tracer, summary: dict):
    """Values for the declared per-layer metrics, and the names among them
    that match no wrapped function.

    ``<span>.<stat>`` reads one function's spans (``calls``; ``self_s``,
    its time minus traced callees; ``total_s``, its time including callees;
    ``cpu_s``, its process CPU time including callees; a recursive function's
    ``total_s`` and ``cpu_s`` count nested calls again), ``layer.<module>.<stat>``
    sums every function of one module, and counter names read the counters.
    ``trace.*`` metrics are left to the caller.  A function that no longer
    exists reads as zero and is listed, so a deleted function does not stop
    the run while a misspelt metric still shows.
    """
    zero = {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "total_s": 0.0}
    out = {}
    unmatched = []
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if name.startswith("trace."):
            continue
        if name in tracer.counters:
            out[name] = (tracer.counters[name], unit)
            continue
        base, stat = name.rsplit(".", 1)
        if stat not in STATS:
            raise ValueError(f"per-layer metric {name}: unknown statistic {stat}")
        if base.startswith("layer."):
            module = base[len("layer."):] + "."
            rows = [v for k, v in summary.items() if k.startswith(module)]
            if not any(n.startswith(module) for n in tracer.names):
                unmatched.append(name)
            out[name] = (sum((r[stat] for r in rows), zero[stat]), unit)
            continue
        base = ALIASES.get(base, base)
        if base not in tracer.names:
            unmatched.append(name)
        out[name] = (summary.get(base, zero)[stat], unit)
    return out, unmatched


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
