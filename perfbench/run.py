"""muntzlab benchmark runner: closed loop, one process, seeded inputs.

    python3 perfbench/run.py --workload analyze-density --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One caller runs one op at a time; the next op starts when the previous one
returns.  Ops come in cycles (one op per stratum of the workload, see
``workloads.py``) and the run measures whole cycles until ``--seconds`` of
wall time has passed.  Only the calls into muntzlab are timed; writing an
op's config before it and reading its report back for the correctness gate
after it are not.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined list of ops (so call counts repeat exactly) once untraced
and once with every muntzlab public function wrapped (``spans.py``), and
prints the per-layer metrics.  The program is used as users get it: BLAS
thread settings are recorded, never set.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, per-op records and the
environment record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3
MIN_OPS = 100
# the traced run replays this many seeded cycles: enough ops for every layer
# the workload touches, few enough that the untraced + traced passes stay
# well under a minute
TRACE_CYCLES = {"analyze-density": 1, "construct-atomic": 8, "lp-check": 2}


def _import_program():
    """Import muntzlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "muntzlab", "__init__.py")):
        sys.exit(f"error: no muntzlab sources at {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import muntzlab
    if not os.path.abspath(muntzlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported muntzlab from {muntzlab.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment and host-noise record
# ---------------------------------------------------------------------------

def _blas_record() -> list[dict]:
    """Loaded OpenBLAS libraries with their configured thread counts."""
    libs = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libs.append(entry)
    return libs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": _blas_record(), "threadpoolctl_importable": has_tpc,
        "env": {k: os.environ.get(k) for k in (
            "MUNTZLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "loadavg": list(os.getloadavg()),
    }


def calibration_ms() -> float:
    """A fixed pure-Python loop; its time tells a noisy host apart."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Runner:
    """Executes ops in a work directory and gates their outputs."""

    def __init__(self, workload, references: dict | None, workdir: str):
        import workloads
        self.w = workloads
        self.workload = workload
        self.references = references
        self.workdir = workdir
        self.records = []

    def validate(self, ops) -> None:
        missing = [op.id for op in ops if self.references is not None
                   and op.id not in self.references]
        if missing:
            sys.exit(f"error: no reference for {missing[:3]}; re-record references")

    def run(self, op, timed: bool = True, trace_span=None) -> dict:
        """One op: prepare, execute (timed), observe and gate (untimed)."""
        kind = self.workload.kind(op)
        slot = os.path.join(self.workdir, op.stratum)
        os.makedirs(slot, exist_ok=True)
        problems = []
        numbers = None
        prepared = kind.prepare(op.params, slot)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if trace_span is not None:
                with trace_span:
                    raw = kind.execute(op.params, slot, prepared)
            else:
                raw = kind.execute(op.params, slot, prepared)
        except Exception as exc:   # an op that raises counts as failed
            raw = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        c1 = time.process_time()
        if not problems:
            try:
                numbers, problems = kind.observe(op.params, slot, raw)
                numbers = self.w.to_plain(numbers)
            except Exception:
                problems.append("observe failed: " + traceback.format_exc(limit=2))
        if numbers is not None and self.references is not None:
            problems += self.w.compare(self.references[op.id], numbers, op.id)
        rec = {"id": op.id, "stratum": op.stratum, "kind": kind.name,
               "wall_s": t1 - t0, "cpu_s": c1 - c0, "ok": not problems,
               "problems": problems[:5], "numbers": numbers}
        if timed:
            self.records.append(rec)
        return rec


def load_references(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read references {path}: {exc}")


def _workdir(tag: str) -> str:
    path = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup(args):
    """Import, input generation and validation, one untimed warm-up op."""
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    references = load_references(args.references)
    runner = Runner(workload, references, _workdir(args.workload))
    warm, cycles = workload.schedule(args.seed)
    runner.validate(workload.all_ops())
    rec = runner.run(warm, timed=False)
    if not rec["ok"]:
        sys.exit(f"error: warm-up op {warm.id} failed: {rec['problems']}")
    return workload, runner, cycles


def measure_setup(args) -> list[float]:
    """Process start -> ready for the first timed op, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--references", args.references],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: setup subprocess failed: {err.strip()[-500:]}")
        times.append(ready - t0)
    return times


def kind_shares(records) -> dict:
    total = sum(r["wall_s"] for r in records) or 1.0
    out = {}
    for key in ("kind", "stratum"):
        groups = {}
        for r in records:
            g = groups.setdefault(r[key], [0, 0.0])
            g[0] += 1
            g[1] += r["wall_s"]
        out[key] = {k: {"ops": n, "wall_s": s, "share": s / total}
                    for k, (n, s) in sorted(groups.items())}
    return out


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, workload, runner, cycles) -> dict:
    import numpy as np
    setups = measure_setup(args)
    cal_before = calibration_ms()
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        for op in next(cycles):
            runner.run(op)
    loop_wall = time.perf_counter() - started
    cal_after = calibration_ms()
    recs = runner.records
    lat = np.array([r["wall_s"] for r in recs])
    busy = float(lat.sum())
    p50, p90 = np.percentile(lat, [50, 90])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(recs) / busy, "1/s"),
        "op_p50_ms": (float(p50) * 1e3, "ms"),
        "op_p90_ms": (float(p90) * 1e3, "ms"),
        "cpu_per_op_ms": (sum(r["cpu_s"] for r in recs) / len(recs) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    meta = {"setup_runs_s": setups, "loop_wall_s": loop_wall, "busy_s": busy,
            "ops": len(recs), "p90_samples_beyond": int((lat > p90).sum()),
            "calibration_ms": {"before": cal_before, "after": cal_after},
            "shares": kind_shares(recs)}
    return {"metrics": metrics, "meta": meta}


def traced(args, workload, runner, cycles) -> dict:
    from spans import Tracer, per_layer_metrics
    ops = [op for _ in range(TRACE_CYCLES[workload.name]) for op in next(cycles)]
    for op in ops:
        # first calls fill lazy caches (quadrature rules, sup-norm grid,
        # mpmath backends); keep that cost out of both timed passes
        runner.run(op, timed=False)
    t0 = time.perf_counter()
    for op in ops:
        runner.run(op)
    untraced_wall = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.current_op = i
            runner.run(op, trace_span=tracer.span(f"op.{op.stratum}"))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    metrics, unmatched = per_layer_metrics(declared_metrics(1), tracer, summary)
    op_s = sum(v["total_s"] for k, v in summary.items() if k.startswith("op."))
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    tag = f"{workload.name}-seed{args.seed}"
    tracer.save(os.path.join(OUT, f"spans-{tag}.npz"))
    meta = {"ops": len(ops), "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall, "traced_op_s": op_s,
            "spans": len(tracer.start), "unmatched_metrics": unmatched,
            "functions": summary,
            "counters": dict(tracer.counters)}
    return {"metrics": metrics, "meta": meta}


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    try:
        with open(BENCHMARK_JSON) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {BENCHMARK_JSON}: {exc}")
    return spec["per_layer" if trace else "end_to_end"]


def main_single(args) -> int:
    workload, runner, cycles = setup(args)
    if args.setup_only:
        print("ready", flush=True)
        shutil.rmtree(runner.workdir, ignore_errors=True)
        return 0
    env = environment()
    result = (traced if args.trace else end_to_end)(args, workload, runner, cycles)
    recs = runner.records
    failed = sum(not r["ok"] for r in recs)
    metrics = result["metrics"]
    for m in declared_metrics(args.trace):
        if m["name"] not in metrics:
            sys.exit(f"error: declared metric {m['name']} was not measured")
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:48s} {value:.6g} {unit}")
    lines.append(f"  {'failed_frac':48s} {failed / max(len(recs), 1):.6g} ratio"
                 f"  ({failed} of {len(recs)} ops)")
    meta = result["meta"]
    if not args.trace:
        lines.append(f"  op_p90_ms sample count: {len(recs)} ops, "
                     f"{meta['p90_samples_beyond']} beyond p90")
        if len(recs) < MIN_OPS:
            lines.append(f"  WARNING: fewer than {MIN_OPS} ops, so op_p90_ms has "
                         "fewer than 10 samples beyond it; run longer")
        lines.append("  wall share by op kind: " + ", ".join(
            f"{k} {v['share']:.1%} ({v['ops']})"
            for k, v in meta["shares"]["kind"].items()))
        lines.append(f"  calibration loop: {meta['calibration_ms']['before']:.1f} ms"
                     f" before, {meta['calibration_ms']['after']:.1f} ms after")
    blas = ", ".join(f"{b['library']} threads={b.get('threads', '?')}"
                     for b in env["blas"])
    lines.append(f"  env: nproc {env['nproc']}, loadavg {env['loadavg'][0]:.2f}, "
                 f"threadpoolctl {env['threadpoolctl_importable']}, "
                 f"MUNTZLAB_THREADS={env['env']['MUNTZLAB_THREADS']}, "
                 f"OPENBLAS_NUM_THREADS={env['env']['OPENBLAS_NUM_THREADS']}, {blas}")
    if args.trace and meta["unmatched_metrics"]:
        lines.append("  note: no traced function for "
                     + ", ".join(meta["unmatched_metrics"]) + " (reads as 0)")
    for r in recs:
        if not r["ok"]:
            lines.append(f"  FAILED {r['id']}: {r['problems'][:2]}")
    print("\n".join(lines))
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failed": failed, "attempted": len(recs), "env": env,
                   "meta": meta, "records": recs}, fh, indent=1, default=str)
    shutil.rmtree(runner.workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(recs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def main_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    import workloads
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--references", args.references],
            capture_output=True, text=True)
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "workloads": rows}))
    return 0


def record_references(args) -> int:
    """Write references.json: every pool op's outputs at this commit.  Refuses
    to record an op that fails its independent invariants."""
    import workloads
    refs = {}
    for workload in workloads.WORKLOADS.values():
        runner = Runner(workload, None, _workdir("record"))
        for op in workload.all_ops():
            rec = runner.run(op, timed=False)
            if not rec["ok"]:
                sys.exit(f"error: {op.id} fails its invariants: {rec['problems']}")
            refs[op.id] = rec["numbers"]
        shutil.rmtree(runner.workdir, ignore_errors=True)
    with open(args.references, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} references to {args.references}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="analyze-density, construct-atomic, lp-check or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--references", default=REFERENCES,
                   help="reference outputs to gate against")
    p.add_argument("--record-references", action="store_true",
                   help="re-record the reference outputs of every pool op")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS and args.workload != "all":
        sys.exit(f"error: unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    if args.record_references:
        return record_references(args)
    if args.workload == "all":
        return main_all(args)
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())
