"""Seeded workloads for the muntzlab benchmark.

Each workload is a fixed list of strata (op kind plus the input property the
stratum pins, such as the truncation N or the measure variant).  Every
stratum owns a small pool of instances drawn once from a fixed master seed;
``references.json`` holds the outputs each pool instance produced when the
benchmark was defined, so every input a run can see has a reference.  A
run's ``--seed`` decides the order in which each stratum walks its pool and
the order of the ops inside each cycle; every cycle does the same mix of
work.

An op is executed (the timed part: only calls into muntzlab), then observed
(untimed: its outputs read back into a dict of reported numbers plus the
exit code), then gated: the observation must match the reference within
``RTOL`` relative, and independent invariants that do not trust the
reference must hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from muntzlab import cli, geometry, highprec, lp, measures, polynomials, sequences, spectral

POOL_SEED = 20111024
RTOL = 1e-9
INVARIANT_RTOL = 1e-9
M_LIST = [2, 8, 32, 128]
ANALYZE_CERTIFICATES = ["psi", "rho", "sublinear", "compact_support",
                        "hilbert_schmidt"]


@dataclass(frozen=True)
class Op:
    id: str          # "<stratum>/<pool index>", the key into references.json
    stratum: str
    params: dict     # JSON-able inputs


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# input generators (one per stratum, each draws from a numpy Generator)
# ---------------------------------------------------------------------------

def _powertail(rng, x0: bool) -> dict:
    return {"kind": "powertail", "C": _u(rng, 0.5, 2.0),
            "alpha": _u(rng, 0.6, 3.0),
            "x0": _u(rng, 0.1, 0.8) if x0 else 0.0}


def _piecewise(rng) -> dict:
    k = int(rng.integers(2, 5))
    end = 1.0 if rng.random() < 0.5 else _u(rng, 0.6, 0.95)
    inner = sorted(float(v) for v in rng.uniform(0.02, end - 0.02, k - 1))
    return {"kind": "piecewise", "breakpoints": [0.0] + inner + [end],
            "densities": [float(v) for v in rng.uniform(0.2, 3.0, k)]}


def _density_measure(kind: str, rng) -> dict:
    if kind == "powertail":
        return _powertail(rng, x0=False)
    if kind == "powertail-x0":
        return _powertail(rng, x0=True)
    if kind == "lebesgue":
        return {"kind": "lebesgue"}
    if kind == "piecewise":
        return _piecewise(rng)
    if kind == "scaled":
        inner = (_powertail(rng, x0=rng.random() < 0.5) if rng.random() < 0.5
                 else {"kind": "lebesgue"})
        return {"kind": "scaled", "c": _u(rng, 0.25, 4.0), "inner": inner}
    if kind == "sum":
        return {"kind": "sum", "parts": [
            {"kind": "scaled", "c": _u(rng, 0.2, 1.0),
             "inner": {"kind": "lebesgue"}},
            {"kind": "atomic", "atoms": [[_u(rng, 0.05, 0.95),
                                          _u(rng, 0.1, 1.0)]]},
            _powertail(rng, x0=False)]}
    raise ValueError(kind)


def _analyze_params(n: int, measure_kind: str):
    def gen(rng) -> dict:
        measure = _density_measure(measure_kind, rng)
        # the support of a piecewise measure may end below 1; aim the
        # compact-support certificate at that end or just below it
        end = measure["breakpoints"][-1] if measure["kind"] == "piecewise" else 1.0
        if end < 1.0:
            b = end if rng.random() < 0.5 else end - 0.05
        else:
            b = _u(rng, 0.5, 0.9)
        # ratio >= 1.9 keeps cond(B) below ~1e6 at N = 32, so the double
        # Cholesky succeeds and the reported numbers are stable to ~1e-10
        return {"config": {
            "sequence": {"kind": "geometric", "lambda1": _u(rng, 0.5, 2.0),
                         "ratio": _u(rng, 1.9, 2.3), "count": n},
            "measure": measure,
            "N": n,
            "q_set": [0.5, 1.0, 2.0],
            "certificates": ANALYZE_CERTIFICATES,
            "rho": {"C": _u(rng, 0.5, 4.0), "alpha": _u(rng, 0.5, 1.0)},
            "compact_support": {"b": b, "b_prime": b + (1.0 - b) * _u(rng, 0.3, 0.7),
                                "k": int(rng.integers(1, 3))},
            "m_list": M_LIST}}
    return gen


def _construct1_params(rng) -> dict:
    return {"n_max": int(rng.integers(5, 11))}


def _construct2_params(rng) -> dict:
    q = _u(rng, 1.0, 3.0)
    return {"q": q, "r": q * _u(rng, 0.3, 0.8), "n_max": int(rng.integers(4, 9))}


def _atomic_params(k_lo: int, k_hi: int):
    def gen(rng) -> dict:
        k = int(rng.integers(k_lo, k_hi + 1))
        # atoms at 1 - 10**-u: the near-1 regime that needs log positions
        t = np.sort(10.0 ** -rng.uniform(0.3, 7.0, k))
        return {"lambda1": _u(rng, 0.5, 2.0), "ratio": _u(rng, 1.9, 2.3),
                "n": int(rng.integers(12, 25)),
                "log_positions": [float(v) for v in np.log1p(-t)],
                "log_weights": [float(v) for v in np.log(rng.uniform(0.05, 1.0, k))],
                "m_list": M_LIST}
    return gen


def _oracle_params(rng) -> dict:
    n = int(rng.integers(6, 13))
    if rng.random() < 0.5:
        values = 0.5 * _u(rng, 1.0, 4.0) * _u(rng, 1.5, 2.5) ** np.arange(n)
    else:
        values = np.arange(1, n + 1, dtype=float) ** _u(rng, 1.2, 2.5)
    idx = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), 3, replace=False))
    return {"values": [float(v) for v in values], "indices": idx}


def _check_params(lo: int, hi: int):
    def gen(rng) -> dict:
        return {"instances": int(rng.integers(lo, hi + 1)),
                "seed": int(rng.integers(0, 2 ** 31))}
    return gen


def _lp_norm_params(rng) -> dict:
    n = int(rng.integers(3, 7))
    coeffs = rng.standard_normal(n)
    return {"lambda1": _u(rng, 0.5, 2.0), "ratio": _u(rng, 1.5, 3.0),
            "coefficients": [float(v) for v in coeffs / np.linalg.norm(coeffs)],
            "p": _u(rng, 1.0, 4.0)}


def _empirical_params(rng) -> dict:
    # measure index 1..3 of _suite_measures(): on Lebesgue measure itself
    # the ratio is 1 for every polynomial, so the search would be degenerate
    return {"lambda1": _u(rng, 0.5, 2.0), "ratio": _u(rng, 1.5, 3.0),
            "n": 2, "measure": int(rng.integers(1, 4)), "p": _u(rng, 1.0, 4.0),
            "samples": int(rng.integers(2, 5)),
            "seed": int(rng.integers(0, 2 ** 31))}


# ---------------------------------------------------------------------------
# op kinds: execute (timed) and observe (untimed)
# ---------------------------------------------------------------------------

def _cli(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _suite_measures():
    """The four density measures the suites use."""
    return [measures.lebesgue(),
            measures.ScaledMeasure(2.0, measures.lebesgue()),
            measures.PiecewiseDensityMeasure(np.array([0.0, 0.5, 1.0]),
                                             np.array([0.5, 2.0])),
            measures.PowerTailMeasure(1.0, 2.0)]


def _comparable(cert: dict) -> bool:
    value = cert.get("value")
    return (isinstance(value, float) and math.isfinite(value)
            and all(a["ok"] for a in cert.get("assumptions", [])))


class Analyze:
    """``muntzlab analyze`` on a generated config; the report goes to disk.

    The gate leaves out Schatten partial norms with q < 2: at these N they
    sum singular values that sit at the noise floor of the whitened pencil,
    and a 1-ulp change of the Gram entries moves them by up to 1e-4
    relative, so pinning them would fail any reassociated assembly.
    """

    name = "analyze"

    def prepare(self, params, slot):
        path = os.path.join(slot, "config.json")
        with open(path, "w") as fh:
            json.dump(params["config"], fh)
        return path

    def execute(self, params, slot, config_path):
        return _cli(["analyze", "--config", config_path, "--out", slot])

    def observe(self, params, slot, code):
        report = _read_json(os.path.join(slot, "report.json"))
        sp = report["spectral"]
        op_norm = sp["singular_values"][0]
        certs = report["certificates"]
        numbers = {
            "exit": code, "op_norm": op_norm, "schatten_2": sp["schatten"]["2.0"],
            "trend": [[t["n"], t["op_norm"], t["schatten"]["2.0"]]
                      for t in sp["trend"]],
            "certificates": {c["kind"]: c["value"] for c in certs},
            "essential": report["essential_norm_trend"]}
        problems = [f"psi certificate {c['value']!r} below op norm {op_norm!r}"
                    for c in certs if c["kind"] == "psi" and _comparable(c)
                    and c["value"] < op_norm * (1.0 - INVARIANT_RTOL)]
        if code not in (0, 2):
            problems.append(f"analyze exited {code}")
        return numbers, problems


class Construct:
    """``muntzlab construct 1|2``: build and verify, ledger written to disk."""

    def __init__(self, example: int):
        self.example = example
        self.name = f"construct{example}"

    def prepare(self, params, slot):
        argv = ["construct", str(self.example), "--n-max", str(params["n_max"]),
                "--out", slot]
        if self.example == 2:
            argv += ["--q", repr(params["q"]), "--r", repr(params["r"])]
        return argv

    def execute(self, params, slot, argv):
        return _cli(argv)

    def observe(self, params, slot, code):
        if code != 0:
            # exit 3 is a ConstructionBugError: a verified inequality failed
            return {"exit": code}, [f"construct {self.example} exited {code}"]
        ledger = _read_json(os.path.join(slot, f"example{self.example}_ledger.json"))
        ver = ledger["verification"]
        numbers = {"exit": code, "ledger": ledger["ledger"]}
        if self.example == 1:
            numbers["op_norms"] = ver["op_norms"]
            numbers["c_fit"] = ver["c_fit"]
        else:
            numbers["schatten_trend_q"] = ver["schatten_trend_q"]
            numbers["offdiag_hs"] = ver["offdiag_hs"]
        return numbers, []


class AtomicAnalyze:
    """spectral.analyze + essential_norm_trend + psi_certificate in process."""

    name = "atomic-analyze"

    def prepare(self, params, slot):
        return None

    def execute(self, params, slot, _):
        seq = sequences.make_geometric(params["lambda1"], params["ratio"],
                                       params["n"])
        mu = measures.atomic_from_logs(params["log_positions"],
                                       params["log_weights"])
        n = params["n"]
        report = spectral.analyze(spectral.EmbeddingProblem(seq, mu, n),
                                  q_set=(0.5, 1.0, 2.0))
        trend = spectral.essential_norm_trend(seq, mu, n, params["m_list"])
        cert = spectral.psi_certificate(seq, mu)
        return report, trend, cert

    def observe(self, params, slot, raw):
        report, trend, cert = raw
        numbers = {"op_norm": report.op_norm, "schatten_2": report.schatten[2.0],
                   "essential": [[m, v] for m, v in trend],
                   "psi": cert.value}
        problems = []
        if cert.comparable and cert.value < report.op_norm * (1.0 - INVARIANT_RTOL):
            problems.append(f"psi certificate {cert.value!r} below op norm "
                            f"{report.op_norm!r}")
        return numbers, problems


class DistanceOracle:
    """geometry.distances cross-checked by the 200-bit highprec oracle."""

    name = "distance-oracle"

    def prepare(self, params, slot):
        return None

    def execute(self, params, slot, _):
        table = geometry.distances(sequences.make_explicit(params["values"]))
        oracle = [highprec.distance_oracle(params["values"], i)
                  for i in params["indices"]]
        return table, oracle

    def observe(self, params, slot, raw):
        table, oracle = raw
        fast = [float(table.d[i - 1]) for i in params["indices"]]
        problems = [f"d_{i}: closed form {f!r} vs oracle {o!r}"
                    for i, f, o in zip(params["indices"], fast, oracle)
                    if abs(f - o) > INVARIANT_RTOL * abs(o)]
        return {"d": fast, "oracle": oracle}, problems


class Check:
    """``muntzlab check interpolation|inequalities`` with its JSON report.

    For interpolation the gate compares every sample's (lhs, rhs) rather
    than the max slack: the slack is a difference of near-equal norms (zero
    on Lebesgue measure), so only an absolute comparison suits it, and the
    samples pin it to within RTOL of their size.
    """

    def __init__(self, suite: str):
        self.suite = suite
        self.name = f"check-{suite}"

    def prepare(self, params, slot):
        return ["check", self.suite, "--instances", str(params["instances"]),
                "--seed", str(params["seed"]), "--out", slot]

    def execute(self, params, slot, argv):
        return _cli(argv)

    def observe(self, params, slot, code):
        report = _read_json(os.path.join(slot, f"check_{self.suite}.json"))
        details = report["details"]
        numbers = {"exit": code, "checks": report["checks"]}
        problems = [] if code == 0 else [f"check {self.suite} exited {code}: "
                                         f"{report['violations']!r}"]
        if self.suite == "interpolation":
            numbers["records"] = details["records"]
            slack = max(lhs - rhs for recs in details["records"].values()
                        for _, lhs, rhs in recs)
            if slack != details["max_slack"]:
                problems.append(f"max_slack {details['max_slack']!r} is not the "
                                f"largest sample slack {slack!r}")
        else:
            numbers["max_bernstein_ratio"] = details["max_bernstein_ratio"]
        return numbers, problems


class LpNorm:
    """lp.lp_norm of one polynomial on the four suite density measures."""

    name = "lp-norm"

    def prepare(self, params, slot):
        return None

    def execute(self, params, slot, _):
        n = len(params["coefficients"])
        seq = sequences.make_geometric(params["lambda1"], params["ratio"], n)
        f = polynomials.MuntzPolynomial(seq, np.array(params["coefficients"]))
        norms = [lp.lp_norm(f, params["p"], mu) for mu in _suite_measures()]
        at_two = lp.lp_norm(f, 2.0, measures.lebesgue())
        return f, norms, at_two

    def observe(self, params, slot, raw):
        f, norms, at_two = raw
        exact = f.l2_norm_lebesgue()
        problems = []
        if abs(at_two.value - exact) > INVARIANT_RTOL * exact:
            problems.append(f"L^2 quadrature {at_two.value!r} vs exact {exact!r}")
        return {"norms": [e.value for e in norms], "l2": at_two.value}, problems


class EmpiricalConstant:
    """lp.empirical_embedding_constant with refine=True at n = 2."""

    name = "empirical-constant"

    def prepare(self, params, slot):
        return None

    def execute(self, params, slot, _):
        seq = sequences.make_geometric(params["lambda1"], params["ratio"],
                                       params["n"])
        mu = _suite_measures()[params["measure"]]
        value = lp.empirical_embedding_constant(
            seq, mu, params["p"], params["n"], params["samples"], refine=True,
            seed=params["seed"])
        return value, lp.certified_embedding_constant(mu, params["p"])

    def observe(self, params, slot, raw):
        value, certified = raw
        problems = []
        if certified is None or value > certified * (1.0 + INVARIANT_RTOL):
            problems.append(f"empirical constant {value!r} above certified "
                            f"{certified!r}")
        return {"constant": value, "certified": certified}, problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    name: str
    kind: object      # one of the op-kind objects above
    generate: object  # rng -> params
    pool: int = 8     # pool instances, each with a recorded reference
    weight: int = 1   # ops of this stratum per cycle


class Workload:
    def __init__(self, name: str, strata, warmup: str):
        self.name = name
        self.strata = tuple(strata)
        self.warmup = warmup
        self._by_name = {s.name: s for s in self.strata}

    def pool(self, stratum: str) -> list[Op]:
        s = self._by_name[stratum]
        rng = np.random.default_rng([POOL_SEED, zlib.crc32(stratum.encode())])
        return [Op(f"{stratum}/{i}", stratum, s.generate(rng)) for i in range(s.pool)]

    def kind(self, op: Op):
        return self._by_name[op.stratum].kind

    def all_ops(self) -> list[Op]:
        return [op for s in self.strata for op in self.pool(s.name)]

    def schedule(self, seed: int):
        """(warm-up op, endless iterator of cycles).

        Each stratum walks its pool in a seeded order, ``weight`` instances
        per cycle, so consecutive cycles cover the pool evenly and the cost
        of a run depends little on the seed; the order of the ops inside a
        cycle is seeded too.
        """
        rng = np.random.default_rng(seed)
        pools = {s.name: self.pool(s.name) for s in self.strata}
        walks = {s.name: [int(i) for i in rng.permutation(s.pool)] for s in self.strata}
        warm = pools[self.warmup][int(rng.integers(len(pools[self.warmup])))]

        def cycles():
            step = 0
            while True:
                ops = [pools[s.name][walks[s.name][(step * s.weight + j) % s.pool]]
                       for s in self.strata for j in range(s.weight)]
                yield [ops[i] for i in rng.permutation(len(ops))]
                step += 1
        return warm, cycles()


_ANALYZE = Analyze()
_DENSITY_KINDS = ("powertail", "powertail-x0", "lebesgue", "piecewise",
                  "scaled", "sum")

# Weights even out the wall share of cheap and heavy op kinds within a cycle;
# pool sizes stay small where an op is slow, since every pool instance is run
# once to record its reference.
WORKLOADS = {
    "analyze-density": Workload(
        "analyze-density",
        [Stratum(f"analyze-N{n}-{kind}", _ANALYZE, _analyze_params(n, kind), pool=4)
         for n in (16, 24, 32) for kind in _DENSITY_KINDS],
        warmup="analyze-N16-lebesgue"),
    "construct-atomic": Workload(
        "construct-atomic",
        [Stratum("construct1", Construct(1), _construct1_params),
         Stratum("construct2", Construct(2), _construct2_params),
         Stratum("atomic-few", AtomicAnalyze(), _atomic_params(2, 6), pool=16, weight=2),
         Stratum("atomic-many", AtomicAnalyze(), _atomic_params(10, 16), pool=16, weight=2),
         Stratum("distance-oracle", DistanceOracle(), _oracle_params, pool=16, weight=2)],
        warmup="atomic-few"),
    "lp-check": Workload(
        "lp-check",
        [Stratum("check-interpolation", Check("interpolation"), _check_params(1, 2),
                 weight=3),
         Stratum("check-inequalities", Check("inequalities"), _check_params(2, 4),
                 pool=16, weight=4),
         Stratum("lp-norm", LpNorm(), _lp_norm_params, pool=16, weight=8),
         Stratum("empirical-constant", EmpiricalConstant(), _empirical_params)],
        warmup="lp-norm"),
}


# ---------------------------------------------------------------------------
# reference gate
# ---------------------------------------------------------------------------

def compare(expected, observed, path: str = "") -> list[str]:
    """Differences between a reference and an observation: ints, strings and
    structure must match exactly, floats within RTOL relative."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(expected) != set(observed):
            return [f"{path}: keys {sorted(observed) if isinstance(observed, dict) else observed!r}"
                    f" != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], observed[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(expected) != len(observed):
            return [f"{path}: {observed!r} != {expected!r}"]
        return [d for i, (e, o) in enumerate(zip(expected, observed))
                for d in compare(e, o, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(observed, (int, float)) \
            and not isinstance(observed, bool):
        if observed == expected or (math.isnan(expected) and math.isnan(observed)):
            return []
        if abs(observed - expected) <= RTOL * max(abs(expected), abs(observed)):
            return []
        return [f"{path}: {observed!r} != {expected!r}"]
    if expected != observed or type(expected) is not type(observed):
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


def to_plain(obj):
    """JSON round trip, so observations compare like the stored references."""
    return json.loads(json.dumps(obj, allow_nan=True))
