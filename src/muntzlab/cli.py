"""Batch front-end: ``muntzlab analyze | construct | check``.

Exit codes: 0 success (also after ``--help`` and ``--version``); 1 invalid
input, including a command-line usage error or a malformed config value, or
internal error; 2 at least one certificate had a violated hypothesis (the
report is still written); 3 a construction inequality failed verification.

The ``rho`` config block ``{"C": .., "alpha": ..}`` names the majorant
rho(eps) = C*eps**alpha, which ``analyze`` passes to the rho certificate as
the power-tail measure nu with nu(J_eps) = rho(eps).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (ConstructionBugError, HypothesisViolationError,
                     InvalidParameterError, MuntzLabError,
                     SublinearEstimateError)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2
EXIT_CONSTRUCTION_BUG = 3


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise InvalidParameterError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}")
    if not isinstance(config, dict):
        raise InvalidParameterError(f"config {path} is not a JSON object")
    return config


def _require(config: dict, name: str):
    if name not in config:
        raise InvalidParameterError(f"config is missing the {name!r} field")
    return config[name]


def _field(config: dict, name: str, convert, default):
    """``convert`` applied to ``config[name]`` (to ``default`` when absent);
    a value it cannot take is an :class:`InvalidParameterError`."""
    value = config.get(name, default)
    try:
        return convert(value)
    except InvalidParameterError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"config field {name!r} is malformed: {exc}") from exc


def _rho_majorant(params: dict):
    """The measure nu with nu(J_eps) = C*eps**alpha for a ``rho`` block."""
    from .measures import PowerTailMeasure
    return PowerTailMeasure(params.get("C", 1.0), params.get("alpha", 1.0))


def _compact_support_params(params: dict) -> tuple[float, float, int]:
    return (float(params.get("b", 0.5)), float(params.get("b_prime", 0.75)),
            int(params.get("k", 1)))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import spectral
    from .geometry import PsiEvaluator
    from .measures import measure_from_config, modulus_report
    from .reporting import to_jsonable, write_csv, write_json
    from .sequences import sequence_from_config

    config = _load_config(args.config)
    seq = sequence_from_config(_require(config, "sequence"))
    mu = measure_from_config(_require(config, "measure"))
    n = args.n or _field(config, "N", int, len(seq))
    if not 1 <= n <= len(seq):
        raise InvalidParameterError(
            f"N = {n} outside 1..{len(seq)} (sequence truncation)")
    q_set = _field(config, "q_set", lambda qs: tuple(float(q) for q in qs),
                   (0.5, 1.0, 2.0))
    m_list = _field(config, "m_list", lambda ms: [int(m) for m in ms or ()],
                    None)

    started = time.perf_counter()
    problem = spectral.EmbeddingProblem(seq, mu, n)
    report = spectral.analyze(problem, q_set=q_set,
                              extended=(args.precision == "extended"))
    mod = modulus_report(mu)

    sub = seq.truncate(n)
    psi = PsiEvaluator.from_sequence(sub)
    certificates = []
    hypothesis_violated = False
    wanted = _field(config, "certificates", list, ["psi", "sublinear"])
    for kind in wanted:
        try:
            if kind == "psi":
                cert = spectral.psi_certificate(sub, mu, psi)
            elif kind == "rho":
                cert = spectral.rho_certificate(
                    sub, mu, _field(config, "rho", _rho_majorant, {}), psi)
            elif kind == "sublinear":
                cert = spectral.sublinear_embedding_bound(seq, mu, n)
            elif kind == "compact_support":
                b, b_prime, k = _field(config, "compact_support",
                                       _compact_support_params, {})
                cert = spectral.compact_support_certificate(
                    sub, mu, b, b_prime, k, psi)
            elif kind == "hilbert_schmidt":
                cert = spectral.hilbert_schmidt_certificate(sub, mu, psi)
            else:
                raise InvalidParameterError(f"unknown certificate kind {kind!r}")
        except (HypothesisViolationError, SublinearEstimateError) as exc:
            hypothesis_violated = True
            certificates.append({"kind": kind, "value": "inf",
                                 "hypothesis_violated": True,
                                 "detail": str(exc)})
            continue
        if not all(a.ok for a in cert.assumptions):
            hypothesis_violated = True
        certificates.append(to_jsonable(cert))

    essential = None
    if m_list:
        essential = spectral.essential_norm_trend(seq, mu, n, m_list)

    wall = time.perf_counter() - started
    payload = {
        "tool": {"name": "muntzlab", "version": __version__},
        "config": {"sequence": seq.to_config(), "measure": mu.to_config(),
                   "N": n, "q_set": list(q_set),
                   "certificates": wanted,
                   "m_list": config.get("m_list"),
                   "rho": config.get("rho"),
                   "compact_support": config.get("compact_support"),
                   "seed": config.get("seed", 0)},
        "spectral": to_jsonable(report),
        "modulus": to_jsonable(mod),
        "certificates": certificates,
        "essential_norm_trend": essential,
        "wall_time_seconds": wall,
        "soundness": {
            "truncation": f"all spectral statements hold at truncation N={n}",
            "sup_norms": "grid estimates only",
        },
    }
    out_dir = args.out or "."
    write_json(os.path.join(out_dir, "report.json"), payload)
    write_csv(os.path.join(out_dir, "singular_values.csv"),
              ["n", "s_n"],
              [(i + 1, s) for i, s in enumerate(report.singular_values)])
    print(f"report written to {os.path.join(out_dir, 'report.json')} "
          f"(op_norm = {report.op_norm:.9g}, wall = {wall:.2f}s)")
    return EXIT_HYPOTHESIS if hypothesis_violated else EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    from . import constructions
    from .reporting import to_jsonable, write_csv, write_json

    out_dir = args.out or "."
    n_max = args.n_max
    started = time.perf_counter()
    if args.example == 1:
        build = constructions.build_example1(n_max)
        report = constructions.verify_example1(build)
        rows = build.ledger_rows()
        header = list(rows[0].keys())
        payload = {
            "tool": {"name": "muntzlab", "version": __version__},
            "example": 1, "n_max": n_max,
            "ledger": rows,
            "verification": to_jsonable(report),
            "wall_time_seconds": time.perf_counter() - started,
        }
        stem = "example1"
    else:
        if args.q is None or args.r is None:
            raise InvalidParameterError("example 2 requires --q and --r")
        build = constructions.build_example2(args.q, args.r, n_max,
                                             theta=args.theta)
        report = constructions.verify_example2(build)
        rows = build.ledger_rows()
        header = list(rows[0].keys())
        payload = {
            "tool": {"name": "muntzlab", "version": __version__},
            "example": 2, "n_max": n_max,
            "q": args.q, "r": args.r, "theta": build.theta,
            "alphas": to_jsonable(build.alphas),
            "ledger": rows,
            "verification": to_jsonable(report),
            "wall_time_seconds": time.perf_counter() - started,
        }
        stem = "example2"
    write_json(os.path.join(out_dir, f"{stem}_ledger.json"), payload)
    write_csv(os.path.join(out_dir, f"{stem}_ledger.csv"), header,
              [[row[k] for k in header] for row in rows])
    print(f"construction verified; ledger written to "
          f"{os.path.join(out_dir, stem + '_ledger.json')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    from . import suites
    from .reporting import to_jsonable, write_json

    started = time.perf_counter()
    if args.suite == "inequalities":
        result = suites.inequality_suite(instances=args.instances,
                                         seed=args.seed)
    elif args.suite == "interpolation":
        result = suites.interpolation_suite(samples=args.instances,
                                            seed=args.seed,
                                            keep_records=bool(args.out))
    else:
        result = suites.certificate_suite()
    payload = {
        "tool": {"name": "muntzlab", "version": __version__},
        "suite": result.name,
        "checks": result.checks,
        "violations": to_jsonable(result.violations),
        "details": to_jsonable(result.details),
        "seed": args.seed,
        "wall_time_seconds": time.perf_counter() - started,
    }
    if args.out:
        write_json(os.path.join(args.out, f"check_{result.name}.json"), payload)
    status = "ok" if result.ok else f"{len(result.violations)} violation(s)"
    print(f"suite {result.name}: {result.checks} checks, {status}")
    return EXIT_OK if result.ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muntzlab",
        description="Numerics for Muntz-space embedding operators.")
    parser.add_argument("--version", action="version",
                        version=f"muntzlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="spectral report for a "
                          "(sequence, measure) config")
    p_an.add_argument("--config", required=True, help="JSON config path")
    p_an.add_argument("--out", default=".", help="output directory")
    p_an.add_argument("--n", type=int, default=None,
                      help="override the truncation N")
    p_an.add_argument("--precision", choices=("double", "extended"),
                      default="double")
    p_an.set_defaults(fn=cmd_analyze)

    p_co = sub.add_parser("construct", help="build and verify a "
                          "counterexample construction")
    p_co.add_argument("example", type=int, choices=(1, 2))
    p_co.add_argument("--n-max", type=int, default=8)
    p_co.add_argument("--q", type=float, default=None)
    p_co.add_argument("--r", type=float, default=None)
    p_co.add_argument("--theta", type=float, default=None)
    p_co.add_argument("--out", default=".")
    p_co.set_defaults(fn=cmd_construct)

    p_ch = sub.add_parser("check", help="run a randomized verification suite")
    p_ch.add_argument("suite", choices=("inequalities", "interpolation",
                                        "certificates"))
    p_ch.add_argument("--instances", type=int, default=200)
    p_ch.add_argument("--seed", type=int, default=20240901)
    p_ch.add_argument("--out", default=None)
    p_ch.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help/--version and 2 (its message already
        # on stderr) on a usage error; 2 is reserved for violated hypotheses
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.fn(args)
    except ConstructionBugError as exc:
        print(f"construction bug: {exc} (n={exc.n}, residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONSTRUCTION_BUG
    except MuntzLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
