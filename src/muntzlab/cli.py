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
from .errors import ConstructionBugError, InvalidParameterError, MuntzLabError

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
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(
            f"config field {name!r} is malformed: {exc}") from exc


def _array(convert, allow_null: bool = False):
    """A converter for a JSON array field: ``convert`` applied to each item;
    any other value (a string, a number, an object) is refused, and so is
    null unless ``allow_null``, which reads it as an empty array."""
    def read(value):
        if value is None and allow_null:
            return []
        if not isinstance(value, list):
            raise TypeError(f"expected a JSON array, got {json.dumps(value)}")
        return [convert(item) for item in value]
    return read


def _block(name: str, defaults: dict):
    """A converter for a config block: each field of ``defaults``, in that
    order, read as a number (a whole one where the default is an int) or
    given the default when absent; any other field is refused."""
    from .sequences import config_object, real_number, whole_number

    def read(params):
        config_object(params, f"config block {name!r}", defaults)
        return {k: (whole_number if type(v) is int else real_number)(
            params.get(k, v)) for k, v in defaults.items()}
    return read


def _certificate_kind(kind):
    """``kind`` when ``cmd_analyze`` dispatches it: an unknown kind is
    refused before any work."""
    if kind not in _CERTIFICATES:
        raise InvalidParameterError(f"unknown certificate kind {kind!r}")
    return kind


_BLOCKS = {"rho": {"C": 1.0, "alpha": 1.0},
           "compact_support": {"b": 0.5, "b_prime": 0.75, "k": 1}}
_CERTIFICATES = ("psi", "rho", "sublinear", "compact_support",
                 "hilbert_schmidt")
_CONFIG_FIELDS = ("sequence", "measure", "N", "q_set", "certificates",
                  "m_list", *_BLOCKS)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import spectral
    from .measures import measure_from_config
    from .reporting import write_csv, write_json
    from .sequences import (config_object, real_number, sequence_from_config,
                            whole_number)

    config = config_object(_load_config(args.config), "config", _CONFIG_FIELDS)
    seq = sequence_from_config(_require(config, "sequence"))
    mu = measure_from_config(_require(config, "measure"))
    # a malformed N is refused even when --n overrides it
    n = _field(config, "N", whole_number, len(seq))
    if args.n is not None:
        n = args.n
    problem = spectral.EmbeddingProblem(seq, mu, n)
    q_set = tuple(_field(config, "q_set", _array(real_number), [0.5, 1.0, 2.0]))
    m_list = _field(config, "m_list", _array(whole_number, allow_null=True),
                    None)
    wanted = _field(config, "certificates", _array(_certificate_kind),
                    ["psi", "sublinear"])
    # a block is read (and echoed, defaults included) when given or used
    blocks = {name: _field(config, name, _block(name, defaults), {})
              if config.get(name) is not None or name in wanted else None
              for name, defaults in _BLOCKS.items()}
    # refused here, by the checks the work itself makes, before any work
    if m_list:
        spectral.tail_orders(m_list)
    if blocks["compact_support"] is not None:
        spectral.check_compact_support(**blocks["compact_support"])
    rho = blocks["rho"]
    majorant = None if rho is None else measure_from_config(
        {"kind": "powertail", "C": rho["C"], "alpha": rho["alpha"]})

    started = time.perf_counter()
    report = spectral.analyze(problem, q_set=q_set)

    sub = problem.truncated
    calls = {
        "psi": lambda: spectral.psi_certificate(sub, mu),
        "rho": lambda: spectral.rho_certificate(sub, mu, majorant),
        "sublinear": lambda: spectral.sublinear_embedding_bound(problem),
        "compact_support": lambda: spectral.compact_support_certificate(
            sub, mu, **blocks["compact_support"]),
        "hilbert_schmidt": lambda: spectral.hilbert_schmidt_certificate(
            sub, mu),
    }
    certificates = [calls[kind]() for kind in wanted]
    hypothesis_violated = not all(a.ok for c in certificates
                                  for a in c.assumptions)

    essential = None
    if m_list:
        essential = spectral.essential_norm_trend(sub, mu, n, m_list)

    wall = time.perf_counter() - started
    payload = {
        "tool": {"name": "muntzlab", "version": __version__},
        "config": {"sequence": seq.to_config(), "measure": mu.to_config(),
                   "N": n, "q_set": list(q_set),
                   "certificates": wanted,
                   "m_list": config.get("m_list"), **blocks},
        "spectral": report,
        "modulus": problem.modulus,
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
    from .reporting import write_csv, write_json

    out_dir = args.out or "."
    n_max = args.n_max
    started = time.perf_counter()
    if args.example == 1:
        build = constructions.build_example1(n_max)
        report = constructions.verify_example1(build)
        params = {}
    else:
        if args.q is None or args.r is None:
            raise InvalidParameterError("example 2 requires --q and --r")
        build = constructions.build_example2(args.q, args.r, n_max,
                                             theta=args.theta)
        report = constructions.verify_example2(build)
        params = {"q": args.q, "r": args.r, "theta": build.theta,
                  "alphas": build.alphas}
    rows = build.ledger_rows()
    header = list(rows[0].keys())
    payload = {
        "tool": {"name": "muntzlab", "version": __version__},
        "example": args.example, "n_max": n_max,
        **params,
        "ledger": rows,
        "verification": report,
        "wall_time_seconds": time.perf_counter() - started,
    }
    stem = f"example{args.example}"
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
    from .reporting import write_json

    # a suite of no draws would pass having checked nothing, and numpy's
    # generator takes no negative seed
    for flag, value, low in (("--instances", args.instances, 1),
                             ("--seed", args.seed, 0)):
        if value < low:
            raise InvalidParameterError(
                f"{flag} must be at least {low}, got {value}")
    started = time.perf_counter()
    # only the two randomized suites read --instances and --seed
    seeded = {"inequalities": suites.inequality_suite,
              "interpolation": suites.interpolation_suite}
    if args.suite in seeded:
        result = seeded[args.suite](args.instances, args.seed)
    else:
        result = suites.certificate_suite()
    payload = {
        "tool": {"name": "muntzlab", "version": __version__},
        "suite": result.name,
        "checks": result.checks,
        "violations": result.violations,
        "details": result.details,
        **({"seed": args.seed} if args.suite in seeded else {}),
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


# built once per process; parse_args keeps nothing from one call to the next
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
