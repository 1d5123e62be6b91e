"""Command-line front end.

    dimgroup build {ecs|ecrs} -i in.json -o out.json
    dimgroup build ers -i in.json -o out.json [--strict-bounds]
    dimgroup verify -i out.json
    dimgroup decide --rank R --group g.json --lambda L
    dimgroup telescope -i in.json --cuts 1,3,7 -o out.json

``build ers`` builds every input stage; to build a prefix, give the prefix.
``decide`` reads --rank and --lambda as a positive integer in ASCII
decimal digits or "inf" (any case), and ``telescope`` each cut as such an
integer; blanks around a value are stripped.

Exit codes: 0 ok, 2 schema error, 3 construction infeasible (including a
pipeline's own InvariantViolated), 4 verification failure, 5 I/O error.
Malformed input is exit 2 wherever it is found, even a non-UTF-8 file or
over-deep JSON; every failure after argument parsing prints one JSON object.
Set DIMGROUP_LOG=DEBUG|INFO|... for logging.

``main(argv)`` may be called repeatedly in one process: it builds its parser
once, on the first call, and reads DIMGROUP_LOG on every call.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from . import errors
from .ecrs import EcrsProblem, ecrs_pipeline
from .ecs import ExtensionData, ecs_pipeline
from .ers import ErsStageData, ers_pipeline
from .realization import RealizationSeq, dump_json, json_int, load_json
from .supernatural import INFINITE, SupernaturalNumber, decide_ecrs
from .verify import structural_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFY = 4
EXIT_IO = 5


def _setup_logging() -> None:
    # basicConfig adds the stderr handler only to a root logger that has
    # none, so it is added once and a caller's own handlers are kept.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    name = os.environ.get("DIMGROUP_LOG")
    if name:
        level = logging.getLevelName(name.upper())
        logging.getLogger("dimgroup").setLevel(
            level if isinstance(level, int) else logging.WARNING)


def _emit(obj: dict) -> None:
    dump_json(obj, sys.stdout)


def _error_payload(exc: Exception) -> dict:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    stage = getattr(exc, "stage", None)
    if stage is not None:
        payload["stage"] = stage
    return payload


def cmd_build(args: argparse.Namespace) -> int:
    if args.strict_bounds and args.kind != "ers":
        raise errors.SchemaError("--strict-bounds applies to build ers only")
    raw = load_json(args.input)
    if args.kind == "ecs":
        seq = ecs_pipeline(ExtensionData.from_json(raw))
    elif args.kind == "ers":
        seq = ers_pipeline(ErsStageData.from_json(raw),
                           strict=args.strict_bounds)
    else:
        seq = ecrs_pipeline(EcrsProblem.from_json(raw))
    seq.save(args.output)
    _emit({"ok": True, "output": args.output,
           "stages": len(seq), "properties": seq.properties})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    result = structural_report(RealizationSeq.load(args.input))
    _emit(result.report)
    return EXIT_OK if result.ok else EXIT_VERIFY


def _parse_count_or_inf(text: str):
    if text.strip().lower() == "inf":
        return INFINITE
    try:
        count = json_int(text.strip())
        if count >= 1:
            return count
    except (errors.SchemaError, ValueError):    # ValueError: too many digits
        pass
    raise errors.SchemaError(f"not a positive count: {text!r}")


def cmd_decide(args: argparse.Namespace) -> int:
    group = SupernaturalNumber.from_json(load_json(args.group))
    decision = decide_ecrs(_parse_count_or_inf(args.rank), group,
                           _parse_count_or_inf(args.lam))
    _emit(decision.to_json())
    return EXIT_OK


def cmd_telescope(args: argparse.Namespace) -> int:
    seq = RealizationSeq.load(args.input)
    try:
        cuts = [json_int(c.strip()) - 1 for c in args.cuts.split(",")
                if c.strip()]
    except (errors.SchemaError, ValueError):
        raise errors.SchemaError(f"bad cuts {args.cuts!r}") from None
    composed = seq.telescope(cuts)
    derived = structural_report(composed).report["derived"]
    kept = {flag: claimed and derived.get(flag, False)
            for flag, claimed in composed.properties.items()}
    lost = [flag for flag, claimed in composed.properties.items()
            if claimed and not kept[flag]]
    RealizationSeq(composed.matrices, composed.stage_values, composed.markers,
                   kept, composed.provenance).save(args.output)
    _emit({"ok": True, "output": args.output, "stages": len(composed),
           "properties": kept, "lost_flags": lost})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimgroup",
        description="Build and verify equal-sum dimension group realizations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run a construction pipeline")
    p_build.add_argument("kind", choices=["ecs", "ers", "ecrs"])
    p_build.add_argument("-i", "--input", required=True)
    p_build.add_argument("-o", "--output", required=True)
    p_build.add_argument("--strict-bounds", action="store_true",
                         help="build ers only: enforce the sharper per-stage "
                         "norm bounds")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-derive every claimed flag")
    p_verify.add_argument("-i", "--input", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_decide = sub.add_parser("decide", help="ECRS existence dichotomy")
    p_decide.add_argument("--rank", required=True,
                          help="rank of G (integer or 'inf')")
    p_decide.add_argument("--group", required=True,
                          help="path to the supernatural number JSON")
    p_decide.add_argument("--lambda", dest="lam", required=True,
                          help="|tau(G)/tau(H)| (integer or 'inf')")
    p_decide.set_defaults(func=cmd_decide)

    p_tel = sub.add_parser("telescope", help="compose consecutive stages")
    p_tel.add_argument("-i", "--input", required=True)
    p_tel.add_argument("--cuts", required=True,
                       help="comma-separated 1-based group starts, e.g. 1,3,7")
    p_tel.add_argument("-o", "--output", required=True)
    p_tel.set_defaults(func=cmd_telescope)
    return parser


# The first matching class gives the exit code.  Any other library error
# is a failed construction under ``build`` and a failed verification under
# ``verify`` and ``telescope``.
_EXIT_CODES = ((OSError, EXIT_IO), (errors.SchemaError, EXIT_SCHEMA),
               (errors.BadCutPoints, EXIT_CONSTRUCTION))


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, errors.DimgroupError) as exc:
        _emit(_error_payload(exc))
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                return code
        return EXIT_CONSTRUCTION if args.command == "build" else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
