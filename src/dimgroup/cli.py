"""Command-line front end.

    dimgroup build {ecs|ers|ecrs} -i in.json -o out.json
                   [--epsilon N/D] [--horizon N] [--strict-bounds]
    dimgroup verify -i out.json
    dimgroup decide --rank R --group g.json --lambda L
    dimgroup telescope -i in.json --cuts 1,3,7 -o out.json

Exit codes: 0 ok, 2 schema error, 3 construction infeasible (including a
pipeline's own InvariantViolated), 4 verification failure, 5 I/O error.
Set DIMGROUP_LOG=DEBUG|INFO|... for logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from . import errors
from .ecrs import EcrsProblem, ecrs_pipeline
from .ecs import DEFAULT_EPSILON, ExtensionData, ecs_pipeline
from .ers import ErsStageData, ers_pipeline
from .realization import RealizationSeq
from .supernatural import INFINITE, SupernaturalNumber, decide_ecrs
from .verify import structural_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFY = 4
EXIT_IO = 5

log = logging.getLogger("dimgroup")


def _setup_logging() -> None:
    level = os.environ.get("DIMGROUP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _error_payload(exc: Exception) -> dict:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    stage = getattr(exc, "stage", None)
    if stage is not None:
        payload["stage"] = stage
    return payload


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.SchemaError(f"not valid JSON: {exc}") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise errors.SchemaError(f"not a rational: {text!r}") from None


def cmd_build(args: argparse.Namespace) -> int:
    try:
        raw = _load_json(args.input)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    except errors.SchemaError as exc:
        _emit(_error_payload(exc))
        return EXIT_SCHEMA

    try:
        if args.kind == "ecs":
            data = ExtensionData.from_json(raw)
            seq = ecs_pipeline(data, _parse_fraction(args.epsilon)
                               if args.epsilon else DEFAULT_EPSILON)
        elif args.kind == "ers":
            data = ErsStageData.from_json(raw)
            horizon = args.horizon if args.horizon else len(data.stages)
            seq = ers_pipeline(data, horizon, strict=args.strict_bounds)
        else:
            prob = EcrsProblem.from_json(raw)
            seq = ecrs_pipeline(prob)
    except errors.SchemaError as exc:
        _emit(_error_payload(exc))
        return EXIT_SCHEMA
    except errors.DimgroupError as exc:
        _emit(_error_payload(exc))
        return EXIT_CONSTRUCTION

    try:
        seq.save(args.output)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    _emit({"ok": True, "output": args.output,
           "stages": len(seq), "properties": seq.properties})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        seq = RealizationSeq.load(args.input)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    except errors.SchemaError as exc:
        _emit(_error_payload(exc))
        return EXIT_SCHEMA
    try:
        result = structural_report(seq)
    except errors.DimgroupError as exc:
        _emit(_error_payload(exc))
        return EXIT_VERIFY
    _emit(result.report)
    return EXIT_OK if result.ok else EXIT_VERIFY


def _parse_count_or_inf(text: str):
    if text.strip().lower() in ("inf", "infinite", "oo"):
        return INFINITE
    try:
        return int(text)
    except ValueError:
        raise errors.SchemaError(f"not a count: {text!r}") from None


def cmd_decide(args: argparse.Namespace) -> int:
    try:
        group = SupernaturalNumber.from_json(_load_json(args.group))
        rank = _parse_count_or_inf(args.rank)
        lam = _parse_count_or_inf(args.lam)
        decision = decide_ecrs(rank, group, lam)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    except (errors.SchemaError, ValueError) as exc:
        _emit(_error_payload(exc))
        return EXIT_SCHEMA
    _emit(decision.to_json())
    return EXIT_OK


def cmd_telescope(args: argparse.Namespace) -> int:
    try:
        seq = RealizationSeq.load(args.input)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    except errors.SchemaError as exc:
        _emit(_error_payload(exc))
        return EXIT_SCHEMA
    try:
        cuts = [int(c) - 1 for c in args.cuts.split(",") if c.strip()]
        composed = seq.telescope(cuts)
    except ValueError:
        _emit({"error": "SchemaError", "message": f"bad cuts {args.cuts!r}"})
        return EXIT_SCHEMA
    except errors.BadCutPoints as exc:
        _emit(_error_payload(exc))
        return EXIT_CONSTRUCTION

    try:
        result = structural_report(composed)
    except errors.DimgroupError as exc:
        _emit(_error_payload(exc))
        return EXIT_VERIFY
    lost = [flag for flag, claimed in composed.properties.items()
            if claimed and not result.report["derived"].get(flag, False)]
    kept = {flag: (claimed and result.report["derived"].get(flag, False))
            for flag, claimed in composed.properties.items()}
    out_seq = RealizationSeq(composed.matrices, composed.stage_values,
                             composed.markers, kept, composed.provenance)
    try:
        out_seq.save(args.output)
    except OSError as exc:
        _emit(_error_payload(exc))
        return EXIT_IO
    _emit({"ok": True, "output": args.output, "stages": len(out_seq),
           "properties": kept, "lost_flags": lost})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimgroup",
        description="Build and verify equal-sum dimension group realizations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run a construction pipeline")
    p_build.add_argument("kind", choices=["ecs", "ers", "ecrs"])
    p_build.add_argument("-i", "--input", required=True)
    p_build.add_argument("-o", "--output", required=True)
    p_build.add_argument("--epsilon", default=None, metavar="N/D",
                         help="convergence threshold for the ecs pipeline")
    p_build.add_argument("--horizon", type=int, default=None,
                         help="stage horizon for the ers pipeline")
    p_build.add_argument("--strict-bounds", action="store_true",
                         help="enforce the sharper per-stage norm bounds")
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


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
