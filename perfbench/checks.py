"""Output checks that trust neither the CLI nor the package.

Files are read with the json module and every fact is recomputed here with
plain integers, against values derived from the benchmark's own inputs.
"""

from __future__ import annotations

import json
import math

from workloads import Instance


def _expected_values(inst: Instance, blob: dict) -> list[int]:
    """Designed stage values of the output, from the input values.

    ECS builds may telescope: the output stage values are then products of
    consecutive input values over the groups named by ``cuts``, which must
    be strictly increasing 0-based starts inside the input."""
    values = list(inst.stage_values)
    if inst.kind != "ecs":
        return values
    cuts = blob.get("provenance", {}).get("cuts")
    n = len(values)
    if (not isinstance(cuts, list) or not cuts
            or not all(isinstance(c, int) for c in cuts)
            or cuts[0] < 0 or cuts[-1] >= n
            or any(b <= a for a, b in zip(cuts, cuts[1:]))):
        raise ValueError(f"bad telescoping cuts {cuts!r}")
    bounds = cuts + [n]
    return [math.prod(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def check_realization(inst: Instance, path: str) -> tuple[list[str], int]:
    """Problems found in the built file, and the largest entry bit-length."""
    with open(path) as fh:
        blob = json.load(fh)
    problems = []
    try:
        mats = [[[int(x) for x in row] for row in st["matrix"]]
                for st in blob["stages"]]
        values = [int(st["p"]) for st in blob["stages"]]
        expected = _expected_values(inst, blob)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc}"], 0
    if values != expected:
        problems.append(f"stage values {values} != designed {expected}")
    bits = 0
    for idx, (m, p) in enumerate(zip(mats, expected), start=1):
        rows, cols = len(m), len(m[0]) if m else 0
        if rows == 0 or any(len(r) != cols for r in m):
            problems.append(f"stage {idx}: ragged or empty matrix")
            continue
        entries = [x for r in m for x in r]
        bits = max(bits, max(abs(x).bit_length() for x in entries))
        if min(entries) < 0:
            problems.append(f"stage {idx}: negative entry")
        if inst.stage_size is not None and (rows, cols) != (
                inst.stage_size, inst.stage_size):
            problems.append(f"stage {idx}: size {rows}x{cols}, "
                            f"want {inst.stage_size}")
        if inst.kind in ("ecs", "ecrs") and any(
                sum(r[j] for r in m) != p for j in range(cols)):
            problems.append(f"stage {idx}: a column sum is not {p}")
        if inst.kind in ("ers", "ecrs") and any(sum(r) != p for r in m):
            problems.append(f"stage {idx}: a row sum is not {p}")
    if inst.kind in ("ers", "ecrs"):
        problems += _marker_problems(mats, expected, blob.get("markers"))
    return problems, bits


def _marker_problems(mats, values, markers) -> list[str]:
    """The all-ones marker chain: every level marker is all ones and each
    stage maps its marker to p times the next one."""
    if not isinstance(markers, list) or len(markers) != len(mats) + 1:
        return ["marker chain missing or of the wrong length"]
    try:
        markers = [[int(x) for x in h] for h in markers]
    except (TypeError, ValueError):
        return ["malformed markers"]
    if any(x != 1 for h in markers for x in h):
        return ["markers are not all ones"]
    for idx, (m, p, h, h_next) in enumerate(
            zip(mats, values, markers, markers[1:]), start=1):
        image = [sum(a * x for a, x in zip(r, h)) for r in m]
        if len(h) != len(m[0]) or image != [p * x for x in h_next]:
            return [f"stage {idx}: marker chain broken"]
    return []


def check_report(inst: Instance, stdout: str) -> list[str]:
    """The verify report must say ok and confirm every claim it checked,
    including each claim this workload's pipeline makes."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["verify printed no JSON report"]
    problems = []
    if report.get("ok") is not True:
        problems.append("verify report is not ok")
    checks = report.get("claim_checks")
    if not isinstance(checks, dict):
        return problems + ["verify report has no claim_checks"]
    if not all(v is True for v in checks.values()):
        problems.append(f"claim checks failed: {checks}")
    missing = [c for c in inst.claims if c not in checks]
    if missing:
        problems.append(f"claims not checked: {missing}")
    return problems
