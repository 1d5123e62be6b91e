"""Golden outputs: every case of a small seeded corpus, run through the CLI,
must give the bytes whose sha256 the committed table holds.

A build case hashes its exit code and output file, then the exit code and
report of ``verify`` on that file; a foreign file is verified only; a
failing input hashes its exit code and error payload (class, text and
stage).  The corpus is generated here and reads nothing from the
benchmark.  When a change alters an output on purpose, regenerate the
table with

    PYTHONPATH=src python tests/test_golden.py

and say which cases changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

from dimgroup import cli
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline

TABLE = Path(__file__).with_name("golden_sha256.json")

_ECS_BS = {"I": [[1, 0], [0, 1]], "diag12": [[1, 0], [0, 2]],
           "diag21": [[2, 0], [0, 1]]}


def _ecs_long(rng: random.Random, b: list) -> dict:
    """16 stages of one B, p rising by 2 from a base in [101, 200), one v
    with 1 <= v_1 + v_2 <= 9."""
    base = rng.randrange(101, 200)
    v = [0, 0]
    while not 1 <= sum(v) <= 9:
        v = [rng.randrange(10), rng.randrange(10)]
    return {"k": 2, "stages": [{"p": base + 2 * i, "v": v, "B": b}
                               for i in range(16)]}


def _ers_deep(rng: random.Random) -> dict:
    """k = 1, p_i = 25 * 5^i for 4 stages, trace row a/7."""
    return {"k": 1, "trace_row": [[rng.randrange(1, 7), 7]],
            "stages": [{"p": 25 * 5 ** i, "u": [rng.randrange(1, 25)],
                        "B": [[1]]} for i in range(4)]}


def _ecrs_index(rng: random.Random, k: int = 3, lam: int = 8) -> dict:
    """Four primes = 1 (mod lambda) from about 50 lambda, rho prime to
    lambda."""
    rho = [0] * k
    while math.gcd(math.gcd(*rho), lam) != 1:
        rho = [rng.randrange(-lam, lam) for _ in range(k)]
    x = rng.randrange(50 * lam, 70 * lam)
    x += (1 - x) % lam
    primes = []
    while len(primes) < 4:
        if all(x % d for d in range(2, math.isqrt(x) + 1)):
            primes.append(x)
        x += lam
    return {"k": k, "lambda": lam, "rho": rho, "p_seq": primes}


def _foreign(matrices: list, values: list, claims: dict) -> dict:
    """A realization file written by hand, not by a pipeline."""
    return {"version": "1", "kind": "realization", "properties": claims,
            "stages": [{"matrix": [[str(x) for x in row] for row in m],
                        "p": str(p)} for m, p in zip(matrices, values)],
            "markers": None, "provenance": {}}


def _odd_entries(rng: random.Random, size: int, count: int,
                 bits: int) -> dict:
    """``count`` random size x size stages of odd entries below 2^bits,
    each claiming nothing, with its first column sum as its value."""
    mats = [[[rng.randrange(2 ** bits) | 1 for _ in range(size)]
             for _ in range(size)] for _ in range(count)]
    return _foreign(mats, [sum(r[0] for r in m) for m in mats], {})


def _rank_dropping(rng: random.Random, size: int, count: int) -> dict:
    """Strictly lower-triangular stages with entries in 0..3: each product
    loses rank, so the telescoped kernel ranks fall along the chain."""
    mats = [[[rng.randrange(4) if j < i else 0 for j in range(size)]
             for i in range(size)] for _ in range(count)]
    return _foreign(mats, [1] * count, {})


def _marker_changed(payload: dict) -> dict:
    """The ECRS file built from ``payload`` with the first entry of its
    first marker changed from 1 to 2, so stage 1 breaks the marker chain
    while every stage keeps its sums."""
    realization = ecrs_pipeline(EcrsProblem.from_json(payload)).to_json()
    realization["markers"][0][0] = "2"
    return realization


def corpus() -> dict[str, tuple[str, dict]]:
    """Case name -> (command, input).  The command is ``build <kind>``
    (then ``verify`` on a success) or ``verify`` of a foreign file."""
    rng = random.Random("golden")
    cases = {f"ecs-long-{name}": ("build ecs", _ecs_long(rng, b))
             for name, b in _ECS_BS.items()}
    cases["ecs-merging"] = ("build ecs", {"k": 2, "stages": [
        {"p": 101 + 2 * i, "v": [(3 + i) % 5, 7], "B": [[1, 0], [0, 2]]}
        for i in range(12)]})
    cases["ers-deep"] = ("build ers", _ers_deep(rng))
    cases["ecrs-index"] = ("build ecrs", _ecrs_index(rng))
    cases["ecrs-q6"] = ("build ecrs", {"k": 1, "lambda": 5, "rho": [1],
                                       "p_seq": [151, 191], "q": 6})
    cases["foreign-256-bit"] = ("verify", _odd_entries(rng, 16, 8, 256))
    cases["rank-dropping-chain"] = ("verify", _rank_dropping(rng, 16, 6))
    # 1281 = 1 + 64 * ceil(60 / 3), the positivity threshold at k = 3.
    cases["ecrs-threshold"] = ("build ecrs", {
        "k": 3, "lambda": 64, "rho": [1, 1, 1], "p_seq": [1281, 1281]})
    cases["ers-nonsymmetric-b"] = ("build ers", {
        "k": 2, "trace_row": [[1, 6], [3, 5]],
        "stages": [{"p": 47, "u": [-2, -1], "B": [[1, 1], [0, 1]]},
                   {"p": 63, "u": [-6, 6], "B": [[1, 3], [0, 1]]}]})
    cases["rank-dropping-32"] = ("verify", _rank_dropping(rng, 16, 32))
    # |det B| = 2: every level of the w-sequence doubles its denominator,
    # and one of its exact corrections is a half-integer, a rounding tie.
    cases["ers-det2-six-stages"] = ("build ers", {
        "k": 2, "trace_row": [[1, 3], [2, 5]],
        "stages": [{"p": 20 + 6 * i, "u": [3 + i % 3, -1 - i % 2],
                    "B": [[1, 1], [1, -1]]} for i in range(6)]})
    cases["ers-b3"] = ("build ers", {
        "k": 1, "trace_row": [[2, 7]],
        "stages": [{"p": 9 * 2 ** i + 1, "u": [i - 3], "B": [[3]]}
                   for i in range(4)]})
    cases["fail-ecs-one-stage"] = ("build ecs", {"k": 2, "stages": [
        {"p": 2, "v": [0, 0], "B": [[1, 0], [0, 1]]}]})
    cases["fail-ecs-float-entry"] = ("build ecs", {"k": 1, "stages": [
        {"p": 5, "v": [0], "B": [[1.5]]}]})
    cases["fail-ers-decreasing-p"] = ("build ers", {
        "k": 1, "trace_row": [[1, 3]],
        "stages": [{"p": 125, "u": [5], "B": [[1]]},
                   {"p": 25, "u": [8], "B": [[1]]}]})
    cases["fail-ecrs-lambda-small"] = ("build ecrs", {
        "k": 2, "lambda": 2, "rho": [1, 1], "p_seq": [3, 5]})
    cases["fail-ecrs-q1"] = ("build ecrs", {
        "k": 1, "lambda": 5, "rho": [1], "p_seq": [151, 191], "q": 1})
    cases["fail-ecrs-q64-positivity"] = ("build ecrs", {
        "k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [193, 577, 769],
        "q": 64})
    cases["fail-verify-unequal-sums"] = ("verify", _foreign(
        [[[2, 1], [1, 3]]], [3], {"ecs": True}))
    cases["fail-verify-ecrs-marker"] = ("verify", _marker_changed(
        cases["ecrs-index"][1]))
    return cases


def _run(argv: list[str]) -> str:
    """The exit code and standard output of one CLI call, as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def _digest(text: str | bytes) -> str:
    return hashlib.sha256(
        text.encode() if isinstance(text, str) else text).hexdigest()


def outcomes() -> dict[str, dict[str, str]]:
    """Case name -> {"build": sha256, "verify": sha256}, each present when
    that command ran."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, payload) in corpus().items():
            inp, out = Path(tmp, f"{name}.json"), Path(tmp, f"{name}.out")
            inp.write_text(json.dumps(payload))
            row = {}
            if command == "verify":
                row["verify"] = _digest(_run(["verify", "-i", str(inp)]))
            else:
                result = _run([*command.split(), "-i", str(inp),
                               "-o", str(out)])
                if result.startswith("0\n"):
                    row["build"] = _digest(out.read_bytes())
                    row["verify"] = _digest(_run(["verify", "-i", str(out)]))
                else:
                    row["build"] = _digest(result)
            table[name] = row
    return table


def test_outputs_match_the_golden_table():
    expected = json.loads(TABLE.read_text())
    got = outcomes()
    assert sorted(got) == sorted(expected)
    changed = [f"{name} ({step})" for name in got
               for step in sorted(set(got[name]) | set(expected[name]))
               if got[name].get(step) != expected[name].get(step)]
    assert not changed, f"outputs changed: {', '.join(changed)}"


if __name__ == "__main__":
    TABLE.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")
