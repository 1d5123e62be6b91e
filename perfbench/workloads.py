"""Seeded input families for the dimgroup benchmark.

Each workload turns a seed into a list of instances.  An instance is the
JSON input for ``dimgroup build <kind>`` plus what the benchmark expects of
the output, derived from the input alone: the designed stage values and,
for ECRS, the stage size.  Only the input JSON reaches the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Instances per workload in one pass, and the prefix of them that a traced
# run replays.  One untraced pass takes 10 to 15 s on a 2-core x86 host with
# Python 3.11, so a run of 30 s repeats each instance two or three times.
# ecs-long takes two instances per B: its cost still varies with v.
PASS_SIZE = {"ecs-long": 6, "ers-deep": 3, "ecrs-index": 3}
TRACE_SIZE = {"ecs-long": 3, "ers-deep": 2, "ecrs-index": 2}

# Default instance sizes: stage count n (ecs-long, ers-deep) or index
# lambda (ecrs-index).  Tests pass smaller ones; the code paths are the same.
DEFAULT_SIZE = {"ecs-long": 128, "ers-deep": 6, "ecrs-index": 32}

_ECS_B = ([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[2, 0], [0, 1]])


@dataclass(frozen=True)
class Instance:
    kind: str                       # ecs | ers | ecrs, the build subcommand
    payload: dict                   # the input file, as the program sees it
    stage_values: tuple[int, ...]   # designed p per input stage
    claims: tuple[str, ...]         # claims the verify report must confirm
    stage_size: int | None = None   # required square size of every stage


def _ecs_long(rng: random.Random, n: int, index: int) -> Instance:
    # B cycles rather than being drawn: it sets how fast entries grow, so a
    # pass holds each B equally often whatever the seed.  v keeps
    # 1 <= v_1 + v_2 <= 9.  With B != I a larger v can make the build drop
    # or pair stages (the known ECS grouping defect, see DESIGN.md), halving
    # the stage count this workload exists to hold at n; v = 0, the split
    # extension, verifies about 30 % faster than a typical v.
    b = _ECS_B[index % len(_ECS_B)]
    base = rng.randrange(101, 200)
    v = [0, 0]
    while not 1 <= sum(v) <= 9:
        v = [rng.randrange(10), rng.randrange(10)]
    stages = [{"p": base + 2 * i, "v": v, "B": b} for i in range(n)]
    return Instance("ecs", {"k": 2, "stages": stages},
                    tuple(st["p"] for st in stages), ("ecs",))


def _ers_deep(rng: random.Random, n: int, index: int) -> Instance:
    # The trace row a/7 sets the column-sum range the Perron scan walks
    # (a and 7 - a alike, about 72k, 110k and 152k integers at n = 6), so a
    # pass takes the three classes in turn and the seed picks a or 7 - a.
    a = index % 3 + 1
    if rng.randrange(2):
        a = 7 - a
    stages = [{"p": 25 * 5 ** i, "u": [rng.randrange(1, 25)], "B": [[1]]}
              for i in range(n)]
    payload = {"k": 1, "stages": stages, "trace_row": [[a, 7]]}
    return Instance("ers", payload, tuple(st["p"] for st in stages),
                    ("ers",))


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def _ecrs_index(rng: random.Random, lam: int, index: int,
                k: int = 3) -> Instance:
    while True:
        rho = [rng.randrange(-lam, lam) for _ in range(k)]
        if math.gcd(math.gcd(*rho), lam) == 1:
            break
    x = rng.randrange(50 * lam, 70 * lam)
    x += (1 - x) % lam                  # first value = 1 (mod lambda) >= x
    primes = []
    while len(primes) < 4:
        if _is_prime(x):
            primes.append(x)
        x += lam
    payload = {"k": k, "lambda": lam, "rho": rho, "p_seq": primes}
    return Instance("ecrs", payload, tuple(primes), ("ecs", "ers", "ecrs"),
                    stage_size=lam)


_GENERATORS = {"ecs-long": _ecs_long, "ers-deep": _ers_deep,
               "ecrs-index": _ecrs_index}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, count: int | None = None,
             size: int | None = None) -> list[Instance]:
    """The first ``count`` instances of ``workload`` for ``seed``."""
    gen = _GENERATORS[workload]
    rng = random.Random(f"{workload}/{seed}")
    if count is None:
        count = PASS_SIZE[workload]
    if size is None:
        size = DEFAULT_SIZE[workload]
    return [gen(rng, size, i) for i in range(count)]
