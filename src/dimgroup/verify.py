"""Structural re-verification of realization files.

Flags stored in a file are claims; everything here is recomputed from the
matrices alone: sums, primitivity, Perron data, kernel ranks of telescoped
products, the trace value group, the index of the marker subgroup, goodness
of the constant row, and the nearly-split witness.  Every flag requires
every stage to be primitive.

Certificates come first, so a file the library built needs one stage-size
elimination in all, stage 1's rank factorization (two for ERS files, whose
stage 1 is factored again transposed):

- Sums: each stage's row and column sums are computed once and cached on
  its matrix; the stage report, the Perron root, the ERS pass, the trace
  and the nearly-split witness all read the same tuples.
- Common kernel: the stages of a built file share a kernel K, on the right
  (ECS and ECRS) or on the left (ERS, whose stages are transposed ECS
  ones).  From stage 1's factorization d A_1 = A_1[:, p] R, each stage is
  checked to kill K, on its distinct rows, and gives an r x r core
  N_i = R A_i[:, p], the map it induces on Q^s / K.  Every N_i of full
  rank r, by the pivot count of its rank factorization, proves every
  telescoped product has rank r (see _quotient_kernels).  A stage failing
  either check sends the file down the scan below.
- Perron data: primitivity is tested once per stage, inside
  integer_perron; constant row (column) sums make the all-ones vector the
  right (left) Perron vector.  On a certified file the other vector, on
  the side of the common kernel, is A_i[:, p] y for y spanning
  ker(N_i - d rho I), an r x r solve; only the remaining cases solve an
  s x s kernel.  Left-hand data is read from the columns, so no stage is
  transposed unless a left kernel must be solved or certified.
- Nearly-split witness: stage kernels are intersected one at a time; a
  primitive stage whose Perron root is its designed value seeds the common
  eigenvector with its verified Perron vector, and each further stage is
  one vector product, on the left or on the right.
- Kernel ranks of the n(n+1)/2 telescoped products, where no common kernel
  certifies them: each stage is factored once as A = C R, so each rank is
  that of a product of small cores R_{i+1} C_i.  The factorization
  eliminates only a stage's distinct nonzero rows.  The stage ranks bound
  it from above and the rank modulo a prime of each core suffix from
  below.  One whole-chain rank modulo the prime bounds every suffix from
  below, so a start's own suffix is eliminated only where that bound is
  below its stage rank; only where the two bounds differ is the core
  product built and eliminated exactly.  The report lists, per start, only
  the ends where the kernel rank changes, so it grows with n times the
  stage size rather than with n squared.
- Trace: the value group is written as a factorization of the product of
  the column sums into pairwise-coprime factors, found by trial division to
  a fixed bound and gcds, so no large number is factored into primes; the
  index of the marker subgroup is the stage size.  The report carries no
  per-level values, which follow from the stages' column sums.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from typing import Sequence

from .errors import NotIntegerEigenvalue, NotPrimitive
from .exact import (Matrix, factor_kernel_basis, primitive_part,
                    rank_factorization)
from .perron import KernelSolver, PerronData, integer_perron
from .realization import RealizationSeq, json_str, json_strs
from .traces import is_good_row, nearly_split_witness, trace_report
from .ers import verify_ers

# The format of the report; "2" writes telescoped kernel ranks as runs,
# "3" the trace value group as a coprime factorization.
REPORT_VERSION = "3"


def _stage_report(idx: int, m: Matrix, designed: int,
                  right_kernel: KernelSolver | None = None,
                  left_kernel: KernelSolver | None = None
                  ) -> tuple[dict, PerronData | None]:
    """The stage's entry in the report, and its Perron data where it was
    verified primitive with an integer Perron root.  The kernel solvers
    are passed on to integer_perron."""
    cols = m.column_sums()
    rows = m.row_sums()
    rep = {
        "index": idx,
        "size": [m.rows, m.cols],
        "nonnegative": m.is_nonnegative(),
        "column_sums": json_strs(cols),
        "row_sums": json_strs(rows),
        "columns_equal": len(set(cols)) == 1,
        "rows_equal": len(set(rows)) == 1,
        "designed_value": json_str(designed),
        "primitive": None,
        "perron": None,
    }
    pd = None
    if m.is_square and m.is_nonnegative():
        try:
            pd = integer_perron(m, right_kernel, left_kernel)
        except NotPrimitive:
            rep["primitive"] = False
        except NotIntegerEigenvalue as exc:
            rep["primitive"] = True
            rep["perron"] = {"error": str(exc)}
        else:
            rep["primitive"] = True
            rep["perron"] = {"value": json_str(pd.eigenvalue),
                             "left": json_strs(pd.left),
                             "right": json_strs(pd.right)}
    return rep, pd


def _quotient_kernels(mats: Sequence[Matrix], pivots: list[int],
                      reduced: list[Sequence[int]]
                      ) -> list[KernelSolver] | None:
    """Per stage, a solver of ker(A_i - root I) for integer_perron, if the
    s x s stages share K = ker A_1 and have nonsingular cores on Q^s / K;
    else None.  (p, R) is A_1's rank factorization, d A_1 = A_1[:, p] R.

    A_i K = 0 iff d A_i = A_i[:, p] R, checked on A_i's distinct rows a as
    a z = 0 for the s - r kernel vectors z where they are at most r, else
    as d a = a[p] R.  Then N_i / d, N_i = R A_i[:, p], is the map A_i
    induces on the quotient, and a product of such stages, in any order, is
    the first one's A[:, p] times the others' N times R, up to a power of
    d.  With every N_i of full rank r it has rank r: at most r through its
    r columns, at least rank N = r.  For root != 0, x -> R x maps
    ker(A_i - root I) one to one onto ker(N_i - d root I), and
    y -> A_i[:, p] y maps it back, so each solve is r x r, not s x s.
    """
    s = mats[0].cols
    d = reduced[0][pivots[0]]
    kernel = (factor_kernel_basis(pivots, reduced, s)
              if s - len(pivots) <= len(pivots) else None)
    reduced_cols = list(zip(*reduced))
    solvers = []
    for m in mats:
        for a in dict.fromkeys(m):
            if kernel is not None:
                leaves = any(sum(map(operator.mul, a, z)) for z in kernel)
            else:
                u = [a[j] for j in pivots]
                leaves = any(d * x != sum(map(operator.mul, u, col))
                             for x, col in zip(a, reduced_cols))
            if leaves:
                return None
        cols = [m.col(j) for j in pivots]
        core = [tuple([sum(map(operator.mul, row, col)) for col in cols])
                for row in reduced]
        if len(rank_factorization(core)[0]) < len(core):
            return None
        solvers.append(functools.partial(_core_kernel, cols, core, d))
    return solvers


def _core_kernel(cols: list[tuple], core: list[tuple[int, ...]], d: int,
                 root: int) -> list[tuple[int, ...]]:
    """ker(A - root I) as A[:, p] ker(N - d root I), for the columns
    A[:, p] and core rows N of a certified stage; see _quotient_kernels."""
    shifted = [(*row[:i], row[i] - d * root, *row[i + 1:])
               for i, row in enumerate(core)]
    return [primitive_part([sum(map(operator.mul, row, y))
                            for row in zip(*cols)])
            for y in factor_kernel_basis(*rank_factorization(shifted),
                                         len(core))]


# A nonzero minor modulo this prime is a nonzero minor over the integers, so
# a rank modulo it never exceeds the rank over the rationals.
_PRIME = 2**61 - 1


def _rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over GF(_PRIME) of integer rows, by elimination in place."""
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, _PRIME)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % _PRIME
            if f:
                rows[i] = [(x - f * y) % _PRIME for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _telescoped_kernel_ranks(seq: RealizationSeq,
                             first: tuple[list[int], list]) -> list[dict]:
    """Right-kernel rank of every contiguous product A_end ... A_start, as
    change points: per start, ``{"from": start, "runs": [[to, kernel_rank],
    ...]}``, where each run holds from its ``to`` up to the next run's
    ``to`` - 1, the last one through the last stage, and the first run's
    ``to`` is ``start``.  ``first`` is stage 1's rank factorization.

    Each stage is factored once as A_i = C_i R_i (up to a nonzero scalar),
    C_i its pivot columns and R_i of full row rank, so A_end ... A_start has
    the rank of the product of the small cores R_{i+1} C_i between them.
    That rank is certified between two bounds.  From above: the ranks of its
    stages, and of any shorter product from the same start.  From below: the
    rank modulo a prime of the whole core suffix from that start, a left
    multiple of every such product.  Where the bounds differ the core
    product is built and eliminated exactly.  As end grows the rank never
    rises and never falls below the lower bound, so once it meets that bound
    it holds through the last stage and the scan of that start stops.
    """
    mats = seq.matrices
    n = len(mats)
    factors = [first] + [rank_factorization(m) for m in mats[1:]]
    ranks = [len(pivots) for pivots, _ in factors]
    cores = []
    for m, (pivots, _), (_, r_next) in zip(mats, factors, factors[1:]):
        cols = [m.col(j) for j in pivots]
        cores.append([[sum(x * y for x, y in zip(row, col)) for col in cols]
                      for row in r_next])

    # S(start) = core_{n-2} ... core_start modulo _PRIME, built right to left
    # down to the first zero one; every longer suffix is zero as well.
    suffixes = [None] * n
    suffix = [[int(i == j) for j in range(ranks[-1])]
              for i in range(ranks[-1])]
    for start in reversed(range(n)):
        if start < n - 1:
            # A nonzero multiple of a core clears its denominators and keeps
            # the rank of every product through it.
            core = cores[start]
            den = math.lcm(*(x.denominator for row in core for x in row))
            core = [[int(x * den) % _PRIME for x in row] for row in core]
            suffix = [[sum(x * y for x, y in zip(row, col)) % _PRIME
                       for col in zip(*core)] for row in suffix]
        suffixes[start] = suffix
        if not any(map(any, suffix)):
            break
    # S(start - 1) = S(start) core_{start - 1}, so the rank of S(start) never
    # falls as start grows: the whole chain's rank bounds every start from
    # below, and settles each start whose stage rank it reaches.
    whole = _rank_mod_prime(list(suffixes[0])) if suffixes[0] else 0
    lower = [whole if suffix is None or whole == rank
             else _rank_mod_prime(list(suffix))
             for rank, suffix in zip(ranks, suffixes)]

    out = []
    for start in range(n):
        width = mats[start].cols
        rank = ranks[start]
        runs = [[start + 1, width - rank]]
        prod = None
        for end in range(start + 1, n):
            if rank == lower[start]:
                break
            rank = min(rank, ranks[end])
            if rank > lower[start]:
                core = Matrix.from_rows(cores[end - 1])
                prod = core if prod is None else core * prod
                rank = prod.rank()
            if width - rank != runs[-1][1]:
                runs.append([end + 1, width - rank])
        out.append({"from": start + 1, "runs": runs})
    return out


class VerificationResult(namedtuple("VerificationResult", "ok report")):
    __slots__ = ()


def structural_report(seq: RealizationSeq) -> VerificationResult:
    mats = seq.matrices
    pivots, reduced = rank_factorization(mats[0])
    s = mats[0].cols
    # A common right kernel certifies the chain; failing that, a common
    # left kernel certifies the transposed chain, which has the same ranks.
    # At r = s there is no kernel to divide out, and the cores would cost
    # what the scan's own factorizations cost.
    right = left = None
    if 0 < len(pivots) < s and all(m.rows == m.cols == s for m in mats):
        right = _quotient_kernels(mats, pivots, reduced)
        if right is None:
            transposed = [m.transpose() for m in mats]
            left = _quotient_kernels(transposed,
                                     *rank_factorization(transposed[0]))
    stages, perron = [], []
    for i, (m, p) in enumerate(zip(mats, seq.stage_values)):
        rep, pd = _stage_report(i + 1, m, p, right and right[i],
                                left and left[i])
        stages.append(rep)
        perron.append(pd)
    failures: list[dict] = []

    for st in stages:
        if not st["nonnegative"]:
            failures.append({"stage": st["index"], "check": "nonnegative"})

    # The first stage that breaks each flag.  Simple dimension groups need
    # primitive (hence nonnegative) stages, so every flag does.
    def first(breaks) -> int | None:
        return next((st["index"] for st, bad in zip(stages, breaks) if bad),
                    None)

    ers_report = verify_ers(seq)
    ecs_at = first(st["primitive"] is not True or not st["columns_equal"]
                   or st["column_sums"][0] != st["designed_value"]
                   for st in stages)
    ers_at = first(st["primitive"] is not True or value != designed
                   for st, value, designed in zip(
                       stages, ers_report.stage_values, seq.stage_values))
    culprit = {"ecs": ecs_at, "ers": ers_at,
               "ecrs": ers_at if ecs_at is None else ecs_at}
    derived = {"ecs": ecs_at is None, "ers": ers_at is None and ers_report.ok}
    derived["ecrs"] = derived["ecs"] and derived["ers"]
    claim_checks = {flag: derived.get(flag, False)
                    for flag, claimed in seq.properties.items() if claimed}
    failures += [{"stage": culprit.get(flag), "check": flag}
                 for flag, verified in claim_checks.items() if not verified]

    if right is None and left is None:
        kernel = _telescoped_kernel_ranks(seq, (pivots, reduced))
    else:
        kernel = [{"from": i, "runs": [[i, s - len(pivots)]]}
                  for i in range(1, len(mats) + 1)]
    trace = None
    if derived["ecs"]:
        trace = trace_report(seq).to_json()
    sizes = seq.level_sizes()
    goodness = None
    if len(set(sizes)) == 1:
        goodness = is_good_row(tuple([1] * sizes[0]))
    witness = nearly_split_witness(seq, perron).to_json()

    report = {
        "report_version": REPORT_VERSION,
        "claims": {k: bool(v) for k, v in seq.properties.items()},
        "claim_checks": claim_checks,
        "derived": derived,
        "stages": stages,
        "telescoped_kernel_ranks": kernel,
        "trace": trace,
        "constant_row_good": goodness,
        "nearly_split": witness,
        "marker_chain_ok": ers_report.marker_chain_ok,
        "failures": failures,
        "ok": not failures,
    }
    return VerificationResult(not failures, report)
