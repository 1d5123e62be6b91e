"""Structural re-verification of realization files.

Flags stored in a file are claims; everything here is recomputed from the
matrices alone: sums, primitivity, Perron data, kernel ranks of telescoped
products, the trace value group, the index of the marker subgroup, goodness
of the constant row, and the nearly-split witness.  Every flag requires
every stage to be primitive.

Certificates come first, so a file the library built needs stage 1's
rank factorization (two for ERS files, whose stage 1 is factored again
transposed) and at most one Perron solve per stage, on s - 1 rows, as
its only stage-size eliminations:

- Sums: each stage's row and column sums, and whether it is nonnegative,
  are computed once and cached on its matrix; the stage report, the Perron
  root, the ERS pass, the trace and the nearly-split witness all read them.
  The witness and the marker chain read A 1 and 1 A for an all-ones vector
  off the sums, with no vector product.
- Common kernel: the stages of a built file share a kernel K, on the right
  (ECS and ECRS) or on the left (ERS, whose stages are transposed ECS
  ones).  From stage 1's factorization d A_1 = A_1[:, p] R, each stage is
  checked to kill K, by testing each distinct row of the chain once
  against stage 1's row space, and gives an r x r core
  N_i = R A_i[:, p], the map it induces on Q^s / K.  det(N_n ... N_1)
  nonzero modulo a 61-bit prime, one elimination per chain, proves every
  core nonsingular and so every telescoped product of rank r (see
  _common_kernel_certified).  Failing either check sends the file to the
  walk.
- Perron data: primitivity is tested once per stage, inside
  integer_perron; constant row (column) sums make the all-ones vector the
  right (left) Perron vector.  The other vector spans ker(A - rho I), or
  that of its transpose, one solve on s - 1 rows where the constant sums
  make its rows sum to zero.  Left-hand data is read from the columns: a
  stage is transposed only to solve or certify a left kernel.
- Nearly-split witness: stage kernels are intersected one at a time; a
  primitive stage whose Perron root is its designed value seeds the common
  eigenvector with its verified Perron vector, and each further stage is
  one vector product, on the left or on the right.
- Kernel ranks of the n(n+1)/2 telescoped products, where no common kernel
  certifies them: the starts are walked last first, each carrying a
  content-1 basis of its product's image, one stage product and one
  rank_factorization per end.  A start's image lies in the next start's
  at the same end, so where their ranks agree the images agree for good
  and the start copies the next one's remaining ranks; a chain of
  full-rank stages takes one elimination per start.  The report lists,
  per start, only the ends where the kernel rank changes, so it grows
  with n times the stage size rather than with n squared.
- Trace: the value group is written as a factorization of the product of
  the column sums into pairwise-coprime factors, found by trial division to
  a fixed bound and gcds, so no large number is factored into primes; the
  index of the marker subgroup is the stage size.  The report carries no
  per-level values, which follow from the stages' column sums.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Sequence

from .errors import NotIntegerEigenvalue, NotPrimitive
from .exact import (Matrix, factor_kernel_basis, primitive_part,
                    rank_factorization)
from .perron import PerronData, integer_perron
from .realization import RealizationSeq, json_str, json_strs
from .traces import is_good_row, nearly_split_witness, trace_report
from .ers import verify_ers

# The format of the report; "2" writes telescoped kernel ranks as runs,
# "3" the trace value group as a coprime factorization.
REPORT_VERSION = "3"
# The prime modulo which _common_kernel_certified multiplies a chain's
# cores.
MODULUS = 2**61 - 1


def _stage_report(idx: int, m: Matrix, designed: int
                  ) -> tuple[dict, PerronData | None]:
    """The stage's entry in the report, and its Perron data where it was
    verified primitive with an integer Perron root."""
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
            pd = integer_perron(m)
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


def _common_kernel_certified(mats: Sequence[Matrix], pivots: list[int],
                             reduced: list[Sequence[int]]) -> bool:
    """True iff the s x s stages share K = ker A_1 and have nonsingular
    cores on Q^s / K, so that every telescoped product has rank r.  (p, R)
    is A_1's rank factorization, d A_1 = A_1[:, p] R.

    A_i K = 0 iff d A_i = A_i[:, p] R, checked once per distinct row a of
    the chain, as a z = 0 for the s - r kernel vectors z where they are at
    most r, else as d a = a[p] R, R's rows combined by a[p] and compared
    whole.  Then N_i / d, N_i = R A_i[:, p], is the map A_i induces on the
    quotient, and a product of such stages, in any order, is the first
    one's A[:, p] times the others' N times R, up to a power of d.  With
    every N_i nonsingular it has rank r: at most r through its r columns,
    at least rank N = r.  One elimination decides the chain: the product
    of the den N_i modulo MODULUS, den clearing denominators (x % MODULUS
    is a residue of an int x only), must have r pivots and a final pivot,
    +-det, prime to MODULUS.
    """
    s = mats[0].cols
    d = reduced[0][pivots[0]]
    kernel = (factor_kernel_basis(pivots, reduced, s)
              if s - len(pivots) <= len(pivots) else None)
    distinct = dict.fromkeys(a for m in mats for a in m)
    for a in distinct:
        if kernel is not None:
            leaves = any(sum(map(operator.mul, a, z)) for z in kernel)
        else:
            comb = [0] * s
            for c, row in zip([a[j] for j in pivots], reduced):
                comb = [x + c * y for x, y in zip(comb, row)]
            leaves = comb != [d * x for x in a]
        if leaves:
            return False
    den = math.lcm(*(x.denominator for a in distinct for x in a
                     if type(x) is not int))
    product = [[int(i == j) for j in pivots] for i in pivots]   # by columns
    for m in mats:
        cols = [m.col(j) for j in pivots]
        core = [[sum(map(operator.mul, row, col)) for col in cols]
                for row in reduced]
        product = [[sum(map(operator.mul, row, col)) * den % MODULUS
                    for row in core] for col in product]
    found, echelon = rank_factorization(product)
    return len(found) == len(pivots) and echelon[0][found[0]] % MODULUS != 0


def _telescoped_kernel_ranks(mats: Sequence[Matrix]) -> list[dict]:
    """Right-kernel rank of every contiguous product A_end ... A_start, as
    change points: per start, ``{"from": start, "runs": [[to, kernel_rank],
    ...]}``, where each run holds from its ``to`` up to the next run's
    ``to`` - 1, the last one through the last stage, and the first run's
    ``to`` is ``start``.

    The starts are taken last first.  Each carries a content-1 basis of the
    image of its product, starting from A_start's columns; each step applies
    A_end to it and keeps the vectors at the pivot columns of the
    rank_factorization of the matrix they form.  Since
    P(start, end) = P(start + 1, end) A_start, the image of a start's
    product lies in that of the next start's at the same end, so equal
    ranks mean equal images, which stay equal as the end grows: the walk
    stops there and copies the next start's remaining ranks.  At end =
    start the next start's product is the identity on the level, of rank
    A_start.rows.
    """
    n = len(mats)
    out = []
    later: list[int] = []    # the next start's ranks, from its own stage on
    for start in reversed(range(n)):
        bounds = [mats[start].rows, *later]
        basis = list(zip(*mats[start]))
        ranks = []
        for end in range(start, n):
            if end > start:
                basis = [mats[end].mul_vector(b) for b in basis]
            pivots, _ = rank_factorization(zip(*basis))
            basis = [primitive_part(basis[j]) for j in pivots]
            ranks.append(len(basis))
            if len(basis) == bounds[end - start]:
                ranks += later[end - start:]
                break
        later = ranks
        width = mats[start].cols
        runs = []
        for end, rank in enumerate(ranks, start + 1):
            if not runs or width - rank != runs[-1][1]:
                runs.append([end, width - rank])
        out.append({"from": start + 1, "runs": runs})
    return out[::-1]


class VerificationResult(namedtuple("VerificationResult", "ok report")):
    __slots__ = ()


def structural_report(seq: RealizationSeq) -> VerificationResult:
    mats = seq.matrices
    pivots, reduced = rank_factorization(mats[0])
    s = mats[0].cols
    # A common right kernel certifies the chain; failing that, a common
    # left kernel certifies the transposed chain, which has the same ranks.
    # At r = s there is no kernel to divide out, and the walk takes one
    # elimination per start, what the cores would cost.
    certified = False
    if 0 < len(pivots) < s and all(m.rows == m.cols == s for m in mats):
        certified = _common_kernel_certified(mats, pivots, reduced)
        if not certified:
            transposed = [m.transpose() for m in mats]
            certified = _common_kernel_certified(
                transposed, *rank_factorization(transposed[0]))
    stages, perron = [], []
    for i, (m, p) in enumerate(zip(mats, seq.stage_values)):
        rep, pd = _stage_report(i + 1, m, p)
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

    if certified:
        kernel = [{"from": i, "runs": [[i, s - len(pivots)]]}
                  for i in range(1, len(mats) + 1)]
    else:
        kernel = _telescoped_kernel_ranks(mats)
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
