"""Construction of equal-row-sum realizations by transposing the bordered
ECS machinery, plus the canonical upper-triangular form utilities: lattice
rounding and the w-sequence matching a target trace row.  The stages are
ecs.Stage records, read and checked as ECS stages, their vector v standing
for the row u of [[p, u], [0, B]].  The built stages come from
ecs.bordered_stages, which reads each back with ecs.b_extract."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InvariantViolated, RegimeViolation
from .exact import (Matrix, colsum_norm, sup_norm, vec_add, vec_scale, vec_sub)
from .ecs import ExtensionData, Stage, bordered_stages, read_stages
from .realization import (RealizationSeq, json_int, json_list, json_str,
                          parsing)


class ErsStageData(namedtuple("ErsStageData", "k stages trace_row")):
    """Canonical upper-triangular presentation: Stages (p, u, B) plus the
    target trace row (1, rho) with rho exact rationals, stored as a tuple
    of Fractions, with ExtensionData's checks on k and the stages; the JSON
    stages are read by read_stages, vector under "u".  The canonical form
    is the input format; no abstract-group bootstrapping is attempted."""

    __slots__ = ()

    def __new__(cls, k: int, stages: tuple[Stage, ...],
                trace_row: tuple[Fraction, ...]):    # rho^1, length k
        ExtensionData(k, stages)
        if len(trace_row) != k:
            raise DimensionMismatch("trace row length != k")
        return super().__new__(cls, k, stages,
                               tuple(Fraction(x) for x in trace_row))

    @classmethod
    def from_json(cls, obj: dict) -> "ErsStageData":
        with parsing("ERS stage data"):
            k = json_int(obj["k"])
            stages = read_stages(obj["stages"], "u")
            rho = tuple(Fraction(json_int(n), json_int(d))
                        for n, d in map(json_list, json_list(obj["trace_row"])))
            return cls(k, stages, rho)


# -- verification ---------------------------------------------------------------


class ErsVerifyReport(namedtuple("ErsVerifyReport",
                                  "ok stage_values marker_chain_ok")):
    """stage_values holds, per stage, its row sum when constant, else None."""

    __slots__ = ()


def verify_ers(seq: RealizationSeq) -> ErsVerifyReport:
    """Recompute the ERS facts from the matrices alone: nonnegativity,
    constant row sums per stage, the marker chain, and (finite proxy for the
    tail condition) at least one stage value above 1."""
    values = []
    for m in seq.matrices:
        sums = m.row_sums()
        values.append(sums[0] if len(set(sums)) == 1 else None)
    marker_ok = seq.marker_chain_ok()
    ok = (all(m.is_nonnegative() for m in seq.matrices)
          and None not in values and marker_ok
          and any(p > 1 for p in values))
    return ErsVerifyReport(ok, tuple(values), marker_ok)


# -- lattice rounding and the w-sequence -------------------------------------------


def nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0, ties rounded toward zero
    (fixed for determinism)."""
    floor, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and num < 0):
        return floor + 1
    return floor


def _check_regime(data: ErsStageData, strict: bool) -> None:
    s = data.k + 1
    prev_p = 1
    for idx, st in enumerate(data.stages, start=1):
        if st.p < prev_p:
            raise RegimeViolation("stage values must be nondecreasing", stage=idx)
        prev_p = st.p
        norm_b = colsum_norm(st.b)
        if norm_b * norm_b > st.p:
            raise RegimeViolation(
                f"||B||^2 = {norm_b * norm_b} exceeds p = {st.p}", stage=idx)
        if sup_norm(st.v) >= st.p:
            raise RegimeViolation(
                f"||u|| = {sup_norm(st.v)} not below p = {st.p}", stage=idx)
        if strict:
            if norm_b ** (8 * s) * math.factorial(s) ** 16 > st.p:
                raise RegimeViolation(
                    "strict bound ||B|| <= p^(1/8s)/(s!)^(2/s) fails", stage=idx)
            if sup_norm(st.v) ** 4 > st.p:
                raise RegimeViolation(
                    "strict bound ||u|| <= p^(1/4) fails", stage=idx)


class WSequence(namedtuple("WSequence", "ys ws error_bound")):
    """ys: y_1 .. y_{N+1}; ws: w^1 .. w^N; |S_N - rho|_inf <= error_bound."""

    __slots__ = ()


def partial_sum(ws: Sequence[Sequence[int]],
                stages: Sequence[Stage]) -> tuple[Fraction, ...]:
    """S_N = w^1/p_2 + w^2 B_1/(p_3 p_2) + ... for the given stages, summed
    by Horner from the last stage in integers over the one denominator
    q = p_2 ... p_{N+1}: num <- w^n q + num B_n, q <- q p_{n+1}, then
    num / q once.  Only rows meet the Bs, so no matrix product is formed."""
    num = tuple([0] * len(ws[0]))
    q = 1
    for w, st in reversed(list(zip(ws, stages))):
        num = vec_add(vec_scale(q, w), st.b.vector_mul(num))
        q *= st.p
    return tuple(Fraction(x, q) for x in num)


def build_w_sequence(data: ErsStageData, strict: bool = False) -> WSequence:
    """Integer rows w^i and correction rows y_i, one w per stage of data,
    with exact commuting squares [[1, y_{n+1}], [0, I]] M_n(z) = M_n(w)
    [[1, y_n], [0, I]] such that the series of the w's reproduces the target
    trace row; the reported bound covers both the final rounding and a
    geometric tail allowance.  A prefix of the stages is built by passing
    ErsStageData of that prefix.

    y_n rounds exact_n = q_n target (B_n ... B_1)^{-1}, computed by the
    recurrence exact_n = p exact_{n-1} B_n^{-1} from exact_0 = target.
    exact_n is held as an integer row over one denominator: B^{-1} is
    inverted once per distinct B and scaled to integers by the lcm of its
    denominators, and each level multiplies the denominator by that lcm.
    Only B_N ... B_1, for the bound, is kept as a product.
    """
    _check_regime(data, strict)
    stages, k = data.stages, data.k
    target = vec_sub(data.trace_row,
                     partial_sum([st.v for st in stages], stages))
    den = math.lcm(*(x.denominator for x in target))
    num = tuple(x.numerator * (den // x.denominator) for x in target)
    scaled_inverses: dict[Matrix, tuple[Matrix, int]] = {}
    bprod = Matrix.identity(k)
    q = 1
    ys: list[tuple[int, ...]] = [tuple([0] * k)]
    ws = []
    for n, st in enumerate(stages, start=1):
        cached = scaled_inverses.get(st.b)
        if cached is None:
            inv = st.b.inverse()
            scale = math.lcm(*(x.denominator for row in inv for x in row))
            cached = scaled_inverses[st.b] = (Matrix._exact(k, k, [
                x.numerator * (scale // x.denominator)
                for row in inv for x in row]), scale)
        inv, scale = cached
        num = inv.vector_mul(vec_scale(st.p, num))
        den *= scale
        ys.append(tuple(nearest_int(x, den) for x in num))
        bprod = st.b * bprod
        q *= st.p
        w = vec_sub(vec_add(st.v, st.b.vector_mul(ys[n])),
                    vec_scale(st.p, ys[n - 1]))
        # w^1 absorbs the whole correction p_2 (rho - z-infinity); the norm
        # estimate |w| <= |u| + (p + ||B||) / 2 only covers the later stages.
        if n > 1 and (2 * sup_norm(w) > 2 * sup_norm(st.v) + st.p
                      + colsum_norm(st.b)):
            raise InvariantViolated("w-norm estimate violated", stage=n)
        ws.append(w)

    # y_{n} enters M_n as the top-right row of F_n = [[1, y_n],[0, I]]; the
    # commuting square is w^n = z_n + y_{n+1} B_n - p_{n+1} y_n, which is the
    # construction itself, so the squares hold identically.
    rounding = Fraction(colsum_norm(bprod), 2 * q)
    delta = max((Fraction(sup_norm(st.v), st.p) for st in stages),
                default=Fraction(0))
    tail = delta * Fraction(colsum_norm(bprod),
                            q * max(1, math.isqrt(stages[-1].p) - 1))
    return WSequence(tuple(ys), tuple(ws), rounding + tail)


# -- the pipeline --------------------------------------------------------------


def ers_pipeline(data: ErsStageData, strict: bool = False) -> RealizationSeq:
    """Match the target trace row with a w-sequence, build the checked
    bordered ECS matrices of the stages (p, w^T, B^T) with bordered_stages
    (the w vary, so stages rarely share a base) and transpose them.
    bordered_stages reads each stage back as the B-form of exactly its
    (p, B^T, w), so the w rows rebuild the trace row of the output, which
    must lie within the bound.  Transposing makes the checked column sums
    the row sums and keeps primitivity and rank k+1.  Every stage of data
    is built; the provenance horizon is their count."""
    wseq = build_w_sequence(data, strict)
    stages, k = data.stages, data.k
    ecs_mats = bordered_stages((st.p, w, st.b.transpose())
                               for st, w in zip(stages, wseq.ws))
    gap = sup_norm(vec_sub(partial_sum(wseq.ws, stages), data.trace_row))
    if gap > wseq.error_bound:
        raise InvariantViolated(
            f"trace row gap {gap} exceeds reported bound {wseq.error_bound}")

    ones = tuple([1] * (k + 2))
    markers = tuple([ones] * (len(stages) + 1))
    return RealizationSeq(tuple(m.transpose() for m in ecs_mats),
                          tuple(st.p for st in stages), markers,
                          {"ers": True},
                          {"pipeline": "ers", "k": k, "horizon": len(stages),
                           "trace_gap_bound": json_str(wseq.error_bound)})
