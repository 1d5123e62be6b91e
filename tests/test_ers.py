import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from dimgroup.errors import (DimensionMismatch, DimgroupError, Infeasible,
                             InvariantViolated, ParameterExtractionFailed,
                             RegimeViolation)
from dimgroup.exact import (Matrix, colsum_norm, sup_norm, vec_add,
                            vec_scale, vec_sub)
from dimgroup.ecs import (BParams, ExtensionData, Stage, b_extract,
                          ecs_pipeline, general_ecs_matrix)
from dimgroup import ecs, ers
from dimgroup.ers import (ErsStageData, build_w_sequence,
                          ers_pipeline, nearest_int, partial_sum, verify_ers)
from dimgroup.realization import RealizationSeq

from bordered import kernel_vector


def upper_block_matrix(p, u, b):
    """The upper-triangular block form [[p, u], [0, B]] of an ERS stage."""
    return Matrix.from_rows([[p, *u]]
                            + [[0, *b.row(i)] for i in range(b.rows)])


def _rand_stage_data(rng, k, n_stages):
    """Random admissible data; odd p's, odd det(B) and odd trace
    denominators keep the rounding free of exact half ties."""
    stages = []
    p = rng.randint(150, 200)
    for _ in range(n_stages):
        while True:
            b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                  for _ in range(k)])
            if b.det() % 2 != 0:
                break
        norm = colsum_norm(b)
        p = max(p + rng.randint(1, 50), 4 * norm * norm) | 1
        z = tuple(rng.randint(-(p - 1), p - 1) for _ in range(k))
        stages.append(Stage(p, z, b))
    rho = tuple(Fraction(rng.randint(-20, 20), 2 * rng.randint(0, 24) + 1)
                for _ in range(k))
    return ErsStageData(k, tuple(stages), rho)


def test_verify_ers_examples():
    ecs_like = Matrix.from_rows([[3, 4, 2], [1, 1, 1], [1, 0, 2]])
    t = ecs_like.transpose()
    rep = verify_ers(RealizationSeq((t,), (5,)))
    assert rep.ok and rep.stage_values == (5,)

    rep = verify_ers(RealizationSeq((Matrix.from_rows([[1, 2], [2, 1]]),), (3,)))
    assert rep.ok and rep.stage_values == (3,)

    rep = verify_ers(RealizationSeq((Matrix.from_rows([[1, 2], [0, 1]]),), (3,)))
    assert not rep.ok and rep.stage_values == (None,)


def test_verify_ers_transpose_duality():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = Matrix.from_rows([[rng.randint(0, 6) for _ in range(n)]
                              for _ in range(n)])
        cols_equal = len(set(m.column_sums())) == 1
        p = m.column_sums()[0]
        rep = verify_ers(RealizationSeq((m.transpose(),), (p,)))
        some_p = p > 1
        assert (rep.stage_values[0] is not None) == cols_equal
        if cols_equal and some_p and m.is_nonnegative():
            assert rep.ok


def test_nearest_int_ties_toward_zero():
    assert nearest_int(3, 2) == 1
    assert nearest_int(-3, 2) == -1
    assert nearest_int(5, 3) == 2
    assert nearest_int(-5, 3) == -2
    assert nearest_int(1, 2) == 0
    assert nearest_int(-1, 2) == 0


class SingularB(DimgroupError):
    pass


# Row-lattice reduction is reached by no command (ers_pipeline rounds with
# nearest_int directly); it stays here as a checked definition.
def reduce_mod_rowlattice(z: Sequence[int], b: Matrix) -> tuple[int, ...]:
    """y with ||z - yB||_inf < |det B|, via exact rational arithmetic.

    Nearest-integer rounding of z B^{-1} is tried first; when the rounded
    remainder is not below |det B| (possible once the column sums of B beat
    its determinant), the witness falls back to reducing z entrywise mod
    |det B| through the adjugate, which meets the bound unconditionally
    because |det B| Z^{1 x k} lies inside the row lattice of B."""
    det = b.det()
    if det == 0:
        raise SingularB("row-lattice reduction needs det B != 0")
    if len(z) != b.rows:
        raise DimensionMismatch("row length mismatch")
    d = abs(det)
    b_inv = b.inverse()
    exact = b_inv.vector_mul(tuple(Fraction(x) for x in z))
    y = tuple(nearest_int(x.numerator, x.denominator) for x in exact)
    if sup_norm(vec_sub(z, b.vector_mul(y))) < d:
        return y
    floors = tuple(x // d for x in z)                       # z - d*floors in [0, d)
    scaled_inv = b_inv.scale(d)                             # +-adjugate, integral
    y = tuple(int(x) for x in scaled_inv.vector_mul(floors))
    if sup_norm(vec_sub(z, b.vector_mul(y))) >= d:
        raise InvariantViolated("row-lattice remainder not below |det B|")
    return y


def test_reduce_mod_rowlattice_examples():
    assert reduce_mod_rowlattice((0, 0, 0), Matrix.identity(3)) == (0, 0, 0)
    assert reduce_mod_rowlattice((4, -7), Matrix.identity(2)) == (4, -7)
    assert reduce_mod_rowlattice((5,), Matrix.from_rows([[3]])) == (2,)
    with pytest.raises(SingularB):
        reduce_mod_rowlattice((1, 1), Matrix.from_rows([[1, 1], [1, 1]]))


def test_reduce_mod_rowlattice_random():
    rng = random.Random(14)
    for _ in range(100):
        k = rng.randint(1, 4)
        while True:
            b = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(k)]
                                  for _ in range(k)])
            if b.det() != 0:
                break
        z = tuple(rng.randint(-50, 50) for _ in range(k))
        y = reduce_mod_rowlattice(z, b)
        assert sup_norm(vec_sub(z, b.vector_mul(y))) < abs(b.det())


def test_build_w_trivial_correction():
    # rho equal to the truncated series: all corrections vanish
    data = ErsStageData(1, (Stage(4, (1,), Matrix.identity(1)),
                            Stage(16, (2,), Matrix.identity(1))),
                        (Fraction(9, 32),))
    w = build_w_sequence(data)
    assert all(y == (0,) for y in w.ys)
    assert w.ws == ((1,), (2,))
    assert partial_sum(w.ws, data.stages) == (Fraction(9, 32),)


def test_build_w_random_properties():
    rng = random.Random(27)
    for _ in range(40):
        k = rng.randint(1, 3)
        data = _rand_stage_data(rng, k, rng.randint(2, 5))
        w = build_w_sequence(data)
        for i, st in enumerate(data.stages, start=1):
            # commuting square: w^n = z_n + y_{n+1} B_n - p_{n+1} y_n as a
            # matrix identity between the two block presentations
            f_top = Matrix.from_rows(
                [[1] + list(w.ys[i]),
                 *[[0] + [1 if jj == ii else 0 for jj in range(k)]
                   for ii in range(k)]])
            f_bot = Matrix.from_rows(
                [[1] + list(w.ys[i - 1]),
                 *[[0] + [1 if jj == ii else 0 for jj in range(k)]
                   for ii in range(k)]])
            m_z = upper_block_matrix(st.p, st.v, st.b)
            m_w = upper_block_matrix(st.p, w.ws[i - 1], st.b)
            assert f_top * m_z == m_w * f_bot
            if i > 1:     # w^1 absorbs the whole trace correction
                bound = (Fraction(sup_norm(st.v))
                         + Fraction(st.p + colsum_norm(st.b), 2))
                assert Fraction(sup_norm(w.ws[i - 1])) < bound
        gap = sup_norm(vec_sub(partial_sum(w.ws, data.stages), data.trace_row))
        assert gap <= w.error_bound


def test_build_w_bound_improves_with_horizon():
    """The bound of a build of the first n stages falls as n grows."""
    rng = random.Random(33)
    for _ in range(10):
        data = _rand_stage_data(rng, 2, 5)
        bounds = [build_w_sequence(ErsStageData(data.k, data.stages[:n],
                                                data.trace_row)).error_bound
                  for n in (2, 3, 4, 5)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


# The w-sequence by the Fraction formulas that the integer recurrence in
# dimgroup.ers replaced: y_n rounds q_n target (B_n ... B_1)^{-1}, each prefix
# product inverted afresh, and the partial sums add w^n B_{n-1} ... B_1 / q_n.


def _reference_round(x: Fraction) -> int:
    """Nearest integer to x, ties toward zero, in Fraction arithmetic."""
    floor = x.numerator // x.denominator
    frac = x - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor if x > 0 else floor + 1


def _reference_partial_sum(ws, stages):
    k = len(ws[0])
    total, bprod, q = (Fraction(0),) * k, Matrix.identity(k), 1
    for w, st in zip(ws, stages):
        q *= st.p
        total = vec_add(total, vec_scale(Fraction(1, q), bprod.vector_mul(w)))
        bprod = st.b * bprod
    return total


def _reference_w_sequence(data):
    """(ys, ws, error_bound, the exact rows the ys round)."""
    stages = data.stages
    target = vec_sub(data.trace_row,
                     _reference_partial_sum([st.v for st in stages], stages))
    ys, ws, exacts = [(0,) * data.k], [], []
    bprod, q = Matrix.identity(data.k), 1
    for st in stages:
        bprod, q = st.b * bprod, q * st.p
        exacts.append(bprod.inverse().vector_mul(vec_scale(q, target)))
        ys.append(tuple(_reference_round(Fraction(x)) for x in exacts[-1]))
        ws.append(vec_sub(vec_add(st.v, st.b.vector_mul(ys[-1])),
                          vec_scale(st.p, ys[-2])))
    norm = colsum_norm(bprod)
    delta = max(Fraction(sup_norm(st.v), st.p) for st in stages)
    bound = Fraction(norm, 2 * q) + delta * Fraction(
        norm, q * max(1, math.isqrt(stages[-1].p) - 1))
    return tuple(ys), tuple(ws), bound, exacts


def _b_with_det(rng, k, dets):
    span = 3 if k == 1 else 2
    while True:
        b = Matrix.from_rows([[rng.randint(-span, span) for _ in range(k)]
                              for _ in range(k)])
        if abs(b.det()) in dets:
            return b


def _assert_matches_reference(data):
    ys, ws, bound, exacts = _reference_w_sequence(data)
    got = build_w_sequence(data)
    assert (got.ys, got.ws, got.error_bound) == (ys, ws, bound)
    stages = data.stages
    assert partial_sum(ws, stages) == _reference_partial_sum(ws, stages)
    # w^n = u + e_n B - p e_{n-1} with rounding errors |e| <= 1/2; a tie
    # rounded toward zero gives e the opposite sign of exact, and
    # exact_n B = p exact_{n-1} then keeps the three terms from adding up
    # to the limit, so the non-strict w-norm guard is never met with equality.
    for w, st in list(zip(ws, stages))[1:]:
        assert 2 * sup_norm(w) < 2 * sup_norm(st.v) + st.p + colsum_norm(st.b)
    return exacts


def test_w_sequence_matches_the_fraction_reference():
    """k = 1..3, n = 1..12, u of either sign, |det B| in {1, 2, 3}, and the
    stages' B one matrix, two alternating ones or a fresh one per stage."""
    rng = random.Random(32)
    ties = 0
    for _ in range(60):
        k, n = rng.randint(1, 3), rng.randint(1, 12)
        det = {rng.choice((1, 2, 3))}
        pool = [_b_with_det(rng, k, det) for _ in range(rng.choice((1, 2)))]
        bs = ([pool[i % len(pool)] for i in range(n)] if rng.randrange(3)
              else [_b_with_det(rng, k, det) for _ in range(n)])
        p = max(colsum_norm(b) ** 2 for b in bs) + rng.randint(0, 9)
        stages = []
        for b in bs:
            p += rng.randint(0, 30)
            stages.append(Stage(p, tuple(rng.randint(-(p - 1), p - 1)
                                         for _ in range(k)), b))
        rho = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                    for _ in range(k))
        prefix = tuple(stages[:rng.randint(1, n)])
        exacts = _assert_matches_reference(ErsStageData(k, prefix, rho))
        ties += sum(Fraction(x).denominator == 2 for row in exacts
                    for x in row)
    assert ties > 0


@pytest.mark.parametrize("sign", [1, -1])
def test_w_sequence_tie_rounds_toward_zero(sign):
    """B = [[2]]: exact_1 = 5 target / 2 = 3 sign and exact_2 = 7 exact_1 / 2
    = 21/2 sign, a tie that y_2 rounds toward zero."""
    stages = (Stage(5, (1,), Matrix.from_rows([[2]])),
              Stage(7, (-2,), Matrix.from_rows([[2]])))
    rho = (Fraction(6 * sign, 5) + _reference_partial_sum(
        [st.v for st in stages], stages)[0],)
    exacts = _assert_matches_reference(ErsStageData(1, stages, rho))
    assert exacts == [(3 * sign,), (Fraction(21 * sign, 2),)]
    assert build_w_sequence(ErsStageData(1, stages, rho)).ys[2] == (10 * sign,)


def test_w_norm_guard_names_the_stage(monkeypatch):
    """Every exact correction of this input is 0.  A rounding one too high
    at level 2 puts p_3 y_2 = 64 into w^3, past |u| + (p + ||B||)/2."""
    stages = tuple(Stage(p, (u,), Matrix.identity(1))
                   for p, u in ((4, 1), (16, 2), (64, 3)))
    data = ErsStageData(1, stages, partial_sum([st.v for st in stages],
                                               stages))
    assert build_w_sequence(data).ys == ((0,), (0,), (0,), (0,))
    levels = iter(range(1, 4))

    def off_at_level_2(num, den):
        return nearest_int(num, den) + (next(levels) == 2)

    monkeypatch.setattr(ers, "nearest_int", off_at_level_2)
    with pytest.raises(InvariantViolated, match="w-norm") as info:
        build_w_sequence(data)
    assert info.value.stage == 3


def test_build_w_regime_violation():
    data = ErsStageData(1, (Stage(5, (5,), Matrix.identity(1)),),
                        (Fraction(0),))
    with pytest.raises(RegimeViolation):
        build_w_sequence(data)
    big_b = ErsStageData(1, (Stage(5, (1,), Matrix.from_rows([[4]])),),
                         (Fraction(0),))
    with pytest.raises(RegimeViolation):
        build_w_sequence(big_b)


def test_b_extract_examples():
    m = general_ecs_matrix(7, (1,), Matrix.from_rows([[1]]), 1)
    assert b_extract(m) == BParams(7, Matrix.from_rows([[1]]), (1,), 1)

    m2 = general_ecs_matrix(7, (1,), Matrix.from_rows([[2]]), 1)
    assert b_extract(m2) == BParams(7, Matrix.from_rows([[2]]), (1,), 1)

    with pytest.raises(ParameterExtractionFailed):
        b_extract(Matrix.identity(3))


def test_b_extract_reads_the_whole_b_form():
    """b_extract returns the (p, B, v, a) a B-form matrix was built from,
    and rejects every change of one entry by +-1: the bottom row, the
    right column and the column sums pin each entry given p, v, B, a."""
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(1, 3)
        p = rng.randint(50, 200)
        v = tuple(rng.randint(-4, 4) for _ in range(k))
        while True:
            b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                  for _ in range(k)])
            if b.det() != 0:
                break
        a = rng.randint(1, 3)
        m = general_ecs_matrix(p, v, b, a)
        assert b_extract(m) == BParams(p, b, v, a)
        rows = m.to_rows()
        for i in range(k + 2):
            for j in range(k + 2):
                for step in (1, -1):
                    rows[i][j] += step
                    with pytest.raises(ParameterExtractionFailed):
                        b_extract(Matrix.from_rows(rows))
                    rows[i][j] -= step


def test_ers_pipeline_split_like():
    data = ErsStageData(2, (Stage(30, (0, 0), Matrix.identity(2)),
                            Stage(60, (0, 0), Matrix.identity(2))),
                        (Fraction(0), Fraction(0)))
    seq = ers_pipeline(data)
    assert seq.stage_values == (30, 60)
    from dimgroup.perron import integer_perron
    for m, p in zip(seq.matrices, seq.stage_values):
        assert set(m.row_sums()) == {p}
        assert integer_perron(m).eigenvalue == p
    assert seq.marker_chain_ok()
    assert all(all(x == 1 for x in h) for h in seq.markers)


# The k = 1 and k = 2 instances of acceptance criterion 9.
CRITERION_9 = {
    1: ErsStageData(1, (Stage(25, (8,), Matrix.identity(1)),
                        Stage(125, (5,), Matrix.identity(1))),
                    (Fraction(1, 3),)),
    2: ErsStageData(2, (Stage(101, (7, 11), Matrix.identity(2)),
                        Stage(1009, (13, 5), Matrix.identity(2))),
                    (Fraction(1, 5), Fraction(2, 7))),
}


@pytest.mark.parametrize("k", sorted(CRITERION_9))
def test_ers_pipeline_third_trace(k):
    data = CRITERION_9[k]
    seq = ers_pipeline(data)
    gap_bound = Fraction(seq.provenance["trace_gap_bound"])
    ws = [b_extract(m.transpose()).v for m in seq.matrices]
    assert all(len(w) == k for w in ws)
    rec = partial_sum(ws, data.stages)
    assert sup_norm(vec_sub(rec, data.trace_row)) <= gap_bound


# The stages of CRITERION_9[1] through both pipelines that build bordered
# stages; each pipeline's bases come from the one writer, general_ecs_matrix.
_BOTH_PIPELINES = pytest.mark.parametrize("build,data", [
    (ecs_pipeline, ExtensionData(1, CRITERION_9[1].stages)),
    (ers_pipeline, CRITERION_9[1]),
], ids=["ecs", "ers"])


@_BOTH_PIPELINES
def test_self_check_reads_the_whole_bordered_stage(monkeypatch, build, data):
    """Adding (0, +1, -1) to the top row of a bordered base keeps A z = 0
    and column 0's sum but breaks the other column sums, so no stage would
    have constant column sums (ERS: row sums); the self-check must refuse
    it."""
    real = ecs.general_ecs_matrix

    def tampered(*args):
        good = real(*args)
        rows = good.to_rows()
        rows[0][1] += 1
        rows[0][2] -= 1
        bad = Matrix.from_rows(rows)
        assert bad.mul_vector(kernel_vector(1)) == (0, 0, 0)
        assert bad.column_sums()[0] == good.column_sums()[0]
        return bad

    monkeypatch.setattr(ecs, "general_ecs_matrix", tampered)
    with pytest.raises(InvariantViolated,
                       match="column sums not constant") as info:
        build(data)
    assert info.value.stage == 1


@_BOTH_PIPELINES
def test_self_check_compares_the_stage_data(monkeypatch, build, data):
    """A writer that returns the valid B-form of other data, v + 1, passes
    every shape check; reading the base back must find that the stage's v
    was lost."""
    real = ecs.general_ecs_matrix
    monkeypatch.setattr(ecs, "general_ecs_matrix", lambda p, v, b, a: real(
        p, tuple(x + 1 for x in v), b, a))
    with pytest.raises(InvariantViolated,
                       match="lost the stage data") as info:
        build(data)
    assert info.value.stage == 1


# Six stages of one B with |det B| = 2 (the golden ers-det2-six-stages input).
DET2_SIX_STAGES = {
    "k": 2, "trace_row": [[1, 3], [2, 5]],
    "stages": [{"p": 20 + 6 * i, "u": [3 + i % 3, -1 - i % 2],
                "B": [[1, 1], [1, -1]]} for i in range(6)]}


def test_ers_build_forms_one_matrix_product_per_stage(monkeypatch):
    # Only the error bound's running product B_n ... B_1 is a matrix
    # product; both partial sums meet the Bs with rows alone.
    data = ErsStageData.from_json(DET2_SIX_STAGES)
    products = []
    real = Matrix.__mul__

    def counting(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    seq = ers_pipeline(data)
    assert len(seq) == 6 and len(products) == 6


def test_stages_that_share_a_b_share_one_matrix():
    data = ErsStageData.from_json(DET2_SIX_STAGES)
    assert len({id(st.b) for st in data.stages}) == 1
    two = ErsStageData.from_json({**DET2_SIX_STAGES, "stages": [
        {"p": 20, "u": [1, 2], "B": [[1, 1], [1, -1]]},
        {"p": 26, "u": [1, 2], "B": [[1, 1], [0, 1]]},
        {"p": 32, "u": [1, 2], "B": [[1, 1], [1, -1]]}]})
    first, second, third = (st.b for st in two.stages)
    assert first is third and first is not second


def test_ers_pipeline_regime_error():
    data = ErsStageData(1, (Stage(5, (7,), Matrix.identity(1)),),
                        (Fraction(0),))
    with pytest.raises(RegimeViolation):
        ers_pipeline(data)


def test_strict_bounds_mode():
    # strict mode demands ||B||^(8s) (s!)^16 <= p and ||u||^4 <= p; for
    # s = k+1 = 2 and B = I that floor is 65536
    modest = ErsStageData(1, (Stage(101, (8,), Matrix.identity(1)),
                              Stage(1001, (5,), Matrix.identity(1))),
                          (Fraction(1, 3),))
    build_w_sequence(modest)  # fine without strict bounds
    with pytest.raises(RegimeViolation):
        build_w_sequence(modest, strict=True)
    big = ErsStageData(1, (Stage(65537, (8,), Matrix.identity(1)),
                           Stage(131101, (5,), Matrix.identity(1))),
                       (Fraction(1, 3),))
    build_w_sequence(big, strict=True)
    seq = ers_pipeline(big, strict=True)
    assert seq.stage_values == (65537, 131101)


def test_infeasible_stage_is_named():
    """No uniform free parameter makes the bordered matrix of the second
    stage nonnegative; the error says which stage."""
    data = ErsStageData(1, (Stage(10, (-4,), Matrix.from_rows([[1]])),
                            Stage(12, (-8,), Matrix.from_rows([[2]]))),
                        (Fraction(0),))
    with pytest.raises(Infeasible) as info:
        ers_pipeline(data)
    assert info.value.stage == 2


def _upper_b_data(stages, rho):
    """k=2 ERS data with the non-symmetric B = [[1, b], [0, 1]] per stage."""
    return ErsStageData(2, tuple(
        Stage(p, u, Matrix.from_rows([[1, b], [0, 1]]))
        for p, u, b in stages), tuple(Fraction(x) for x in rho))


def test_restricted_block_is_p_w_over_the_input_b():
    """ers_pipeline builds the bordered ECS matrix of (p, w, B^T) and
    transposes it.  Read back with b_extract, each stage gives the upper
    block [[p, w], [0, B]] with the input's own B, its restriction to the
    kernel complement, and the commuting squares F_n M_n(u) = [[p, w],
    [0, B]] F_{n-1}, F_n = [[1, y_n], [0, I]], hold on it."""
    data = _upper_b_data([(47, (-2, -1), 1), (63, (-6, 6), 3)], ("1/6", "3/5"))
    seq = ers_pipeline(data)
    wseq = build_w_sequence(data)
    k = data.k
    for n, (m, st, w) in enumerate(zip(seq.matrices, data.stages, wseq.ws),
                                   start=1):
        assert st.b != st.b.transpose()
        got = b_extract(m.transpose())
        blk = upper_block_matrix(got.p, got.v, got.b.transpose())
        assert blk == upper_block_matrix(st.p, w, st.b)
        f_next, f_prev = (upper_block_matrix(1, wseq.ys[i], Matrix.identity(k))
                          for i in (n, n - 1))
        assert f_next * upper_block_matrix(st.p, st.v, st.b) == blk * f_prev


# Inputs with B = [[1, b], [0, 1]] that the self-check rejected as "restricted
# block lost the stage data" while it compared B^T with B.
NON_SYMMETRIC_B = [
    ([(67, (6, -5), 1), (82, (-5, -8), 2), (111, (4, -6), 1)], ("2/9", "-1/4")),
    ([(47, (-2, -1), 1), (63, (-6, 6), 3)], ("1/6", "3/5")),
    ([(67, (5, 5), -1)], ("0", "0")),
    ([(57, (-3, -2), 2), (92, (-7, -1), 3), (105, (-10, -8), 2)],
     ("-1/7", "0")),
    ([(28, (1, 2), 2), (44, (-4, 1), 3), (53, (5, 4), -1), (86, (-3, 2), 2)],
     ("1/4", "0")),
    ([(43, (4, 2), 3)], ("3/5", "0")),
    ([(26, (-1, 2), 3), (34, (0, -2), -1)], ("1/9", "3/8")),
    ([(71, (0, 1), 1), (106, (10, -5), -1), (125, (9, 0), -1),
      (144, (13, -10), 2)], ("1/9", "-1/8")),
    ([(78, (-7, 2), 1), (79, (1, -7), 3)], ("1/7", "1/2")),
    ([(30, (-2, -2), 1), (30, (2, -1), 2), (52, (-2, 4), -1)], ("0", "0")),
    ([(33, (0, 2), 3), (66, (3, -4), 3), (106, (7, 10), 2)],
     ("-2/9", "-2/9")),
    ([(56, (2, -4), 2), (58, (3, 4), 1), (67, (-3, -4), 3)],
     ("-3/4", "-2/3")),
    ([(34, (2, 0), 1), (40, (1, 2), 1), (67, (2, -1), 3)], ("0", "1/6")),
    ([(72, (-5, -1), 1)], ("0", "1/3")),
    ([(61, (2, -6), 3), (85, (-8, -5), 2)], ("-1/5", "-1/6")),
    ([(93, (5, -7), 1), (117, (-6, 1), 1), (127, (3, 5), 3),
      (154, (15, 0), 1)], ("0", "1/7")),
    ([(60, (-1, 1), 2), (86, (6, 0), 2), (109, (6, -6), 3)],
     ("-1/3", "-1/4")),
    ([(84, (3, 0), -1)], ("-1/4", "2/5")),
    ([(43, (0, -1), 1), (62, (1, 5), 1), (80, (-4, -1), -1),
      (100, (1, -7), -1)], ("-1/8", "1/5")),
    ([(61, (1, 6), 2)], ("1/6", "3/8")),
    ([(46, (2, -2), 1), (56, (5, 1), 2), (76, (-4, -1), 2)], ("0", "-1/5")),
]


@pytest.mark.parametrize("stages,rho", NON_SYMMETRIC_B)
def test_non_symmetric_b_builds_and_verifies(stages, rho):
    from dimgroup.verify import structural_report
    seq = ers_pipeline(_upper_b_data(stages, rho))
    assert seq.stage_values == tuple(p for p, _, _ in stages)
    result = structural_report(seq)
    assert result.ok and result.report["derived"]["ers"]
