import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dimgroup import cli, ecrs, exact
from dimgroup.errors import (CongruenceViolated, ContentMismatch,
                             DimensionMismatch, DimgroupError, GcdViolated,
                             InvariantViolated, K1Unnormalizable,
                             LambdaTooSmall, NoValidT, NotEqualSums,
                             NotPrimitive, PositivityFailed, SchemaError)
from dimgroup.exact import Matrix, UnimodularTransform, content
from dimgroup.ecrs import (EcrsProblem, PolyNat, _certified_factors,
                           _cyclic_targets, _p_divisible_shift,
                           commuting_family, ecrs_pipeline,
                           normalize_to_ones, poly_for)
from dimgroup.perron import (check_equal_sums_criterion, integer_perron,
                             is_primitive)
from dimgroup.supernatural import FactorSequence


# Stage matrices and the embroidery helpers that border them, read only by
# the tests; the package writes its two base stages directly.
def _stage_matrix(p: int, v) -> Matrix:
    """[[p, v], [0, I]]."""
    k = len(v)
    return Matrix.from_rows([[p, *v]] + [[0] + [int(j == i) for j in range(k)]
                                         for i in range(k)])


def embroider_rows(m: Matrix, x: Matrix | None) -> Matrix:
    """Border with zero columns on the right and the block X below:
    [[M, 0], [X, 0]].  Rank is preserved, and a left eigenvector (a, b)
    of M extends to (a, b, 0)."""
    if x is None:
        return m
    return Matrix.from_rows([list(row) + [0] * x.rows for row in [*m, *x]])


def embroider_cols(m: Matrix, y: Matrix, z: Matrix) -> Matrix:
    """Border with zero rows at the bottom and the block [Z; Y] at the
    right: [[M, Z over Y], [0, 0]]."""
    border = [*z, *y]
    size = m.rows + z.cols
    return Matrix.from_rows([list(row) + list(b) for row, b in zip(m, border)]
                            + [[0] * size] * z.cols)


def embroidery_block(k: int, lam: int) -> Matrix | None:
    """The X block for the finite route: one row per extra coordinate, a
    single 1 in the cyclically assigned interior column."""
    if lam <= k + 1:
        return None
    return Matrix.from_rows([[int(j == target) for j in range(k + 1)]
                             for target in _cyclic_targets(k, lam - k - 1)])


# The index stages and their diagonal presentation, read only by the tests;
# the package builds the normalized stages directly.
def build_index_stages(prob: EcrsProblem, scale: int = 1
                      ) -> tuple[list[Matrix], list[tuple[int, ...]],
                                 list[tuple[Fraction, ...]]]:
    """Stage matrices [[p, v_n], [0, I]] with v_n = rho (p - 1) / lambda,
    the correction rows y_n = rho (q_n - 1) / lambda, and the trace rows
    (lambda / q_n, rho) of the diagonal presentation.

    The congruence p = 1 (mod lambda) makes every v_n and y_n integral, and
    (lambda, rho) is a common left eigenvector of every stage matrix.  The
    optional scale multiplies each stage factor (the p-divisible route uses
    scale = q)."""
    lam, rho = prob.lam, prob.rho
    if math.gcd(content(rho), lam) != 1:
        raise GcdViolated(
            f"gcd(content(rho), lambda) = {math.gcd(content(rho), lam)} != 1")
    values = [scale * p for p in prob.p_seq.factors]
    for idx, p in enumerate(values, start=1):
        if (p - 1) % lam != 0:
            raise CongruenceViolated(
                f"stage factor {p} is not 1 mod lambda={lam}", stage=idx)
    mats = []
    for p in values:
        v = tuple(r * (p - 1) // lam for r in rho)
        mats.append(_stage_matrix(p, v))
    ys = [tuple([0] * prob.k)]
    q = 1
    trace_rows = [tuple([Fraction(lam)] + [Fraction(r) for r in rho])]
    for p in values:
        q *= p
        ys.append(tuple(r * (q - 1) // lam for r in rho))
        trace_rows.append(tuple([Fraction(lam, q)] + [Fraction(r) for r in rho]))
    return mats, ys, trace_rows


def test_index_stage_examples():
    prob = EcrsProblem(2, 3, (1, 1), FactorSequence((7, 13)))
    mats, ys, rs = build_index_stages(prob)
    assert mats[0].to_rows() == [[7, 2, 2], [0, 1, 0], [0, 0, 1]]
    assert mats[1].to_rows() == [[13, 4, 4], [0, 1, 0], [0, 0, 1]]
    # (lambda, rho) is a left eigenvector at the stage value
    assert mats[0].vector_mul((3, 1, 1)) == (21, 7, 7)
    # commuting squares with the diagonal presentation
    for n, p in enumerate((7, 13)):
        f_next = Matrix.from_rows([[1, *ys[n + 1]], [0, 1, 0], [0, 0, 1]])
        f_cur = Matrix.from_rows([[1, *ys[n]], [0, 1, 0], [0, 0, 1]])
        diag = Matrix.from_rows([[p, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert f_next * diag == mats[n] * f_cur
    # trace rows transfer along the diagonal presentation
    for n, p in enumerate((7, 13)):
        diag = Matrix.from_rows([[p, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert tuple(x * Fraction(1) for x in
                     diag.transpose().mul_vector(rs[n + 1])) == rs[n]


def test_index_stages_lambda_one():
    prob = EcrsProblem(1, 1, (3,), FactorSequence((4, 5)))
    mats, _, _ = build_index_stages(prob)
    assert mats[0].to_rows() == [[4, 9], [0, 1]]     # v = rho (p - 1)


def test_index_stage_errors():
    with pytest.raises(CongruenceViolated):
        build_index_stages(EcrsProblem(1, 4, (1,), FactorSequence((6,))))
    with pytest.raises(GcdViolated):
        build_index_stages(EcrsProblem(1, 4, (2,), FactorSequence((5,))))


def test_ecrs_problem_needs_a_factor():
    with pytest.raises(SchemaError, match="at least one factor"):
        EcrsProblem(1, 2, (1,), FactorSequence(()))


def test_normalize_to_ones_conjugates():
    prob = EcrsProblem(2, 3, (1, 1), FactorSequence((7, 13)))
    conj = normalize_to_ones(prob)
    t = conj.matrix
    t_inv = conj.inverse().matrix
    mats, _, _ = build_index_stages(prob)
    for m, p in zip(mats, (7, 13)):
        c = (p - 1) // 3
        expected = Matrix.from_rows([[p, c, c], [0, 1, 0], [0, 0, 1]])
        assert t * m * t_inv == expected
    # common left eigenvector becomes (lambda, 1, ..., 1)
    g = t * mats[0] * t_inv
    assert g.vector_mul((3, 1, 1)) == (21, 7, 7)


def test_normalize_to_ones_nontrivial_rho():
    prob = EcrsProblem(3, 5, (4, 6, 2), FactorSequence((11,)))
    conj = normalize_to_ones(prob)
    t, t_inv = conj.matrix, conj.inverse().matrix
    mats, _, _ = build_index_stages(prob)
    c = (11 - 1) // 5
    expected = Matrix.from_rows([[11, c, c, c], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])
    assert t * mats[0] * t_inv == expected


def test_normalize_to_ones_k1():
    prob = EcrsProblem(1, 5, (4,), FactorSequence((11,)))    # 4 = -1 mod 5
    conj = normalize_to_ones(prob)
    t, t_inv = conj.matrix, conj.inverse().matrix
    mats, _, _ = build_index_stages(prob)
    assert t * mats[0] * t_inv == Matrix.from_rows([[11, 2], [0, 1]])
    with pytest.raises(K1Unnormalizable):
        normalize_to_ones(EcrsProblem(1, 5, (2,), FactorSequence((11,))))


def test_normalize_to_ones_certifies_every_rho_at_index_one():
    # At lambda = 1 the k = 1 branch gives v = rho - 1 and the general
    # branch a sigma of content gcd(content(rho), 1) = 1, zero rho included.
    rng = random.Random(6151)
    for _ in range(3000):
        k = rng.randint(1, 5)
        rho = tuple(rng.randint(-40, 40) for _ in range(k))
        prob = EcrsProblem(k, 1, rho, FactorSequence((2, 3)))
        assert _certified_factors(prob) == (2, 3)
    for k in range(1, 6):
        prob = EcrsProblem(k, 1, (0,) * k, FactorSequence((2,)))
        assert _certified_factors(prob) == (2,)


@pytest.mark.parametrize("q", [None, 5])
def test_gcd_is_checked_before_the_congruence(q):
    # gcd(content(rho), lambda) = 2 and 6 is not 1 (mod 4): the one gcd
    # check, in _certified_factors, runs first on both routes and names the gcd.
    prob = EcrsProblem(2, 4, (2, 4), FactorSequence((6,)), q=q)
    with pytest.raises(GcdViolated,
                       match=r"^gcd\(content\(rho\), lambda\) = 2 != 1$"):
        ecrs_pipeline(prob)


@pytest.mark.parametrize("k,rho,error", [
    (2, (2, 4), ContentMismatch),
    (2, (0, 0), ContentMismatch),
    (1, (2,), K1Unnormalizable),
])
def test_normalize_to_ones_without_the_gcd_raises_typed(k, rho, error):
    # Called directly, past the gcd check: no row v gives
    # content(rho - lambda v) = 1, and the search says so with a typed error.
    with pytest.raises(error):
        normalize_to_ones(EcrsProblem(k, 4, rho, FactorSequence((5,))))


def _outcome(build, prob, scale):
    """The stages ``build`` returns, or the type and text of its error."""
    try:
        return build(prob, scale)
    except DimgroupError as exc:
        return type(exc), str(exc)


def _conjugated_index_stages(prob, scale):
    mats, _, _ = build_index_stages(prob, scale)
    conj = normalize_to_ones(prob)
    t, t_inv = conj.matrix, conj.inverse().matrix
    return [t * m * t_inv for m in mats]


@st.composite
def _index_problems(draw):
    k = draw(st.integers(1, 4))
    lam = draw(st.integers(1, 32))
    rho = tuple(draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k)))
    # Mostly p = 1 (mod lambda), now and then any factor above 1.
    factor = st.one_of(st.integers(1, 40).map(lambda m: 1 + lam * m),
                       st.integers(2, 200))
    ps = tuple(draw(st.lists(factor, min_size=1, max_size=4)))
    scale = draw(st.one_of(st.just(1),
                           st.integers(1, 8).map(lambda j: 1 + lam * j),
                           st.integers(2, 50)))
    return EcrsProblem(k, lam, rho, FactorSequence(ps)), scale


def _normalized_stages(prob, scale):
    """The stage [[p, c u], [0, I]], c = (p - 1)/lambda, of each certified
    factor, p = scale * factor."""
    values = [scale * p for p in _certified_factors(prob, scale)]
    return [_stage_matrix(p, ((p - 1) // prob.lam,) * prob.k) for p in values]


@settings(deadline=None, max_examples=300)
@given(_index_problems())
def test_normalized_stages_match_conjugated_index_stages(case):
    prob, scale = case
    got = _outcome(_normalized_stages, prob, scale)
    assert got == _outcome(_conjugated_index_stages, prob, scale)
    if isinstance(got, list):
        for m, p in zip(got, prob.p_seq.factors):
            c = (scale * p - 1) // prob.lam
            assert m == _stage_matrix(scale * p, (c,) * prob.k)


@pytest.mark.parametrize("rho", [-3, 0, 2])
@pytest.mark.parametrize("scale", [1, 4])
def test_normalizer_must_fix_e0(monkeypatch, rho, scale):
    # T = [[0, -1], [1, rho + 1]] is unimodular and (1, 1) T = (1, rho), but
    # T e_0 = e_1, so T does not normalize the stages: it sends
    # [[p, c rho], [0, 1]] to [[1, 0], [c, 1 + c]].
    t = UnimodularTransform(2, (("add", 1, 0, -(rho + 1)), ("neg", 0),
                                ("swap", 0, 1)))
    assert t.matrix == Matrix.from_rows([[0, -1], [1, rho + 1]])
    assert t.matrix.vector_mul((1, 1)) == (1, rho)
    prob = EcrsProblem(1, 1, (rho,), FactorSequence((5, 7)))
    mats, _, _ = build_index_stages(prob, scale)
    for m, p in zip(mats, (5 * scale, 7 * scale)):
        assert t.matrix * m * t.inverse().matrix \
            == Matrix.from_rows([[1, 0], [p - 1, p]])
    monkeypatch.setattr(ecrs, "normalize_to_ones", lambda prob: t)
    with pytest.raises(InvariantViolated, match="T e_0") as err:
        _certified_factors(prob, scale)
    assert err.value.stage == 1


@pytest.mark.parametrize("prob", [
    EcrsProblem(2, 3, (1, 2), FactorSequence((7, 13))),
    EcrsProblem(3, 32, (16, -14, -19), FactorSequence((2273, 2593, 2657, 2689))),
    EcrsProblem(2, 3, (1, 1), FactorSequence((19, 31)), q=4),
    EcrsProblem(2, 5, (1, -2), FactorSequence(
        (11, 31, 41, 61, 71, 101, 131, 151))),
])
def test_ecrs_build_conjugates_once(monkeypatch, prob):
    # The normalizer is certified, not applied, and the finisher conjugates
    # the base stage and e_0 V alone: one call on two matrices, whatever
    # the number of stages.
    calls = []
    conjugate = UnimodularTransform.conjugate

    def counted(self, mats):
        calls.append(len(mats))
        return conjugate(self, mats)
    monkeypatch.setattr(UnimodularTransform, "conjugate", counted)
    seq = ecrs_pipeline(prob)
    assert len(seq.matrices) == len(prob.p_seq)
    assert calls == [2]


def test_embroider_rows():
    m = Matrix.from_rows([[7, 2, 2], [0, 1, 0], [0, 0, 1]])
    assert embroider_rows(m, None) == m
    x = embroidery_block(2, 5)
    assert x.to_rows() == [[0, 1, 0], [0, 0, 1]]
    big = embroider_rows(m, x)
    assert big.rows == 5
    assert big.rank() == m.rank()
    # left eigenvector extends by zeros
    assert big.vector_mul((3, 1, 1, 0, 0)) == (21, 7, 7, 0, 0)
    # columns beyond the original block are zero
    assert all(big[i, j] == 0 for i in range(5) for j in (3, 4))


def test_embroider_cols_eigenvector():
    # the p-divisible border: top row p * ones, zero rows below
    p, q, lam, k = 5, 3, 2, 1
    c = (q * p - 1) // lam
    m = Matrix.from_rows([[q * p, c], [0, 1]])
    extra = lam * q - k - 1
    z = Matrix.from_rows([[p] * extra])
    y = Matrix.zeros(k, extra)
    big = embroider_cols(m, y, z)
    assert big.rows == lam * q
    vec = (lam * q,) + tuple([q] * k) + tuple([lam] * extra)
    assert big.vector_mul(vec) == tuple(q * p * x for x in vec)


def _bases(monkeypatch, prob):
    """The base stage, eigenrow and shift that ``prob``'s route hands the
    finisher."""
    handed = []
    monkeypatch.setattr(ecrs, "ecrs_finisher",
                        lambda *args, **kwargs: handed.append(args[:3]))
    ecrs_pipeline(prob)
    return handed[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_finite_base_is_the_embroidered_identity(monkeypatch, k):
    for lam in range(k + 1, 14):
        prob = EcrsProblem(k, lam, (1,) * k, FactorSequence((1 + lam,)))
        base, eigenrow, _ = _bases(monkeypatch, prob)
        assert base == embroider_rows(Matrix.identity(k + 1),
                                      embroidery_block(k, lam))
        assert base.vector_mul(eigenrow) == eigenrow


@pytest.mark.parametrize("k,lam,q", [
    (1, 1, 3), (1, 2, 3), (2, 3, 4), (3, 1, 5), (2, 5, 11), (4, 2, 9)])
def test_p_divisible_base_is_the_embroidered_stage_of_value_q(monkeypatch,
                                                              k, lam, q):
    prob = EcrsProblem(k, lam, (1,) * k, FactorSequence((1 + lam,)), q=q)
    base, eigenrow, _ = _bases(monkeypatch, prob)
    extra = lam * q - k - 1
    assert base == embroider_cols(_stage_matrix(q, ((q - 1) // lam,) * k),
                                  Matrix.zeros(k, extra),
                                  Matrix.from_rows([[1] * extra]))
    assert base.vector_mul(eigenrow) == tuple(q * x for x in eigenrow)


@pytest.mark.parametrize("prob", [
    EcrsProblem(2, 7, (1, 1), FactorSequence((29, 43))),
    EcrsProblem(3, 32, (16, -14, -19), FactorSequence((2273, 2593))),
    EcrsProblem(2, 3, (1, 1), FactorSequence((19, 31)), q=4),
], ids=["finite", "finite-lambda-32", "p-divisible"])
def test_ecrs_build_runs_no_elimination(monkeypatch, prob):
    # Both bases are written whole, full rank by construction; nothing on
    # the build path eliminates a matrix.
    calls = []
    eliminate = exact._eliminate

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)
    monkeypatch.setattr(exact, "_eliminate", counted)
    seq = ecrs_pipeline(prob)
    assert len(seq.matrices) == len(prob.p_seq)
    assert calls == []


@pytest.mark.parametrize("k,lam,q,error,code", [
    (2, 3, 1, "SchemaError", 2),
    (2, 3, 5, "CongruenceViolated", 3),
    (3, 1, 2, "NoValidT", 3),
    (1, 2, 2 ** 63 + 1, "SchemaError", 2),
], ids=["q-1", "q-not-1-mod-lambda", "no-room", "size-past-maxsize"])
def test_p_divisible_input_checks(tmp_path, capsys, k, lam, q, error, code):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"k": k, "lambda": lam, "rho": [1] * k,
                               "p_seq": [1 + lam], "q": q}))
    out = tmp_path / "out.json"
    assert cli.main(["build", "ecrs", "-i", str(inp), "-o", str(out)]) == code
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("seed,factors,error,text", [
    ([[1, 2, 1], [2, 1, 1]], [5], DimensionMismatch, "square"),
    ([[2, -1], [-1, 2]], [5], NotEqualSums, "nonnegative"),
    ([[0, 3], [3, 0]], [5], NotPrimitive, "primitive"),
    ([[1, 2], [2, 1]], [5, 0], SchemaError, "positive"),
], ids=["non-square", "negative-entry", "not-primitive", "factor-below-1"])
def test_commuting_family_seed_checks(seed, factors, error, text):
    with pytest.raises(error, match=text):
        commuting_family(Matrix.from_rows(seed), factors)


def test_poly_for_examples():
    f = poly_for(2, 5)
    assert f.coefficients == (1, 2) and f(2) == 5 and f(-1) == -1
    f = poly_for(3, 7)
    assert f.coefficients == (1, 2) and f(-1) == -1
    f = poly_for(4, 1)
    assert f.coefficients == (1,)
    with pytest.raises(CongruenceViolated):
        poly_for(5, 4)       # 4 is not +-1 mod 6


def test_poly_for_properties_small():
    for m in range(2, 7):
        for l in range(1, 120):
            if l % (m + 1) not in (1, m):
                with pytest.raises(CongruenceViolated):
                    poly_for(m, l)
                continue
            f = poly_for(m, l)
            assert all(c >= 0 for c in f.coefficients)
            assert f(m) == l
            assert f(-1) in (1, -1)


def test_polynat_matrix_evaluation():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    f = PolyNat((2, 1))      # x + 2
    assert f.at_matrix(a) == a + Matrix.identity(2).scale(2)


def test_commuting_family_example():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    seq = commuting_family(a, [5, 13, 17])
    assert seq.matrices[0].to_rows() == [[7, 8], [8, 7]]
    assert seq.stage_values == (15, 39, 51)
    for i in range(3):
        for j in range(3):
            assert (seq.matrices[i] * seq.matrices[j]
                    == seq.matrices[j] * seq.matrices[i])
    for m in seq.matrices:
        pd = integer_perron(m)
        assert pd.left == (1, 1) and pd.right == (1, 1)


def test_commuting_family_identity_factor():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    seq = commuting_family(a, [1])
    assert seq.matrices[0] == a


def test_commuting_family_errors():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    with pytest.raises(CongruenceViolated):
        commuting_family(a, [6])        # 6 is not +-1 mod 4
    with pytest.raises(NotEqualSums):
        commuting_family(Matrix.from_rows([[1, 2], [2, 2]]), [5])


@pytest.mark.parametrize("k,lam,ps", [
    (2, 3, (7, 13, 19)),
    (2, 5, (11, 31, 41)),
    (2, 7, (29, 43, 71)),
    (3, 4, (5, 13, 17)),
    (1, 2, (3, 5, 7)),
    (4, 5, (11, 31, 41)),
])
def test_ecrs_pipeline_finite_route(k, lam, ps):
    prob = EcrsProblem(k, lam, tuple([1] * k), FactorSequence(ps))
    seq = ecrs_pipeline(prob)
    assert all(m.rows == lam for m in seq.matrices)
    assert seq.stage_values == ps
    for m, p in zip(seq.matrices, seq.stage_values):
        assert m.is_nonnegative()
        assert set(m.row_sums()) == {p}
        assert set(m.column_sums()) == {p}
        pd = integer_perron(m)
        assert pd.left == tuple([1] * lam) and pd.right == tuple([1] * lam)
        rep = check_equal_sums_criterion(m)
        assert rep.inner_product == lam and rep.sums_equal
    assert seq.marker_chain_ok()


def test_ecrs_pipeline_lambda_too_small():
    with pytest.raises(LambdaTooSmall):
        ecrs_pipeline(EcrsProblem(2, 2, (1, 1), FactorSequence((5, 9))))
    with pytest.raises(LambdaTooSmall):
        ecrs_pipeline(EcrsProblem(1, 1, (1,), FactorSequence((5,))))


def test_ecrs_pipeline_seed_route():
    prob = EcrsProblem(1, 1, (0,), FactorSequence((5, 13)),
                       seed_matrix=Matrix.from_rows([[1, 2], [2, 1]]))
    seq = ecrs_pipeline(prob)
    assert seq.stage_values == (15, 39)
    assert seq.properties["ecrs"]
    with pytest.raises(SchemaError):
        ecrs_pipeline(EcrsProblem(1, 2, (1,), FactorSequence((5,)),
                                  seed_matrix=Matrix.from_rows([[1, 2], [2, 1]])))


def test_ecrs_pipeline_p_divisible_route():
    prob = EcrsProblem(1, 2, (1,), FactorSequence((5, 7)), q=3)
    seq = ecrs_pipeline(prob)
    assert all(m.rows == 6 for m in seq.matrices)
    assert seq.stage_values == (15, 21)
    for m, p in zip(seq.matrices, seq.stage_values):
        assert set(m.row_sums()) == {p} and set(m.column_sums()) == {p}
        rep = check_equal_sums_criterion(m)
        assert rep.inner_product == 6 and rep.sums_equal


def test_ecrs_pipeline_p_divisible_needs_room():
    # small stage values leave negative entries; the failure names the stage
    with pytest.raises(PositivityFailed) as err:
        ecrs_pipeline(EcrsProblem(2, 3, (1, 1), FactorSequence((7,)), q=4))
    assert err.value.stage == 1
    seq = ecrs_pipeline(EcrsProblem(2, 3, (1, 1), FactorSequence((19, 31)), q=4))
    assert all(m.rows == 12 for m in seq.matrices)


@pytest.mark.parametrize("case,prob", [
    ("embroidered", EcrsProblem(2, 3, (1, 2), FactorSequence((7, 13)))),
    ("embroidered", EcrsProblem(2, 7, (1, 1), FactorSequence((29, 43)))),
    ("p-divisible", EcrsProblem(2, 3, (1, 1), FactorSequence((19, 31)), q=4)),
])
def test_finisher_makes_no_rational_inverse(monkeypatch, case, prob):
    # The conjugators are unimodular transforms, inverted by replaying
    # their ops backwards; no rational elimination is needed.
    def fail(self):
        raise AssertionError("Matrix.inverse called")
    monkeypatch.setattr(Matrix, "inverse", fail)
    seq = ecrs_pipeline(prob)
    assert seq.provenance["case"] == case
    for m, p in zip(seq.matrices, seq.stage_values):
        assert m.is_nonnegative()
        assert set(m.row_sums()) == {p} and set(m.column_sums()) == {p}


def test_ecrs_output_lambda_matches_size():
    from dimgroup.traces import trace_report
    prob = EcrsProblem(2, 3, (1, 1), FactorSequence((7, 13)))
    seq = ecrs_pipeline(prob)
    rep = trace_report(seq)
    assert rep.lam == 3      # |tau(G)/tau(H)| equals the size


def test_simultaneous_conjugation_preserves_pairing():
    # the finished stages keep eigenvalue p with all-ones left row whose
    # pairing against the all-ones marker equals the size, i.e. lambda
    prob = EcrsProblem(2, 5, (1, 1), FactorSequence((11, 31)))
    seq = ecrs_pipeline(prob)
    for m, p in zip(seq.matrices, seq.stage_values):
        ones = tuple([1] * 5)
        assert m.vector_mul(ones) == tuple(p * x for x in ones)
        assert sum(o * o for o in ones) == 5


@pytest.mark.parametrize("prob", [
    EcrsProblem(3, 32, (16, -14, -19), FactorSequence((2273, 2593, 2657, 2689))),
    EcrsProblem(2, 3, (1, 1), FactorSequence((19, 31)), q=4),
])
def test_conjugations_form_no_matrix_product(monkeypatch, prob):
    # The normalizer and the finishing T = L S^{-1} are applied by replaying
    # their elementary ops, at O(ops * size) per stage; a dense T m T^{-1}
    # would cost two size^3 products per stage.
    def fail(self, other):
        raise AssertionError("Matrix.__mul__ called")
    monkeypatch.setattr(Matrix, "__mul__", fail)
    seq = ecrs_pipeline(prob)
    size = prob.lam * (prob.q or 1)
    for m, p in zip(seq.matrices, seq.stage_values):
        assert m.rows == size and m.is_nonnegative()
        assert set(m.row_sums()) == {p} and set(m.column_sums()) == {p}


# The route before stages were finished from one base, read only by the
# tests: every normalized stage is bordered as its route borders it and
# conjugated by the finisher's T on its own, then checked on its own.
def _finish_each(mats, case, k, lam, q=1):
    size = mats[0].rows
    ones = tuple([1] * k)
    if case in ("direct", "embroidered"):
        v_evec = (lam,) + ones + tuple([0] * (lam - k - 1))
        shift = UnimodularTransform(size, tuple(
            ("add", target, k + 1 + j, 1)
            for j, target in enumerate(_cyclic_targets(k, lam - k - 1))))
    else:
        v_evec = (lam * q,) + tuple(q * x for x in ones) \
            + tuple([lam] * (size - k - 1))
        p_min = min(m[0, 0] // q for m in mats)
        if -(-q // lam) > (q * p_min - 1) // lam:
            raise NoValidT(
                f"empty window for t = sk: q/lam={q}/{lam}, qp-1={q * p_min - 1}")
        shift = _p_divisible_shift(size, k, lam, q)
    e0 = tuple([1] + [0] * (size - 1))
    for m in mats:
        p = m[0, 0]
        assert m.vector_mul(v_evec) == tuple(p * x for x in v_evec)
        assert m.mul_vector(e0) == tuple(p * x for x in e0)
    lower = UnimodularTransform(size, tuple(
        ("add", i, 0, 1) for i in range(1, size)))
    out = lower.compose(shift.inverse()).conjugate(mats)
    for idx, (m, g) in enumerate(zip(mats, out), start=1):
        assert all(x.denominator == 1 for row in g.to_rows() for x in row)
        if not g.is_nonnegative():
            bad = next((i, j) for i in range(size) for j in range(size)
                       if g[i, j] < 0)
            raise PositivityFailed(
                f"entry {bad} = {g[bad[0], bad[1]]} negative", stage=idx)
        if not is_primitive(g):
            raise NotPrimitive("finished stage not primitive", stage=idx)
        assert set(g.row_sums()) | set(g.column_sums()) == {m[0, 0]}
    return out, tuple(m[0, 0] for m in mats)


def _stage_by_stage(prob):
    k, lam, q = prob.k, prob.lam, prob.q
    if q is None and lam < k + 1:
        raise LambdaTooSmall(
            f"lambda = {lam} below rank G = {k + 1}: no ECRS "
            "realization exists when the value group has no infinite prime")
    normalized = _conjugated_index_stages(prob, q or 1)
    if q is None:
        x = embroidery_block(k, lam)
        bordered = [embroider_rows(m, x) for m in normalized]
        return _finish_each(bordered, "direct" if x is None else "embroidered",
                            k, lam)
    extra = lam * q - k - 1
    bordered = [embroider_cols(m, Matrix.zeros(k, extra),
                               Matrix.from_rows([[p] * extra]))
                for m, p in zip(normalized, prob.p_seq.factors)]
    return _finish_each(bordered, "p-divisible", k, lam, q)


def _route_outcome(route, prob):
    """The stages and stage values ``route`` builds, or the type, text and
    stage of its error."""
    try:
        out = route(prob)
    except DimgroupError as exc:
        return type(exc), str(exc), exc.stage
    if isinstance(out, tuple):
        return list(out[0]), out[1]
    return list(out.matrices), out.stage_values


@st.composite
def _finish_problems(draw):
    k = draw(st.integers(1, 4))
    rho = tuple(draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k)))
    if draw(st.booleans()):
        # Mostly lambda >= k+1; below it the route raises LambdaTooSmall.
        q = None
        lam = draw(st.integers(k + 1, 40) | st.integers(k + 1, 40)
                   | st.integers(1, 40))
        top = 2 * max(1, (lam - k - 1) // k) + 3     # about twice -min(G_0)
    else:
        # Sizes lambda q up to 100; q = 1 (mod lambda).
        lam = draw(st.integers(1, 6))
        if lam == 1:
            q = draw(st.integers(k + 2, 100))
        else:
            q = 1 + lam * draw(st.integers(1, (100 // lam - 1) // lam))
        top = 3 * q
    # p = 1 (mod lambda) around the threshold; now and then one other p.
    ps = draw(st.lists(st.integers(1, top).map(lambda m: 1 + lam * m),
                       min_size=1, max_size=4))
    if draw(st.integers(0, 7)) == 0:
        ps[draw(st.integers(0, len(ps) - 1))] = draw(st.integers(2, 200))
    return EcrsProblem(k, lam, rho, FactorSequence(tuple(ps)), q=q)


@settings(deadline=None, max_examples=200)
@given(_finish_problems())
def test_stages_finished_from_one_base_match_stage_by_stage(prob):
    # Every finished stage is G_0 + c J: the pipeline gives the stages of the
    # stage-by-stage route, or its error, text and stage.
    assert _route_outcome(ecrs_pipeline, prob) \
        == _route_outcome(_stage_by_stage, prob)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_embroidered_threshold(k):
    # A stage is nonnegative exactly when c = (p-1)/lambda >= -min(G_0),
    # which on the embroidered route is ceil((lambda-k-1)/k) for any rho.
    rho = (-1,) + (1,) * (k - 1)
    for lam in range(k + 2, 41):
        c = -(-(lam - k - 1) // k)
        seq = ecrs_pipeline(EcrsProblem(k, lam, rho, FactorSequence(
            (1 + lam * c, 1 + lam * (c + 1)))))
        assert len(seq.matrices) == 2
        if c > 1:
            with pytest.raises(PositivityFailed) as err:
                ecrs_pipeline(EcrsProblem(k, lam, rho, FactorSequence(
                    (1 + lam * (c - 1),))))
            assert err.value.stage == 1


def test_p_divisible_threshold():
    # At k = 2, lambda = 3, q = 64 the first stage that builds has c = 126;
    # the pinned factor 193 has c = 64.
    def build(*cs):
        return ecrs_pipeline(EcrsProblem(2, 3, (1, 1), FactorSequence(
            tuple(1 + 3 * c for c in cs)), q=64))
    assert build(126).stage_values == (64 * 379,)
    for cs, stage in [((125,), 1), ((64,), 1), ((126, 125), 2)]:
        with pytest.raises(PositivityFailed) as err:
            build(*cs)
        assert err.value.stage == stage


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: build ecrs exits 3 with PositivityFailed at stage 1 "
    "on data for which the paper constructs a realization.  A stage is "
    "nonnegative exactly when c = (p-1)/lambda >= -min(G_0): factor 193 at "
    "q = 64 has c = 64 below 126, and factor 5 at lambda = 4, k = 1 has "
    "c = 1 below ceil((lambda-k-1)/k) = 2; the factors must be grouped"))
@pytest.mark.parametrize("problem", [
    {"k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [193, 577, 769], "q": 64},
    {"k": 1, "lambda": 4, "rho": [1], "p_seq": [5, 13]},
], ids=["p-divisible-q64", "two-smallest-primes"])
def test_ecrs_builds_where_a_realization_exists(tmp_path, capsys, problem):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(problem))
    code = cli.main(["build", "ecrs", "-i", str(inp),
                     "-o", str(tmp_path / "out.json")])
    assert code == 0, capsys.readouterr().out
