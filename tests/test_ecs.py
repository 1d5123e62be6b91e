import json
import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dimgroup import cli, ecs, exact
from dimgroup.errors import (BadCutPoints, DimgroupError, HorizonExhausted,
                             Infeasible, InvariantViolated, NotPrimitive,
                             ParameterExtractionFailed, PTooSmall)
from dimgroup.exact import Matrix, is_unimodular
from dimgroup.ecs import (BParams, ExtensionData, Stage, b_compose, b_extract,
                          choose_a_params, ecs_pipeline, general_ecs_matrix,
                          normalize_extension, reduce_vector, split_ecs_matrix,
                          telescope_extension)
from dimgroup.perron import is_primitive
from dimgroup.verify import structural_report

from bordered import kernel_vector, nonuniform_bordered_matrix


def eps_basis(k):
    """The epsilon convention: eps_0 = 0, eps_i standard for 1 <= i <= k,
    eps_{k+1} = -(eps_1 + ... + eps_k); their sum over 1..k+1 vanishes."""
    zero = tuple([0] * k)
    std = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    last = tuple([-1] * k)
    return tuple([zero] + std + [last])


def block_matrix(st):
    """The lower-triangular block form [[p, 0], [v, B]] of an ECS stage."""
    return Matrix.from_rows([[st.p] + [0] * len(st.v)]
                            + [[x, *st.b.row(i)] for i, x in enumerate(st.v)])


def correction_vectors(data, norm):
    """The u^m = (v - B d_m - v')/p that take each stage of data to the
    stage of norm, d_1 = 0 and d_{m+1} = -u^m; each must be integral."""
    d = tuple([0] * data.k)
    us = []
    for orig, new in zip(data.stages, norm.stages):
        diff = [x - y - z for x, y, z in zip(orig.v, orig.b.mul_vector(d),
                                             new.v)]
        assert all(x % orig.p == 0 for x in diff)
        us.append(tuple(x // orig.p for x in diff))
        d = tuple(-x for x in us[-1])
    return us


def normalization_witnesses(us, k):
    """The change-of-basis matrices F_1, ..., F_{n+1} for the u-vectors."""
    def f_matrix(d):
        rows = [[1] + [0] * k]
        for i in range(k):
            rows.append([d[i]] + [1 if j == i else 0 for j in range(k)])
        return Matrix.from_rows(rows)

    mats = [f_matrix(tuple([0] * k))]
    for u in us:
        mats.append(f_matrix(tuple(-x for x in u)))
    return mats


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def split_charpoly(k, p):
    """x (x-1)^k (x-p), descending coefficients."""
    poly = [1, 0]                       # x
    for _ in range(k):
        poly = _poly_mul(poly, [1, -1])
    return tuple(_poly_mul(poly, [1, -p]))


def test_split_examples():
    assert split_ecs_matrix(1, 5).to_rows() == [[3, 4, 2], [1, 1, 1], [1, 0, 2]]
    assert split_ecs_matrix(2, 10).to_rows() == [
        [7, 9, 9, 3], [1, 1, 0, 2], [1, 0, 1, 2], [1, 0, 0, 3]]
    with pytest.raises(PTooSmall):
        split_ecs_matrix(1, 4)


def test_split_structure():
    for k in (1, 2, 3):
        p = (k + 1) ** 2 + 3
        m = split_ecs_matrix(k, p)
        assert set(m.column_sums()) == {p}
        assert m.charpoly() == split_charpoly(k, p)
        assert m.mul_vector(kernel_vector(k)) == tuple([0] * (k + 2))
        assert m.rank() == k + 1
        assert is_primitive(m)


def test_eps_basis():
    basis = eps_basis(3)
    assert basis[0] == (0, 0, 0)
    assert basis[2] == (0, 1, 0)
    assert basis[4] == (-1, -1, -1)
    total = tuple(sum(col) for col in zip(*basis[1:]))
    assert total == (0, 0, 0)


def test_general_matrix_worked_example():
    m = general_ecs_matrix(7, (1,), Matrix.from_rows([[1]]), 1)
    assert m.to_rows() == [[4, 3, 5], [2, 3, 1], [1, 1, 1]]
    assert set(m.column_sums()) == {7}


@pytest.mark.parametrize("p,v,a", [
    (7.0, (1,), 1),
    (7, (1.0,), 1),
    (7, ("1",), 1),
    (7, (1,), 1.0),
    ("7", (1,), 1),
], ids=["float-p", "float-v", "str-v", "float-a", "str-p"])
def test_general_matrix_rejects_inexact_stage_data(p, v, a):
    """p, v and a are checked once, so an inexact value from a caller is a
    TypeError rather than an inexact entry of the matrix."""
    with pytest.raises(TypeError):
        general_ecs_matrix(p, v, Matrix.from_rows([[1]]), a)


def test_general_matrix_kernel_and_eigenrow():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 4)
        p = rng.randint(40, 200)
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        while True:
            b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                  for _ in range(k)])
            if b.det() != 0:
                break
        m = general_ecs_matrix(p, v, b, rng.randint(1, 4))
        assert set(m.column_sums()) == {p}
        assert m.mul_vector(kernel_vector(k)) == tuple([0] * (k + 2))
        assert m.rank() == k + 1


def test_left_eigenrow_for_eigenvalue_one():
    # B = I case: rows (0, u, -sum(u)) with u.v = 0 fix the matrix on the left
    v = (1, 2, 0)
    u = (2, -1, 5)          # u.v = 0
    m = general_ecs_matrix(60, v, Matrix.identity(3), 2)
    row = (0,) + u + (-sum(u),)
    assert m.vector_mul(row) == row


def test_choose_a_params():
    assert choose_a_params(50, (0, 0), Matrix.identity(2)) == 1
    assert choose_a_params(100, (-3, 1), Matrix.identity(2)) == 4
    with pytest.raises(Infeasible):
        choose_a_params(3, (5, 5), Matrix.identity(2))


def _smallest_uniform_a(p, v, b):
    """Reference for choose_a_params: the least a >= 1 for which every
    entry below the top row of the built uniform matrix is nonnegative,
    found by trying a = 1, 2, ...; then that matrix, or Infeasible when its
    top row has a negative entry."""
    k = len(v)
    a = 1
    while True:
        m = general_ecs_matrix(p, v, b, a)
        if all(min(m.row(i)) >= 0 for i in range(1, k + 2)):
            break
        a += 1
    if not m.is_nonnegative():
        raise Infeasible("top row negative")
    return a


def test_choose_a_params_matches_building_the_matrix():
    rng = random.Random(61)
    outcomes = {"feasible": 0, "infeasible": 0}
    for _ in range(600):
        k = rng.randint(1, 3)
        b = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(k)]
                              for _ in range(k)])
        v = tuple(rng.randint(-12, 12) for _ in range(k))
        p = rng.randint(2, 120)
        try:
            expected = _smallest_uniform_a(p, v, b)
        except Infeasible:
            with pytest.raises(Infeasible):
                choose_a_params(p, v, b)
            outcomes["infeasible"] += 1
        else:
            assert choose_a_params(p, v, b) == expected
            outcomes["feasible"] += 1
    assert min(outcomes.values()) >= 100


def test_choose_a_params_feasibility_edge():
    """At the least p whose built top row is nonnegative, the top row is 0
    in the widest lower column alone (a middle one, then the last one), and
    one less p is Infeasible."""
    cases = [((1, 2), Matrix.from_rows([[3, 0], [1, 2]]), 1),
             ((9, 9), Matrix.from_rows([[-3, -1], [0, -2]]), 3)]
    big = 10 ** 6
    for v, b, widest in cases:
        a = _smallest_uniform_a(big, v, b)
        p = big - min(general_ecs_matrix(big, v, b, a).row(0))
        assert choose_a_params(p, v, b) == a
        top = general_ecs_matrix(p, v, b, a).row(0)
        assert min(top) == 0 and [j for j, x in enumerate(top) if x == 0] \
            == [widest]
        with pytest.raises(Infeasible):
            choose_a_params(p - 1, v, b)


def test_reduce_vector_examples():
    e, w = reduce_vector((Fraction(0), Fraction(0), Fraction(0)))
    assert e.matrix == Matrix.identity(3) and w == (0, 0, 0)

    v = (Fraction(7, 10), Fraction(1, 2))
    e, w = reduce_vector(v)
    rem = tuple(a - b for a, b in zip(e.matrix.mul_vector(v), w))
    assert rem == (0, Fraction(1, 10))

    v = (Fraction(3, 2), Fraction(0))
    e, w = reduce_vector(v)
    assert w == (1, 0)
    rem = tuple(a - b for a, b in zip(e.matrix.mul_vector(v), w))
    assert rem == (Fraction(1, 2), 0)


def test_reduce_vector_random():
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randint(1, 5)
        v = tuple(Fraction(rng.randint(0, 300), rng.randint(1, 100))
                  for _ in range(k))
        e, w = reduce_vector(v)
        assert is_unimodular(e.matrix)
        rem = tuple(a - b for a, b in zip(e.matrix.mul_vector(v), w))
        assert all(x >= 0 for x in rem)
        assert sum(rem) < 1


@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6)),
                min_size=1, max_size=5))
def test_reduce_vector_has_no_integer_part_below_one(pairs):
    # ecs_pipeline applies E alone: after normalize_extension the
    # terminal ratio v/p lies in [0, 1)^k, where W is always 0.
    v = tuple(Fraction(a % b, b) for a, b in pairs)
    _, w = reduce_vector(v)
    assert w == (0,) * len(v)


def test_normalize_examples():
    given = ExtensionData(1, (Stage(5, (-3,), Matrix.identity(1)),))
    data = normalize_extension(given)
    assert data.stages[0].v == (2,)
    assert correction_vectors(given, data) == [(-1,)]

    given = ExtensionData(2, (Stage(7, (9, -1), Matrix.identity(2)),))
    data = normalize_extension(given)
    assert data.stages[0].v == (2, 6)
    assert correction_vectors(given, data) == [(1, -1)]

    already = ExtensionData(1, (Stage(5, (2,), Matrix.identity(1)),))
    data = normalize_extension(already)
    assert data == already and correction_vectors(already, data) == [(0,)]


def test_normalize_commuting_squares():
    rng = random.Random(8)
    for _ in range(30):
        k = rng.randint(1, 3)
        stages = []
        for _ in range(rng.randint(1, 4)):
            while True:
                b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                      for _ in range(k)])
                if b.det() != 0:
                    break
            stages.append(Stage(rng.randint(2, 30),
                                tuple(rng.randint(-20, 20) for _ in range(k)),
                                b))
        data = ExtensionData(k, tuple(stages))
        norm = normalize_extension(data)
        fs = normalization_witnesses(correction_vectors(data, norm), k)
        for i, (orig, new) in enumerate(zip(data.stages, norm.stages)):
            assert all(0 <= x < orig.p for x in new.v)
            assert fs[i + 1] * block_matrix(orig) == block_matrix(new) * fs[i]


def test_telescope_examples():
    data = ExtensionData(1, (Stage(5, (1,), Matrix.identity(1)),
                             Stage(7, (2,), Matrix.identity(1))))
    same = telescope_extension(data, [0, 1])
    assert same == data
    merged = telescope_extension(data, [0])
    # oracle: the exact block-matrix product of the two stages
    prod = block_matrix(data.stages[1]) * block_matrix(data.stages[0])
    assert block_matrix(merged.stages[0]) == prod
    assert merged.stages[0].p == 35 and merged.stages[0].v == (11,)
    with pytest.raises(BadCutPoints):
        telescope_extension(data, [0, 0])
    with pytest.raises(BadCutPoints):
        telescope_extension(data, [2])


def test_telescope_associativity():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(1, 3)
        stages = []
        for _ in range(3):
            while True:
                b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                      for _ in range(k)])
                if b.det() != 0:
                    break
            stages.append(Stage(rng.randint(2, 9),
                                tuple(rng.randint(-4, 4) for _ in range(k)), b))
        data = ExtensionData(k, tuple(stages))
        all_at_once = telescope_extension(data, [0])
        two_step = telescope_extension(telescope_extension(data, [0, 2]), [0])
        assert all_at_once == two_step
        oracle = (block_matrix(stages[2]) * block_matrix(stages[1])
                  * block_matrix(stages[0]))
        assert block_matrix(all_at_once.stages[0]) == oracle


def test_ecs_pipeline_split_data():
    data = ExtensionData(1, (Stage(5, (0,), Matrix.identity(1)),
                             Stage(7, (0,), Matrix.identity(1)),
                             Stage(11, (0,), Matrix.identity(1))))
    seq = ecs_pipeline(data)
    assert seq.stage_values == (5, 7, 11)
    z = kernel_vector(1)
    for m, p in zip(seq.matrices, seq.stage_values):
        assert m.is_nonnegative()
        assert set(m.column_sums()) == {p}
        assert m.mul_vector(z) == (0, 0, 0)
        assert m.rank() == 2
        assert is_primitive(m)


def test_ecs_pipeline_random_normalized():
    rng = random.Random(19)
    for _ in range(10):
        k = rng.randint(1, 2)
        stages = []
        ratio_num = rng.randint(0, 9)
        for _ in range(3):
            p = rng.choice([101, 211, 401])
            v0 = ratio_num * p // 100
            stages.append(Stage(p, tuple(v0 for _ in range(k)),
                                Matrix.identity(k)))
        data = ExtensionData(k, tuple(stages))
        seq = ecs_pipeline(data)
        z = kernel_vector(k)
        for m, p in zip(seq.matrices, seq.stage_values):
            assert m.is_nonnegative()
            assert set(m.column_sums()) == {p}
            assert m.mul_vector(z) == tuple([0] * (k + 2))
            assert m.rank() == k + 1
            assert is_primitive(m)


def test_ecs_pipeline_outputs_have_designed_perron():
    from dimgroup.perron import integer_perron
    data = ExtensionData(1, (Stage(5, (0,), Matrix.identity(1)),
                             Stage(7, (0,), Matrix.identity(1)),
                             Stage(11, (0,), Matrix.identity(1))))
    seq = ecs_pipeline(data)
    for m, p in zip(seq.matrices, seq.stage_values):
        assert integer_perron(m).eigenvalue == p


def test_ecs_pipeline_telescopes_an_accepted_grouping_once(monkeypatch):
    """A build in which every stage fits as it is telescopes once, with one
    group per stage, and merges nothing."""
    calls = []
    original = ecs.telescope_extension

    def counted(data, cuts):
        calls.append(list(cuts))
        return original(data, cuts)
    monkeypatch.setattr(ecs, "telescope_extension", counted)
    data = ExtensionData(1, tuple(Stage(p, (0,), Matrix.identity(1))
                                  for p in (5, 7, 11)))
    assert ecs_pipeline(data).provenance["cuts"] == [0, 1, 2]
    assert calls == [[0, 1, 2]]


def test_ecs_pipeline_takes_no_determinant_of_settled_stages(monkeypatch):
    """On normalized data in which every stage fits, normalizing and
    telescoping keep every Stage checked when the data was made, so its
    determinant is not taken again."""
    b = Matrix.from_rows([[2, 1], [1, 1]])
    data = ExtensionData(2, tuple(Stage(p, (0, 0), b)
                                  for p in (50, 70, 110, 130)))
    calls = []
    original = Matrix.det

    def counted(m):
        calls.append(m)
        return original(m)
    monkeypatch.setattr(Matrix, "det", counted)
    assert ecs_pipeline(data).provenance["cuts"] == [0, 1, 2, 3]
    assert calls == []


@pytest.mark.parametrize("step,blocks", [(0, 1), (1, 5)],
                         ids=["one-block", "v-per-stage"])
def test_build_ecs_makes_one_matrix_per_block_and_no_square_rank(
        tmp_path, monkeypatch, step, blocks):
    """An n-stage build forms one bordered matrix per distinct (v, B), its
    base G_0, and proves every stage's rank by certificate, with no rank
    taken; its stages share one B, so the whole build runs one
    elimination, for that B's determinant."""
    n, k = 5, 2
    payload = {"k": k, "stages": [{"p": 101 + 2 * i, "v": [step * i, 0],
                                   "B": [[1, 0], [0, 2]]} for i in range(n)]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    built, ranked, eliminated = [], [], []
    general, rank = ecs.general_ecs_matrix, Matrix.rank
    eliminate = exact._eliminate

    def counted_general(*args):
        built.append(args)
        return general(*args)

    def counted_rank(m):
        ranked.append((m.rows, m.cols))
        return rank(m)

    def counted_eliminate(rows):
        eliminated.append(len(rows))
        return eliminate(rows)
    monkeypatch.setattr(ecs, "general_ecs_matrix", counted_general)
    monkeypatch.setattr(Matrix, "rank", counted_rank)
    monkeypatch.setattr(exact, "_eliminate", counted_eliminate)
    out = tmp_path / "out.json"
    assert cli.main(["build", "ecs", "-i", str(inp), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"]["cuts"] \
        == list(range(n))
    assert len(built) == blocks
    assert ranked == []
    assert eliminated == [k]


@pytest.mark.parametrize("n,code", [(8, 0), (16, 0)])
def test_grouping_search_takes_one_determinant(tmp_path, monkeypatch,
                                               n, code):
    """Every merge telescopes the stages into new Stages, each checking
    det B != 0; the products carry the determinant of the one shared B, so
    a build that merges (n = 16) and one that does not (n = 8) both
    eliminate once."""
    payload = {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [(3 + i) % 5, 7],
                                   "B": [[1, 0], [0, 2]]} for i in range(n)]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    eliminated = []
    eliminate = exact._eliminate

    def counted(rows):
        eliminated.append(len(rows))
        return eliminate(rows)
    monkeypatch.setattr(exact, "_eliminate", counted)
    out = tmp_path / "out.json"
    assert cli.main(["build", "ecs", "-i", str(inp), "-o", str(out)]) == code
    assert eliminated == [2]
    cuts = json.loads(out.read_text())["provenance"]["cuts"]
    assert (cuts == list(range(n))) == (n == 8)


def test_one_b_is_conjugated_once(monkeypatch, caplog):
    """A 16-stage stream with one B hands UnimodularTransform.conjugate one
    matrix; every stage is still the oracle's bordered matrix of
    (p, E v, E B E^-1), here with the conjugate taken as a matrix product,
    and one DEBUG record counts the stages and their one block."""
    b = Matrix.from_rows([[1, 0], [0, 2]])
    data = ExtensionData(2, tuple(Stage(101 + 2 * i, (3, 5), b)
                                  for i in range(16)))
    handed = []
    conjugate = exact.UnimodularTransform.conjugate

    def counted(self, mats):
        handed.append(len(mats))
        return conjugate(self, mats)
    monkeypatch.setattr(exact.UnimodularTransform, "conjugate", counted)
    caplog.set_level(logging.DEBUG, logger="dimgroup.ecs")
    seq = ecs_pipeline(data)
    assert handed == [1]
    assert seq.provenance["cuts"] == list(range(16))
    last = data.stages[-1]
    em = reduce_vector([Fraction(x, last.p) for x in last.v])[0].matrix
    b_new = em * b * em.inverse()
    assert list(seq.matrices) == _bordered_each(
        [(st.p, em.mul_vector(st.v), b_new) for st in data.stages])
    assert [r.getMessage() for r in caplog.records
            if r.levelno == logging.DEBUG] \
        == ["built 16 stages from 1 distinct (v, B) blocks"]


@pytest.mark.parametrize("name,planted,text", [
    ("choose_a_params", lambda p, v, b: 0,
     "bottom row is not one value a >= 1"),
    ("general_ecs_matrix",
     lambda p, v, b, a: nonuniform_bordered_matrix(p, v, b, (2, 1, 3)),
     "not of B-form: bottom row not constant"),
], ids=["a0", "a1"])
def test_rank_certificate_needs_a_at_least_one(monkeypatch, name, planted,
                                               text):
    """With a = 0, or with the non-uniform a = (2, 1, 3) written in place of
    the one a, every stage below is nonnegative, has column sums p and
    annihilates z, but its bottom row is zero or not one value: the
    certificate's premise fails, and the build stops at stage 1 instead of
    merging groups."""
    data = ExtensionData(1, tuple(Stage(101 + 2 * i, (5,),
                                        Matrix.identity(1))
                                  for i in range(4)))
    monkeypatch.setattr(ecs, name, planted)
    with pytest.raises(InvariantViolated, match=text) as exc:
        ecs_pipeline(data)
    assert exc.value.stage == 1


@st.composite
def _stage_data(draw):
    k = draw(st.integers(1, 4))
    b = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                      min_size=k, max_size=k)
             .map(Matrix.from_rows).filter(lambda m: m.det() != 0))
    v = tuple(draw(st.lists(st.integers(-30, 40), min_size=k, max_size=k)))
    return draw(st.integers(2, 20_000)), v, b


@settings(deadline=None, max_examples=300)
@given(_stage_data())
def test_bordered_stage_has_rank_k_plus_one(data):
    """Whenever bordered_stages returns, an exact elimination agrees with
    its certificate: rank k+1, for the matrix and for its k+1 lower rows."""
    p, v, b = data
    k = len(v)
    try:
        m, = ecs.bordered_stages([(p, v, b)])
    except (Infeasible, NotPrimitive):
        return
    lower = Matrix.from_rows([m.row(i) for i in range(1, k + 2)])
    assert m.rank() == lower.rank() == k + 1


def _base_floor(v, b):
    """-min(G_0[0]): the least p whose uniform bordered matrix for (v, B)
    has a nonnegative top row, G_0 that matrix at p = 0 with the reference
    a (its entries are far below 10^9)."""
    a = _smallest_uniform_a(10 ** 9, v, b)
    return -min(general_ecs_matrix(0, v, b, a).row(0))


@settings(deadline=None, max_examples=300)
@given(_stage_data())
def test_choose_a_params_is_infeasible_below_the_base_top_row(data):
    """choose_a_params(p, v, B) raises Infeasible exactly when
    p < -min(G_0[0]): the test bordered_stages makes per stage."""
    p, v, b = data
    floor = _base_floor(v, b)
    for q in {p, floor - 1, floor}:
        if q < floor:
            with pytest.raises(Infeasible):
                choose_a_params(q, v, b)
        else:
            choose_a_params(q, v, b)


def _bordered_each(stages):
    """Oracle for bordered_stages: each stage (p, v, B) built on its own
    with the smallest uniform a and checked to be nonnegative, to have
    every column sum p, to annihilate z, to have a bottom row of one value
    a >= 1 and to be primitive; the first failure raises, naming its
    stage."""
    out = []
    for idx, (p, v, b) in enumerate(stages, start=1):
        try:
            a = choose_a_params(p, v, b)
        except Infeasible as exc:
            raise Infeasible(str(exc), stage=idx) from None
        m = general_ecs_matrix(p, v, b, a)
        k = len(v)
        if not m.is_nonnegative():
            raise InvariantViolated("negative entry despite the chosen a",
                                    stage=idx)
        if set(m.column_sums()) != {p}:
            raise InvariantViolated("column sums broke ECS by-construction",
                                    stage=idx)
        if m.mul_vector(kernel_vector(k)) != tuple([0] * (k + 2)):
            raise InvariantViolated("kernel vector not annihilated",
                                    stage=idx)
        if set(m.row(k + 1)) != {m[k + 1, 0]} or m[k + 1, 0] < 1:
            raise InvariantViolated("bottom row is not one value a >= 1, so "
                                    "rank k+1 is unproved", stage=idx)
        if not is_primitive(m):
            raise NotPrimitive("stage matrix not primitive", stage=idx)
        out.append(m)
    return out


def _same_outcome(stages):
    """bordered_stages returns the oracle's matrices, or raises its error
    class with its text and stage."""
    try:
        expected = _bordered_each(stages)
    except DimgroupError as exc:
        with pytest.raises(DimgroupError) as got:
            ecs.bordered_stages(stages)
        assert (type(got.value), str(got.value), got.value.stage) \
            == (type(exc), str(exc), exc.stage)
        return exc
    assert ecs.bordered_stages(stages) == expected


@st.composite
def _chains(draw):
    """1 to 6 stages drawing (v, B) from one or two vs and one or two Bs,
    so blocks repeat, share a B or share a v; a p near its block's floor
    makes some later stage of a block infeasible.  In ERS form each stage
    gets its own transposed B, as ers_pipeline passes (p, w, B^T)."""
    k = draw(st.integers(1, 4))
    bs = draw(st.lists(
        st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                 min_size=k, max_size=k)
        .map(Matrix.from_rows).filter(lambda m: m.det() != 0),
        min_size=1, max_size=2))
    vs = draw(st.lists(st.lists(st.integers(-30, 40), min_size=k,
                                max_size=k).map(tuple),
                       min_size=1, max_size=2))
    ers_form = draw(st.booleans())
    chain = []
    for _ in range(draw(st.integers(1, 6))):
        v = draw(st.sampled_from(vs))
        b = draw(st.sampled_from(bs))
        b = b.transpose() if ers_form else b
        p = draw(st.one_of(
            st.integers(2, 20_000),
            st.integers(-3, 3).map(lambda d: max(2, _base_floor(v, b) + d))))
        chain.append((p, v, b))
    return chain


@settings(deadline=None, max_examples=400)
@given(_chains())
def test_bordered_stages_match_the_stage_by_stage_oracle(chain):
    _same_outcome(chain)


@pytest.mark.parametrize("ers_form", [False, True], ids=["ecs", "ers"])
def test_later_stage_of_a_feasible_block_is_infeasible(ers_form):
    """A block whose first stage is feasible fails at a later stage of
    smaller p, with choose_a_params' text for that p."""
    v, b = (3, -2), Matrix.from_rows([[2, 1], [-1, 3]])
    b_of = b.transpose if ers_form else lambda: b
    floor = _base_floor(v, b_of())
    chain = [(floor + 5, v, b_of()), (floor, v, b_of()),
             (floor - 1, v, b_of())]
    exc = _same_outcome(chain)
    assert type(exc) is Infeasible and exc.stage == 3
    assert str(exc) == ("stage 3: no uniform a makes the bordered matrix "
                        f"nonnegative at p={floor - 1}")


@pytest.mark.parametrize("src,dst,amount,text", [
    ((1, 0), (0, 0), 10 ** 6, "negative entry despite the chosen a"),
    ((0, 1), (0, 0), 1, "not of B-form: column sums not constant"),
    ((0, 0), (1, 0), 1, "not of B-form: right column mismatch"),
], ids=["negative", "column-sums", "kernel"])
def test_a_broken_base_is_refused_at_its_first_stage(monkeypatch, src, dst,
                                                     amount, text):
    """Each check of a block's base fires, at the block's first stage, on a
    base broken so that the checks before it still pass: an entry below
    the top made negative, a column sum moved, z no longer annihilated
    (b_extract then reads a v whose right column does not fit)."""
    general = ecs.general_ecs_matrix

    def broken(*args):
        rows = general(*args).to_rows()
        rows[src[0]][src[1]] -= amount
        rows[dst[0]][dst[1]] += amount
        return Matrix.from_rows(rows)
    monkeypatch.setattr(ecs, "general_ecs_matrix", broken)
    b = Matrix.identity(2)
    with pytest.raises(InvariantViolated, match=text) as exc:
        ecs.bordered_stages([(300, (1, 2), b), (301, (1, 2), b)])
    assert exc.value.stage == 1


def test_rejected_groupings_are_logged(tmp_path, caplog, capsys):
    """The stream p_i = 101 + 2i, v = (3 + i mod 5, 7), B = diag(1, 2) at
    n = 12 does not fit at stages 1, 5 and 10 in turn: each group is
    merged into the next, the last into the one before it, and each merge
    is one INFO record."""
    stages = [{"p": 101 + 2 * i, "v": [(3 + i) % 5, 7],
               "B": [[1, 0], [0, 2]]} for i in range(12)]
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps({"k": 2, "stages": stages}))
    caplog.set_level(logging.INFO, logger="dimgroup.ecs")
    assert cli.main(["build", "ecs", "-i", str(inp), "-o", str(out)]) == 0
    records = [r for r in caplog.records if r.name == "dimgroup.ecs"]
    assert [(r.levelno, r.msg, r.getMessage()) for r in records] == [
        (logging.INFO, "grouping %s: %s at stage %d, merging stages %d and %d",
         f"grouping {cuts}: Infeasible at stage {stage}, merging stages "
         f"{gone} and {gone + 1}")
        for cuts, stage, gone in (
            (list(range(12)), 1, 1),
            ([0, *range(2, 12)], 5, 5),
            ([0, 2, 3, 4, 5, *range(7, 12)], 10, 9))]
    assert json.loads(out.read_text())["provenance"]["cuts"] \
        == [0, 2, 3, 4, 5, 7, 8, 9, 10]
    assert json.loads(capsys.readouterr().out)["stages"] == 9


def test_ecs_pipeline_infeasible_small_p():
    """Two stages of p = 2 do not fit; merged, they are one stage of value
    4 that does.  One stage of p = 2 has nothing to merge with."""
    two = Stage(2, (0, 0), Matrix.identity(2))
    seq = ecs_pipeline(ExtensionData(2, (two, two)))
    assert seq.stage_values == (4,)
    assert seq.provenance["cuts"] == [0]
    with pytest.raises(HorizonExhausted) as exc:
        ecs_pipeline(ExtensionData(2, (two,)))
    assert str(exc.value) == (
        "no grouping of 1 stages fits: as one group, Infeasible: stage 1: "
        "no uniform a makes the bordered matrix nonnegative at p=2")
    assert exc.value.stage is None


_STREAM_BS = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 2]])


def _random_streams():
    """60 seeded k = 2 streams per B, n = 8 or 16 stages, p rising by 2
    from p_0 in [30, 200), v drawn from [0, 10)^2 at every stage: a
    search over groupings whose ratios agree within 1/100 failed on most
    of them."""
    rng = random.Random(5)
    for b in _STREAM_BS:
        for j in range(60):
            p0 = rng.randrange(30, 200)
            yield {"k": 2, "stages": [
                {"p": p0 + 2 * i, "v": [rng.randrange(10), rng.randrange(10)],
                 "B": b} for i in range(8 + 8 * (j % 2))]}


def test_random_streams_all_build_and_verify():
    merged = 0
    for payload in _random_streams():
        seq = ecs_pipeline(ExtensionData.from_json(payload))
        assert structural_report(seq).ok
        merged += len(seq) < len(payload["stages"])
    assert 0 < merged < 180


@pytest.mark.parametrize("b", [[[1, 0], [0, 1]], [[1, 0], [0, 2]]],
                         ids=["I", "diag12"])
@pytest.mark.parametrize("n", [5, 8, 12, 16, 24, 32, 48, 64])
def test_stream_builds_at_every_horizon(b, n):
    """p_i = 101 + 2i, v = ((3 + i) mod 5, 7) builds whatever the horizon:
    a longer stream only adds stages to merge."""
    seq = ecs_pipeline(ExtensionData.from_json({"k": 2, "stages": [
        {"p": 101 + 2 * i, "v": [(3 + i) % 5, 7], "B": b}
        for i in range(n)]}))
    assert math.prod(seq.stage_values) == math.prod(
        101 + 2 * i for i in range(n))
    assert structural_report(seq).ok


def test_unsettled_stream_merges_in_at_most_n_telescopings(monkeypatch):
    """p = 101, B = diag(1, 2) and v drawn from [0, 10)^2 at every one of
    128 stages: each failed build merges two groups, so at most n
    telescopings; this stream needs 74 and keeps 55 stages."""
    rng = random.Random(10)
    payload = {"k": 2, "stages": [
        {"p": 101, "v": [rng.randrange(10), rng.randrange(10)],
         "B": [[1, 0], [0, 2]]} for _ in range(128)]}
    calls = []
    original = ecs.telescope_extension

    def counted(data, cuts):
        calls.append(len(cuts))
        return original(data, cuts)
    monkeypatch.setattr(ecs, "telescope_extension", counted)
    seq = ecs_pipeline(ExtensionData.from_json(payload))
    assert len(calls) <= 128
    assert calls == list(range(128, len(seq) - 1, -1))
    assert (len(calls), len(seq)) == (74, 55)
    assert structural_report(seq).ok


def test_merged_group_is_renormalized():
    """Stages (3, 2) and (4, 3) with B = (2) do not fit apart; telescoped
    to p = 12 and B = (4), v = 3 * 3 + 2 * 2 = 13 is not below p, and the
    group fits only once v is normalized to 1."""
    b, b2 = Matrix.from_rows([[2]]), Matrix.from_rows([[4]])
    seq = ecs_pipeline(ExtensionData(1, (Stage(3, (2,), b),
                                         Stage(4, (3,), b))))
    assert seq.provenance["cuts"] == [0]
    assert list(seq.matrices) == ecs.bordered_stages([(12, (1,), b2)])
    with pytest.raises(Infeasible):
        ecs.bordered_stages([(12, (13,), b2)])
    assert structural_report(seq).ok


def test_one_b_text_is_parsed_once(monkeypatch):
    """from_json reads a B shared by n stages through json_matrix once, and
    every stage holds that one Matrix; a B of other text is read again."""
    seen = []
    original = ecs.json_matrix

    def counted(raw):
        seen.append(raw)
        return original(raw)
    monkeypatch.setattr(ecs, "json_matrix", counted)
    b = [[1, 0], [0, 2]]
    data = ExtensionData.from_json({"k": 2, "stages": [
        {"p": 101 + 2 * i, "v": [i % 3, 1], "B": json.loads(json.dumps(b))}
        for i in range(16)]})
    assert seen == [b]
    assert len({id(st.b) for st in data.stages}) == 1
    seen.clear()
    ExtensionData.from_json({"k": 2, "stages": [
        {"p": 101, "v": [0, 1], "B": b}, {"p": 103, "v": [0, 1], "B": b},
        {"p": 105, "v": [0, 1], "B": [["1", "0"], ["0", "2"]]}]})
    assert seen == [b, [["1", "0"], ["0", "2"]]]


def test_b_algebra_worked_example():
    left = BParams(7, Matrix.identity(1), (1,), 1)
    right = BParams(5, Matrix.identity(1), (2,), 1)
    left_m = general_ecs_matrix(left.p, left.v, left.b, left.a)
    right_m = general_ecs_matrix(right.p, right.v, right.b, right.a)
    assert left_m.to_rows() == [[4, 3, 5], [2, 3, 1], [1, 1, 1]]
    assert right_m.to_rows() == [[1, 0, 2], [3, 4, 2], [1, 1, 1]]
    product = left_m * right_m
    assert product.to_rows() == [[18, 17, 19], [12, 13, 11], [5, 5, 5]]
    composed = b_compose(left, right)
    assert (composed.p, composed.v, composed.a) == (35, (7,), 5)
    assert composed.b == Matrix.identity(1)


def test_b_algebra_v_zero():
    left = BParams(9, Matrix.identity(2), (0, 0), 2)
    right = BParams(11, Matrix.identity(2), (0, 0), 3)
    composed = b_compose(left, right)
    assert (composed.p, composed.v, composed.a) == (99, (0, 0), 22)


def test_b_algebra_random_closure_and_associativity():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 4)
        params = []
        for _ in range(3):
            while True:
                b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                      for _ in range(k)])
                if b.det() != 0:
                    break
            params.append(BParams(rng.randint(2, 50), b,
                                  tuple(rng.randint(-5, 5) for _ in range(k)),
                                  rng.randint(1, 5)))
        x, y, z = params
        xy = b_compose(x, y)
        yz = b_compose(y, z)
        left, right = b_compose(xy, z), b_compose(x, yz)
        assert general_ecs_matrix(left.p, left.v, left.b, left.a) \
            == general_ecs_matrix(right.p, right.v, right.b, right.a)


def test_b_extract_rejects_non_b_form():
    with pytest.raises(ParameterExtractionFailed):
        b_extract(Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 8]]))
