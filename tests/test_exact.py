import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dimgroup import exact
from dimgroup.exact import _integer_rows
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
from dimgroup.ecs import ExtensionData
from dimgroup.errors import ContentMismatch, DimensionMismatch, NonSquare
from dimgroup.exact import (Matrix, UnimodularTransform, colsum_norm, content,
                            is_unimodular, map_content1_row,
                            rank_factorization, right_kernel_basis)
from dimgroup.supernatural import FactorSequence


def test_content_examples():
    assert content((2, 4, 6)) == 2
    assert content((0, 0, 0)) == 0
    assert content((3, 5)) == 1
    assert content(()) == 0
    assert content((-4, 0, 6)) == content(iter([4, -6])) == 2


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
       st.integers(1, 9))
def test_content_scale_invariant(v, c):
    assert content([c * x for x in v]) == c * content(v)


def test_no_float_enters_a_matrix():
    """Entries are checked where they come in, and a scalar where it
    scales; exact arithmetic on checked entries stays exact."""
    with pytest.raises(TypeError):
        Matrix.identity(2).scale(0.5)
    with pytest.raises(TypeError):
        Matrix.from_rows([[1.5]])



def _fresh_sums(m):
    return (tuple(sum(m.row(i)) for i in range(m.rows)),
            tuple(sum(m.col(j)) for j in range(m.cols)))


def _random_exact(rng, rows, cols, fractions):
    def entry():
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(1, 5)) if fractions else x
    return Matrix(rows, cols, [entry() for _ in range(rows * cols)])


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_cached_sums_equal_fresh_sums(fractions):
    """Sums are computed once and kept on the matrix; a transpose inherits
    them swapped, and every result of arithmetic starts without them."""
    rng = random.Random(412)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_exact(rng, r, c, fractions)
        b = _random_exact(rng, r, c, fractions)
        sq = _random_exact(rng, c, c, fractions)
        for m in (a, b, sq):
            if rng.random() < 0.5:      # some operands carry cached sums
                m.row_sums(), m.column_sums()
        t = a.transpose()
        assert (t.row_sums(), t.column_sums()) == _fresh_sums(t)
        assert (a.row_sums(), a.column_sums()) == _fresh_sums(a)
        assert a.row_sums() is a.row_sums()
        t = a.transpose()
        assert t.row_sums() is a.column_sums()
        assert t.column_sums() is a.row_sums()
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for m in (a + b, a + b.scale(-1), a.scale(-1), a.scale(k), a * sq,
                  sq * sq, Matrix.from_rows(a.to_rows()), t * b):
            assert (m.row_sums(), m.column_sums()) == _fresh_sums(m)
        if sq.det() != 0:
            inv = sq.inverse()
            assert (inv.row_sums(), inv.column_sums()) == _fresh_sums(inv)


@st.composite
def _signed_matrices(draw):
    """int or Fraction matrices of 1-5 rows and 1-5 columns, of entries
    drawn from 0..5 or from -3..5."""
    ints = st.integers(draw(st.sampled_from([0, -3])), 5)
    entry = draw(st.sampled_from(
        [ints, st.builds(Fraction, ints, st.integers(1, 4))]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return Matrix.from_rows([[draw(entry) for _ in range(cols)]
                             for _ in range(rows)])


@given(_signed_matrices(), st.booleans())
def test_cached_facts_agree_with_the_entries(m, ask_first):
    """is_nonnegative, asked before or only after a transpose and more than
    once, is min(entries) >= 0 on the matrix, its transpose and its
    negation; the cached row and column sums are the products with the
    all-ones vector, on the matrix and on its transpose."""
    if ask_first:
        m.is_nonnegative(), m.row_sums(), m.column_sums()
    t = m.transpose()
    for a in (t, m, t, m, t.transpose(), m.scale(-1)):
        assert a.is_nonnegative() == (min(x for row in a for x in row) >= 0)
        assert a.row_sums() == a.mul_vector((1,) * a.cols)
        assert a.column_sums() == a.vector_mul((1,) * a.rows)


def test_rank_examples():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zeros(2, 2).rank() == 0
    # the split matrix for k=1, p=5
    assert Matrix.from_rows([[3, 4, 2], [1, 1, 1], [1, 0, 2]]).rank() == 2


def test_rank_transpose_symmetry():
    rng = random.Random(12)
    for _ in range(300):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(-20, 20) for _ in range(c)]
                              for _ in range(r)])
        assert m.rank() == m.transpose().rank()


def test_right_kernel_examples():
    assert right_kernel_basis(Matrix.identity(3)) == []
    assert right_kernel_basis(Matrix.from_rows([[1, 1]])) == [(1, -1)]
    # split matrix kernel is proportional to (k+1, -1, ..., -1)
    from dimgroup.ecs import split_ecs_matrix
    basis = right_kernel_basis(split_ecs_matrix(2, 10))
    assert basis == [(3, -1, -1, -1)]


def test_right_kernel_properties():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = Matrix.from_rows([[rng.randint(-6, 6) for _ in range(c)]
                              for _ in range(r)])
        basis = right_kernel_basis(m)
        assert len(basis) == c - m.rank()
        for v in basis:
            assert m.mul_vector(v) == tuple([0] * r)
            assert content(v) == 1


def test_is_unimodular():
    assert is_unimodular(Matrix.identity(4))
    assert not is_unimodular(Matrix.from_rows([[2, 0], [0, 1]]))
    assert is_unimodular(Matrix.from_rows([[1, 3], [0, -1]]))


def test_colsum_norm():
    assert colsum_norm(Matrix.identity(5)) == 1
    assert colsum_norm(Matrix.from_rows([[1, -2], [3, 0]])) == 4
    assert colsum_norm(Matrix.zeros(3, 3)) == 0


def test_det_bareiss_matches_fraction_path():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        a = Matrix.from_rows(rows)
        b = Matrix.from_rows([[Fraction(x) for x in row] for row in rows])
        assert Fraction(a.det()) == b.det()


def _leibniz_det(m):
    """det by the permutation expansion: no elimination, small n only."""
    total = 0
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(
            m[i, j] for i, j in enumerate(perm))
    return total


def test_det_is_eliminated_once_and_cached(monkeypatch):
    """The first det() eliminates, later calls return the same value; for
    int, Fraction, singular and 1x1 matrices it is the expansion's."""
    calls = []
    eliminate = exact._eliminate

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)
    monkeypatch.setattr(exact, "_eliminate", counted)
    rng = random.Random(19)
    mats = [Matrix.from_rows([[1, 2], [3, 4]]),
            Matrix.from_rows([[Fraction(1, 2), 3], [Fraction(-2, 3), 5]]),
            Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
            Matrix.from_rows([[0, 0], [0, 0]]),
            Matrix.from_rows([[7]]), Matrix.from_rows([[0]]),
            Matrix.from_rows([[Fraction(-5, 4)]])]
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[-1] = list(rows[0])
        if rng.random() < 0.3:
            rows = [[Fraction(x, rng.randint(1, 4)) for x in row]
                    for row in rows]
        mats.append(Matrix.from_rows(rows))
    for m in mats:
        expected = _leibniz_det(m)
        calls.clear()
        assert m.det() == expected
        assert m.det() == expected
        assert len(calls) == 1
    assert any(m.det() == 0 for m in mats)
    assert any(isinstance(m.det(), Fraction) for m in mats)


def test_det_is_carried_through_square_products(monkeypatch):
    """A product of two square factors whose determinants are known has
    det A * det B with no elimination, and it equals a fresh elimination
    of the product's entries; a factor with no determinant taken yet
    leaves the product's to be eliminated."""
    calls = []
    eliminate = exact._eliminate

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)
    monkeypatch.setattr(exact, "_eliminate", counted)
    rng = random.Random(23)
    kinds = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        pair = []
        for _ in range(2):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.25:
                rows[-1] = list(rows[0])
            if rng.random() < 0.3:
                rows = [[Fraction(x, rng.randint(1, 5)) for x in row]
                        for row in rows]
            pair.append(Matrix.from_rows(rows))
        a, b = pair
        a.det(), b.det()
        calls.clear()
        carried = (a * b).det()
        assert calls == []
        assert carried == Matrix.from_rows((a * b).to_rows()).det() \
            == _leibniz_det(a * b)
        kinds.add((carried == 0, isinstance(carried, Fraction)))
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True)}
    fresh = Matrix.from_rows([[1, 2], [3, 4]])
    known = Matrix.from_rows([[2, 0], [0, 3]])
    known.det()
    calls.clear()
    assert (known * fresh).det() == (fresh * known).det() == -12
    assert len(calls) == 2
    wide = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NonSquare):
        (known * wide).det()


def test_det_of_non_square_raises_every_time():
    m = Matrix.zeros(2, 3)
    for _ in range(2):
        with pytest.raises(NonSquare):
            m.det()


def test_extension_data_shares_equal_bs():
    """Equal Bs in an ECS input become one Matrix, so its determinant is
    taken once; distinct Bs stay apart."""
    b1, b2 = [[1, 2], [0, 1]], [[2, 1], [1, 1]]
    data = ExtensionData.from_json({"k": 2, "stages": [
        {"p": 50 + i, "v": [0, 0], "B": [list(r) for r in b]}
        for i, b in enumerate((b1, b2, b1, b2, b1))]})
    bs = [stage.b for stage in data.stages]
    assert bs[0] is bs[2] is bs[4]
    assert bs[1] is bs[3]
    assert bs[0] is not bs[1]
    assert bs[0] == Matrix.from_rows(b1) and bs[1] == Matrix.from_rows(b2)


def test_charpoly_int_examples():
    assert Matrix.from_rows([[1, 2], [2, 1]]).charpoly() == (1, -2, -3)
    assert Matrix.identity(3).charpoly() == (1, -3, 3, -1)
    # companion of x^3 - 2
    comp = Matrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert comp.charpoly() == (1, 0, 0, -2)


def test_charpoly_matches_determinant_shift():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = Matrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                              for _ in range(n)])
        x = rng.randint(-4, 4)
        shifted = Matrix.identity(n).scale(x) + a.scale(-1)
        assert a.charpoly_at(x) == shifted.det()


def test_map_content1_row_examples():
    e = map_content1_row((1, 0), (1, 1))
    assert e.inverse().matrix.vector_mul((1, 0)) == (1, 1)
    ident = map_content1_row((2, 3), (2, 3))
    assert ident.inverse().matrix.vector_mul((2, 3)) == (2, 3)
    with pytest.raises(ContentMismatch):
        map_content1_row((2, 4), (1, 1))


def test_map_content1_row_random():
    rng = random.Random(31)
    done = 0
    while done < 200:
        k = rng.randint(1, 6)
        r = tuple(rng.randint(-9, 9) for _ in range(k))
        t = tuple(rng.randint(-9, 9) for _ in range(k))
        if content(r) != 1 or content(t) != 1:
            continue
        e = map_content1_row(r, t)
        assert e.inverse().matrix.vector_mul(r) == t
        assert abs(e.matrix.det()) == 1
        done += 1


def test_transform_replay_and_inverse():
    rng = random.Random(44)
    for _ in range(50):
        k = rng.randint(1, 5)
        ops = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.choice(["swap", "neg", "add"])
            i = rng.randrange(k)
            if kind == "swap" and k > 1:
                j = rng.choice([x for x in range(k) if x != i])
                ops.append(("swap", i, j))
            elif kind == "add" and k > 1:
                j = rng.choice([x for x in range(k) if x != i])
                ops.append(("add", i, j, rng.randint(-4, 4)))
            else:
                ops.append(("neg", i))
        u = UnimodularTransform(k, tuple(ops))
        m = u.matrix
        assert abs(m.det()) == 1
        assert m * u.inverse().matrix == Matrix.identity(k)


def _elementary(size, op):
    """Dense elementary matrix of one op, the reference for the replay."""
    e = [[int(i == j) for j in range(size)] for i in range(size)]
    if op[0] == "swap":
        _, i, j = op
        e[i][i] = e[j][j] = 0
        e[i][j] = e[j][i] = 1
    elif op[0] == "neg":
        e[op[1]][op[1]] = -1
    else:
        _, i, j, m = op
        e[i][j] = m
    return Matrix.from_rows(e)


def test_transform_matrix_is_product_of_elementary_matrices():
    rng = random.Random(45)
    for _ in range(200):
        k = rng.randint(2, 5)
        ops = []
        for _ in range(rng.randint(0, 12)):
            i, j = rng.sample(range(k), 2)
            ops.append(rng.choice([("swap", i, j), ("neg", i),
                                   ("add", i, j, rng.randint(-4, 4))]))
        expected = Matrix.identity(k)
        for op in ops:
            expected = expected * _elementary(k, op)
        assert UnimodularTransform(k, tuple(ops)).matrix == expected
    # one order-sensitive case spelled out
    u = UnimodularTransform(2, (("add", 0, 1, 1), ("swap", 0, 1)))
    assert u.matrix.to_rows() == [[1, 1], [1, 0]]


def test_transform_matrix_rejects_unknown_op():
    with pytest.raises(ValueError):
        UnimodularTransform(2, (("scale", 0, 2),)).matrix


def _random_ops(rng, k, count):
    ops = []
    for _ in range(count):
        if k == 1:
            ops.append(("neg", 0))
            continue
        i, j = rng.sample(range(k), 2)
        ops.append(rng.choice([("swap", i, j), ("neg", i),
                               ("add", i, j, rng.randint(-4, 4))]))
    return tuple(ops)


def test_conjugate_matches_dense_oracle():
    """Replaying the ops gives T m T^{-1}, with T and T^{-1} built densely
    here, for int and Fraction entries and for the empty op list."""
    rng = random.Random(46)
    for trial in range(150):
        k = rng.randint(1, 8)
        ops = () if trial % 10 == 0 else _random_ops(rng, k, rng.randint(1, 16))
        u = UnimodularTransform(k, ops)
        mats = [Matrix.from_rows([[rng.randint(-9, 9) for _ in range(k)]
                                  for _ in range(k)]),
                Matrix.from_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                   for _ in range(k)] for _ in range(k)])]
        t, t_inv = u.matrix, u.inverse().matrix
        assert u.conjugate(mats) == [t * m * t_inv for m in mats]
    assert UnimodularTransform(3, ()).conjugate([]) == []


def test_conjugate_rejects_wrong_size():
    u = UnimodularTransform(3, (("add", 0, 1, 2),))
    with pytest.raises(DimensionMismatch):
        u.conjugate([Matrix.identity(3), Matrix.identity(2)])
    with pytest.raises(DimensionMismatch):
        u.conjugate([Matrix.zeros(3, 2)])


def test_conjugate_rejects_unknown_op():
    u = UnimodularTransform(2, (("add", 0, 1, 1), ("scale", 0, 2)))
    with pytest.raises(ValueError):
        u.conjugate([Matrix.identity(2)])


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) * Matrix.identity(3)


def test_inverse_of_unimodular_is_integer():
    ops = (("add", 0, 1, 3), ("swap", 1, 2), ("neg", 0), ("add", 2, 0, -5))
    m = UnimodularTransform(3, ops).matrix
    inv = m.inverse()
    assert m * inv == Matrix.identity(3)
    assert all(type(x) is int for row in inv.to_rows() for x in row)


@st.composite
def _exact_matrices(draw):
    """int / Fraction matrices up to 6x6, with zero rows, integral-Fraction
    rows and rows combined from earlier ones (rank deficiency)."""
    small = st.integers(-9, 9)
    r = draw(st.integers(1, 6))
    c = draw(st.one_of(st.just(r), st.integers(1, 6)))   # square half the time
    rows: list[list] = []
    for _ in range(r):
        kind = draw(st.sampled_from(
            ["int", "fraction", "integral", "zero", "combination"]))
        if kind == "zero":
            row = [0] * c
        elif kind == "combination" and rows:
            a, b = draw(small), draw(small)
            u = rows[draw(st.integers(0, len(rows) - 1))]
            w = rows[draw(st.integers(0, len(rows) - 1))]
            row = [a * x + b * y for x, y in zip(u, w)]
        elif kind == "fraction":
            row = [Fraction(draw(small), draw(st.integers(2, 6)))
                   for _ in range(c)]
        elif kind == "integral":
            row = [Fraction(draw(small)) for _ in range(c)]
        else:
            row = [draw(small) for _ in range(c)]
        rows.append(row)
    return rows


def _normalized(v) -> tuple[int, ...]:
    """Content 1, first nonzero entry positive."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = content(ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(sign * x // g for x in ints)


@settings(deadline=None)
@given(_exact_matrices())
@example([[0, Fraction(1, 2)], [Fraction(3), Fraction(2, 3)]])
def test_elimination_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")

    def exact(x):
        return Fraction(int(x.p), int(x.q))

    m = Matrix.from_rows(rows)
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         for x in row] for row in rows])
    assert m.rank() == ref.rank()
    basis = right_kernel_basis(m)
    assert basis == [_normalized([exact(x) for x in v])
                     for v in ref.nullspace()]
    assert all(type(x) is int for v in basis for x in v)
    if not m.is_square:
        return
    assert m.charpoly() == tuple(exact(c) for c in ref.charpoly().all_coeffs())
    assert m.det() == exact(ref.det())
    if ref.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    inv = m.inverse()
    expected = ref.inv()
    for i in range(m.rows):
        for j in range(m.cols):
            x = inv[i, j]
            assert x == exact(expected[i, j])
            assert (type(x) is int) == (expected[i, j].q == 1)


@st.composite
def _blown_up_matrices(draw):
    """Matrices whose rows repeat rows of a random int / Fraction base, in
    any order, with zero rows mixed in; square half the time."""
    base = draw(_exact_matrices())
    c = len(base[0])
    r = draw(st.one_of(st.just(c), st.integers(1, 9)))
    picks = st.one_of(st.sampled_from(range(len(base))), st.none())
    return [[0] * c if i is None else base[i]
            for i in draw(st.lists(picks, min_size=r, max_size=r))]


def _eliminate_every_row(rows):
    """Reference: the elimination of every row, repeats and zeros kept.
    Returns the pivot columns, the final pivot, the nonzero eliminated rows
    and the normalized right kernel basis they give."""
    ints = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        ints.append([int(x * den) for x in row])
    pivots, d, _ = exact._eliminate(ints)
    cols = len(rows[0])
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            v = [0] * cols
            v[fc] = d
            for row, pc in zip(ints, pivots):
                v[pc] = -row[fc]
            basis.append(_normalized(v))
    return pivots, d, ints[:len(pivots)], basis


@settings(deadline=None)
@given(_blown_up_matrices())
@example([[1, 2], [1, 2]])
@example([[0, 0], [0, 0], [0, 0]])
@example([[Fraction(1, 2), 1], [0, 0], [Fraction(1, 2), 1], [3, 4]])
def test_repeated_and_zero_rows_change_no_elimination_result(rows):
    """Eliminating each distinct nonzero row once gives the rank, kernel,
    determinant and singularity of the whole matrix, and a rank
    factorization d m = m[:, p] R whose R / d is the reduced echelon form
    that eliminating every row gives."""
    sympy = pytest.importorskip("sympy")

    def exact_value(x):
        return Fraction(int(x.p), int(x.q))

    m = Matrix.from_rows(rows)
    ref = sympy.Matrix([[sympy.Rational(str(x)) for x in row]
                        for row in rows])
    full_pivots, full_d, full_r, full_basis = _eliminate_every_row(rows)
    assert m.rank() == ref.rank() == len(full_pivots)
    basis = right_kernel_basis(m)
    assert basis == full_basis == [_normalized(list(map(exact_value, v)))
                                   for v in ref.nullspace()]
    pivots, r = rank_factorization(m)
    assert pivots == full_pivots
    if pivots:
        d = r[0][pivots[0]]
        assert all(row[pc] == (d if i == j else 0)
                   for i, row in enumerate(r) for j, pc in enumerate(pivots))
        assert [[Fraction(x, d) for x in row] for row in r] \
            == [[Fraction(x, full_d) for x in row] for row in full_r]
        left = Matrix.from_rows([[m[i, j] for j in pivots]
                                 for i in range(m.rows)])
        assert m.scale(d) == left * Matrix.from_rows(r)
    else:
        assert r == []
    if not m.is_square:
        return
    assert m.det() == exact_value(ref.det())
    if ref.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert m * m.inverse() == Matrix.identity(m.rows)


@settings(deadline=None)
@given(_blown_up_matrices())
@example([[2, 4], [0, 0], [2, 4]])
@example([[Fraction(1, 2), 0, 1], [0, 0, 0], [Fraction(1, 2), 0, 1]])
def test_rank_factorization_of_rows_is_that_of_their_matrix(rows):
    """rank_factorization takes any iterable of rows, lists or tuples, and
    a Matrix iterates over its own rows, so both factor alike."""
    m = Matrix.from_rows(rows)
    assert list(m) == [tuple(row) for row in rows]
    expected = rank_factorization(m)
    assert rank_factorization(rows) == expected
    assert rank_factorization(map(tuple, rows)) == expected
    assert rows == [list(row) for row in m]     # the input rows are unchanged


@st.composite
def _square_int_matrices(draw):
    """Square integer matrices of size 1-5 with small entries; a repeated
    row or column makes some of them singular."""
    n = draw(st.integers(1, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        if draw(st.booleans()):
            rows[i] = list(rows[j])
        else:
            for row in rows:
                row[i] = row[j]
    return rows


@settings(deadline=None, max_examples=300)
@given(_square_int_matrices())
@example([[0]])
@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0]])
def test_rank_factorization_has_full_rank_iff_det_is_nonzero(rows):
    """A square integer matrix has len(rows) pivots exactly when its
    determinant is nonzero, and then its final pivot rows[0][pivots[0]]
    is +-det: the fact the verifier's modular chain certificate reads."""
    m = Matrix.from_rows(rows)
    det = _leibniz_det(m)
    assert m.det() == det
    pivots, reduced = rank_factorization(rows)
    assert (len(pivots) == len(rows)) == (det != 0)
    if det:
        assert reduced[0][pivots[0]] in (det, -det)


def test_elimination_sees_only_the_distinct_rows_of_an_ecrs_stage(
        monkeypatch):
    """A built ECRS stage of size 16 repeats 7 distinct rows; each
    elimination of it receives exactly those, once each, in order."""
    seen = []
    eliminate = exact._eliminate

    def recording(rows):
        seen.append([tuple(row) for row in rows])
        return eliminate(rows)

    prob = EcrsProblem(3, 16, (1, 2, 3), FactorSequence((881, 929, 977, 1009)))
    m = ecrs_pipeline(prob).matrices[0]
    distinct = [row for row in dict.fromkeys(map(m.row, range(m.rows)))
                if any(row)]
    assert len(distinct) == 7
    monkeypatch.setattr(exact, "_eliminate", recording)
    m.rank(), m.det(), right_kernel_basis(m), rank_factorization(m)
    assert seen == [distinct] * 4


def test_integer_rows_pass_int_rows_and_scale_the_rest():
    # A row of ints passes as the same object; bool and Fraction rows take
    # the scaling path and come out as lists of ints.
    ints = (2, -3)
    out, scale = _integer_rows([ints, (True, False, True),
                                (Fraction(1, 2), Fraction(1, 3)),
                                (Fraction(4), 5), ints, (0, 0)])
    assert out[0] is ints
    assert out[1:] == [[1, 0, 1], [3, 2], [4, 5]]
    assert all(type(x) is int for row in out[1:] for x in row)
    assert scale == 6
