import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from dimgroup.errors import (DimensionMismatch, InvariantViolated,
                             NonSquare, NotIntegerEigenvalue, NotNonnegative,
                             NotPrimitive)
from dimgroup import perron
from dimgroup.exact import Matrix, right_kernel_basis
from dimgroup.perron import (_perron_vector, check_equal_sums_criterion,
                             integer_perron, is_primitive, perron_root,
                             unique_trace_diagnostic)


def test_is_primitive_examples():
    assert is_primitive(Matrix.from_rows([[1, 1], [1, 0]]))
    assert not is_primitive(Matrix.from_rows([[0, 1], [1, 0]]))
    assert is_primitive(Matrix.from_rows([[2]]))
    assert not is_primitive(Matrix.from_rows([[0]]))
    with pytest.raises(NotNonnegative):
        is_primitive(Matrix.from_rows([[1, -1], [1, 1]]))


def _wielandt_primitive(a: Matrix) -> bool:
    """Reference for is_primitive: boolean powers of the zero pattern up to
    the Wielandt bound (s-1)^2 + 1, with no positive-cross shortcut."""
    s = a.rows
    pattern = [[x > 0 for x in a.row(i)] for i in range(s)]
    power = pattern
    for _ in range((s - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = [[any(power[i][m] and pattern[m][j] for m in range(s))
                  for j in range(s)] for i in range(s)]
    return all(all(row) for row in power)


def test_is_primitive_matches_the_wielandt_loop():
    """The positive cross needs row j and column j of one index j: a
    positive row 0 and a positive column 1 do not make [[1,1],[0,1]]
    primitive."""
    for rows, expected in (([[1, 1], [0, 1]], False), ([[0]], False),
                           ([[1]], True)):
        m = Matrix.from_rows(rows)
        assert is_primitive(m) == _wielandt_primitive(m) == expected
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        s = rng.randint(1, 7)
        density = rng.choice([0.2, 0.35, 0.5, 0.8])
        m = Matrix.from_rows([[int(rng.random() < density)
                               for _ in range(s)] for _ in range(s)])
        expected = _wielandt_primitive(m)
        assert is_primitive(m) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 300


@st.composite
def _patterns(draw):
    s = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    return Matrix.from_rows([[draw(st.integers(1, 3)) if draw(
        st.floats(0, 1)) < density else 0 for _ in range(s)]
        for _ in range(s)])


@settings(deadline=None, max_examples=400)
@given(_patterns())
def test_is_primitive_by_squaring_matches_explicit_powers(m):
    """ceil(log2((s-1)^2 + 1)) squarings decide what the explicit boolean
    powers up to the Wielandt bound decide."""
    expected = _wielandt_primitive(m)
    event(f"primitive: {expected}")
    assert is_primitive(m) == expected


def test_wielandt_matrix_is_decided_by_squaring():
    """The Wielandt matrix, the primitive matrix whose first positive power
    is the bound (s-1)^2 + 1 itself, and the cycle, which is not primitive;
    neither has a positive cross."""
    for s in (2, 5, 8, 64):
        cycle = [[int(j == (i + 1) % s) for j in range(s)] for i in range(s)]
        assert not is_primitive(Matrix.from_rows(cycle))
        cycle[s - 1][1] = 1
        assert is_primitive(Matrix.from_rows(cycle))
        if s <= 8:
            assert _wielandt_primitive(Matrix.from_rows(cycle))


def test_a_perron_solve_is_checked_for_one_positive_vector():
    """A solved basis of ker(A - rho I) is taken only if it is one strictly
    positive vector up to sign: two vectors, none, or one with a zero or
    with entries of both signs raise.  The row and column sums of the
    example are unequal, so both of its vectors are solved."""
    m = Matrix.from_rows([[1, 2], [3, 6]])
    pd = integer_perron(m)
    assert pd == (7, (1, 2), (1, 3), 2)
    for basis in ([[1, 3], [1, 0]], [], [[1, 0]], [[2, -1]]):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(perron, "factor_kernel_basis", lambda *args: basis)
            for left in (False, True):
                with pytest.raises(InvariantViolated):
                    _perron_vector(m, 7, left=left)
            with pytest.raises(InvariantViolated):
                integer_perron(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perron, "factor_kernel_basis",
                      lambda *args: [[-2, -6]])
        assert _perron_vector(m, 7) == (1, 3)


def test_is_primitive_transpose_symmetry():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(0, 2) if rng.random() < 0.5 else 0
                               for _ in range(n)] for _ in range(n)])
        assert is_primitive(m) == is_primitive(m.transpose())


def test_integer_perron_examples():
    pd = integer_perron(Matrix.from_rows([[1, 2], [2, 1]]))
    assert (pd.eigenvalue, pd.left, pd.right) == (3, (1, 1), (1, 1))
    pd = integer_perron(Matrix.from_rows([[7, 8], [8, 7]]))
    assert (pd.eigenvalue, pd.left, pd.right) == (15, (1, 1), (1, 1))
    with pytest.raises(NotIntegerEigenvalue):
        integer_perron(Matrix.from_rows([[1, 1], [1, 0]]))   # golden mean
    with pytest.raises(NotPrimitive):
        integer_perron(Matrix.from_rows([[0, 1], [1, 0]]))


def test_integer_perron_verifies():
    pd = integer_perron(Matrix.from_rows([[3, 1], [2, 2]]))
    assert pd.eigenvalue == 4
    assert pd.left == (2, 1)
    assert pd.right == (1, 1)
    m = Matrix.from_rows([[3, 1], [2, 2]])
    assert m.vector_mul(pd.left) == tuple(4 * x for x in pd.left)
    assert m.mul_vector(pd.right) == tuple(4 * x for x in pd.right)


def _perron_cases(rng, count):
    """Nonnegative integer matrices up to 4x4: general ones (rho mostly
    irrational), permuted triangular ones (reducible, rho = the largest
    diagonal entry), and permuted strictly triangular ones (nilpotent)."""
    for _ in range(count):
        n = rng.randint(1, 4)
        kind = rng.choice(["general", "triangular", "nilpotent"])
        rows = [[rng.randint(0, 5) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(n)]
        if kind != "general":
            floor = 1 if kind == "nilpotent" else 0
            rows = [[x if j >= i + floor else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
            perm = rng.sample(range(n), n)
            rows = [[rows[perm[i]][perm[j]] for j in range(n)]
                    for i in range(n)]
        yield rows


def test_perron_root_matches_sympy():
    """perron_root returns the spectral radius exactly when it is an integer
    and raises otherwise, never a smaller integer root; sympy's largest real
    eigenvalue (the spectral radius, by Perron-Frobenius) is the reference."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2013)
    seen = {"integer": 0, "irrational": 0, "zero": 0, "not primitive": 0,
            "smaller integer root": 0}
    cases = list(_perron_cases(rng, 400)) + [[[1, 1, 1], [3, 1, 1], [1, 0, 3]],
                                              [[0, 12], [1, 1]]]
    for rows in cases:
        m = Matrix.from_rows(rows)
        roots = sympy.Matrix(rows).charpoly().real_roots()
        rho = max(roots)
        if not is_primitive(m):
            seen["not primitive"] += 1
        if rho.is_integer:
            seen["integer" if rho else "zero"] += 1
            assert perron_root(m) == int(rho), rows
        else:
            seen["irrational"] += 1
            if any(r.is_integer and r > 0 for r in roots):
                seen["smaller integer root"] += 1
            with pytest.raises(NotIntegerEigenvalue):
                perron_root(m)
    assert min(seen.values()) >= 5, seen


def test_perron_root_sum_sandwich_needs_no_charpoly(monkeypatch):
    def no_charpoly(self):
        raise AssertionError("charpoly computed")
    monkeypatch.setattr(Matrix, "charpoly", no_charpoly)
    assert perron_root(Matrix.from_rows([[3, 1], [2, 2]])) == 4   # row sums
    assert perron_root(Matrix.from_rows([[3, 2], [1, 2]])) == 4   # column sums
    with pytest.raises(NotNonnegative):
        perron_root(Matrix.from_rows([[1, -1], [1, 1]]))


def test_integer_perron_one_charpoly_for_huge_sum_range(monkeypatch):
    """[[0, r(r-1)], [1, 1]] has Perron root r, row sums (r(r-1), 2) and
    column sums (1, r(r-1) + 1): no sum is constant and the sandwich
    [2, r(r-1)] is wider than 10^20, so a scan could never finish."""
    calls = []
    charpoly = Matrix.charpoly

    def counted(self):
        calls.append(self)
        if len(calls) > 1:
            raise AssertionError("charpoly computed twice")
        return charpoly(self)

    monkeypatch.setattr(Matrix, "charpoly", counted)
    r = 10 ** 11
    pd = integer_perron(Matrix.from_rows([[0, r * (r - 1)], [1, 1]]))
    assert (pd.eigenvalue, pd.left, pd.right) == (r, (1, r), (r - 1, 1))
    assert len(calls) == 1


@st.composite
def _perron_matrices(draw, kinds=("both", "rows", "columns", "neither")):
    """Nonnegative matrices with an integer Perron root and constant row and
    column sums, constant row sums only, constant column sums only, or
    neither.  Row i of T gets its diagonal raised until T v = m v; then
    A = T L / v (columnwise, L = lcm v) has A v = L m v."""
    s = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(kinds))
    entries = st.integers(0, 4)
    if kind == "both":
        perms = draw(st.lists(st.permutations(range(s)), min_size=1,
                              max_size=4))
        c = draw(entries)
        return Matrix.from_rows([[c + sum(p[i] == j for p in perms)
                                  for j in range(s)] for i in range(s)])
    v = (draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))
         if kind == "neither" else [1] * s)
    t = [draw(st.lists(entries, min_size=s, max_size=s)) for _ in range(s)]
    m = max(-(-sum(row) // vi) for row, vi in zip(t, v))
    for i, (row, vi) in enumerate(zip(t, v)):
        row[i] += m * vi - sum(row)
    lcm = math.lcm(*v)
    a = Matrix.from_rows([[x * lcm // vj for x, vj in zip(row, v)]
                          for row in t])
    return a.transpose() if kind == "columns" else a


@settings(deadline=None, max_examples=300)
@given(_perron_matrices())
def test_integer_perron_matches_the_kernels(m):
    """The constant-sum shortcut and the kernel path both give the one
    content-1 basis vector of ker(A - rho I) and of its transpose."""
    assume(is_primitive(m))
    event(f"constant row sums: {len(set(m.row_sums())) == 1}, "
          f"constant column sums: {len(set(m.column_sums())) == 1}")
    pd = integer_perron(m)
    shifted = m + Matrix.identity(m.rows).scale(-perron_root(m))
    assert right_kernel_basis(shifted) == [pd.right]
    assert right_kernel_basis(shifted.transpose()) == [pd.left]
    lam = pd.eigenvalue
    assert m.vector_mul(pd.left) == tuple(lam * x for x in pd.left)
    assert m.mul_vector(pd.right) == tuple(lam * x for x in pd.right)



@settings(deadline=None, max_examples=200)
@given(_perron_matrices(), st.booleans())
def test_perron_vector_solves_without_the_redundant_row(m, left):
    """Where every column of the solved A - rho I (for the left vector, of
    its transpose) sums to zero, its rows sum to zero, so the kernel solve
    sees one row fewer; elsewhere it sees every row, as a row left out of
    a matrix without that dependency could widen its kernel.  Either way
    it returns the vector of the full kernel."""
    sums = m.column_sums() if left else m.row_sums()
    assume(is_primitive(m) and len(set(sums)) > 1)
    root = perron_root(m)
    shifted = m + Matrix.identity(m.rows).scale(-root)
    full = right_kernel_basis(shifted.transpose() if left else shifted)
    redundant = set(m.row_sums() if left else m.column_sums()) == {root}
    event(f"left: {left}, redundant row: {redundant}")
    solved = []
    original = perron.rank_factorization

    def counted(rows):
        solved.append((len(rows), len(rows[0])))
        return original(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perron, "rank_factorization", counted)
        assert [_perron_vector(m, root, left=left)] == full
    assert solved == [(m.rows - redundant, m.rows)]


@settings(deadline=None, max_examples=200)
@given(_perron_matrices())
def test_left_perron_data_equals_the_transposed_computation(m):
    """integer_perron reads the left data from the columns of A, and
    transposes only to solve a kernel; the answer is the right data of a
    separately built A^T."""
    assume(is_primitive(m))
    t = Matrix.from_rows([list(m.col(j)) for j in range(m.cols)])
    pd, pt = integer_perron(m), integer_perron(t)
    assert (pd.eigenvalue, pd.left, pd.right) \
        == (pt.eigenvalue, pt.right, pt.left)
    assert _perron_vector(m, pd.eigenvalue, left=True) \
        == _perron_vector(t, pd.eigenvalue)


def test_check_equal_sums_examples():
    rep = check_equal_sums_criterion(Matrix.from_rows([[7, 8], [8, 7]]))
    assert rep.inner_product == 2 == rep.size and rep.sums_equal
    rep = check_equal_sums_criterion(Matrix.from_rows([[1, 2], [2, 1]]))
    assert rep.inner_product == 2 and rep.sums_equal
    rep = check_equal_sums_criterion(Matrix.from_rows([[3, 1], [2, 2]]))
    assert rep.inner_product == 3 != rep.size and not rep.sums_equal


def _raw_primitive(rows, n):
    full = (1 << n) - 1
    base = [sum(1 << j for j in range(n) if rows[i][j]) for i in range(n)]
    power = base
    for _ in range((n - 1) ** 2 + 1):
        if all(r == full for r in power):
            return True
        nxt = []
        for i in range(n):
            acc = 0
            bits = power[i]
            j = 0
            while bits:
                if bits & 1:
                    acc |= base[j]
                bits >>= 1
                j += 1
            nxt.append(acc)
        power = nxt
    return all(r == full for r in power)


def _raw_has_integer_root(rows, n, lo, hi):
    for r in range(lo, hi + 1):
        a = [[rows[i][j] - (r if i == j else 0) for j in range(n)]
             for i in range(n)]
        if n == 1:
            det = a[0][0]
        elif n == 2:
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        else:
            det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                   - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                   + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        if det == 0:
            return True
    return False


def test_equal_sums_criterion_exhaustive_small():
    """Exhaustive check of the criterion over primitive matrices with
    entries <= 3 and size <= 3 having an integer Perron value: an inner
    product equal to the size must force equal row and column sums.  The
    library call raises if the implication ever fails.  Raw-int prefilters
    keep the loop fast; every survivor goes through the library."""
    checked = 0
    for n in (1, 2, 3):
        for entries in product(range(4), repeat=n * n):
            rows = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
            row_sums = [sum(r) for r in rows]
            col_sums = [sum(rows[i][j] for i in range(n)) for j in range(n)]
            if len(set(row_sums)) == 1 and len(set(col_sums)) == 1:
                continue   # conclusion already true, nothing to falsify
            if not _raw_primitive(rows, n):
                continue
            if not _raw_has_integer_root(rows, n, min(col_sums), max(col_sums)):
                continue
            m = Matrix.from_rows(rows)
            assert is_primitive(m)
            try:
                rep = check_equal_sums_criterion(m)   # raises on a violation
            except NotIntegerEigenvalue:
                continue
            assert rep.inner_product != rep.size
            checked += 1
    assert checked > 1000   # the search space was genuinely populated


def test_unique_trace_diagnostic_stationary():
    # eigenvalues 3 and -1: the normalized deviation is 3^-h, which crosses
    # the 1e-6 tolerance between horizons 12 and 14
    a = Matrix.from_rows([[1, 2], [2, 1]])
    rep = unique_trace_diagnostic([a], 14)
    assert rep.numeric_rank_at_tol == 1
    half = Fraction(1, 2)
    for i in range(2):
        for j in range(2):
            assert abs(rep.limit_matrix[i, j] - half) < Fraction(1, 10 ** 5)
    rep12 = unique_trace_diagnostic([a], 12)
    assert rep12.numeric_rank_at_tol == 2   # (1/3)^12 is still above 1e-6


def test_unique_trace_diagnostic_identity():
    rep = unique_trace_diagnostic([Matrix.identity(2)], 5)
    assert rep.numeric_rank_at_tol == 2
    assert rep.limit_matrix == Matrix.from_rows([[Fraction(1), Fraction(0)],
                                                 [Fraction(0), Fraction(1)]])


def test_unique_trace_diagnostic_two_pure_traces():
    # The classical two-pure-trace family keeps the diagnostic rank at 2.
    mats = [Matrix.from_rows([[1, 2 ** j], [2 ** j, 1]]) for j in range(1, 7)]
    rep = unique_trace_diagnostic(mats, 6)
    assert rep.numeric_rank_at_tol == 2


def test_unique_trace_commuting_family():
    from dimgroup.ecrs import commuting_family
    seq = commuting_family(Matrix.from_rows([[1, 2], [2, 1]]), [5, 13, 17])
    rep = unique_trace_diagnostic(list(seq.matrices), 12)
    assert rep.numeric_rank_at_tol == 1
    # simultaneous conjugation (here by a permutation, keeping entries
    # nonnegative) does not change the verdict
    perm = Matrix.from_rows([[0, 1], [1, 0]])
    conjugated = [perm * m * perm for m in seq.matrices]
    rep = unique_trace_diagnostic(conjugated, 12)
    assert rep.numeric_rank_at_tol == 1


def test_unique_trace_diagnostic_needs_integer_spectral_radius():
    # charpoly (x - 2)(x^2 - 3x - 3): the integer root 2 is not rho = 3.79...
    with pytest.raises(NotIntegerEigenvalue):
        unique_trace_diagnostic(
            [Matrix.from_rows([[1, 1, 1], [3, 1, 1], [1, 0, 3]])], 4)
    with pytest.raises(NotIntegerEigenvalue):    # nilpotent: rho = 0
        unique_trace_diagnostic([Matrix.from_rows([[0, 1], [0, 0]])], 2)


def test_unique_trace_diagnostic_errors():
    from dimgroup.errors import SizeMismatch
    with pytest.raises(SizeMismatch):
        unique_trace_diagnostic([], 3)
    with pytest.raises(NonSquare):
        unique_trace_diagnostic([Matrix.from_rows([[1, 2]])], 3)
    with pytest.raises(SizeMismatch):
        unique_trace_diagnostic([Matrix.identity(2), Matrix.identity(3)], 3)


# Shift equivalence is reached by no command; it stays here as a checked
# definition.
@dataclass(frozen=True)
class ShiftEquivalence:
    """Witness (X, Y, lag) for a shift equivalence between matrices A and M:
    XM = AX, MY = YA, XY = A^lag, YX = M^lag."""

    x: Matrix
    y: Matrix
    lag: int


def check_shift_equivalence(a: Matrix, m: Matrix, se: ShiftEquivalence) -> bool:
    """All four defining identities, by exact multiplication."""
    if not a.is_square or not m.is_square:
        raise NonSquare("shift equivalence needs square matrices")
    ya, sm = a.rows, m.rows
    if se.x.rows != ya or se.x.cols != sm or se.y.rows != sm or se.y.cols != ya:
        raise DimensionMismatch(
            f"X must be {ya}x{sm} and Y {sm}x{ya} for A of size {ya}, M of size {sm}")
    if se.lag < 1:
        raise DimensionMismatch("lag must be a positive integer")
    return (se.x * m == a * se.x
            and m * se.y == se.y * a
            and se.x * se.y == functools.reduce(Matrix.__mul__, [a] * se.lag)
            and se.y * se.x == functools.reduce(Matrix.__mul__, [m] * se.lag))


def test_shift_equivalence():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    assert check_shift_equivalence(a, a, ShiftEquivalence(a, a, 2))
    i2 = Matrix.identity(2)
    assert check_shift_equivalence(i2, i2, ShiftEquivalence(i2, i2, 1))
    bad = ShiftEquivalence(Matrix.from_rows([[1, 2], [2, 2]]), a, 2)
    assert not check_shift_equivalence(a, a, bad)
    with pytest.raises(DimensionMismatch):
        check_shift_equivalence(a, Matrix.identity(3),
                                ShiftEquivalence(a, a, 1))
