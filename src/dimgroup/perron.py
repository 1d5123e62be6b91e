"""Primitivity, integer Perron data (the root certified by the sum sandwich
or one charpoly bisection, each vector all ones or one kernel solve), equal
sums, and the unique-trace diagnostic."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .errors import (InvariantViolated, NonSquare, NotIntegerEigenvalue,
                     NotNonnegative, NotPrimitive, SizeMismatch)
from .exact import (Matrix, factor_kernel_basis, primitive_part,
                    rank_factorization)


def is_primitive(a: Matrix) -> bool:
    """True iff some power of the nonnegative square matrix a is entrywise
    positive.  A positive cross, an index j whose row j and column j are
    both positive, certifies it at once: (a^2)_il >= a_ij a_jl > 0.  Without
    one, the zero pattern is squared: a is primitive iff a^N > 0 for
    N = (s-1)^2 + 1 (Wielandt), and then every later power is positive too,
    so ceil(log2 N) squarings of the row bitsets decide it."""
    if not a.is_square:
        raise NonSquare("primitivity needs a square matrix")
    if not a.is_nonnegative():
        raise NotNonnegative("primitivity test requires nonnegative entries")
    s = a.rows
    if any(min(a.row(j)) > 0 and min(a.col(j)) > 0 for j in range(s)):
        return True
    full = (1 << s) - 1
    power = [sum(1 << j for j, x in enumerate(a.row(i)) if x)
             for i in range(s)]
    for _ in range(((s - 1) ** 2).bit_length()):
        if all(row == full for row in power):
            return True
        power = [_or_combine(row, power) for row in power]
    return all(row == full for row in power)


def _or_combine(row_bits: int, pattern: list[int]) -> int:
    """The OR of the rows of pattern that row_bits selects: one row of a
    boolean matrix product."""
    out = 0
    j = 0
    bits = row_bits
    while bits:
        if bits & 1:
            out |= pattern[j]
        bits >>= 1
        j += 1
    return out


class PerronData(namedtuple("PerronData", "eigenvalue left right size")):
    """Integer Perron eigenvalue with content-1, strictly positive integer
    left (row) and right (column) eigenvectors."""

    __slots__ = ()


def perron_root(a: Matrix) -> int:
    """Integer spectral radius rho of a nonnegative square matrix, else
    NotIntegerEigenvalue.  max(min row sum, min column sum) <= rho <=
    min(max row sum, max column sum); unless these meet, one charpoly chi is
    bisected: t >= rho iff chi(x + t) has no negative coefficient (its roots
    then have real part <= 0; below rho it has the root rho - t > 0).  The
    least such t is rho iff chi(t) = 0."""
    if not a.is_nonnegative():
        raise NotNonnegative("spectral radius needs nonnegative entries")
    rows, cols = a.row_sums(), a.column_sums()
    lo, hi = max(min(rows), min(cols)), min(max(rows), max(cols))
    chi = a.charpoly() if lo < hi else None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if min(_shifted(chi, mid)) >= 0 else (mid + 1, hi)
    if chi is not None and _shifted(chi, hi)[0] != 0:
        raise NotIntegerEigenvalue(
            f"spectral radius lies strictly between {hi - 1} and {hi}")
    return hi


def _shifted(chi: Sequence[int], t: int) -> list[int]:
    """chi(x + t) by repeated synthetic division; constant term first."""
    c, out = list(chi), []
    for k in range(len(c), 0, -1):
        for i in range(1, k):
            c[i] += t * c[i - 1]
        out.append(c[k - 1])
    return out


def integer_perron(a: Matrix) -> PerronData:
    """Integer Perron data of a primitive matrix, certified by the sum
    sandwich or one charpoly bisection (perron_root).  By Perron-Frobenius
    ker(a - rI) and ker(a^T - rI) are spanned by strictly positive vectors;
    constant row (column) sums make the all-ones vector the right (left) one,
    and only otherwise is the kernel solved.  NotIntegerEigenvalue signals
    input outside this library's constructions."""
    if not is_primitive(a):
        raise NotPrimitive("integer_perron requires a primitive matrix")
    root = perron_root(a)
    return PerronData(root, _perron_vector(a, root, left=True),
                      _perron_vector(a, root), a.rows)


def _perron_vector(a: Matrix, root: int, left: bool = False
                   ) -> tuple[int, ...]:
    """Content-1 vector spanning ker(a - root I), or with ``left`` the row
    vectors w with w a = root w, for primitive a.  Constant row (column)
    sums give the all-ones vector; otherwise the kernel is solved from one
    rank factorization of the shifted rows, and only a left solve reads
    a^T.  The rows go in by their largest entry, smallest first, which
    keeps the fraction-free elimination's minors small (a built stage's
    top row carries p).  Where every column of the solved matrix sums to
    root, the rows of a - root I sum to zero, so the last, largest one is
    left out of the solve."""
    if len(set(a.column_sums() if left else a.row_sums())) == 1:
        return (1,) * a.rows
    if left:
        a = a.transpose()
    shifted = sorted(([x - root if i == j else x
                       for j, x in enumerate(a.row(i))]
                      for i in range(a.rows)),
                     key=lambda row: max(map(abs, row)))
    if set(a.column_sums()) == {root}:
        shifted.pop()
    basis = [primitive_part(v) for v in
             factor_kernel_basis(*rank_factorization(shifted), a.cols)]
    if len(basis) != 1 or not all(x > 0 for x in basis[0]):
        raise InvariantViolated(
            f"Perron root {root} of a primitive matrix has no simple, "
            "strictly positive eigenvector")
    return basis[0]


class EqualSumsReport(namedtuple("EqualSumsReport",
                                  "inner_product size sums_equal")):
    __slots__ = ()


def check_equal_sums_criterion(a: Matrix) -> EqualSumsReport:
    """Inner product of the content-1 Perron eigenvectors versus the size.

    When they coincide, equal row sums and equal column sums must follow;
    a violation would falsify the criterion itself, so it raises."""
    data = integer_perron(a)
    inner = sum(l * r for l, r in zip(data.left, data.right))
    rows = a.row_sums()
    cols = a.column_sums()
    sums_equal = len(set(rows)) == 1 and len(set(cols)) == 1
    if inner == data.size and not sums_equal:
        raise InvariantViolated(
            "equal-sums criterion violated: VW == size but sums differ "
            f"(rows {rows}, cols {cols})")
    return EqualSumsReport(inner, data.size, sums_equal)


class UniqueTraceReport(namedtuple("UniqueTraceReport",
                                    "limit_matrix numeric_rank_at_tol "
                                    "horizon tol")):
    """limit_matrix is the normalized product, of exact rational entries."""

    __slots__ = ()


def unique_trace_diagnostic(seq: Sequence[Matrix], horizon: int,
                            tol: Fraction = Fraction(1, 10 ** 6)) -> UniqueTraceReport:
    """Normalized product C_m ... C_1 / prod rho(C_i) at the horizon, newest
    factor on the left, with its numerical rank at the tolerance.

    All matrices must be square of one size and nonnegative with an integer
    spectral radius >= 1 (the only case this library's constructions produce).
    A sequence shorter than the horizon is cycled.  The rank is computed by
    exact rational elimination in which entries below tol are flushed to
    zero; the tolerance never feeds back into any construction.
    """
    if not seq:
        raise SizeMismatch("empty sequence")
    size = seq[0].rows
    for m in seq:
        if not m.is_square:
            raise NonSquare("diagnostic needs square matrices")
        if m.rows != size:
            raise SizeMismatch("diagnostic needs matrices of one size")
    tol = Fraction(tol)
    product = Matrix.identity(size)
    denom = 1
    for idx in range(horizon):
        c = seq[idx % len(seq)]
        product = c * product          # newest on the left
        denom *= perron_root(c)
    if denom == 0:
        raise NotIntegerEigenvalue("a factor has spectral radius 0, not >= 1")
    limit = product.scale(Fraction(1, denom))
    rank = _rank_at_tolerance(limit, tol)
    return UniqueTraceReport(limit, rank, horizon, tol)


def _rank_at_tolerance(m: Matrix, tol: Fraction) -> int:
    rows = [[x if abs(x) >= tol else Fraction(0) for x in row] for row in m]
    rank = 0
    r = 0
    for c in range(m.cols):
        piv = None
        best = tol
        for i in range(r, m.rows):
            if abs(rows[i][c]) >= best:
                best = abs(rows[i][c])
                piv = i
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        for i in range(r + 1, m.rows):
            f = rows[i][c] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rows[i] = [x if abs(x) >= tol else Fraction(0) for x in rows[i]]
        rank += 1
        r += 1
        if r == m.rows:
            break
    return rank
