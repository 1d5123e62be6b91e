"""Exact integer / rational linear algebra and GL(k,Z) machinery.

Everything here is exact: matrices hold Python ints or ``fractions.Fraction``
entries; determinants, ranks, inverses and kernel bases all come from one
fraction-free (Bareiss) elimination on integer rows, each distinct nonzero
row of the matrix taken once, so a matrix of many repeated and zero rows is
eliminated on its few distinct ones; and unimodular transforms
are retained as replayable lists of elementary operations, so whole matrix
sequences are conjugated simultaneously by replaying the operations, at
O(len(ops) * size) per matrix.  No floating point anywhere.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ContentMismatch, DimensionMismatch, NonSquare

Number = int | Fraction


def _as_exact(x) -> Number:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"inexact entry {x!r} of type {type(x).__name__}")


class Matrix:
    """Immutable exact matrix (entries: int or Fraction), row-major.  Its
    row and column sums, nonnegativity and determinant are computed once,
    on first use; a product of square factors whose determinants are known
    takes their product as its own."""

    __slots__ = ("rows", "cols", "_data", "_row_sums", "_col_sums",
                 "_nonneg", "_det")

    def __init__(self, rows: int, cols: int, data: Sequence[Number]):
        self._store(rows, cols, tuple(map(_as_exact, data)))

    def _store(self, rows: int, cols: int, data: tuple) -> None:
        if rows <= 0 or cols <= 0:
            raise DimensionMismatch(f"dimensions must be positive, got {rows}x{cols}")
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"entry storage {len(data)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._data = data
        self._row_sums = self._col_sums = self._nonneg = self._det = None

    @classmethod
    def _exact(cls, rows: int, cols: int, data: Iterable[Number]) -> "Matrix":
        """A matrix of entries already known to be ints or Fractions, stored
        without the per-entry check: the results of exact arithmetic on
        checked matrices, whose sums, differences and products stay exact."""
        m = cls.__new__(cls)
        m._store(rows, cols, tuple(data))
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Number]]) -> "Matrix":
        m = cls._exact_rows(rows)
        return cls(m.rows, m.cols, m._data)

    @classmethod
    def _exact_rows(cls, rows: Sequence[Sequence[Number]]) -> "Matrix":
        """from_rows for entries already known to be ints or Fractions."""
        r = len(rows)
        if r == 0:
            raise DimensionMismatch("no rows")
        c = len(rows[0])
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
        return cls._exact(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._exact(n, n, [1 if i == j else 0
                                 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._exact(rows, cols, [0] * (rows * cols))

    # -- access --------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Number:
        i, j = key
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[Number, ...]:
        return self._data[i * self.cols:(i + 1) * self.cols]

    def __iter__(self):    # the rows, as tuples
        return map(self.row, range(self.rows))

    def col(self, j: int) -> tuple[Number, ...]:
        return self._data[j::self.cols]

    def to_rows(self) -> list[list[Number]]:
        return list(map(list, self))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_nonnegative(self) -> bool:
        if self._nonneg is None:
            self._nonneg = min(self._data) >= 0
        return self._nonneg

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and all(a == b for a, b in zip(self._data, other._data)))

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix._exact(self.rows, self.cols,
                             [a + b for a, b in zip(self._data, other._data)])

    def scale(self, c: Number) -> "Matrix":
        c = _as_exact(c)
        return Matrix._exact(self.rows, self.cols, [c * a for a in self._data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, p = self.rows, self.cols, other.cols
        a, b = self._data, other._data
        out = [0] * (n * p)
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            for k in range(m):
                aik = arow[k]
                if aik == 0:
                    continue
                brow = b[k * p:(k + 1) * p]
                base = i * p
                for j in range(p):
                    out[base + j] += aik * brow[j]
        prod = Matrix._exact(n, p, out)
        if self._det is not None and other._det is not None:
            # Only a square matrix holds a det, so both factors are n x n.
            prod._det = self._det * other._det      # det AB = det A det B
        return prod

    def mul_vector(self, v: Sequence[Number]) -> tuple[Number, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(map(operator.mul, self.row(i), v))
                     for i in range(self.rows))

    def vector_mul(self, v: Sequence[Number]) -> tuple[Number, ...]:
        """Row vector times matrix: v @ self."""
        if len(v) != self.rows:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(map(operator.mul, v, self.col(j)))
                     for j in range(self.cols))

    def transpose(self) -> "Matrix":
        t = Matrix._exact(self.cols, self.rows,
                          [x for j in range(self.cols) for x in self.col(j)])
        t._row_sums, t._col_sums = self._col_sums, self._row_sums
        t._nonneg = self._nonneg
        return t

    # -- sums and norms --------------------------------------------------------

    def column_sums(self) -> tuple[Number, ...]:
        if self._col_sums is None:
            self._col_sums = tuple(sum(self.col(j)) for j in range(self.cols))
        return self._col_sums

    def row_sums(self) -> tuple[Number, ...]:
        if self._row_sums is None:
            self._row_sums = tuple(sum(self.row(i)) for i in range(self.rows))
        return self._row_sums

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")

    def __repr__(self):
        return f"Matrix({self.to_rows()!r})"

    # -- exact elimination kernels ----------------------------------------------

    def det(self) -> Number:
        """Exact determinant, by fraction-free elimination, taken once."""
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        if self._det is None:
            rows, scale = _integer_rows(self)
            pivots, d, sign = _eliminate(rows)
            self._det = (0 if len(pivots) < self.rows else sign * d
                         if scale == 1 else Fraction(sign * d, scale))
        return self._det

    def rank(self) -> int:
        """Rank over the rationals, by fraction-free elimination."""
        rows, _ = _integer_rows(self)
        return len(_eliminate(rows)[0])

    def charpoly(self) -> tuple[int | Fraction, ...]:
        """Coefficients of det(xI - A), descending degree, leading 1.

        Division-free (Berkowitz), so integer matrices give integer
        coefficients exactly.
        """
        if not self.is_square:
            raise NonSquare("characteristic polynomial needs a square matrix")
        n = self.rows
        coeffs: list[Number] = [1]
        for k in range(1, n + 1):
            a = self[k - 1, k - 1]
            r_row = [self[k - 1, j] for j in range(k - 1)]
            c_col = [self[i, k - 1] for i in range(k - 1)]
            # Toeplitz column: [1, -a, -R C, -R M C, -R M^2 C, ...]
            t: list[Number] = [1, -a]
            v = c_col
            for _ in range(2, k + 1):
                t.append(-sum(ri * vi for ri, vi in zip(r_row, v)))
                v = [sum(self[i, j] * v[j] for j in range(k - 1))
                     for i in range(k - 1)]
            new = [0] * (k + 1)
            for i in range(k + 1):
                new[i] = sum(t[i - j] * coeffs[j]
                             for j in range(max(0, i - len(t) + 1), min(i, k - 1) + 1))
            coeffs = new
        return tuple(coeffs)

    def charpoly_at(self, x: Number) -> Number:
        """Evaluate det(xI - A) exactly (Horner)."""
        acc: Number = 0
        for c in self.charpoly():
            acc = acc * x + c
        return acc

    def inverse(self) -> "Matrix":
        """Exact inverse over the rationals: fraction-free Gauss-Jordan on
        [A | I].  Entries are ints wherever the division is exact."""
        if not self.is_square:
            raise NonSquare("inverse needs a square matrix")
        n = self.rows
        rows, _ = _integer_rows(
            self.row(i) + tuple(1 if i == j else 0 for j in range(n))
            for i in range(n))
        pivots, d, _ = _eliminate(rows)
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return Matrix._exact(n, n, [x // d if x % d == 0 else Fraction(x, d)
                                    for row in rows for x in row[n:]])


def _integer_rows(rows: Iterable[tuple[Number, ...]]) -> tuple[list[Sequence[int]], int]:
    """Each distinct nonzero row, once and in first-seen order, times the
    lcm of its denominators, as ints; and the product of those scales.

    A repeated or zero row adds no pivot and no kernel constraint, so rank,
    pivot columns, the row space and kernel are those of the whole matrix,
    and a square matrix that loses a row here is singular.  Row scaling
    leaves rank and kernel unchanged and multiplies the determinant by the
    returned product.  The final pivot d of _eliminate is that of the
    distinct rows.  A row of ints is passed through as it is: _eliminate
    replaces rows, never edits them."""
    out = []
    scale = 1
    for row in filter(any, dict.fromkeys(rows)):
        if set(map(type, row)) == {int}:
            out.append(row)
            continue
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return out, scale


def _eliminate(rows: list[Sequence[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place
    (Bareiss 1968, extended to the rows above each pivot).

    Each pivot step sets every other row to (d*x - f*y) // prev, where d is
    the new pivot, f the row's entry in the pivot column, y the pivot row
    and prev the previous pivot; Sylvester's identity makes the division
    exact.  Returns (pivot columns, final pivot d, row-swap sign).  Row
    i < rank then holds d at pivot column i and 0 at every other pivot
    column; the remaining rows are zero.  For a nonsingular square matrix
    det = sign * d.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = sign = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        d = top[c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(d * x - f * y) // prev
                           for x, y in zip(rows[i], top)]
        pivots.append(c)
        prev = d
    return pivots, prev, sign


# -- vector helpers -----------------------------------------------------------


def content(v: Iterable[int]) -> int:
    """gcd of the absolute values of the nonzero entries; 0 for the zero vector."""
    return math.gcd(*v)


def vec_add(u: Sequence[Number], v: Sequence[Number]) -> tuple[Number, ...]:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence[Number], v: Sequence[Number]) -> tuple[Number, ...]:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c: Number, v: Sequence[Number]) -> tuple[Number, ...]:
    return tuple(c * a for a in v)


def sup_norm(v: Sequence[Number]) -> Number:
    """Max absolute value (the row-norm convention used throughout)."""
    return max((abs(x) for x in v), default=0)


def is_unimodular(e: Matrix) -> bool:
    """True iff e is square with determinant +-1 (exact)."""
    if not e.is_square:
        raise NonSquare("unimodularity needs a square matrix")
    return abs(e.det()) == 1


def colsum_norm(m: Matrix) -> Number:
    """Max absolute column sum (the matrix-norm convention used throughout)."""
    return max(sum(abs(m[i, j]) for i in range(m.rows)) for j in range(m.cols))


def right_kernel_basis(m: Matrix) -> list[tuple[int, ...]]:
    """Integer basis of the rational right kernel, each vector of content 1.

    Vectors are sign-normalized so their first nonzero entry is positive.
    """
    return [primitive_part(v)
            for v in factor_kernel_basis(*rank_factorization(m), m.cols)]


def rank_factorization(m: Iterable[Sequence[Number]]
                       ) -> tuple[list[int], list[Sequence[int]]]:
    """Pivot columns p and integer rows R, one per unit of rank, with
    d * m = m[:, p] * R for a nonzero integer d, for any iterable m of
    equal-length rows of ints or Fractions (a Matrix iterates over its rows).

    R is d times the nonzero part of the reduced row echelon form, which row
    scaling leaves unchanged; the left factor must therefore be taken from
    the columns of m itself, never from a row-scaled copy.  d is the final
    pivot of the elimination of m's distinct nonzero rows, so it depends on
    which rows repeat, while p and d^-1 R do not.  R holds d at its own
    pivot column and 0 at every other one.
    """
    rows, _ = _integer_rows(map(tuple, m))
    pivots, _, _ = _eliminate(rows)
    return pivots, rows[:len(pivots)]


def factor_kernel_basis(pivots: Sequence[int], rows: Sequence[Sequence[int]],
                        cols: int) -> list[list[int]]:
    """Integer basis of the right kernel of a matrix with cols columns,
    read off its rank_factorization (pivots, rows) with no further
    elimination: ker m = ker R, and each free column f of R gives the
    vector holding d at f, minus R's column f at the pivots, 0 elsewhere."""
    d = rows[0][pivots[0]] if pivots else 1
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = d
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def primitive_part(v: Sequence[Number]) -> tuple[int, ...]:
    """The integer multiple of a nonzero rational vector whose content is 1
    and whose first nonzero entry is positive."""
    if any(type(x) is not int for x in v):
        den = math.lcm(*(x.denominator for x in v))
        v = [x.numerator * (den // x.denominator) for x in v]
    g = content(v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


# -- unimodular transforms ------------------------------------------------------

# Elementary operations, each standing for an elementary matrix:
#   ("swap", i, j)   : identity with rows i and j exchanged
#   ("neg", i)       : identity with -1 in position (i, i)
#   ("add", i, j, m) : I + m * E_ij   (i != j)
# A transform's matrix is the product mat(op_0) * mat(op_1) * ... in order.
ElementaryOp = tuple


def _invert_op(op: ElementaryOp) -> ElementaryOp:
    if op[0] == "add":
        _, i, j, m = op
        return ("add", i, j, -m)
    return op


def _apply_op_row(rows: list, op: ElementaryOp) -> None:
    """rows <- mat(op) @ rows, for a matrix stored as a list of rows."""
    kind = op[0]
    if kind == "swap":
        _, i, j = op
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "neg":
        _, i = op
        rows[i] = [-x for x in rows[i]]
    elif kind == "add":
        _, i, j, m = op
        rows[i] = [x + m * y for x, y in zip(rows[i], rows[j])]
    else:
        raise ValueError(f"unknown elementary op {op!r}")


class UnimodularTransform(namedtuple("UnimodularTransform", "size ops")):
    """An element of GL(k,Z) carried together with its elementary factorization.

    ``matrix`` replays the factorization as row operations on the
    identity, last op first, which is the product of the elementary
    matrices in order; |det| = 1 by construction.  ``conjugate`` replays it
    on each matrix instead of multiplying, at O(len(ops) * size) per matrix.
    ``ops`` is a tuple of ElementaryOps.
    """

    __slots__ = ()

    @property
    def matrix(self) -> Matrix:
        rows = Matrix.identity(self.size).to_rows()
        for op in reversed(self.ops):
            _apply_op_row(rows, op)
        return Matrix.from_rows(rows)

    def inverse(self) -> "UnimodularTransform":
        return UnimodularTransform(
            self.size, tuple(_invert_op(op) for op in reversed(self.ops)))

    def embed(self, size: int, offset: int) -> "UnimodularTransform":
        """The same transform acting on coordinates [offset, offset+k) of Z^size."""
        # An op's coordinates are op[1:3]; an add's multiplier follows them.
        return UnimodularTransform(size, tuple(
            (op[0], *(i + offset for i in op[1:3]), *op[3:]) for op in self.ops))

    def conjugate(self, mats: Sequence[Matrix]) -> list[Matrix]:
        """T m T^{-1} for each m, with T this transform's matrix.

        Replaying the ops last first as row operations gives T m; then
        (T m T^{-1})^T = T^{-T} (T m)^T replays their inverses, transposed,
        as row operations on the columns.  Each op costs one pass over one
        row."""
        n = self.size
        ops = self.ops[::-1]
        inv_t = [("add", op[2], op[1], op[3]) if op[0] == "add" else op
                 for op in map(_invert_op, ops)]
        out = []
        for m in mats:
            if m.rows != n or m.cols != n:
                raise DimensionMismatch(
                    f"cannot conjugate {m.rows}x{m.cols} by a size-{n} transform")
            rows = m.to_rows()
            for op in ops:
                _apply_op_row(rows, op)
            cols = [list(c) for c in zip(*rows)]
            for op in inv_t:
                _apply_op_row(cols, op)
            out.append(Matrix._exact(n, n, [x for r in zip(*cols) for x in r]))
        return out

    def compose(self, other: "UnimodularTransform") -> "UnimodularTransform":
        """Transform whose matrix is self.matrix @ other.matrix."""
        if self.size != other.size:
            raise DimensionMismatch("transform size mismatch")
        return UnimodularTransform(self.size, self.ops + other.ops)


def _euclid_to_first(row: Sequence[int]) -> tuple[list[ElementaryOp], int]:
    """Column operations sending an integer row to (g, 0, ..., 0), g = content >= 0.

    Returns (ops, g) with ops in application order: row @ mat(ops...) = g e_0.
    """
    work = list(row)
    ops: list[ElementaryOp] = []
    for j in range(1, len(work)):
        # Euclid on positions (0, j) until position j clears; each pass
        # strictly shrinks |work[j]| after the swap, so it terminates.
        while work[j] != 0:
            q = work[0] // work[j]
            if q != 0:
                ops.append(("add", j, 0, -q))       # entry 0 -= q * entry j
                work[0] -= q * work[j]
            ops.append(("swap", 0, j))
            work[0], work[j] = work[j], work[0]
    if work[0] < 0:
        ops.append(("neg", 0))
        work[0] = -work[0]
    return ops, work[0]


def map_content1_row(r: Sequence[int], target: Sequence[int]) -> UnimodularTransform:
    """E in GL(k,Z) with r @ E^{-1} = target, for rows of equal content.

    Built by Euclidean column reduction of both rows to (g, 0, ..., 0) and
    splicing the two reductions.
    """
    if len(r) != len(target):
        raise DimensionMismatch("row length mismatch")
    if content(r) != content(target):
        raise ContentMismatch(
            f"contents differ: {content(r)} vs {content(target)}")
    k = len(r)
    u1 = UnimodularTransform(k, tuple(_euclid_to_first(r)[0]))
    u2 = UnimodularTransform(k, tuple(_euclid_to_first(target)[0]))
    # r @ U1 = g e0 = target @ U2, hence r @ (U1 U2^{-1}) = target; E^{-1} = U1 U2^{-1}.
    return u2.compose(u1.inverse())
