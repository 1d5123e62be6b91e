"""Construction of simultaneous equal-row-and-column-sum realizations.

The staged construction for a target index lambda, whose stages are the
rank-one updates I + c e_0 (lambda, rho) of the identity, c = (p-1)/lambda,
normalized to the all-ones row by one conjugator that a single certificate,
(lambda, 1, ..., 1) T = (lambda, rho) with T e_0 = e_0, proves right for
every stage; the finisher, which takes from each route its stage of
factor 1, written directly as an embroidered matrix (bordered with zero
rows or zero columns), its common left eigenvector V and column shift,
conjugates that base stage once to G_0 and makes every stage G_0 + c J,
J the all-ones matrix; the digit-moving polynomial algorithm; and the
commuting-family route seeded by an equal-sums primitive matrix.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Sequence

from .errors import (CongruenceViolated, DimensionMismatch, GcdViolated,
                     InvariantViolated, K1Unnormalizable, LambdaTooSmall,
                     NoValidT, NotEqualSums, NotPrimitive, PositivityFailed,
                     SchemaError)
from .exact import (Matrix, UnimodularTransform, content, map_content1_row,
                    _euclid_to_first)
from .perron import is_primitive
from .realization import (RealizationSeq, echo, json_int, json_ints,
                          json_matrix, parsing)
from .supernatural import FactorSequence


class EcrsProblem(namedtuple("EcrsProblem",
                             "k lam rho p_seq q seed_matrix")):
    """Target data for an ECRS realization: rank k of the complement, the
    index lambda = |tau(G)/tau(H)|, the trace row remainder rho with
    gcd(content(rho), lambda) = 1, and the factor prefix with every
    p = 1 (mod lambda).  Optional extras select the p-divisible routes: an
    integer q > 1 with q = 1 (mod lambda), all that the route of size
    lambda q needs of q (it need not be a prime power), or a seed matrix
    (primitive, equal row and column sums) for the commuting route."""

    __slots__ = ()

    def __new__(cls, k: int, lam: int, rho: tuple[int, ...],
                p_seq: FactorSequence, q: int | None = None,
                seed_matrix: Matrix | None = None):
        if k < 1:
            raise SchemaError("k must be >= 1")
        if lam < 1:
            raise SchemaError("lambda must be >= 1")
        if len(rho) != k:
            raise DimensionMismatch("rho must have length k")
        if not p_seq:
            raise SchemaError("need at least one factor")
        if seed_matrix is not None and not seed_matrix.is_square:
            raise DimensionMismatch("seed must be square")
        return super().__new__(cls, k, lam, rho, p_seq, q, seed_matrix)

    @classmethod
    def from_json(cls, obj: dict) -> "EcrsProblem":
        with parsing("ECRS problem"):
            k = json_int(obj["k"])
            lam = json_int(obj["lambda"])
            rho = tuple(json_ints(obj["rho"]))
            p_seq = FactorSequence(tuple(json_ints(obj["p_seq"])))
            q = json_int(obj["q"]) if obj.get("q") is not None else None
            seed = obj.get("seed_matrix")
            seed_m = json_matrix(seed) if seed is not None else None
            return cls(k, lam, rho, p_seq, q, seed_m)


# -- stage construction -----------------------------------------------------------


def _certified_factors(prob: EcrsProblem, scale: int = 1) -> tuple[int, ...]:
    """The factors, once every stage [[p, c u], [0, I]], c = (p - 1)/lambda
    and u the all-ones row, is proved to be the index stage
    [[p, c rho], [0, I]] conjugated by the normalizer T of normalize_to_ones,
    for each p = scale * factor.

    An index stage is I + c e_0 l with l = (lambda, rho), its left
    eigenvector, and T sends it to I + c (T e_0)(l T^{-1}).  So
    T e_0 = e_0 and (lambda, u) T = l certify, once for every stage, that
    T normalizes it; no index stage is built or conjugated.  The
    congruence p = 1 (mod lambda) makes every c integral."""
    lam, rho = prob.lam, prob.rho
    if math.gcd(content(rho), lam) != 1:
        raise GcdViolated(
            f"gcd(content(rho), lambda) = {math.gcd(content(rho), lam)} != 1")
    for idx, p in enumerate(prob.p_seq.factors, start=1):
        if (scale * p - 1) % lam != 0:
            raise CongruenceViolated(
                f"stage factor {scale * p} is not 1 mod lambda={lam}",
                stage=idx)
    t = normalize_to_ones(prob).matrix
    if t.col(0) != (1,) + (0,) * prob.k:
        raise InvariantViolated(
            f"normalization failed: T e_0 = {t.col(0)}", stage=1)
    row = t.vector_mul((lam,) + (1,) * prob.k)
    if row != (lam, *rho):
        raise InvariantViolated(
            f"normalization failed: (lambda, 1, ..., 1) T = {row}", stage=1)
    return prob.p_seq.factors


def normalize_to_ones(prob: EcrsProblem) -> UnimodularTransform:
    """A single conjugator T = [[1, v], [0, E]] sending every stage
    [[p, rho (p-1)/lambda], [0, I]] to [[p, ((p-1)/lambda) u], [0, I]] with
    u the all-ones row; the common left eigenvector becomes (lambda, u).

    Needs a row v with content(rho - lambda v) = 1.  For k >= 2 one exists
    iff gcd(content(rho), lambda) = 1, which _certified_factors checks
    first; for k = 1 iff rho = +-1 (mod lambda)."""
    k, lam, rho = prob.k, prob.lam, prob.rho
    ones = tuple([1] * k)
    if k == 1:
        r0 = rho[0]
        if (r0 - 1) % lam == 0:
            v = ((r0 - 1) // lam,)
        elif (r0 + 1) % lam == 0:
            v = ((r0 + 1) // lam,)
        else:
            raise K1Unnormalizable(
                f"k=1 needs rho = +-1 (mod lambda); rho={r0}, lambda={lam}")
    else:
        ops, _ = _euclid_to_first(rho)
        u_red = UnimodularTransform(k, tuple(ops))
        v = tuple(u_red.inverse().matrix.row(1))   # e_2 pulled back
    sigma = tuple(r - lam * x for r, x in zip(rho, v))
    e = map_content1_row(sigma, ones)
    # T = diag(1, E) * [[1, v], [0, I]]
    ops = list(e.embed(k + 1, 1).ops)
    for j, vj in enumerate(v):
        if vj:
            ops.append(("add", 0, 1 + j, vj))
    return UnimodularTransform(k + 1, tuple(ops))


def _cyclic_targets(k: int, count: int) -> list[int]:
    """Column indices 1..k assigned cyclically to the bordered block; for
    count <= k this is the plain shift-by-k of the identity block."""
    return [1 + (j % k) for j in range(count)]


# -- the finishing conjugations -----------------------------------------------------


def _p_divisible_shift(size: int, k: int, lam: int, q: int) -> UnimodularTransform:
    """Column operations sending the eigenvector tail (q, ..., q, lam, ..., lam)
    to all ones with small multipliers: each interior entry drops by
    (q-1)/lam times a border entry, then each border entry drops by lam - 1
    times the first interior entry.  Small multipliers keep the conjugated
    stages nonnegative at realistic stage values."""
    s0 = (q - 1) // lam
    ops: list[tuple] = []
    first_border = 1 + k          # whole-matrix coordinates; column 0 stays put
    for i in range(1, 1 + k):
        if s0:
            ops.append(("add", first_border, i, -s0))
    if lam > 1:
        for b in range(first_border, size):
            ops.append(("add", 1, b, -(lam - 1)))
    return UnimodularTransform(size, tuple(ops))


def ecrs_finisher(base: Matrix, eigenrow: tuple[int, ...],
                  shift: UnimodularTransform, factors: Sequence[int],
                  case: str, *, k: int, lam: int, q: int = 1) -> RealizationSeq:
    """Primitive stages with all row sums and all column sums equal, one
    for each factor p, finished from ``base``, the bordered stage of
    factor 1.  ``case`` names the route in the provenance.

    Precondition: the bordered stage of factor p is base + c e_0 V with
    c = (p-1)/lambda and V = ``eigenrow``, the route's common left
    eigenvector, and ``shift`` S sends the tail of V to all ones.  The
    finishing T = L S^{-1}, L adding row 0 to every other row, sends e_0 to
    the all-ones column and V to the all-ones row, so T (e_0 V) T^{-1} = J,
    the all-ones matrix, and every finished stage is G_0 + c J with
    G_0 = T base T^{-1}.  One conjugation of base and e_0 V, with J and the
    sums q of G_0 checked, finishes every stage: the stage of p has sums
    q + c size = q p, and is nonnegative exactly when c >= -min(G_0)."""
    size = base.rows
    # T = L S^{-1}, where L m adds row 0 to every other row.
    lower = UnimodularTransform(size, tuple(
        ("add", i, 0, 1) for i in range(1, size)))
    e0_v = Matrix._exact(size, size, eigenrow + (0,) * (size * (size - 1)))
    g0, all_ones = lower.compose(shift.inverse()).conjugate([base, e0_v])
    if all_ones != Matrix._exact(size, size, [1] * (size * size)):
        raise InvariantViolated("finisher failed to send e_0 V to all ones")
    if set(g0.row_sums()) | set(g0.column_sums()) != {q}:
        raise InvariantViolated("finisher failed to equalize sums")
    threshold = -min(map(min, g0.to_rows()))
    out = []
    for idx, p in enumerate(factors, start=1):
        c = (p - 1) // lam
        if c < threshold:
            bad = next((i, j) for i in range(size) for j in range(size)
                       if g0[i, j] + c < 0)
            raise PositivityFailed(
                f"entry {bad} = {g0[bad[0], bad[1]] + c} negative", stage=idx)
        g = g0 + all_ones.scale(c)
        if not is_primitive(g):
            raise NotPrimitive("finished stage not primitive", stage=idx)
        out.append(g)
    markers = tuple([tuple([1] * size)] * (len(out) + 1))
    return RealizationSeq(tuple(out), tuple(q * p for p in factors), markers,
                          {"ecs": True, "ers": True, "ecrs": True},
                          {"pipeline": "ecrs", "case": case, "k": k,
                           "lambda": lam, "q": q})


# -- the polynomial algorithm and the commuting route ---------------------------------


class PolyNat(namedtuple("PolyNat", "coefficients")):
    """Polynomial with nonnegative integer coefficients, ascending degree."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        if any(c < 0 for c in coefficients):
            raise SchemaError("coefficients must be nonnegative")
        return super().__new__(cls, coefficients)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def at_matrix(self, a: Matrix) -> Matrix:
        acc = Matrix.zeros(a.rows, a.cols)
        ident = Matrix.identity(a.rows)
        for c in reversed(self.coefficients):
            acc = a * acc + ident.scale(c)
        return acc


def poly_for(m: int, l: int) -> PolyNat:
    """f with nonnegative integer coefficients, f(m) = l and f(-1) in {+-1}.

    Starts from the m-adic digit expansion of l and moves digits: lowering a
    digit of index i and adding m to index i-1 keeps f(m) and shifts f(-1)
    by -(m+1) for even i, +(m+1) for odd i.  Since every integer polynomial
    has f(m) = f(-1) (mod m+1), the walk lands exactly on the target sign,
    which also forces the precondition l = +-1 (mod m+1)."""
    if m <= 1:
        raise SchemaError("m must exceed 1")
    if l < 1:
        raise SchemaError("l must be positive")
    rem = l % (m + 1)
    if rem not in (1, m):
        raise CongruenceViolated(
            f"l = {l} is not +-1 (mod m+1 = {m + 1})")
    digits: list[int] = []
    n = l
    while n:
        digits.append(n % m)
        n //= m
    if not digits:
        digits = [0]
    val = sum(c * (-1) ** i for i, c in enumerate(digits))
    while val not in (1, -1):
        if val > 1:
            i = next((i for i in range(2, len(digits), 2) if digits[i] > 0),
                     None)
            if i is None:
                raise InvariantViolated("no even digit to move")
            digits[i] -= 1
            digits[i - 1] += m
            val -= m + 1
        else:
            i = next((i for i in range(1, len(digits), 2) if digits[i] > 0),
                     None)
            if i is None:
                raise InvariantViolated("no odd digit to move")
            digits[i] -= 1
            digits[i - 1] += m
            val += m + 1
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    f = PolyNat(tuple(digits))
    if f(m) != l or f(-1) != val:
        raise InvariantViolated(f"poly_for({l}, {m}) evaluates wrongly")
    return f


def commuting_family(a: Matrix, p_seq: Sequence[int]) -> RealizationSeq:
    """Stages A_n = A f_n(A) for a primitive seed with equal row and column
    sums q: all stages commute, keep 1 and 1^T as Perron eigenvectors, and
    have sums q p_n.  Every p_n must be +-1 (mod q+1)."""
    if not a.is_square:
        raise DimensionMismatch("seed must be square")
    if not a.is_nonnegative():
        raise NotEqualSums("seed must be nonnegative")
    rows, cols = set(a.row_sums()), set(a.column_sums())
    if len(rows) != 1 or rows != cols:
        raise NotEqualSums(
            f"seed must have equal row and column sums, got rows {sorted(rows)}"
            f" cols {sorted(cols)}")
    if not is_primitive(a):
        raise NotPrimitive("seed must be primitive")
    q = rows.pop()
    factors = list(p_seq)
    if not factors or any(p < 1 for p in factors):
        raise SchemaError("stage factors must be positive")
    size = a.rows
    ones = tuple([1] * size)
    mats = []
    values = []
    for idx, p in enumerate(factors, start=1):
        try:
            f = poly_for(q, p)
        except CongruenceViolated as exc:
            raise CongruenceViolated(str(exc), stage=idx) from None
        m = a * f.at_matrix(a)
        if not m.is_nonnegative():
            raise InvariantViolated(
                "nonnegative coefficients lost positivity", stage=idx)
        if m.mul_vector(ones) != tuple(q * p * x for x in ones) \
                or m.vector_mul(ones) != tuple(q * p * x for x in ones):
            raise InvariantViolated("Perron eigenvectors not preserved",
                                    stage=idx)
        mats.append(m)
        values.append(q * p)
    markers = tuple([ones] * (len(mats) + 1))
    return RealizationSeq(tuple(mats), tuple(values), markers,
                          {"ecs": True, "ers": True, "ecrs": True},
                          {"pipeline": "ecrs", "case": "commuting", "q": q})


# -- the pipeline --------------------------------------------------------------


def ecrs_pipeline(prob: EcrsProblem) -> RealizationSeq:
    """Dispatch on the problem data.

    Without an infinite prime: lambda >= k+1 is necessary and sufficient;
    the normalized stage of factor 1, the identity, is embroidered with one
    row per extra coordinate, a single 1 in a cyclically assigned interior
    column, and zero columns, finished to G_0, and the stage of p is
    G_0 + ((p-1)/lambda) J; output size is exactly lambda.  With a seed
    matrix (split case, lambda = 1): the commuting-family route.  With an
    integer q > 1, q = 1 (mod lambda), which is all this route checks and
    needs of q: the stage of factor 1, of value q, embroidered with zero
    rows and a top border of ones to size lambda q, finished the same
    way."""
    if prob.seed_matrix is not None:
        if prob.lam != 1:
            raise SchemaError("the seed-matrix route is the split case lambda=1")
        return commuting_family(prob.seed_matrix, prob.p_seq)

    if prob.q is not None:
        return _p_divisible_route(prob)

    k, lam = prob.k, prob.lam
    if lam < k + 1:
        raise LambdaTooSmall(
            f"lambda = {lam} below rank G = {k + 1}: no ECRS "
            "realization exists when the value group has no infinite prime")
    factors = _certified_factors(prob)
    # The stage of factor 1 (c = 0): row i <= k is e_i and each border row
    # has its one 1 in its target column; the shift copies each interior
    # column onto the border columns it feeds.
    targets = _cyclic_targets(k, lam - k - 1)
    base = Matrix._exact(lam, lam, [1 if j == one else 0
                                    for one in [*range(k + 1), *targets]
                                    for j in range(lam)])
    eigenrow = (lam,) + (1,) * k + (0,) * (lam - k - 1)
    shift = UnimodularTransform(lam, tuple(
        ("add", target, k + 1 + j, 1) for j, target in enumerate(targets)))
    return ecrs_finisher(base, eigenrow, shift, factors, "embroidered",
                         k=k, lam=lam)


def _p_divisible_route(prob: EcrsProblem) -> RealizationSeq:
    q, lam, k = prob.q, prob.lam, prob.k
    if q <= 1:
        raise SchemaError(f"q must exceed 1, got {echo(q)}")
    if (q - 1) % lam != 0:
        raise CongruenceViolated(f"q = {q} is not 1 mod lambda = {lam}")
    size = lam * q
    if size > sys.maxsize:
        raise SchemaError(f"lambda q = {echo(lam)} * {echo(q)} exceeds the "
                          f"largest matrix size {sys.maxsize}")
    if size < k + 2:
        raise NoValidT(
            f"lambda q = {size} leaves no room to border a (k+1)-block, k={k}")
    factors = _certified_factors(prob, scale=q)
    extra = size - k - 1
    # The stage of factor 1: top row (q, c...c, 1...1), c = (q-1)/lambda,
    # rows 1..k the e_i and zero rows below; its eigenvector is
    # (lambda q, q...q, lambda...lambda).
    data = [q] + [(q - 1) // lam] * k + [1] * extra + [0] * (size * (size - 1))
    for i in range(1, k + 1):
        data[i * size + i] = 1
    base = Matrix._exact(size, size, data)
    eigenrow = (lam * q,) + (q,) * k + (lam,) * extra
    return ecrs_finisher(base, eigenrow, _p_divisible_shift(size, k, lam, q),
                         factors, "p-divisible", k=k, lam=lam, q=q)
