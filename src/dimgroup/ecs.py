"""Construction of equal-column-sum realizations.

The split-case matrix, the bordered matrix of a stage with its one free
parameter a, the chain builder that reads one base G_0 per distinct (v, B)
back with b_extract and emits each stage as G_0 + p e_0 1^T, the GL(k,Z)
reduction of the limiting ratio vector, extension normalization /
telescoping, the full pipeline, and the composition algebra of the
bordered matrices.

Conventions: an extension is presented by stages (p, v, B) standing for the
block matrix [[p, 0], [v, B]] of size k+1 (v a column); the bordered
realization matrices have size k+2 with the distinguished right kernel
vector z = (k+1, -1, ..., -1)^T.
"""

from __future__ import annotations

import json
import logging
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (DimensionMismatch, HorizonExhausted, Infeasible,
                     InvariantViolated, NotNonnegative, NotPrimitive,
                     ParameterExtractionFailed, PTooSmall, SchemaError)
from .exact import (Matrix, UnimodularTransform, _as_exact, vec_add, vec_scale,
                    vec_sub)
from .perron import is_primitive
from .realization import (RealizationSeq, groups, json_int, json_ints,
                          json_list, json_matrix, parsing)

_NO_UNIFORM_A = "no uniform a makes the bordered matrix nonnegative at p={}"

_log = logging.getLogger(__name__)


# -- data model -----------------------------------------------------------------


class Stage(namedtuple("Stage", "p v b")):
    """An integer p > 1, a length-k integer vector v and a nonsingular k x k
    B: the ECS block [[p, 0], [v, B]] (v a column), or the ERS block
    [[p, u], [0, B]] with v read as the row u."""

    __slots__ = ()

    def __new__(cls, p: int, v: tuple[int, ...], b: Matrix):
        if p <= 1:
            raise SchemaError(f"stage factor must exceed 1, got {p}")
        if not b.is_square or b.rows != len(v):
            raise DimensionMismatch(
                "stage B must be k x k, k the length of the stage vector")
        if b.det() == 0:
            raise SchemaError("stage B must have nonzero determinant")
        return super().__new__(cls, p, v, b)


class ExtensionData(namedtuple("ExtensionData", "k stages")):
    """Finite presentation of a rank-(k+1) extension as stages (p, v, B)."""

    __slots__ = ()

    def __new__(cls, k: int, stages: tuple[Stage, ...]):
        if k < 1:
            raise SchemaError("k must be >= 1")
        if not stages:
            raise SchemaError("need at least one stage")
        for st in stages:
            if len(st.v) != k:
                raise DimensionMismatch("stage vector length != k")
        return super().__new__(cls, k, stages)

    @classmethod
    def from_json(cls, obj: dict) -> "ExtensionData":
        with parsing("extension data"):
            return cls(json_int(obj["k"]), read_stages(obj["stages"], "v"))


def read_stages(obj, key: str) -> tuple[Stage, ...]:
    """The Stages of a JSON list of {"p": p, key: vector, "B": B}, read in
    that order.  Each distinct B is read and checked once, keyed on its
    JSON text, so equal Bs share one Matrix and one det B check."""
    parsed: dict[str, Matrix] = {}
    stages = []
    for st in json_list(obj):
        p, v = json_int(st["p"]), tuple(json_ints(st[key]))
        b = parsed.get(text := json.dumps(st["B"]))
        if b is None:
            b = parsed[text] = json_matrix(st["B"])
        stages.append(Stage(p, v, b))
    return tuple(stages)


# -- matrix constructors -------------------------------------------------------


def split_ecs_matrix(k: int, p: int) -> Matrix:
    """The split-case (k+2)-size matrix: first column (p-k-1, 1, ..., 1),
    middle columns (p-1, e_i, 0), last column (p-k^2-k-1, k, ..., k, k+1);
    all column sums equal p."""
    if k < 1:
        raise SchemaError("k must be >= 1")
    if p <= (k + 1) ** 2:
        raise PTooSmall(f"need p > (k+1)^2 = {(k + 1) ** 2}, got {p}")
    rows = [[p - k - 1] + [p - 1] * k + [p - k * k - k - 1]]
    rows += [[1] + [int(i == j) for j in range(k)] + [k] for i in range(k)]
    rows.append([1] + [0] * k + [k + 1])
    return Matrix.from_rows(rows)


def general_ecs_matrix(p: int, v: Sequence[int], b: Matrix, a: int) -> Matrix:
    """The bordered (k+2)-size matrix of stage data (p, v, B) with free
    parameter a.

    Bottom row a 1^T; middle rows (v + a 1, B + v 1^T + a 1 1^T,
    v - B 1 + a 1).  The right column is the bordered-construction one; it
    reduces to the v + (a-1) 1 of the display exactly when B has unit row
    sums, and it is what makes the family closed under multiplication.
    The top row is p minus the lower column sums, which makes the output
    ECS by construction; nonnegativity is checked by callers, not forced
    here.  p, v and a are checked to be exact once; every entry is then
    exact arithmetic on them and on the checked B.
    """
    k = len(v)
    if not b.is_square or b.rows != k:
        raise DimensionMismatch("inconsistent dimensions for bordered matrix")
    for x in (p, *v, a):
        _as_exact(x)
    brow_sums = b.row_sums()
    middle = [[v[i] + a] + [b[i, j] + v[i] + a for j in range(k)]
              + [v[i] - brow_sums[i] + a] for i in range(k)]
    top = [p - sum(middle[i][j] for i in range(k)) - a for j in range(k + 2)]
    return Matrix._exact_rows([top] + middle + [[a] * (k + 2)])


def choose_a_params(p: int, v: Sequence[int], b: Matrix) -> int:
    """The smallest a >= 1 making the bordered matrix nonnegative.

    The bound loop makes every entry below the top row nonnegative, and
    they all increase with a, so the minimal a is forced.  The top row is
    p minus the lower column sums: sum(v) + (k+1) a for column 0, plus
    colsum_j(B) for middle column j and -sum(B) for the last.  If the
    largest exceeds p, p is too small relative to (v, B) and the caller
    should telescope further.  No matrix is built.
    """
    k = len(v)
    lower = 1
    brow_sums = b.row_sums()
    for i in range(k):
        lower = max(lower, -v[i])                      # column 0
        lower = max(lower, brow_sums[i] - v[i])        # column k+1
        for j in range(k):
            lower = max(lower, -(b[i, j] + v[i]))      # middle block
    # Column 0 is never the widest alone: if every colsum_j(B) < 0, then
    # -sum(B) > 0.
    widest = max(max(b.column_sums()), -sum(brow_sums))
    if sum(v) + (k + 1) * lower + widest > p:
        raise Infeasible(_NO_UNIFORM_A.format(p))
    return lower


def bordered_stages(stages: Iterable[tuple[int, Sequence[int], Matrix]]
                    ) -> list[Matrix]:
    """The checked bordered matrices of stages (p, v, B), numbered from 1,
    with the smallest a (choose_a_params).  A stage is G_0 + p e_0 1^T,
    G_0 its matrix at p = 0, so each distinct (v, B) is built and checked
    once: its rows below the top nonnegative, and b_extract must
    read G_0 back as exactly (0, B, v, a) with a >= 1.  Every row of a
    B-form matrix below the top annihilates z = (k+1, -1, ..., -1), and
    column sums 0 make the top row minus the sum of the others, so G_0 z =
    0; as 1^T z = 0, each stage has column sums p, annihilates z and is the
    B-form of (p, B, v, a).  It has rank k+1: less the bottom row, then
    less column 0, the rows below the top are [[v, B, -B 1], [a, 0, ...,
    0]], whose first k+1 columns have determinant +-a det B (det B != 0 is
    the caller's).  A stage is nonnegative iff p >= -min(G_0[0]), as
    choose_a_params decides; each is tested primitive."""
    blocks: dict = {}
    out = []
    for idx, (p, v, b) in enumerate(stages, start=1):
        block = blocks.get((v, b))
        if block is None:
            try:
                a = choose_a_params(p, v, b)
            except Infeasible as exc:
                raise Infeasible(str(exc), stage=idx) from None
            g0 = general_ecs_matrix(0, v, b, a)
            top, *lower = g0
            if min(map(min, lower)) < 0:
                raise InvariantViolated("negative entry despite the chosen a",
                                        stage=idx)
            try:
                got = b_extract(g0)
            except ParameterExtractionFailed as exc:
                raise InvariantViolated(
                    f"bordered stage is not of B-form: {exc}",
                    stage=idx) from None
            if got != (0, b, v, a):
                raise InvariantViolated("bordered stage lost the stage data",
                                        stage=idx)
            if got.a < 1:
                raise InvariantViolated("bottom row is not one value a >= 1, "
                                        "so rank k+1 is unproved", stage=idx)
            block = blocks[v, b] = top, sum(lower, ())
        top, lower = block
        if p < -min(top):
            raise Infeasible(_NO_UNIFORM_A.format(p), stage=idx)
        m = Matrix._exact(len(top), len(top),
                          tuple([p + x for x in top]) + lower)
        if not is_primitive(m):
            raise NotPrimitive("stage matrix not primitive", stage=idx)
        out.append(m)
    _log.debug("built %d stages from %d distinct (v, B) blocks", len(out),
               len(blocks))
    return out


# -- GL(k,Z) reduction of the ratio vector -----------------------------------------


def reduce_vector(v: Sequence[Fraction]) -> tuple[UnimodularTransform, tuple[int, ...]]:
    """E in GL(k,Z) and integer W with E v - W entrywise >= 0 summing to < 1.

    Floor-subtract first, then repeat the division algorithm on the two
    largest entries until a single nonzero entry remains; on rational input
    the chain terminates with the 'gcd' in one slot, and the maximum never
    grows, so the remainder sum is below one.
    """
    vals = [Fraction(x) for x in v]
    if any(x < 0 for x in vals):
        raise NotNonnegative("reduce_vector needs a nonnegative vector")
    k = len(vals)
    w0 = [x.numerator // x.denominator for x in vals]
    work = [x - f for x, f in zip(vals, w0)]
    ops: list[tuple] = []
    guard = 0
    while True:
        nonzero = [i for i, x in enumerate(work) if x != 0]
        if len(nonzero) <= 1:
            break
        guard += 1
        if guard > 10 ** 6:
            raise InvariantViolated("reduction failed to terminate")
        s_idx = max(nonzero, key=lambda i: work[i])
        t_idx = max((i for i in nonzero if i != s_idx), key=lambda i: work[i])
        m = work[s_idx] // work[t_idx]   # >= 1 since work[s] >= work[t] > 0
        work[s_idx] -= m * work[t_idx]
        ops.append(("add", s_idx, t_idx, -m))
    e = UnimodularTransform(k, tuple(reversed(ops)))  # row ops compose right-to-left
    w = e.matrix.mul_vector(tuple(w0))
    return e, tuple(w)


# -- normalization and telescoping ---------------------------------------------


def normalize_extension(data: ExtensionData) -> ExtensionData:
    """Equivalent data with 0 <= v < p entrywise; equivalence is witnessed
    by the commuting squares F_{m+1} M_m = M'_m F_m with
    F_m = [[1, 0], [d_m, I]], d_1 = 0 and d_{m+1} = -u^m, u^m the floor of
    (v - B d_m) / p.  B d is taken only where d is nonzero, and a stage
    whose v is already normalized is kept as it is."""
    k = data.k
    d = tuple([0] * k)
    stages = []
    for st in data.stages:
        v_eff = vec_sub(st.v, st.b.mul_vector(d)) if any(d) else st.v
        u = tuple(x // st.p for x in v_eff)
        v_new = vec_sub(v_eff, vec_scale(st.p, u))
        stages.append(st if v_new == st.v else Stage(st.p, v_new, st.b))
        d = tuple(-x for x in u)
    return ExtensionData(k, tuple(stages))


def telescope_extension(data: ExtensionData,
                        cut_points: Sequence[int]) -> ExtensionData:
    """Group consecutive stages: each new stage is the exact block product of
    its group (later stages on the left), so new p is the product of the p's,
    new B the product of the B's, and new v the composed column.  A group
    of one stage keeps that stage as it is."""
    stages = []
    for lo, hi in groups(cut_points, len(data.stages)):
        st = data.stages[lo]
        if hi - lo == 1:
            stages.append(st)
            continue
        p, v, b = st.p, st.v, st.b
        for i in range(lo + 1, hi):
            nxt = data.stages[i]
            v = vec_add(vec_scale(p, nxt.v), nxt.b.mul_vector(v))
            b = nxt.b * b
            p = p * nxt.p
        stages.append(Stage(p, v, b))
    return ExtensionData(data.k, tuple(stages))


# -- the pipeline --------------------------------------------------------------


def ecs_pipeline(data: ExtensionData) -> RealizationSeq:
    """Normalize, reduce the terminal ratio with a single GL(k,Z)
    conjugation E, and emit the bordered ECS matrices of the stages
    (p, E v, E B E^-1), telescoping only the groups that do not fit.

    Every group starts as one stage.  Where a group is infeasible or not
    primitive, it is merged into the next group (the last group into the
    one before it) and the stages are telescoped again: the merged group
    has the product of the p's, which is what cures both failures.  After
    a merge the telescoped stages are normalized again, since a product
    can carry v outside [0, p).  Telescoping, normalizing and conjugating
    by E each keep the dimension group, so E is found once and each
    distinct B is conjugated once.  Every emitted matrix is proved exactly
    by bordered_stages: nonnegative, the B-form of its stage (p, E v,
    E B E^-1) with a >= 1, so column sums p, rank k+1 by certificate,
    primitive.  A single group that still fails raises HorizonExhausted.
    """
    norm = normalize_extension(data)
    last = norm.stages[-1]
    # 0 <= v < p, so the terminal ratio lies in [0, 1)^k and reduce_vector's
    # W is 0.  B_new = E B E^-1 has det B != 0, the rank certificate's
    # premise: E is made of elementary operations and every Stage checked
    # its B.
    e, _ = reduce_vector([Fraction(x, last.p) for x in last.v])
    em = e.matrix
    conjugated: dict[Matrix, Matrix] = {}
    cuts = list(range(len(norm.stages)))
    while True:
        tele = telescope_extension(norm, cuts)
        if len(cuts) < len(norm.stages):    # else tele is norm, normalized
            tele = normalize_extension(tele)
        fresh = list(dict.fromkeys(st.b for st in tele.stages
                                   if st.b not in conjugated))
        conjugated.update(zip(fresh, e.conjugate(fresh)))
        try:
            mats = bordered_stages((st.p, em.mul_vector(st.v),
                                    conjugated[st.b]) for st in tele.stages)
        except (Infeasible, NotPrimitive) as exc:
            if len(cuts) == 1:
                raise HorizonExhausted(
                    f"no grouping of {len(norm.stages)} stages fits: as one "
                    f"group, {type(exc).__name__}: {exc}") from None
            # deleting cuts[gone] joins stages gone and gone + 1 (from 1)
            gone = min(exc.stage, len(cuts) - 1)
            _log.info("grouping %s: %s at stage %d, merging stages %d and %d",
                      cuts, type(exc).__name__, exc.stage, gone, gone + 1)
            cuts = cuts[:gone] + cuts[gone + 1:]    # the record holds the old
        else:
            return RealizationSeq(
                tuple(mats), tuple(st.p for st in tele.stages), None,
                {"ecs": True}, {"pipeline": "ecs", "k": data.k, "cuts": cuts})


# -- the composition algebra of bordered matrices ----------------------------


class BParams(namedtuple("BParams", "p b v a")):
    __slots__ = ()


def b_extract(m: Matrix) -> BParams:
    """Read the parameters back off a matrix of B-form, the bordered matrix
    of (p, v, B) with parameter a; raises ParameterExtractionFailed when
    the matrix is not of that shape.  Every entry is checked: the bottom
    row, the right column and the column sums, with B read off the middle
    block.  bordered_stages checks every base it builds with it."""
    size = m.rows
    if size != m.cols or size < 3:
        raise ParameterExtractionFailed("wrong shape for B-form")
    k = size - 2
    a = m[size - 1, 0]
    if any(m[size - 1, j] != a for j in range(size)):
        raise ParameterExtractionFailed("bottom row not constant")
    v = tuple(m[1 + i, 0] - a for i in range(k))
    b = Matrix._exact_rows([[m[1 + i, 1 + j] - v[i] - a for j in range(k)]
                            for i in range(k)])
    brow_sums = b.row_sums()
    for i in range(k):
        if m[1 + i, size - 1] != v[i] - brow_sums[i] + a:
            raise ParameterExtractionFailed("right column mismatch")
    sums = set(m.column_sums())
    if len(sums) != 1:
        raise ParameterExtractionFailed("column sums not constant")
    return BParams(sums.pop(), b, v, a)


def b_compose(left: BParams, right: BParams) -> BParams:
    """Multiply two B-form matrices exactly and re-extract the parameters,
    asserting the closure law (pp', BB', p'v + Bv', p'a)."""
    product = (general_ecs_matrix(left.p, left.v, left.b, left.a)
               * general_ecs_matrix(right.p, right.v, right.b, right.a))
    got = b_extract(product)
    expected = BParams(
        left.p * right.p,
        left.b * right.b,
        vec_add(vec_scale(right.p, left.v), left.b.mul_vector(right.v)),
        right.p * left.a)
    if (got.p, got.b, got.v, got.a) != (expected.p, expected.b,
                                        expected.v, expected.a):
        raise ParameterExtractionFailed(
            f"closure law violated: got {got}, expected {expected}")
    return got
