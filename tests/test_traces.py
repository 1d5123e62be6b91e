import random
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from dimgroup.errors import (DimensionMismatch, DimgroupError, NotECS,
                             NotIntegerEigenvalue, NotNonnegative,
                             NotPrimitive, ZeroRow)
from dimgroup.exact import Matrix, right_kernel_basis
from dimgroup.perron import integer_perron
from dimgroup.realization import RealizationSeq
from dimgroup.traces import (NearlySplitReport, _common_eigenvectors,
                             _stage_column_sums, is_good_row,
                             nearly_split_witness, trace_report)


def _ecs_seq():
    from dimgroup.ecs import ExtensionData, Stage, ecs_pipeline
    data = ExtensionData(1, (Stage(5, (0,), Matrix.identity(1)),
                             Stage(7, (0,), Matrix.identity(1))))
    return ecs_pipeline(data)


class OutOfRange(DimgroupError):
    pass


# The trace of one element, the greedy rebalance and the equal-trace
# splitting matrix are reached by no command; they stay here as checked
# definitions.
def trace_of_realization(seq: RealizationSeq,
                         elem: tuple[Sequence[int], int]) -> Fraction:
    """Value of the canonical ECS trace on [w, level]: coordinate sum of w
    divided by the product of the column sums of the earlier stages."""
    w, level = elem
    sums = _stage_column_sums(seq)
    sizes = seq.level_sizes()
    if not 1 <= level <= len(sizes):
        raise DimensionMismatch(f"level {level} out of range")
    if len(w) != sizes[level - 1]:
        raise DimensionMismatch(
            f"vector length {len(w)} != level size {sizes[level - 1]}")
    denom = 1
    for c in sums[:level - 1]:
        denom *= c
    return Fraction(sum(w), denom)


def rebalance(b: Sequence[int], m: int) -> tuple[int, ...]:
    """Some 0 <= c <= b with coordinate sum m, by unit transfers.

    The choice is the greedy one; any vector meeting the postcondition is
    acceptable to callers."""
    if any(x < 0 for x in b):
        raise NotNonnegative("b must be nonnegative")
    total = sum(b)
    if m < 0 or m > total:
        raise OutOfRange(f"m={m} outside [0, {total}]")
    c = []
    left = m
    for x in b:
        take = min(x, left)
        c.append(take)
        left -= take
    return tuple(c)


def split_to_equal_trace(a: Sequence[int]) -> Matrix:
    """The 0/1 simplicial splitting matrix for positive weights a.

    Shape (sum a) x len(a): column j carries exactly a_j ones, every row
    exactly one; composing with the all-ones row recovers a, and all image
    basis vectors get equal per-unit trace value."""
    if not a or any(x < 1 for x in a):
        raise OutOfRange("all weights must be >= 1")
    rows = []
    for j, count in enumerate(a):
        for _ in range(count):
            row = [0] * len(a)
            row[j] = 1
            rows.append(row)
    return Matrix.from_rows(rows)


def test_trace_examples():
    seq = _ecs_seq()
    e1 = (1, 0, 0)
    assert trace_of_realization(seq, (e1, 1)) == 1
    assert trace_of_realization(seq, ((1, 1, 1), 1)) == 3
    assert trace_of_realization(seq, (e1, 2)) == Fraction(1, 5)


def test_trace_compatible_with_transition():
    seq = _ecs_seq()
    rng = random.Random(2)
    for level in (1, 2):
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            pushed = seq.matrices[level - 1].mul_vector(v)
            assert (trace_of_realization(seq, (v, level))
                    == trace_of_realization(seq, (pushed, level + 1)))


def test_trace_requires_ecs():
    bad = RealizationSeq((Matrix.from_rows([[1, 2], [0, 1]]),), (3,))
    with pytest.raises(NotECS):
        trace_of_realization(bad, ((1, 0), 1))


def test_trace_report_value_group():
    seq = _ecs_seq()
    rep = trace_report(seq)
    assert rep.value_group == [(5, 1, True), (7, 1, True)]
    assert rep.to_json()["value_group"] == [["5", 1, True], ["7", 1, True]]
    assert rep.faithful_claim


def test_is_good_row_examples():
    assert is_good_row((1, 1, 1))
    assert not is_good_row((1, 2))
    assert is_good_row((3, 3, 0))
    with pytest.raises(ZeroRow):
        is_good_row((0, 0))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=5).filter(any),
       st.integers(1, 7))
def test_is_good_row_scale_and_permutation_invariant(w, c):
    base = is_good_row(tuple(w))
    assert is_good_row(tuple(c * x for x in w)) == base
    assert is_good_row(tuple(reversed(w))) == base


def test_rebalance_examples():
    assert rebalance((3, 0, 2), 0) == (0, 0, 0)
    assert rebalance((3, 0, 2), 5) == (3, 0, 2)
    c = rebalance((3, 0, 2), 4)
    assert sum(c) == 4 and all(0 <= x <= b for x, b in zip(c, (3, 0, 2)))
    with pytest.raises(OutOfRange):
        rebalance((3, 0, 2), 6)


def test_rebalance_exhaustive():
    for length in range(1, 5):
        for b in product(range(5), repeat=length):
            for m in range(sum(b) + 1):
                c = rebalance(b, m)
                assert sum(c) == m
                assert all(0 <= x <= bx for x, bx in zip(c, b))


def test_split_to_equal_trace():
    assert split_to_equal_trace((1,)).to_rows() == [[1]]
    assert split_to_equal_trace((2, 1)).to_rows() == [[1, 0], [1, 0], [0, 1]]
    assert split_to_equal_trace((1, 1, 1)) == Matrix.identity(3)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_split_recovers_weights(a):
    s = split_to_equal_trace(tuple(a))
    ones = tuple([1] * s.rows)
    assert s.vector_mul(ones) == tuple(a)
    for i in range(s.rows):
        assert sum(s.row(i)) == 1


def test_nearly_split_witness_cases():
    from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
    from dimgroup.supernatural import FactorSequence
    ecrs = ecrs_pipeline(EcrsProblem(2, 3, (1, 1), FactorSequence((7, 13))))
    rep = nearly_split_witness(ecrs)
    assert rep.has_common_right_evec and rep.has_common_left_evec
    assert rep.nearly_split_implied

    # single-matrix sequence: both eigenvectors always exist
    single = RealizationSeq((Matrix.from_rows([[1, 2], [2, 1]]),), (3,))
    rep = nearly_split_witness(single)
    assert rep.nearly_split_implied

    # a generic ECS-built pair has the common left row but loses the right
    from dimgroup.ecs import ExtensionData, Stage, ecs_pipeline
    data = ExtensionData(1, (Stage(11, (3,), Matrix.identity(1)),
                             Stage(121, (33,), Matrix.identity(1))))
    seq = ecs_pipeline(data)
    rep = nearly_split_witness(seq)
    assert rep.has_common_left_evec          # the all-ones row
    assert not rep.has_common_right_evec
    assert not rep.nearly_split_implied


def stacked_witness(seq):
    """The witness from one elimination of each stacked system: the rows of
    every A_i - p_i I for the right vectors, their columns for the left."""
    sizes = set(seq.level_sizes())
    if len(sizes) != 1:
        return NearlySplitReport(False, False, False)
    s = sizes.pop()
    shifted = [m + Matrix.identity(s).scale(-p)
               for m, p in zip(seq.matrices, seq.stage_values)]
    right = right_kernel_basis(Matrix.from_rows(
        [list(m.row(i)) for m in shifted for i in range(s)]))
    left = right_kernel_basis(Matrix.from_rows(
        [list(m.col(j)) for m in shifted for j in range(s)]))
    pairing = any(sum(l * r for l, r in zip(w, v)) != 0
                  for w in left for v in right)
    return NearlySplitReport(bool(right), bool(left),
                             bool(right) and bool(left) and pairing)


WITNESS_KINDS = ("ones", "rows", "columns", "diagonal", "permutation",
                 "jordan", "random")


def _witness_stage(rng, s, kind):
    """One stage and designed value.  a J + b I has the all-ones vector at
    a s + b and every zero-sum vector at b, the non-Perron eigenvalue for
    a > 0 (b < 0 makes entries negative, a half-integer a makes Fraction
    entries); positive stages with constant row or column sums have that
    sum as Perron root; diagonal, permutation and Jordan stages
    are not primitive, and a Jordan block's left and right eigenvectors
    pair to zero; random stages have negative entries."""
    ones = Matrix.from_rows([[1] * s for _ in range(s)])
    if kind == "ones":
        a = Fraction(rng.randint(0, 3), rng.choice([1, 1, 2]))
        b = rng.randint(-2, 3)
        m = ones.scale(a) + Matrix.identity(s).scale(b)
        top = a * s + b
        return m, rng.choice([b, b, int(top) if top.denominator == 1 else b,
                              rng.randint(-2, 6)])
    if kind in ("rows", "columns"):
        t = [[rng.randint(1, 4) for _ in range(s)] for _ in range(s)]
        c = max(map(sum, t))
        for i, row in enumerate(t):
            row[i] += c - sum(row)
        m = Matrix.from_rows(t)
        return (m if kind == "rows" else m.transpose(),
                rng.choice([c, c, c + 1]))
    if kind == "diagonal":
        d = [rng.randint(0, 3) for _ in range(s)]
        return (Matrix.from_rows([[d[i] if i == j else 0 for j in range(s)]
                                  for i in range(s)]), rng.choice(d))
    if kind == "jordan":
        b = rng.randint(0, 3)
        return (Matrix.from_rows([[b if i == j else int(j == i + 1)
                                   for j in range(s)] for i in range(s)]), b)
    if kind == "permutation":
        perm = rng.sample(range(s), s)
        return (Matrix.from_rows([[int(perm[i] == j) for j in range(s)]
                                  for i in range(s)]), rng.choice([1, -1, 0]))
    return (Matrix.from_rows([[rng.randint(-2, 3) for _ in range(s)]
                              for _ in range(s)]), rng.randint(-2, 6))


def test_nearly_split_witness_matches_stacked_kernels():
    rng = random.Random(1307)
    seen = {}
    for _ in range(1500):
        s = rng.randint(1, 4)
        # Most stages of a sequence share one kind, so that common
        # eigenvectors exist often.
        family = rng.choice(WITNESS_KINDS)
        stages = [_witness_stage(rng, s, family if rng.random() < 0.7
                                 else rng.choice(WITNESS_KINDS))
                  for _ in range(rng.randint(1, 4))]
        seq = RealizationSeq(tuple(m for m, _ in stages),
                             tuple(p for _, p in stages))
        expected = stacked_witness(seq)
        assert nearly_split_witness(seq) == expected, stages
        key = (expected.has_common_right_evec, expected.has_common_left_evec,
               expected.nearly_split_implied)
        seen[key] = seen.get(key, 0) + 1
    # Every combination of the three answers the witness can give occurs.
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


def test_witness_seeded_from_perron_data_matches_stacked_kernels():
    """Given each stage's Perron data where it is primitive, a stage whose
    Perron root is its designed value seeds the search with its Perron
    vector, all-ones or not, and the answer is unchanged."""
    rng = random.Random(3301)
    seeded = 0
    for _ in range(800):
        s = rng.randint(1, 4)
        family = rng.choice(WITNESS_KINDS)
        stages = [_witness_stage(rng, s, family if rng.random() < 0.7
                                 else rng.choice(WITNESS_KINDS))
                  for _ in range(rng.randint(1, 4))]
        perron = []
        for m, _ in stages:
            try:
                perron.append(integer_perron(m) if m.is_nonnegative()
                              else None)
            except (NotPrimitive, NotIntegerEigenvalue):
                perron.append(None)
        seeded += any(pd is not None and pd.eigenvalue == p
                      and {pd.left, pd.right} != {(1,) * s}
                      for pd, (_, p) in zip(perron, stages))
        seq = RealizationSeq(tuple(m for m, _ in stages),
                             tuple(p for _, p in stages))
        assert nearly_split_witness(seq, perron) == stacked_witness(seq)
    assert seeded >= 50, seeded


def test_left_common_eigenvectors_equal_the_transposed_computation():
    """The left pass reads each stage's columns in place; it gives the
    basis that the right pass gives on the transposed stages."""
    rng = random.Random(2718)
    for _ in range(600):
        s = rng.randint(1, 4)
        family = rng.choice(WITNESS_KINDS)
        stages = [_witness_stage(rng, s, family if rng.random() < 0.7
                                 else rng.choice(WITNESS_KINDS))
                  for _ in range(rng.randint(1, 4))]
        mats = [m for m, _ in stages]
        values = [p for _, p in stages]
        transposed = [Matrix.from_rows([list(m.col(j)) for j in range(s)])
                      for m in mats]
        assert (_common_eigenvectors(mats, values, left=True)
                == _common_eigenvectors(transposed, values)), stages


@pytest.mark.parametrize("p,expected", [(3, (True, True, True)),
                                        (1, (True, True, True)),
                                        (2, (False, False, False))])
def test_nearly_split_witness_at_a_non_perron_eigenvalue(p, expected):
    # [[2, 1], [1, 2]] has the Perron vector (1, 1) at 3 and (1, -1) at 1.
    m = Matrix.from_rows([[2, 1], [1, 2]])
    # The second stage is the same matrix with Fraction entries.
    seq = RealizationSeq((m, m.scale(Fraction(1, 1))), (p, p))
    rep = nearly_split_witness(seq)
    assert rep == stacked_witness(seq)
    assert (rep.has_common_right_evec, rep.has_common_left_evec,
            rep.nearly_split_implied) == expected
