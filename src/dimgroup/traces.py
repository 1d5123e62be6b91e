"""Traces induced by ECS realizations, goodness of simplicial rows, and the
nearly-split witness."""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .errors import NotECS, NotNonnegative, ZeroRow
from .exact import Matrix, content, primitive_part, right_kernel_basis
from .perron import PerronData
from .realization import RealizationSeq, json_str
from .supernatural import factorize


def _stage_column_sums(seq: RealizationSeq) -> list[int]:
    sums = []
    for idx, m in enumerate(seq.matrices, start=1):
        cs = set(m.column_sums())
        if len(cs) != 1:
            raise NotECS(f"unequal column sums {sorted(cs)}", stage=idx)
        sums.append(cs.pop())
    return sums


class TraceReport(namedtuple("TraceReport",
                              "value_group faithful_claim lam")):
    """Canonical trace data of an ECS realization.  The trace of a basis
    vector at level i is 1/(c_1 ... c_{i-1}), c_j the column sum of stage
    j, so the value group of the prefix is (1/prod c_j) Z.  value_group is
    factorize(column sums); faithful_claim holds by construction for ECS;
    lam is |tau(G)/tau(H)| for an all-ones marker, else None."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "value_group": [[json_str(x), e, prime]
                            for x, e, prime in self.value_group],
            "faithful": self.faithful_claim,
            "lambda": self.lam,
        }


def trace_report(seq: RealizationSeq) -> TraceReport:
    group = factorize(_stage_column_sums(seq))
    lam = None
    sizes = seq.level_sizes()
    if (seq.markers is not None and len(set(sizes)) == 1
            and all(all(x == 1 for x in h) for h in seq.markers)):
        # tau(H) = s * tau(G), so the index is |U/sU| for U = (1/prod c_j) Z;
        # the prefix makes U cyclic, and U/sU then has order s.
        lam = sizes[0]
    return TraceReport(group, True, lam)


def is_good_row(w: Sequence[int]) -> bool:
    """Goodness of the trace v -> w.v on the simplicial group.

    Normalizes by the content first (goodness is scale-invariant for these
    traces), then requires every nonzero entry to equal 1."""
    if any(x < 0 for x in w):
        raise NotNonnegative("row must be nonnegative")
    g = content(w)
    if g == 0:
        raise ZeroRow("goodness undefined for the zero row")
    return all(x == 0 or x == g for x in w)


class NearlySplitReport(namedtuple("NearlySplitReport",
                                    "has_common_right_evec "
                                    "has_common_left_evec "
                                    "nearly_split_implied")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "common_right_eigenvector": self.has_common_right_evec,
            "common_left_eigenvector": self.has_common_left_evec,
            "nearly_split_implied": self.nearly_split_implied,
        }


def nearly_split_witness(seq: RealizationSeq,
                         perron: Sequence[PerronData | None] = ()
                         ) -> NearlySplitReport:
    """Looks for one integer vector that is a right eigenvector of every
    stage matrix at its designed eigenvalue, and a row that is a left
    eigenvector of every stage, with nonzero pairing; both found with a
    nonzero pairing forces the trace extension to be nearly split.
    ``perron`` holds, per stage, the Perron data of a stage verified
    primitive, else None; it seeds the search."""
    sizes = set(seq.level_sizes())
    if len(sizes) != 1:
        return NearlySplitReport(False, False, False)
    values = seq.stage_values
    right_basis = _common_eigenvectors(seq.matrices, values, perron=perron)
    left_basis = _common_eigenvectors(seq.matrices, values, left=True,
                                      perron=perron)
    has_right = bool(right_basis)
    has_left = bool(left_basis)
    pairing = any(sum(l * r for l, r in zip(w, v)) != 0
                  for w in left_basis for v in right_basis)
    return NearlySplitReport(has_right, has_left,
                             has_right and has_left and pairing)


def _common_eigenvectors(mats: Sequence[Matrix], values: Sequence[int],
                         left: bool = False,
                         perron: Sequence[PerronData | None] = ()
                         ) -> list[tuple[int, ...]]:
    """Integer basis of {v : A v = p v for every stage (A, p)}, or with
    ``left`` of the rows {w : w A = p w}, for square stages of one size.

    The stage kernels are intersected one at a time, so at most s vectors
    are live.  A primitive stage whose Perron root is p has ker(A - pI)
    spanned by its right Perron vector, and the rows w A = p w by its left
    one, since that root is simple; its vector from ``perron`` then seeds
    the basis without a solve.  Once the basis is one vector, each stage
    costs one vector product, and none for the all-ones vector: A 1 and
    1 A are the stage's cached row and column sums.
    """
    s = mats[0].cols
    seed = next(((pd.left if left else pd.right)
                 for pd, p in zip(perron, values)
                 if pd is not None and pd.eigenvalue == p), None)
    if seed is not None:
        basis = [seed]
    else:
        basis = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    for m, p in zip(mats, values):
        image = m.vector_mul if left else m.mul_vector
        if len(basis) == 1:
            v = basis[0]
            sums = m.column_sums() if left else m.row_sums()
            av = sums if set(v) == {1} else image(v)
            basis = [v] if av == tuple(p * x for x in v) else []
        else:
            images = [[y - p * x for x, y in zip(v, image(v))]
                      for v in basis]
            coords = right_kernel_basis(Matrix.from_rows(list(zip(*images))))
            combos = [[sum(c * v[i] for c, v in zip(cs, basis))
                       for i in range(s)] for cs in coords]
            basis = [primitive_part(w) for w in combos]
        if not basis:
            break
    return basis
