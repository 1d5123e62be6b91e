"""Acceptance suite: one test per criterion, exact checks throughout.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import functools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from dimgroup.errors import LambdaTooSmall
from dimgroup.exact import (Matrix, colsum_norm, content, is_unimodular,
                            sup_norm, vec_sub)
from dimgroup.ecs import (BParams, ExtensionData, Stage, b_compose,
                          b_extract, choose_a_params, ecs_pipeline,
                          general_ecs_matrix, reduce_vector, split_ecs_matrix)
from dimgroup.ecrs import (EcrsProblem, commuting_family, ecrs_pipeline,
                           poly_for)
from dimgroup.ers import (ErsStageData, build_w_sequence,
                          ers_pipeline, partial_sum)
from dimgroup.perron import (check_equal_sums_criterion, integer_perron,
                             is_primitive, unique_trace_diagnostic)
from dimgroup.supernatural import (INFINITE, FactorSequence,
                                   SupernaturalNumber, decide_ecrs)
from dimgroup.traces import is_good_row

from bordered import kernel_vector


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number:2d}: FAIL - {description}")
                raise
            print(f"CRITERION {number:2d}: PASS - {description}")
        return run
    return wrap


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def upper_block_matrix(p, u, b):
    """The upper-triangular block form [[p, u], [0, B]] of an ERS stage."""
    return Matrix.from_rows([[p, *u]]
                            + [[0, *b.row(i)] for i in range(b.rows)])


@criterion(1, "split matrices: sums, charpoly, kernel, rank, primitivity")
def test_criterion_01_split_matrices():
    start = time.monotonic()
    for k in (1, 2, 3):
        base = (k + 1) ** 2
        expected_head = [1, 0]
        for _ in range(k):
            expected_head = _poly_mul(expected_head, [1, -1])
        z = kernel_vector(k)
        for p in range(base + 1, base + 11):
            m = split_ecs_matrix(k, p)
            assert set(m.column_sums()) == {p}
            assert m.charpoly() == tuple(_poly_mul(expected_head, [1, -p]))
            assert m.mul_vector(z) == tuple([0] * (k + 2))
            assert m.rank() == k + 1
            assert is_primitive(m)
    assert time.monotonic() - start < 5.0


@criterion(2, "general bordered matrices: 500 random exact instances")
def test_criterion_02_general_matrices():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(500):
        k = rng.randint(1, 4)
        p = rng.randint(10 ** 4, 10 ** 6)
        while True:
            b = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(k)]
                                  for _ in range(k)])
            if b.det() != 0:
                break
        assert colsum_norm(b) ** 2 <= p
        v = tuple(rng.randint(0, (p - 1) // (2 * (k + 1))) for _ in range(k))
        a = choose_a_params(p, v, b)
        m = general_ecs_matrix(p, v, b, a)
        assert m.is_nonnegative()
        assert set(m.column_sums()) == {p}
        assert m.mul_vector(kernel_vector(k)) == tuple([0] * (k + 2))
        assert m.rank() == k + 1
    assert time.monotonic() - start < 30.0


@criterion(3, "ratio-vector reduction: unimodular, nonnegative, sum < 1")
def test_criterion_03_reduce_vector():
    rng = random.Random(303)
    for _ in range(500):
        k = rng.randint(1, 5)
        v = tuple(Fraction(rng.randint(0, 500), rng.randint(1, 100))
                  for _ in range(k))
        e, w = reduce_vector(v)
        assert is_unimodular(e.matrix)
        rem = vec_sub(e.matrix.mul_vector(v), w)
        assert all(x >= 0 for x in rem)
        assert sum(rem) < 1
        max_den = max(x.denominator for x in v)
        steps = len(e.ops)
        if max_den == 1:
            assert steps == 0
        else:
            assert steps <= 10 * k * math.log2(max_den)


@criterion(4, "w-sequence: commuting squares, norm bound, series gap bound")
def test_criterion_04_w_sequence():
    rng = random.Random(404)
    stage_count = 8
    for _ in range(100):
        k = rng.randint(1, 3)
        stages = []
        p = rng.randint(101, 201) | 1
        for _ in range(stage_count):
            while True:
                b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                      for _ in range(k)])
                if b.det() % 2 != 0:   # odd determinant: no rounding ties
                    break
            norm = colsum_norm(b)
            p = max(p + rng.randint(2, 60), 4 * norm * norm) | 1
            z = tuple(rng.randint(-(p - 1), p - 1) for _ in range(k))
            stages.append(Stage(p, z, b))
        rho = tuple(Fraction(rng.randint(-30, 30), 2 * rng.randint(0, 30) + 1)
                    for _ in range(k))
        data = ErsStageData(k, tuple(stages), rho)
        res = build_w_sequence(data)
        for n, st in enumerate(data.stages, start=1):
            # exact commuting square between the z- and w-presentations
            f_top = Matrix.from_rows(
                [[1, *res.ys[n]],
                 *[[0] + [1 if jj == ii else 0 for jj in range(k)]
                   for ii in range(k)]])
            f_bot = Matrix.from_rows(
                [[1, *res.ys[n - 1]],
                 *[[0] + [1 if jj == ii else 0 for jj in range(k)]
                   for ii in range(k)]])
            m_z = upper_block_matrix(st.p, st.v, st.b)
            m_w = upper_block_matrix(st.p, res.ws[n - 1], st.b)
            assert f_top * m_z == m_w * f_bot
            if n > 1:    # the estimate covers w^i for i > 1 only
                limit = (Fraction(sup_norm(st.v))
                         + Fraction(st.p + colsum_norm(st.b), 2))
                assert Fraction(sup_norm(res.ws[n - 1])) < limit
        gap = sup_norm(vec_sub(partial_sum(res.ws, data.stages), rho))
        assert gap <= res.error_bound


@criterion(5, "composition algebra: worked product and random closure")
def test_criterion_05_b_algebra():
    left = BParams(7, Matrix.identity(1), (1,), 1)
    right = BParams(5, Matrix.identity(1), (2,), 1)
    product_matrix = (general_ecs_matrix(left.p, left.v, left.b, left.a)
                      * general_ecs_matrix(right.p, right.v, right.b, right.a))
    assert product_matrix.to_rows() == [[18, 17, 19], [12, 13, 11], [5, 5, 5]]
    composed = b_compose(left, right)
    assert (composed.p, composed.v, composed.a) == (35, (7,), 5)
    assert composed.b == Matrix.identity(1)

    rng = random.Random(505)
    for _ in range(200):
        k = rng.randint(1, 4)
        pair = []
        for _ in range(2):
            while True:
                b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                      for _ in range(k)])
                if b.det() != 0:
                    break
            pair.append(BParams(rng.randint(2, 99), b,
                                tuple(rng.randint(-6, 6) for _ in range(k)),
                                rng.randint(1, 6)))
        x, y = pair
        got = b_compose(x, y)         # raises if the closure law breaks
        assert got.p == x.p * y.p
        assert got.b == x.b * y.b
        assert got.v == tuple(y.p * vx + bv for vx, bv in
                              zip(x.v, x.b.mul_vector(y.v)))
        assert got.a == y.p * x.a


def _brute_poly_search(m, l, max_digits=5):
    """Exhaustive search for f in Z[x]+ with f(m) = l, f(-1) = +-1,
    coefficients below 2m+1 and at most max_digits of them."""
    found = []

    def rec(prefix, remaining, power_index):
        if remaining == 0:
            val = sum(c * (-1) ** i for i, c in enumerate(prefix))
            if val in (1, -1):
                found.append(tuple(prefix))
            return
        if power_index >= max_digits:
            return
        base = m ** power_index
        if base > remaining and prefix:
            pass
        for c in range(0, 2 * m + 1):
            used = c * base
            if used > remaining:
                break
            rec(prefix + [c], remaining - used, power_index + 1)

    rec([], l, 0)
    return found


@criterion(6, "digit-moving polynomials: exhaustive and brute-force checked")
def test_criterion_06_poly_for():
    for m in range(2, 7):
        for l in range(1, 201):
            if l % (m + 1) not in (1, m):
                continue
            f = poly_for(m, l)
            assert all(c >= 0 for c in f.coefficients)
            assert f(m) == l
            assert f(-1) in (1, -1)
    for m in range(2, 4):
        for l in range(1, 41):
            solutions = _brute_poly_search(m, l)
            if l % (m + 1) in (1, m):
                assert solutions, (m, l)
                f = poly_for(m, l)
                if len(f.coefficients) <= 5 and all(c <= 2 * m
                                                    for c in f.coefficients):
                    assert f.coefficients in solutions
            else:
                assert not solutions, (m, l)


@criterion(7, "ECRS pipeline: bounded sizes, equal sums, all-ones eigenvectors")
def test_criterion_07_ecrs_pipeline():
    cases = {(2, 3): (7, 13, 19), (2, 5): (11, 31, 41),
             (2, 7): (29, 43, 71), (3, 4): (5, 13, 17)}
    for (k, lam), ps in cases.items():
        seq = ecrs_pipeline(EcrsProblem(k, lam, tuple([1] * k),
                                        FactorSequence(ps)))
        assert all(m.rows == lam and m.cols == lam for m in seq.matrices)
        for m, p in zip(seq.matrices, seq.stage_values):
            assert is_primitive(m)
            assert set(m.row_sums()) == {p}
            assert set(m.column_sums()) == {p}
            pd = integer_perron(m)
            assert pd.eigenvalue == p
            assert pd.left == tuple([1] * lam)
            assert pd.right == tuple([1] * lam)
            rep = check_equal_sums_criterion(m)
            assert rep.inner_product == lam and rep.sums_equal
    with pytest.raises(LambdaTooSmall):
        ecrs_pipeline(EcrsProblem(2, 2, (1, 1), FactorSequence((5, 9, 13))))


@criterion(8, "commuting family: exact stages, commutators, Perron values")
def test_criterion_08_commuting_family():
    a = Matrix.from_rows([[1, 2], [2, 1]])
    seq = commuting_family(a, FactorSequence((5, 13, 17)))
    assert seq.matrices[0].to_rows() == [[7, 8], [8, 7]]
    for i in range(3):
        for j in range(3):
            assert (seq.matrices[i] * seq.matrices[j]
                    == seq.matrices[j] * seq.matrices[i])
    assert tuple(integer_perron(m).eigenvalue for m in seq.matrices) \
        == (15, 39, 51) == seq.stage_values


@criterion(9, "ERS pipeline: row sums, markers, diagnostic, trace recovery")
def test_criterion_09_ers_pipeline():
    instances = {
        1: ErsStageData(1, (Stage(25, (8,), Matrix.identity(1)),
                            Stage(125, (5,), Matrix.identity(1))),
                        (Fraction(1, 3),)),
        2: ErsStageData(2, (Stage(101, (7, 11), Matrix.identity(2)),
                            Stage(1009, (13, 5), Matrix.identity(2))),
                        (Fraction(1, 5), Fraction(2, 7))),
    }
    for k, data in instances.items():
        seq = ers_pipeline(data)
        size = k + 2
        ones = tuple([1] * size)
        for m, p in zip(seq.matrices, seq.stage_values):
            assert set(m.row_sums()) == {p}
            assert m.mul_vector(ones) == tuple(p * x for x in ones)
        assert seq.marker_chain_ok()
        diag = unique_trace_diagnostic(list(seq.matrices), 12,
                                       Fraction(1, 10 ** 6))
        assert diag.numeric_rank_at_tol == 1

        rec_ws = []
        for m, st in zip(seq.matrices, data.stages):
            got = b_extract(m.transpose())
            assert (got.p, got.b) == (st.p, st.b.transpose())
            rec_ws.append(got.v)
        rec_trace = partial_sum(rec_ws, data.stages)
        bound = Fraction(seq.provenance["trace_gap_bound"])
        assert sup_norm(vec_sub(rec_trace, data.trace_row)) <= bound


def _brute_goodness(w):
    """Interval condition checked by direct enumeration: for every b with
    entries <= 3, the trace values over [0, b] must be every multiple of the
    content up to w.b."""
    g = content(w)
    n = len(w)
    for b in product(range(4), repeat=n):
        achieved = {0}
        for wi, bi in zip(w, b):
            achieved = {s + wi * t for s in achieved for t in range(bi + 1)}
        top = sum(wi * bi for wi, bi in zip(w, b))
        expected = set(range(0, top + 1, g)) if g else {0}
        if achieved != expected:
            return False
    return True


@criterion(10, "goodness agrees with interval-condition enumeration")
def test_criterion_10_goodness():
    for n in range(1, 5):
        for w in product(range(4), repeat=n):
            if not any(w):
                continue
            assert is_good_row(w) == _brute_goodness(w), w


@criterion(11, "co-rank-one invariant: telescoped kernels have rank one")
def test_criterion_11_kernel_rank():
    built = []
    for k, ps in ((1, (5, 7, 11)), (2, (10, 11, 13)), (3, (17, 19, 23))):
        built.append([split_ecs_matrix(k, p) for p in ps])
    data = ExtensionData(2, tuple(Stage(101, (3, 7), Matrix.identity(2))
                                  for _ in range(3)))
    built.append(list(ecs_pipeline(data).matrices))
    for mats in built:
        n = len(mats)
        for start in range(n):
            prod = mats[start]
            for end in range(start, n):
                if end > start:
                    prod = mats[end] * prod
                assert prod.cols - prod.rank() == 1


@criterion(12, "existence dichotomy matches the twelve-row truth table")
def test_criterion_12_decision_table():
    no_inf = SupernaturalNumber({2: 3, 3: 1})
    with_inf = SupernaturalNumber({3: 1}, frozenset([2]))
    table = [
        # rank, group, lambda -> exists, size, bounded
        (2, no_inf, 5, True, 5, True),
        (3, no_inf, 2, False, None, None),
        (2, no_inf, 2, True, 2, True),
        (6, no_inf, 5, False, None, None),
        (INFINITE, no_inf, 7, False, None, None),
        (INFINITE, no_inf, INFINITE, True, INFINITE, False),
        (2, no_inf, INFINITE, True, INFINITE, False),
        (1, no_inf, 1, True, 1, True),
        (2, with_inf, 1, True, None, True),
        (5, with_inf, 2, True, None, True),
        (INFINITE, with_inf, INFINITE, True, INFINITE, False),
        (INFINITE, with_inf, 3, True, None, True),
    ]
    assert len(table) == 12
    for rank, group, lam, exists, size, bounded in table:
        d = decide_ecrs(rank, group, lam)
        assert d.exists == exists, (rank, lam)
        assert d.size == size, (rank, lam)
        assert d.bounded == bounded, (rank, lam)


@criterion(13, "CLI round trips and perturbation detection")
def test_criterion_13_cli(tmp_path):
    exe = [sys.executable, "-m", "dimgroup"]

    def run(*args):
        proc = subprocess.run(exe + list(args), capture_output=True, text=True)
        return proc.returncode, proc.stdout

    inputs = {
        "ecs": {"k": 1, "stages": [{"p": 5, "v": [0], "B": [[1]]},
                                   {"p": 7, "v": [0], "B": [[1]]}]},
        "ers": {"k": 1, "stages": [{"p": 25, "u": [8], "B": [[1]]},
                                   {"p": 125, "u": [5], "B": [[1]]}],
                "trace_row": [[1, 3]]},
        "ecrs": {"k": 2, "lambda": 3, "rho": [1, 1], "p_seq": [7, 13, 19]},
    }
    outputs = {}
    for kind, payload in inputs.items():
        src = tmp_path / f"{kind}.json"
        src.write_text(json.dumps(payload))
        out = tmp_path / f"{kind}_out.json"
        code, stdout = run("build", kind, "-i", str(src), "-o", str(out))
        assert code == 0, stdout
        code, stdout = run("verify", "-i", str(out))
        assert code == 0, stdout
        outputs[kind] = out

    blob = json.loads(outputs["ecrs"].read_text())
    blob["stages"][1]["matrix"][0][0] = str(
        int(blob["stages"][1]["matrix"][0][0]) + 1)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    code, stdout = run("verify", "-i", str(tampered))
    assert code == 4
    report = json.loads(stdout)
    assert not report["ok"]
    assert any(f.get("stage") == 2 for f in report["failures"])
