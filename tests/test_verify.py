"""The certified kernel ranks of telescoped products, against direct
elimination of every product, and the change-point runs that carry them."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from dimgroup import cli, exact, perron, verify
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
from dimgroup.ecs import ExtensionData, Stage, ecs_pipeline
from dimgroup.ers import ErsStageData, ers_pipeline
from dimgroup.exact import Matrix
from dimgroup.realization import RealizationSeq
from dimgroup.supernatural import FactorSequence
from dimgroup.traces import nearly_split_witness
from dimgroup.verify import structural_report

P = 2**61 - 1


def oracle_kernel_ranks(mats):
    """Right-kernel rank of every contiguous product, each built and
    eliminated exactly."""
    out = []
    for start in range(len(mats)):
        prod = mats[start]
        for end in range(start, len(mats)):
            if end > start:
                prod = mats[end] * prod
            out.append({"from": start + 1, "to": end + 1,
                        "kernel_rank": prod.cols - prod.rank()})
    return out


def expand(report):
    """The report's runs written out as one entry per product, in the order
    of oracle_kernel_ranks."""
    entries = report["telescoped_kernel_ranks"]
    out = []
    for entry in entries:
        runs = entry["runs"]
        ends = [to for to, _ in runs[1:]] + [len(entries) + 1]
        for (to, rank), stop in zip(runs, ends):
            out.extend({"from": entry["from"], "to": end, "kernel_rank": rank}
                       for end in range(to, stop))
    return out


def random_stage(rng, rows, cols):
    kind = rng.choice(["dense", "sparse", "rank-one", "nilpotent", "prime"])
    if kind == "nilpotent" and rows == cols:
        return Matrix.from_rows([[rng.randint(-3, 3) if j > i else 0
                                  for j in range(cols)] for i in range(rows)])
    if kind == "sparse":
        return Matrix.from_rows([[rng.choice([0, 0, 0, rng.randint(-2, 2)])
                                  for _ in range(cols)] for _ in range(rows)])
    if kind in ("rank-one", "prime"):
        u = [rng.randint(-3, 3) for _ in range(rows)]
        v = [rng.randint(-3, 3) for _ in range(cols)]
        # Adding multiples of P keeps the rank modulo P at most one while
        # the rank over the rationals is usually full.
        extra = 1 if kind == "prime" else 0
        return Matrix.from_rows([[a * b + extra * P * rng.randint(-1, 1)
                                  for b in v] for a in u])
    return Matrix.from_rows([[rng.randint(-3, 3) for _ in range(cols)]
                             for _ in range(rows)])


def random_chain(rng):
    n = rng.randint(1, 6)
    sizes = [rng.randint(1, 4) for _ in range(n + 1)]
    return [random_stage(rng, sizes[i + 1], sizes[i]) for i in range(n)]


def test_each_failed_claim_names_its_first_breaking_stage():
    """Stage 1 has equal column sums and stage 2 equal row sums, all 3; an
    ecrs claim names the first ECS-breaking stage before any ERS one."""
    seq = RealizationSeq((Matrix.from_rows([[1, 1], [2, 2]]),
                          Matrix.from_rows([[1, 2], [1, 2]])), (3, 3), None,
                         {"ecs": True, "ers": True, "ecrs": True})
    report = structural_report(seq).report
    assert report["derived"] == {"ecs": False, "ers": False, "ecrs": False}
    assert report["failures"] == [{"stage": 2, "check": "ecs"},
                                  {"stage": 1, "check": "ers"},
                                  {"stage": 2, "check": "ecrs"}]


def seq_of(mats):
    return RealizationSeq(tuple(mats), tuple([1] * len(mats)))


def walk(mats):
    """The kernel-rank walk's entries for a chain, and how many
    eliminations (rank factorizations) it made."""
    count = []
    original = verify.rank_factorization
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "rank_factorization",
                      lambda rows: count.append(1) or original(rows))
        entries = verify._telescoped_kernel_ranks(mats)
    return entries, len(count)


def test_kernel_ranks_match_exact_products():
    rng = random.Random(20260418)
    walked_on = 0
    for _ in range(300):
        mats = random_chain(rng)
        expected = oracle_kernel_ranks(mats)
        report = structural_report(seq_of(mats)).report
        assert expand(report) == expected, mats
        entries, count = walk(mats)
        assert entries == report["telescoped_kernel_ranks"]
        # One elimination per start at least, one per product at most.
        n = len(mats)
        assert n <= count <= n * (n + 1) // 2
        walked_on += count > n
    # Many chains lose rank, so some start walks past its own stage.
    assert walked_on >= 20


def test_full_rank_chain_makes_one_elimination_per_start():
    """Each stage maps onto its level, so every start's image is the next
    start's from its own stage on.  Modulo P the first stage has rank 1,
    over the rationals rank 2; the walk is exact."""
    mats = [Matrix.from_rows([[P, 0], [0, 1]]), Matrix.identity(2),
            Matrix.from_rows([[1, 1], [1, 2]])]
    report = structural_report(seq_of(mats)).report
    assert expand(report) == oracle_kernel_ranks(mats)
    assert all(r["kernel_rank"] == 0 for r in expand(report))
    assert walk(mats) == (report["telescoped_kernel_ranks"], 3)


@st.composite
def walk_chains(draw):
    """Chains of 1-7 stages of 1-4 rows and columns: dense integer stages,
    Fraction stages and strictly lower-triangular (rank-dropping) ones.  A
    planted pair u v^T, w u^T at some start of at least two rows gives
    products P(start, start + 1) and A_(start + 1) the same line as image,
    so that start stops past its own stage and copies the next one's
    ranks."""
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n + 1,
                          max_size=n + 1))
    entry = st.integers(-3, 3)
    kinds, mats = [], []
    for rows, cols in zip(sizes[1:], sizes):
        kind = draw(st.sampled_from(["dense", "fraction", "lower"]))
        m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        if kind == "fraction":
            m = [[Fraction(x, draw(st.integers(1, 3))) for x in row]
                 for row in m]
        elif kind == "lower":
            m = [[abs(x) if j < i else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(m)]
        kinds.append(kind if rows == cols else f"{kind}, rectangular")
        mats.append(m)
    starts = [i for i in range(n - 1) if sizes[i + 1] > 1]
    if starts and draw(st.booleans()):
        at = draw(st.sampled_from(starts))
        u = [draw(st.integers(1, 3))] + [draw(entry)
                                         for _ in range(sizes[at + 1] - 1)]
        v = [draw(st.integers(1, 3)) for _ in range(sizes[at])]
        w = [draw(st.integers(1, 3)) for _ in range(sizes[at + 2])]
        mats[at] = [[a * b for b in v] for a in u]
        mats[at + 1] = [[a * b for b in u] for a in w]
        kinds.append("planted pair")
    return kinds, [Matrix.from_rows(m) for m in mats]


@settings(deadline=None, max_examples=300)
@given(walk_chains())
def test_kernel_rank_report_matches_exact_products(chain):
    kinds, mats = chain
    for kind in kinds:
        event(kind)
    report = structural_report(seq_of(mats)).report
    assert expand(report) == oracle_kernel_ranks(mats)


def test_rational_stages_are_certified():
    # The second stage kills the first one's image vector (0, 1, -2) only
    # with its half entry kept exact: the product has rank 1, not 2.
    mats = [Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, -2, 0]]),
            Matrix.from_rows([[1, 0, 0], [0, 1, Fraction(1, 2)], [0, 2, 1]])]
    report = structural_report(seq_of(mats)).report
    assert expand(report)[1] == {"from": 1, "to": 2, "kernel_rank": 2}
    rng = random.Random(7)
    for _ in range(100):
        mats = []
        for m in random_chain(rng):
            # A stage over a common denominator keeps its rank pattern; a
            # few entries get their own.
            d = rng.choice([1, 2, 3, 7, P])
            mats.append(Matrix.from_rows(
                [[Fraction(x, d * rng.choice([1, 1, 1, 1, 2, 5]))
                  for x in m.row(i)] for i in range(m.rows)]))
        report = structural_report(seq_of(mats)).report
        assert expand(report) == oracle_kernel_ranks(mats)


def test_core_takes_the_columns_of_the_rational_stage():
    # A2 A1 = [[0]].  Row-scaling A1 to [[1], [1]] before taking its pivot
    # column would give the core [[-1]] and kernel rank 0.
    mats = [Matrix.from_rows([[1], [Fraction(1, 2)]]),
            Matrix.from_rows([[1, -2]])]
    report = structural_report(seq_of(mats)).report
    assert report["telescoped_kernel_ranks"] == [
        {"from": 1, "runs": [[1, 0], [2, 1]]},
        {"from": 2, "runs": [[2, 1]]}]
    assert expand(report) == oracle_kernel_ranks(mats)


@pytest.mark.parametrize("zero_at", [0, 1, 2])
def test_zero_rank_stage_in_a_chain(zero_at):
    mats = [Matrix.from_rows([[1, 2], [3, 4]]),
            Matrix.from_rows([[1, 1], [1, 1]]),
            Matrix.from_rows([[2, 0], [0, 3]])]
    mats[zero_at] = Matrix.zeros(2, 2)
    report = structural_report(seq_of(mats)).report
    assert expand(report) == oracle_kernel_ranks(mats)
    assert all(r["kernel_rank"] == 2 for r in expand(report)
               if r["from"] <= zero_at + 1 <= r["to"])


def test_walk_stops_where_its_rank_meets_the_next_starts():
    """A chain of n full-rank stages makes one elimination per start.  With
    a rank-one stage 1, start 1's image is a line inside the next start's
    whole level at every end, so it walks through all n stages: 2n - 1
    eliminations.  A rank-one last stage stops no earlier start."""
    ones = Matrix.from_rows([[1, 1], [1, 1]])
    unimodular = Matrix.from_rows([[1, 1], [1, 2]])
    for n in range(1, 7):
        for mats, eliminations in (([unimodular] * n, n),
                                   ([ones] + [unimodular] * (n - 1),
                                    2 * n - 1),
                                   ([unimodular] * (n - 1) + [ones], n)):
            entries, count = walk(mats)
            assert count == eliminations
            assert expand({"telescoped_kernel_ranks": entries}) \
                == oracle_kernel_ranks(mats)


@pytest.mark.parametrize("b", [[[1, 0], [0, 1]], [[1, 0], [0, 2]]])
def test_built_ecs_file_needs_one_rank_per_stage(tmp_path, b):
    data = ExtensionData.from_json(
        {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [1, 2], "B": b}
                            for i in range(16)]})
    path = str(tmp_path / "ecs.json")
    ecs_pipeline(data).save(path)
    seq = RealizationSeq.load(path)
    report, took = certified(seq)
    assert took and report["ok"]
    assert len(report["telescoped_kernel_ranks"]) == len(seq)
    assert len(expand(report)) == len(seq) * (len(seq) + 1) // 2


def _built_file(tmp_path, kind):
    if kind == "ecs":
        seq = ecs_pipeline(ExtensionData.from_json(
            {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [1, 2],
                                 "B": [[1, 0], [0, 2]]} for i in range(16)]}))
    else:
        seq = ecrs_pipeline(EcrsProblem(3, 8, (5, -10, 4),
                                        FactorSequence((17, 41, 73, 89))))
    path = str(tmp_path / f"{kind}.json")
    seq.save(path)
    return path


@pytest.mark.parametrize("kind", ["ecs", "ecrs"])
def test_built_file_verifies_without_a_transpose(tmp_path, monkeypatch,
                                                 kind):
    """Built stages have constant column sums, so their left Perron vectors
    and the left nearly-split pass are read from the columns in place."""
    path = _built_file(tmp_path, kind)

    def no_transpose(m):
        raise AssertionError(f"transposed a {m.rows}x{m.cols} matrix")
    monkeypatch.setattr(Matrix, "transpose", no_transpose)
    seq = RealizationSeq.load(path)
    result = structural_report(seq)
    assert result.ok
    assert len(seq) == (16 if kind == "ecs" else 4)
    assert all(st["perron"]["left"] == ["1"] * st["size"][0]
               for st in result.report["stages"])


def test_certified_built_ecs_chain_never_enters_the_walk(tmp_path):
    """Every stage of a built ECS chain kills the kernel vector of stage 1
    and has a nonsingular core on the quotient, so every telescoped product
    has rank k+1 by that certificate, and the walk is never entered."""
    report, took = certified(RealizationSeq.load(_built_file(tmp_path, "ecs")))
    assert took and report["ok"]
    assert report["telescoped_kernel_ranks"] == [
        {"from": i, "runs": [[i, 1]]} for i in range(1, 17)]


def test_runs_are_change_points():
    """Each start opens with a run at itself; the ends rise strictly and
    stay within the chain, and the kernel rank rises strictly from run to
    run, so no run repeats its predecessor's rank."""
    rng = random.Random(80)
    for _ in range(300):
        mats = random_chain(rng)
        entries = structural_report(seq_of(mats)).report[
            "telescoped_kernel_ranks"]
        assert [e["from"] for e in entries] == list(range(1, len(mats) + 1))
        for entry in entries:
            ends = [to for to, _ in entry["runs"]]
            ranks = [rank for _, rank in entry["runs"]]
            assert ends[0] == entry["from"]
            assert ends == sorted(set(ends)) and ends[-1] <= len(mats)
            assert ranks == sorted(set(ranks)), entry


def test_long_built_ecs_file_reports_one_run_per_start(tmp_path):
    """A built ECS file keeps kernel rank 1 on every telescoped product, so
    its report holds one single-run entry per stage, not one per product."""
    data = ExtensionData.from_json(
        {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [1, 2],
                             "B": [[1, 0], [0, 1]]} for i in range(256)]})
    path = str(tmp_path / "ecs.json")
    ecs_pipeline(data).save(path)
    seq = RealizationSeq.load(path)
    assert len(seq) == 256
    result = structural_report(seq)
    assert result.ok
    assert result.report["report_version"] == "3"
    assert result.report["telescoped_kernel_ranks"] == [
        {"from": i, "runs": [[i, 1]]} for i in range(1, 257)]


def replace_everywhere(monkeypatch, function, replacement):
    """Replace a function in every dimgroup module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dimgroup":
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)


def test_built_ecrs_file_verifies_without_kernel_solves(tmp_path, monkeypatch):
    """Built ECRS stages have positive entries and constant row and column
    sums equal to their designed values.  Those certify the Perron vectors
    and seed the nearly-split witness, so no kernel is solved, and
    primitivity is tested once per verified stage."""
    prob = EcrsProblem(3, 16, (5, -10, 4),
                       FactorSequence((1153, 1201, 1217, 1249)))
    path = str(tmp_path / "ecrs.json")
    ecrs_pipeline(prob).save(path)
    seq = RealizationSeq.load(path)

    def no_solve(m):
        raise AssertionError(f"kernel solved for a {m.rows}x{m.cols} matrix")

    tested = []
    original = perron.is_primitive
    replace_everywhere(monkeypatch, exact.right_kernel_basis, no_solve)
    replace_everywhere(monkeypatch, original,
                       lambda m: tested.append(m) or original(m))
    result = structural_report(seq)
    assert result.ok
    assert result.report["derived"] == {"ecs": True, "ers": True,
                                        "ecrs": True}
    assert all(result.report["nearly_split"].values())
    assert all(m.rows == 16 for m in seq.matrices)
    assert tested == list(seq.matrices)


# -- the common-kernel certificate ---------------------------------------------


def certified(seq):
    """structural_report's report, and whether it was certified on a
    quotient, i.e. without the kernel-rank walk."""
    scans = []
    original = verify._telescoped_kernel_ranks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_telescoped_kernel_ranks",
                      lambda *args: scans.append(1) or original(*args))
        report = structural_report(seq).report
    return report, not scans


def uncertified_report(seq):
    """The report with the quotient certificate switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_common_kernel_certified",
                      lambda *args: False)
        return structural_report(seq).report


@st.composite
def planted_chains(draw):
    """s x s stages A_i = C_i R0, conjugated by one permutation, sharing the
    kernel of R0 = [I_r | E] of dimension c = 1-3.  Each R0 C_i has constant
    row sums rho_i, the Perron root of A_i, which is the stage's designed
    value.  The variant breaks the chain with one more stage, whose C has
    rank below r (a singular core) or which is nonsingular and so leaves
    the kernel, or transposes every stage (a common left kernel)."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = r + c
    e = [[draw(st.integers(0, 2)) for _ in range(c)] for _ in range(r)]
    r0 = [[int(i == j) for j in range(r)] + e[i] for i in range(r)]
    entries = st.integers(1, 3)
    mats, values = [], []
    for _ in range(draw(st.integers(1, 4))):
        free = [[draw(entries) for _ in range(r)] for _ in range(c)]
        ef = [sum(x * sum(row) for x, row in zip(e[j], free))
              for j in range(r)]
        head = [[draw(entries) for _ in range(r - 1)] for _ in range(r)]
        rho = max(x + sum(h) for x, h in zip(ef, head)) + draw(entries)
        C = [h + [rho - x - sum(h)] for x, h in zip(ef, head)] + free
        # The core R0 C is nonsingular, which also gives C rank r.
        assume(Matrix.from_rows([[sum(x * y for x, y in zip(row, col))
                                  for col in zip(*C)] for row in r0]).det())
        mats.append([[sum(C[i][j] * r0[j][l] for j in range(r))
                      for l in range(s)] for i in range(s)])
        values.append(rho)
    variant = draw(st.sampled_from(["planted", "singular", "leaves", "left"]))
    # A broken stage goes after stage 1, whose kernel is the one planted.
    at = draw(st.integers(1, len(mats)))
    if variant == "singular":
        col = [draw(st.integers(0, 3)) for _ in range(s)]
        if r == 1:
            col = [0] * s
        mats.insert(at, [[col[i] * sum(r0[j][l] for j in range(r))
                          for l in range(s)] for i in range(s)])
        values.insert(at, 1)
    elif variant == "leaves":
        mats.insert(at, [[draw(st.integers(0, 3)) + (i == l) * 10
                          for l in range(s)] for i in range(s)])
        values.insert(at, 1)
    perm = draw(st.permutations(range(s)))
    mats = [Matrix.from_rows([[m[perm[i]][perm[l]] for l in range(s)]
                              for i in range(s)]) for m in mats]
    if variant == "left":
        mats = [m.transpose() for m in mats]
    return variant, RealizationSeq(tuple(mats), tuple(values))


@settings(deadline=None, max_examples=300)
@given(planted_chains())
def test_planted_common_kernel_is_certified_exactly(chain):
    """A chain with a common right (or left) kernel and nonsingular cores is
    certified on the quotient, a singular core or a stage leaving the
    kernel sends it down the kernel-rank walk; either way its kernel ranks
    are the exact products', its Perron vectors those of the s x s solve,
    and its report that of the walk."""
    variant, seq = chain
    event(variant)
    report, took = certified(seq)
    assert took == (variant in ("planted", "left"))
    assert report == uncertified_report(seq)
    assert expand(report) == oracle_kernel_ranks(list(seq.matrices))
    for st_rep, m in zip(report["stages"], seq.matrices):
        if st_rep["perron"] and "value" in st_rep["perron"]:
            sums = m.column_sums() if variant == "left" else m.row_sums()
            if len(set(sums)) > 1:
                event(f"{variant}: a Perron vector of unequal sums")
            root = int(st_rep["perron"]["value"])
            assert st_rep["perron"]["right"] == [
                str(x) for x in perron._perron_vector(m, root)]
            assert st_rep["perron"]["left"] == [
                str(x) for x in perron._perron_vector(m, root, left=True)]
    assert report["nearly_split"] == nearly_split_witness(seq).to_json()


@pytest.mark.parametrize("second", [
    # kills no vector, but its core [1] on the quotient is nonsingular
    [[1, 1], [0, 1]],
    # kills the kernel, but its core is zero: A2 A2 = 0
    [[0, 0], [1, 0]]])
def test_a_chain_failing_the_certificate_takes_the_scan(second):
    """K = ker A1 is spanned by (0, 1).  Read through the quotient alone,
    either chain would claim kernel rank 1 for every product."""
    mats = [Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows(second),
            Matrix.from_rows(second)]
    report, took = certified(seq_of(mats))
    assert not took
    assert expand(report) == oracle_kernel_ranks(mats)
    assert any(r["kernel_rank"] != 1 for r in expand(report))


@pytest.mark.parametrize("chain", ["SGG", "GSG", "GGZ"])
def test_one_singular_core_anywhere_refuses_the_chain(chain):
    """The stages share K = span e_1, and G's core on Q^3 / K is
    [[1, 2], [2, 3]].  S maps e_2 into K and Z has rank 1, so both have
    singular cores, and the product of the whole chain has rank 1.  First,
    in the middle or last, the singular core enters the determinant (the
    last one's shows that its stage has rank below r), and the chain takes
    the walk."""
    stages = {"G": [[0, 1, 1], [0, 1, 2], [0, 2, 3]],
              "S": [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
              "Z": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}
    mats = [Matrix.from_rows(stages[name]) for name in chain]
    report, took = certified(seq_of(mats))
    assert not took
    assert expand(report) == oracle_kernel_ranks(mats)
    assert {"from": 1, "to": 3, "kernel_rank": 2} in expand(report)


def test_built_ecs_file_makes_one_perron_solve_per_stage(tmp_path,
                                                        monkeypatch):
    """Stage 1's rank factorization and one Perron solve per stage are the
    only eliminations of a 4-column matrix: each stage's right Perron
    vector is solved on 3 rows of its shifted 4 x 4 stage, whose columns
    sum to the shift.  The n = 16 cores on the quotient are certified by
    one more elimination, of their 3 x 3 product modulo MODULUS: n + 2 in
    all.  No kernel is solved by right_kernel_basis, and the kernel-rank
    walk is never entered."""
    seq = RealizationSeq.load(_built_file(tmp_path, "ecs"))
    shapes, solved = [], []
    original = exact._eliminate
    monkeypatch.setattr(exact, "_eliminate", lambda rows: shapes.append(
        (len(rows), len(rows[0]) if rows else 0)) or original(rows))
    replace_everywhere(monkeypatch, exact.right_kernel_basis,
                       lambda m: solved.append(m.cols)
                       or exact.right_kernel_basis(m))
    report, took = certified(seq)
    assert took and report["ok"]
    assert len(seq) == 16 and seq.matrices[0].cols == 4
    widths = [width for _, width in shapes]
    assert widths.count(4) == len(seq) + 1 and set(widths) == {3, 4}
    assert len(shapes) == len(seq) + 2
    assert shapes.count((3, 3)) == 1
    assert shapes[1:].count((3, 4)) == len(seq)
    assert solved == []


@pytest.mark.parametrize("kind", ["ecs", "ecrs"])
def test_built_file_takes_no_core_determinant(tmp_path, monkeypatch, kind):
    """The cores are shown nonsingular by the final pivot of one
    elimination of their product modulo MODULUS, so a built file is
    certified with no determinant taken, to the report it had before."""
    path = _built_file(tmp_path, kind)
    expected = structural_report(RealizationSeq.load(path)).report

    def no_det(m):
        raise AssertionError(f"determinant of a {m.rows}x{m.cols} matrix")
    monkeypatch.setattr(Matrix, "det", no_det)
    report, took = certified(RealizationSeq.load(path))
    assert took and report["ok"]
    assert report == expected


def test_built_ers_and_ecrs_files_take_the_certificate(tmp_path):
    """An ERS file (transposed ECS stages, here with a non-symmetric B)
    shares a left kernel and is certified on the transposed chain; an ECRS
    file shares a right kernel of dimension 4 at rank 4, checked in the
    row-space form."""
    ers = ers_pipeline(ErsStageData(2, (
        Stage(47, (-2, -1), Matrix.from_rows([[1, 1], [0, 1]])),
        Stage(63, (-6, 6), Matrix.from_rows([[1, 3], [0, 1]]))),
        (Fraction(1, 6), Fraction(3, 5))))
    ecrs = RealizationSeq.load(_built_file(tmp_path, "ecrs"))
    for seq in (ers, ecrs):
        report, took = certified(seq)
        assert took and report["ok"]
        assert report == uncertified_report(seq)
    assert [len(m.row(0)) for m in ecrs.matrices] == [8] * 4


def residue_certifies(mats, modulus):
    """Whether every stage kills K = ker A_1, for 0 < rank A_1 < s, and
    the modulus does not divide the product of the exact determinants of
    the integer cores N_i = R A_i[:, p], read off A_1's rank factorization
    d A_1 = A_1[:, p] R."""
    pivots, rows = exact.rank_factorization(mats[0])
    kernel = exact.right_kernel_basis(mats[0])
    if not 0 < len(pivots) < mats[0].cols or any(
            any(m.mul_vector(z)) for m in mats for z in kernel):
        return False
    det = 1
    for m in mats:
        det *= Matrix.from_rows([[sum(x * y for x, y in zip(row, m.col(j)))
                                  for j in pivots] for row in rows]).det()
    return det % modulus != 0


def small_modulus_certifies(mats, modulus):
    """Whether the right chain or, failing it, the transposed one is
    certified with MODULUS set to a small prime."""
    return (residue_certifies(mats, modulus)
            or residue_certifies([m.transpose() for m in mats], modulus))


@settings(deadline=None, max_examples=150)
@given(planted_chains(), st.sampled_from([2, 3, 5]))
def test_a_small_modulus_refuses_only_where_it_divides_the_determinant(
        chain, modulus):
    """With MODULUS a small prime, a planted chain is certified exactly
    where the prime does not divide the determinant of its cores' product,
    on one side or the other; a refused chain takes the walk to the same
    report as at the 61-bit prime and with no certificate at all."""
    variant, seq = chain
    mats = list(seq.matrices)
    expected, took_at_prime = certified(seq)
    assert took_at_prime == small_modulus_certifies(mats, verify.MODULUS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "MODULUS", modulus)
        report, took = certified(seq)
    assert took == small_modulus_certifies(mats, modulus)
    if took_at_prime and not took:
        event(f"{variant}: refused modulo {modulus}")
    assert report == expected == uncertified_report(seq)


@pytest.mark.parametrize("modulus", [2, 3, 5])
def test_built_ecs_file_refused_at_a_small_modulus_reports_the_same(
        tmp_path, monkeypatch, modulus):
    """Every small prime divides the determinant of some core of the built
    ECS file (stage 3's, at p = 105, is 2^4 * 3 * 5 * 7 * 97^3), so each
    refuses the certificate, and the walk gives the certified report."""
    seq = RealizationSeq.load(_built_file(tmp_path, "ecs"))
    expected, took = certified(seq)
    assert took and small_modulus_certifies(list(seq.matrices), verify.MODULUS)
    monkeypatch.setattr(verify, "MODULUS", modulus)
    report, took = certified(seq)
    assert not took and not small_modulus_certifies(list(seq.matrices),
                                                    modulus)
    assert report == expected == uncertified_report(seq)


@pytest.mark.parametrize("second", [
    [[Fraction(-2, 25), 6], [Fraction(-3, 25), 1]],
    # (N_1 mod 5)^-1, reduced entry by entry: N_2 (N_1 mod 5) = I
    [[Fraction(-8, 315), Fraction(1, 3)], [Fraction(5, 21), 0]]])
def test_rational_cores_are_cleared_before_they_are_reduced(monkeypatch,
                                                           second):
    """Stage 1 = diag(1, 1, 0) gives R = [I | 0], so the next stages' cores
    are their top left blocks: N_1 = [[5, -4/5], [-2, 8/25]], of
    determinant 0, then N_2.  x % q is no residue of a Fraction x whose
    denominator q divides: reduced entry by entry at q = 5, the second
    chain's product of cores is I.  Scaled to integer rows first, its
    determinant vanishes modulo q, so the chain takes the walk, at q = 5
    as at the 61-bit prime."""
    first = [[5, Fraction(-4, 5)], [-2, Fraction(8, 25)]]
    mats = [Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])] + [
        Matrix.from_rows([row + [0] for row in core] + [[0, 0, 0]])
        for core in (first, second)]
    for modulus in (5, verify.MODULUS):
        monkeypatch.setattr(verify, "MODULUS", modulus)
        report, took = certified(seq_of(mats))
        assert not took
        assert expand(report) == oracle_kernel_ranks(mats)
        assert expand(report)[1] == {"from": 1, "to": 2, "kernel_rank": 2}


THRESHOLD_REPORT_SHA256 = (
    "fa7f7e5290186594c98cc72701ef3009eadbf493783a24b8390874001e12fe29")


def test_threshold_ecrs_file_seeds_the_witness_from_perron_data(monkeypatch):
    """At the positivity threshold, k=3, rho=(1,1,1), lambda=64 and two
    factors 1 + 64 * ceil(60/3), the stages keep zero entries, so the
    nearly-split witness is seeded from their verified Perron vectors: no
    64 x 64 kernel is solved, and the report is the one the unseeded
    search gave (its sha256 pinned)."""
    k, lam = 3, 64
    p = 1 + lam * -(-(lam - k - 1) // k)
    seq = ecrs_pipeline(EcrsProblem(k, lam, (1, 1, 1),
                                    FactorSequence((p, p))))
    assert all(any(0 in m.row(i) for i in range(lam)) for m in seq.matrices)
    solved = []
    replace_everywhere(monkeypatch, exact.right_kernel_basis,
                       lambda m: solved.append(m.cols)
                       or exact.right_kernel_basis(m))
    report = structural_report(seq).report
    assert report["ok"] and all(report["nearly_split"].values())
    assert lam not in solved
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == THRESHOLD_REPORT_SHA256


# -- facts read from the cached sums -------------------------------------------


def _verify_file(path, capsys):
    """The exit code and the report of ``dimgroup verify`` on a file."""
    capsys.readouterr()
    code = cli.main(["verify", "-i", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_built_ecrs_file_verifies_without_vector_products(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """A built ECRS file at lambda = 32 has all-ones markers and Perron
    vectors, so the nearly-split witness and the marker chain read each
    stage's cached sums and make no vector product.  A marker entry
    changed to 2 is multiplied out, and breaks the chain at stage 1."""
    seq = ecrs_pipeline(EcrsProblem(3, 32, (5, -10, 4),
                                    FactorSequence((1601, 1697, 1889, 2017))))
    path = tmp_path / "ecrs.json"
    seq.save(str(path))
    calls = []
    for name in ("mul_vector", "vector_mul"):
        original = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name, lambda m, v, name=name,
                            original=original: calls.append(name)
                            or original(m, v))
    code, report = _verify_file(path, capsys)
    assert code == cli.EXIT_OK and report["marker_chain_ok"]
    assert all(report["nearly_split"].values())
    assert all(m.rows == 32 for m in seq.matrices)
    assert calls == []

    raw = json.loads(path.read_text())
    raw["markers"][0][0] = "2"
    path.write_text(json.dumps(raw))
    code, report = _verify_file(path, capsys)
    assert code == cli.EXIT_VERIFY
    assert report["marker_chain_ok"] is False
    assert report["derived"]["ers"] is False
    assert calls == ["mul_vector"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_moved_unit_breaks_the_all_ones_eigenvector(tmp_path, capsys,
                                                      side):
    """One unit moved between two entries of a column of stage 2 keeps its
    column sums and changes two row sums, so the all-ones vector is no
    longer a right eigenvector of it at its designed value: the marker
    chain, the common right eigenvector and ERS all fail.  Moved within a
    row, it changes two column sums instead, and the common left
    eigenvector and ECS fail while the marker chain, which reads the row
    sums, holds."""
    path = Path(_built_file(tmp_path, "ecrs"))
    raw = json.loads(path.read_text())
    rows = raw["stages"][1]["matrix"]
    to = (1, 0) if side == "right" else (0, 1)
    assert int(rows[0][0]) > 0
    rows[0][0] = str(int(rows[0][0]) - 1)
    rows[to[0]][to[1]] = str(int(rows[to[0]][to[1]]) + 1)
    path.write_text(json.dumps(raw))
    code, report = _verify_file(path, capsys)
    assert code == cli.EXIT_VERIFY
    stage = report["stages"][1]
    split = report["nearly_split"]
    if side == "right":
        assert stage["columns_equal"] and not stage["rows_equal"]
        assert report["marker_chain_ok"] is False
        assert split["common_right_eigenvector"] is False
        assert report["derived"]["ers"] is False
    else:
        assert stage["rows_equal"] and not stage["columns_equal"]
        assert report["marker_chain_ok"] is True
        assert split["common_left_eigenvector"] is False
        assert report["derived"]["ecs"] is False
