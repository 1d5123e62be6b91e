"""The certified kernel ranks of telescoped products, against direct
elimination of every product, and the change-point runs that carry them."""

import random
import sys
from fractions import Fraction

import pytest

from dimgroup import exact, perron, verify
from dimgroup.ecrs import EcrsProblem, ecrs_pipeline
from dimgroup.ecs import ExtensionData, ecs_pipeline
from dimgroup.exact import Matrix
from dimgroup.realization import RealizationSeq
from dimgroup.supernatural import FactorSequence
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


class RankCalls:
    """Counts Matrix.rank calls: the exact fallback, on products of stage
    cores, is the only caller in the verifier."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = Matrix.rank

        def counted(m):
            self.count += 1
            return original(m)
        monkeypatch.setattr(Matrix, "rank", counted)


def test_kernel_ranks_match_exact_products(monkeypatch):
    rng = random.Random(20260418)
    calls = RankCalls(monkeypatch)
    fell_back = 0
    for _ in range(300):
        mats = random_chain(rng)
        expected = oracle_kernel_ranks(mats)
        calls.count = 0
        report = structural_report(seq_of(mats)).report
        assert expand(report) == expected, mats
        fell_back += calls.count > 0
    # The chains are built to make the two bounds disagree.
    assert fell_back >= 20


def test_rank_lost_modulo_the_prime_falls_back_to_exact(monkeypatch):
    # Modulo P the first stage has rank 1, over the rationals rank 2.
    mats = [Matrix.from_rows([[P, 0], [0, 1]]), Matrix.identity(2),
            Matrix.from_rows([[1, 1], [1, 2]])]
    calls = RankCalls(monkeypatch)
    report = structural_report(seq_of(mats)).report
    assert calls.count > 0
    assert expand(report) == oracle_kernel_ranks(mats)
    assert all(r["kernel_rank"] == 0 for r in expand(report))


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


def test_fallback_stops_where_a_stage_rank_meets_the_lower_bound(
        monkeypatch):
    # Every suffix from stage 1 has rank 1, but the products of the first
    # two and three stages have rank 2 and are eliminated exactly.  The last
    # stage's own rank then certifies the whole product from stage 1, and
    # only the second start needs its two-stage product eliminated.
    ones = Matrix.from_rows([[1, 1], [1, 1]])
    mats = [Matrix.identity(2)] * 3 + [ones]
    calls = RankCalls(monkeypatch)
    report = structural_report(seq_of(mats)).report
    assert calls.count == 3
    assert expand(report) == oracle_kernel_ranks(mats)


@pytest.mark.parametrize("b", [[[1, 0], [0, 1]], [[1, 0], [0, 2]]])
def test_built_ecs_file_needs_one_rank_per_stage(tmp_path, monkeypatch, b):
    data = ExtensionData.from_json(
        {"k": 2, "stages": [{"p": 101 + 2 * i, "v": [1, 2], "B": b}
                            for i in range(16)]})
    path = str(tmp_path / "ecs.json")
    ecs_pipeline(data).save(path)
    seq = RealizationSeq.load(path)
    calls = RankCalls(monkeypatch)
    result = structural_report(seq)
    assert result.ok
    assert len(result.report["telescoped_kernel_ranks"]) == len(seq)
    assert len(expand(result.report)) == len(seq) * (len(seq) + 1) // 2
    assert calls.count == 0


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


def test_full_rank_built_ecs_chain_makes_one_modular_rank(tmp_path,
                                                          monkeypatch):
    """Every stage of a built ECS chain has rank k+1, which the whole
    chain's rank modulo the prime reaches, so that one elimination settles
    the lower bound of every start."""
    seq = RealizationSeq.load(_built_file(tmp_path, "ecs"))
    calls = []
    original = verify._rank_mod_prime
    monkeypatch.setattr(verify, "_rank_mod_prime",
                        lambda rows: calls.append(len(rows)) or original(rows))
    result = structural_report(seq)
    assert result.ok
    assert calls == [3]
    assert result.report["telescoped_kernel_ranks"] == [
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
