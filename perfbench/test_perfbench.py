"""Tests of the benchmark itself, on instances small enough to run in seconds.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
from workloads import WORKLOADS, generate

sys.path.insert(0, str(run.SRC))

# Small sizes that take the same code paths as the benchmark's defaults.
SMALL = {"ecs-long": 12, "ers-deep": 4, "ecrs-index": 8}

# Wrapped names each workload must reach, as the benchmark's design assigns
# layers to workloads (DESIGN.md).
REACHED = {
    "ecs-long": ("exact.rank", "exact.matmul", "exact.det", "exact.kernel",
                 "ecs.ecs_pipeline", "ecs.telescope_extension",
                 "ecs.reduce_vector", "ecs.choose_a_params",
                 "traces.trace_report", "supernatural.factorize"),
    "ers-deep": ("exact.charpoly", "exact.charpoly_at",
                 "perron.integer_perron", "ers.ers_pipeline",
                 "ers.build_w_sequence", "ecs.choose_a_params"),
    "ecrs-index": ("exact.kernel", "exact.charpoly", "exact.matmul",
                   "exact.inverse", "perron.is_primitive", "perron.equal_sums",
                   "ecrs.ecrs_pipeline", "ecrs.ecrs_finisher",
                   "ecrs.normalize_to_ones", "traces.nearly_split_witness",
                   "traces.trace_report"),
}
EVERYWHERE = ("cli.main", "realization.load", "realization.save",
              "verify.structural_report", "ers.verify_ers",
              "perron.integer_perron", "perron.is_primitive")

EXACT_COUNTS = ("exact.max_entry_bits", "cli.report_bytes",
                "realization.file_bytes", "verify.telescoped_products",
                "perron.root_candidates", "ecs.groupings_tried",
                "ecs.groupings_accepted")


def traced(workload: str, seed: int, workdir: Path) -> dict:
    _, cli, instances, inputs = run.set_up(workload, seed, workdir, 2,
                                           SMALL[workload])
    return run.trace(cli, workdir, instances, inputs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = [i.payload for i in generate(workload, 0, 3, SMALL[workload])]
    again = [i.payload for i in generate(workload, 0, 3, SMALL[workload])]
    other = [i.payload for i in generate(workload, 1, 3, SMALL[workload])]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_layers_are_reached(workload, tmp_path):
    one = traced(workload, 3, tmp_path)
    two = traced(workload, 3, tmp_path)
    for runner in one["runners"] + two["runners"]:
        assert runner.failed == 0, runner.problems
    assert one["missing"] == []
    m1, m2 = one["metrics"], two["metrics"]
    counts = [k for k in m1 if k.endswith(".calls") or k in EXACT_COUNTS]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}

    spans = [rec[0] for rec in _spans(workload, tmp_path)]
    for name in REACHED[workload] + EVERYWHERE:
        assert name in spans, f"{name} not reached on {workload}"


def _spans(workload: str, workdir: Path) -> list:
    _, cli, instances, inputs = run.set_up(workload, 3, workdir, 1,
                                           SMALL[workload])
    with tracing.Tracer() as tracer:
        run.replay(run.Runner(cli, workdir, instances, inputs, tracer))
    return tracer.spans


def test_tracer_restores_the_package(tmp_path):
    _, cli, instances, inputs = run.set_up("ecs-long", 0, tmp_path, 1, 6)
    import dimgroup.perron
    import dimgroup.verify
    from dimgroup.exact import Matrix
    before = (dimgroup.verify.integer_perron, Matrix.__mul__)
    with tracing.Tracer():
        assert dimgroup.verify.integer_perron is not before[0]
        assert dimgroup.verify.integer_perron is dimgroup.perron.integer_perron
    assert (dimgroup.verify.integer_perron, Matrix.__mul__) == before


def test_missing_target_is_reported_not_fatal(tmp_path, monkeypatch):
    _, cli, instances, inputs = run.set_up("ecs-long", 0, tmp_path, 1, 6)
    import dimgroup.ecs
    monkeypatch.delattr(dimgroup.ecs, "reduce_vector")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == {"ecs.reduce_vector"}
    metrics = tracing.layer_metrics(tracer)
    assert metrics["ecs.reduce_vector.calls"] is None
    assert metrics["ecs.groupings_tried"] is None
    assert metrics["exact.rank.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_tampered_file(workload, tmp_path):
    _, cli, instances, inputs = run.set_up(workload, 0, tmp_path, 1,
                                           SMALL[workload])
    runner = run.Runner(cli, tmp_path, instances, inputs)
    assert runner.build(0) is not None
    assert runner.verify(0) is not None
    out = tmp_path / "out0.json"
    blob = json.loads(out.read_text())
    blob["stages"][0]["matrix"][0][0] = str(
        int(blob["stages"][0]["matrix"][0][0]) + 1)
    out.write_text(json.dumps(blob))
    problems, _ = checks.check_realization(instances[0], str(out))
    assert problems
    assert runner.verify(0) is None
    assert runner.failed == 1


def test_report_check_needs_every_claim():
    inst = generate("ecrs-index", 0, 1, 8)[0]
    good = {"ok": True, "claim_checks": {"ecs": True, "ers": True,
                                         "ecrs": True}}
    assert checks.check_report(inst, json.dumps(good)) == []
    partial = {"ok": True, "claim_checks": {"ecs": True}}
    assert checks.check_report(inst, json.dumps(partial))
    refuted = {"ok": True, "claim_checks": {"ecs": True, "ers": False,
                                            "ecrs": True}}
    assert checks.check_report(inst, json.dumps(refuted))


def test_failed_check_fails_the_run(monkeypatch, capsys):
    def wrong_values(workload, seed, count=None, size=None):
        insts = generate(workload, seed, 1, SMALL[workload])
        return [dataclasses.replace(
                    inst, stage_values=tuple(p + 1 for p in inst.stage_values))
                for inst in insts]
    monkeypatch.setattr(run, "generate", wrong_values)
    code = run.main(["--workload", "ers-deep", "--seed", "0",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ecs-long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {name: run.unit_of(name) for name in end_to_end}
    assert set(end_to_end) == {"setup_s", "build_s", "verify_s",
                               "peak_rss_mb"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    empty = tracing.layer_metrics(tracing.Tracer())
    names = list(empty) + ["exact.max_entry_bits", "cli.report_bytes",
                           "realization.file_bytes", "trace_overhead_frac"]
    assert per_layer == {name: run.unit_of(name) for name in names}
