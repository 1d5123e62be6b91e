"""Benchmark of ``dimgroup build`` and ``dimgroup verify``.

    python3 perfbench/run.py --workload ecs-long --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Set-up imports ``dimgroup`` from the
checkout's ``src/`` (never an installed copy), generates the workload's
seeded inputs and writes them under ``.perfbench-work/``.  The run then
calls ``dimgroup.cli.main(argv)`` in this process, one call at a time: for
each instance a build, then a verify of the file written.  Every output is
checked (see checks.py); a failed check or a nonzero exit is a failed op.

``--trace 0`` cycles through the pass of instances until ``--seconds`` have
passed (at least one full pass) and reports the end-to-end metrics.  Their
times are scaled to a reference host speed (see hostspeed.py), so that runs
made at different times compare; the medians as measured are printed too.
``--trace 1`` replays a fixed prefix of the pass once untraced and once
with spans (see tracer.py) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op succeeded, 1 when one failed, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
from hostspeed import HostSpeed
from workloads import PASS_SIZE, TRACE_SIZE, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 15
BUILD_MIN_S = 0.1
BUILD_MAX_REPS = 25


def import_dimgroup():
    """Import dimgroup afresh from the checkout's src/ and return its cli."""
    for key in [k for k in sys.modules
                if k == "dimgroup" or k.startswith("dimgroup.")]:
        del sys.modules[key]
    cli = importlib.import_module("dimgroup.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dimgroup imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path, count: int,
           size: int | None = None):
    """Import the package, generate the inputs and write them."""
    start = time.perf_counter()
    cli = import_dimgroup()
    instances = generate(workload, seed, count, size)
    inputs = []
    for i, inst in enumerate(instances):
        path = workdir / f"in{i}.json"
        path.write_text(json.dumps(inst.payload))
        inputs.append(str(path))
    return time.perf_counter() - start, cli, instances, inputs


class Runner:
    """Runs build and verify ops through the CLI and checks each output."""

    def __init__(self, cli, workdir: Path, instances, inputs, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.instances = instances
        self.inputs = inputs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_entry_bits = 0
        self.report_bytes = 0
        self.file_bytes = 0

    def _call(self, name: str, argv: list[str]) -> tuple[int | str, str, int]:
        out = io.StringIO()
        span = (self.tracer.span(name) if self.tracer
                else contextlib.nullcontext())
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            with span, contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception as exc:    # a traceback escaping the CLI is a failure
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), time.perf_counter_ns() - start

    def _ok(self, idx: int, problems: list[str]) -> bool:
        if problems:
            self.failed += 1
            label = f"instance {idx} ({self.instances[idx].kind})"
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def _output(self, idx: int) -> str:
        return str(self.workdir / f"out{idx}.json")

    def build(self, idx: int) -> int | None:
        """Build one instance and check the file; wall ns, None on failure."""
        inst, out_path = self.instances[idx], self._output(idx)
        code, stdout, wall_ns = self._call(
            "bench.build",
            ["build", inst.kind, "-i", self.inputs[idx], "-o", out_path])
        if code != 0:
            self._ok(idx, [f"build exited {code}: {stdout.strip()[:300]}"])
            return None
        problems, bits = checks.check_realization(inst, out_path)
        if not self._ok(idx, problems):
            return None
        self.max_entry_bits = max(self.max_entry_bits, bits)
        self.file_bytes += os.path.getsize(out_path)
        return wall_ns

    def verify(self, idx: int) -> int | None:
        """Verify the file the last build wrote and check the report."""
        code, stdout, wall_ns = self._call(
            "bench.verify", ["verify", "-i", self._output(idx)])
        self.report_bytes += len(stdout.encode())
        problems = checks.check_report(self.instances[idx], stdout)
        if code != 0:
            problems.insert(0, f"verify exited {code}")
        return wall_ns if self._ok(idx, problems) else None


def measure(runner: Runner, speed: HostSpeed, seconds: float) -> dict:
    """End-to-end metrics: passes over the instances until ``seconds`` have
    passed, stopping after any instance once the first pass is complete.

    Each instance is built, repeatedly while its builds so far take under
    BUILD_MIN_S (cheap builds are noisy), then verified once.  Garbage is
    collected first, as a fresh CLI process starts clean; otherwise the
    peak RSS depends on when the collector happened to run.  Times are kept
    both as measured and scaled to the reference host speed."""
    n = len(runner.instances)
    wall = {"build": [[] for _ in range(n)], "verify": [[] for _ in range(n)]}
    scaled = {"build": [[] for _ in range(n)], "verify": [[] for _ in range(n)]}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        idx = i % n
        gc.collect()
        spent = []
        while not spent or (sum(spent) < BUILD_MIN_S * 1e9
                            and len(spent) < BUILD_MAX_REPS):
            wall_ns = runner.build(idx)
            if wall_ns is None:
                break
            spent.append(wall_ns)
        wall["build"][idx] += spent
        scaled["build"][idx] += speed.scale(spent)
        if spent and (wall_ns := runner.verify(idx)) is not None:
            wall["verify"][idx].append(wall_ns)
            scaled["verify"][idx] += speed.scale([wall_ns])
        i += 1

    def total(samples):
        return sum(statistics.median(s) for s in samples if s) / 1e9

    return {
        "build_s": total(scaled["build"]),
        "verify_s": total(scaled["verify"]),
        "wall_build_s": total(wall["build"]),
        "wall_verify_s": total(wall["verify"]),
        "passes": i / n,
        "builds": sum(map(len, wall["build"])),
        "verifies": sum(map(len, wall["verify"])),
    }


def replay(runner: Runner) -> int:
    """Build and verify each instance once; the summed wall time in ns."""
    total = 0
    for idx in range(len(runner.instances)):
        wall_ns = runner.build(idx)
        if wall_ns is not None:
            total += wall_ns + (runner.verify(idx) or 0)
    return total


def trace(cli, workdir: Path, instances, inputs) -> dict:
    """Per-layer metrics from one traced replay of ``instances``, plus the
    tracing overhead against an untraced replay of the same instances."""
    plain = Runner(cli, workdir, instances, inputs)
    untraced_ns = replay(plain)
    with tracing.Tracer() as tracer:
        traced = Runner(cli, workdir, instances, inputs, tracer)
        traced_ns = replay(traced)
    metrics = tracing.layer_metrics(tracer)
    metrics["exact.max_entry_bits"] = traced.max_entry_bits
    metrics["cli.report_bytes"] = traced.report_bytes
    metrics["realization.file_bytes"] = traced.file_bytes
    metrics["trace_overhead_frac"] = (traced_ns - untraced_ns) / untraced_ns
    return {"metrics": metrics, "runners": (plain, traced),
            "missing": sorted(tracer.missing)}


UNITS = {"calls": "count", "self_s": "s", "incl_s": "s",
         "kernel_ranks_s": "s", "root_candidates": "count",
         "telescoped_products": "count", "groupings_tried": "count",
         "groupings_accepted": "count", "root_hit_ratio": "ratio",
         "accept_ratio": "ratio", "max_entry_bits": "bits",
         "report_bytes": "bytes", "file_bytes": "bytes",
         "trace_overhead_frac": "ratio", "setup_s": "s", "build_s": "s",
         "verify_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dimgroup" / "__init__.py").is_file():
        print(f"perfbench: no dimgroup package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run(args, workdir: Path) -> int:
    header = (f"workload {args.workload}, seed {args.seed}, "
              "one caller, closed loop")
    if args.trace:
        _, cli, instances, inputs = set_up(
            args.workload, args.seed, workdir, TRACE_SIZE[args.workload])
        print(f"{header}, {len(instances)} instances replayed")
        result = trace(cli, workdir, instances, inputs)
        runners = result["runners"]
        attempted = sum(r.attempted for r in runners)
        failed = sum(r.failed for r in runners)
        problems = [p for r in runners for p in r.problems]
        values = result["metrics"]
        if result["missing"]:
            print(f"  missing targets: {', '.join(result['missing'])}")
    else:
        with HostSpeed() as speed:
            setups, wall_setups = [], []
            for _ in range(SETUP_REPEATS):
                setup_s, cli, instances, inputs = set_up(
                    args.workload, args.seed, workdir,
                    PASS_SIZE[args.workload])
                wall_setups.append(setup_s)
                setups += speed.scale([setup_s])
                gc.collect()    # the modules the next import replaces
            runner = Runner(cli, workdir, instances, inputs)
            result = measure(runner, speed, args.seconds)
        attempted, failed = runner.attempted, runner.failed
        problems = runner.problems
        values = {
            "setup_s": statistics.median(setups),
            "build_s": result["build_s"],
            "verify_s": result["verify_s"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{header}, {len(instances)} instances a pass")
        print(f"  {result['passes']:.2f} passes, {result['builds']} builds, "
              f"{result['verifies']} verifies; setup_s is the median of "
              f"{len(setups)} set-ups; build_s and verify_s sum each "
              "instance's median op time over one pass")
        print("  times below are scaled to the reference host speed; as "
              f"measured: setup_s {statistics.median(wall_setups):.6g} s, "
              f"build_s {result['wall_build_s']:.6g} s, "
              f"verify_s {result['wall_verify_s']:.6g} s")
        print(f"  fail_frac {failed}/{attempted} ops = "
              f"{failed / attempted:.4f} ratio")

    for p in problems[:20]:
        print(f"  FAILED {p}")
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
