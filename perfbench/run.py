#!/usr/bin/env python3
"""Benchmark of the ``grasp`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. One client runs the real CLI
(``python -m grasp.cli`` with ``src`` on the path) as child processes in a
closed loop, one child at a time. Set-up generates the seeded inputs into a
scratch directory and runs one untimed warm-up pass; it is repeated and the
median of its CPU time is reported as ``setup_s``. Timed passes over the
workload's fixed operation list then run until ``--seconds`` of pass time is
measured, and at least MIN_PASSES times. The gated times are CPU times
(user + system) of the children, taken from ``os.wait4``, and each operation
counts with its least CPU time over the run's passes: on a shared host other
tenants slow a child in bursts of seconds, which this drops and a median
keeps. Wall times and latencies are printed alongside. Every output, warm-up
included, is checked against the independent reference in ``checker.py``.

With ``--trace 1`` the same operations run in-process instead, once plainly
and once with spans around each module's public functions, and the
per-layer metrics are reported; spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and sample count, and the working set.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Set-ups per run; their median is ``setup_s``.
SETUPS = 3
#: Timed passes per run at least, however long they take, so that wall_s
#: is a median of several passes even when a pass outlasts ``--seconds``.
MIN_PASSES = 3
#: A child still running after this long is killed and counts as failed.
OP_TIMEOUT_S = 120

_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}
WORKLOADS = tuple(w["name"] for w in _CONTRACT["workloads"])


@dataclass
class OpRun:
    """One finished child: exit code, latency, CPU time, peak memory and output."""

    code: int
    latency_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: str


class Run:
    """Tally of checked operations for one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def judge(self, op, code: int, stdout: str, timed_out: bool = False) -> None:
        self.attempted += 1
        if timed_out:
            problems = [f"{op.argv[0]}: timed out after {OP_TIMEOUT_S} s"]
        elif code != 0:
            problems = [f"{op.argv[0]}: exit code {code}"]
        else:
            try:
                problems = op.check(stdout, op.report_dir)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"{op.argv[0]}: output not understood ({type(exc).__name__}: {exc})"]
        if op.report_dir is not None:
            shutil.rmtree(op.report_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_child(argv: list[str], env: dict, directory: Path, index: int) -> OpRun:
    """Run ``grasp`` once; time it from start to exit and take its rusage from wait4."""
    out_path = directory / f"op{index}.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "grasp.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
            cwd=ROOT, env=env,
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpRun(proc.returncode, latency, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, not ready, out_path.read_text(errors="replace"))


def run_ops(ops, env: dict, directory: Path) -> tuple[float, list[OpRun]]:
    """One pass over the operation list: its wall time and each child."""
    start = time.perf_counter()
    children = [run_child(op.argv, env, directory, i) for i, op in enumerate(ops)]
    return time.perf_counter() - start, children


def judge_all(ops, children: list[OpRun], run: Run) -> None:
    for op, child in zip(ops, children):
        run.judge(op, child.code, child.stdout, child.timed_out)


def judge_in_process(ops, results: list[tuple[int, str]], run: Run) -> None:
    for op, (code, out) in zip(ops, results):
        run.judge(op, code, out)


def _fresh_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def _show(workload: str, name: str, value: float, unit: str, note: str) -> None:
    print(f"[{workload}] {name:<30} {value:>14.4f} {unit:<8} {note}")


def end_to_end(workload: str, seed: int, seconds: float, env: dict, run: Run) -> dict:
    """Set up SETUPS times, then time passes of child processes for ``seconds``.

    A set-up's time is the CPU time this process spends generating and
    writing the inputs plus that of the warm-up children.
    """
    from workloads import PREPARE

    setups, directory = [], None
    for _ in range(SETUPS):
        if directory is not None:
            shutil.rmtree(directory)
        directory = _fresh_dir()
        start = time.process_time()
        prepared = PREPARE[workload](seed, directory)
        _, children = run_ops(prepared.ops, env, directory)
        setups.append(time.process_time() - start + sum(c.cpu_s for c in children))
        judge_all(prepared.ops, children, run)
    print(f"[{workload}] working set: {json.dumps(prepared.describe(), sort_keys=True)}")

    walls: list[float] = []
    latencies: list[float] = []
    #: CPU seconds of each operation, one list per operation of the pass.
    op_cpus: list[list[float]] = [[] for _ in prepared.ops]
    rss: list[float] = []
    while sum(walls) < seconds or len(walls) < MIN_PASSES:
        wall, children = run_ops(prepared.ops, env, directory)
        judge_all(prepared.ops, children, run)
        walls.append(wall)
        latencies += [c.latency_s * 1000 for c in children]
        for samples, child in zip(op_cpus, children):
            samples.append(child.cpu_s)
        rss += [c.rss_mb for c in children]
    shutil.rmtree(directory)

    passes, ops = len(walls), len(latencies)
    least = [min(samples) for samples in op_cpus]
    values = {
        "setup_s": statistics.median(setups),
        "cpu_s": sum(least),
        "peak_rss_mb": max(rss),
    }
    notes = {
        "setup_s": f"CPU, median of {len(setups)} set-ups",
        "cpu_s": f"sum over {len(least)} ops of each op's least of {passes} passes",
        "peak_rss_mb": f"largest of {ops} children",
    }
    for name, unit in END_TO_END.items():
        _show(workload, name, values[name], unit, notes[name])
    # Printed, not gated: wall times follow the host's load, p90 needs ten
    # samples beyond it to mean much, and only corpus workloads read studies.
    wall = statistics.median(walls)
    _show(workload, "wall_s", wall, "s", f"median of {passes} passes")
    _show(workload, "op_p50_ms", statistics.median(latencies), "ms", f"median of {ops} ops")
    p90 = statistics.quantiles(latencies, n=10)[8] if ops > 1 else latencies[0]
    _show(workload, "op_p90_ms", p90, "ms", f"{ops} ops, {ops - int(0.9 * ops)} beyond")
    records = sum(op.records for op in prepared.ops)
    if records:
        _show(workload, "studies_per_s", records / wall, "1/s", f"{records} records per pass / wall_s")
    return values


def traced(workload: str, seed: int, seconds: float, env: dict, run: Run) -> dict:
    """In-process passes, plain and traced, until ``seconds``; per-layer metrics."""
    import tracer
    from workloads import PREPARE, WIDE_TOOLS, prepare_wide

    directory = _fresh_dir()
    prepared = PREPARE[workload](seed, directory)
    _, children = run_ops(prepared.ops, env, directory)
    judge_all(prepared.ops, children, run)
    print(f"[{workload}] working set: {json.dumps(prepared.describe(), sort_keys=True)}")

    def traced_pass(ops) -> tuple[dict, tracer.Tracer, float]:
        spans = tracer.Tracer()
        with tracer.installed(spans):
            wall, results = tracer.run_in_process(ops, spans)
        metrics = tracer.layer_metrics(spans.spans, ops, results)
        judge_in_process(ops, results, run)
        return metrics, spans, wall

    rounds: list[dict] = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        plain_wall, results = tracer.run_in_process(prepared.ops)
        judge_in_process(prepared.ops, results, run)
        metrics, spans, traced_wall = traced_pass(prepared.ops)
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        rounds.append(metrics)
        elapsed += plain_wall + traced_wall
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["stats.peak_alloc_mb"], results = tracer.alloc_peak_mb(prepared.ops)
    judge_in_process([op for op in prepared.ops if op.argv[0] == "raters"], results, run)
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

    values["cli.import_s"], values["cli.import_numpy_s"] = tracer.import_times(ROOT, env)
    scaling = dict.fromkeys(("corpus.load_scaling", "corpus.studies_for_scaling",
                             "engine.grade_scaling"), 0.0)
    if workload == "corpus-wide":
        half_dir = _fresh_dir()
        half = prepare_wide(seed, half_dir, WIDE_TOOLS // 2)
        halves = [traced_pass(half.ops)[0] for _ in range(3)]
        small = {name: statistics.median(h[name] for h in halves) for name in halves[0]}
        ratio = prepared.ops[0].records / half.ops[0].records
        scaling = tracer.scaling(small, values, ratio)
        shutil.rmtree(half_dir)
    values.update(scaling)
    shutil.rmtree(directory)

    print(f"[{workload}] per-layer: median of {len(rounds)} traced passes;"
          " scaling exponents are measured on corpus-wide only and read 0 elsewhere")
    for name, unit in PER_LAYER.items():
        _show(workload, name, values[name], unit, "")
    return values


def result_line(run: Run, values: dict, units: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    if not (SRC / "grasp" / "cli.py").is_file() or not (TESTS / "gen.py").is_file():
        print(f"error: {ROOT} holds no grasp sources (src/grasp) and test generators"
              " (tests/gen.py); run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(SRC), str(TESTS)]
    from workloads import PREPARE

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*PREPARE, "all"],
                        help="'all' runs the workloads of BENCHMARK.json in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checker rejects corrupted outputs, then exit")
    args = parser.parse_args(argv)
    env = child_env()
    if args.self_test:
        import selftest
        return selftest.main(env)
    if args.workload is None:
        parser.error("--workload is required")

    measure, units = (traced, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = Run()
    combined = {}
    try:
        for name in names:
            values = measure(name, args.seed, args.seconds, env, run)
            combined.update({f"{name}.{k}" if len(names) > 1 else k: v for k, v in values.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"fail_ratio {run.failed}/{run.attempted} ops")
    if len(names) > 1:
        units = {f"{n}.{k}": u for n in names for k, u in units.items()}
    print(result_line(run, combined, units))
    return 0


def child_env() -> dict:
    """Environment of a ``grasp`` child: ``src`` on the path, one BLAS thread.

    numpy's BLAS pool would otherwise start a thread per core whose idle
    spinning lands in the child's CPU time.
    """
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    return dict(os.environ, **threads, PYTHONPATH=os.pathsep.join(p for p in paths if p))


if __name__ == "__main__":
    sys.exit(main())
