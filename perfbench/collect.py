#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads corpus-wide,cli-fixtures]
                                 [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (quartile distance over
median) and every run's value, and marks an end-to-end metric whose spread
is not below a third of its bound in BENCHMARK.json. ``--out`` writes the same summary as JSON, with the number of
samples behind each value.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LINE = re.compile(r"^\[(?P<workload>[\w-]+)\] (?P<name>\S+)\s+(?P<value>-?[\d.]+) (?P<unit>\S+)\s+(?P<note>.*)$")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    summary, steady = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        notes: dict[str, str] = {}
        durations = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            durations.append(time.perf_counter() - start)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                match = _LINE.match(line)
                if match and match["workload"] == workload:
                    notes[match["name"]] = match["note"].strip()
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            ok = bound is None or spread < bound / 3
            steady &= ok
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(series), "per_run": notes.get(name, ""), "values": series}
            print(f"{workload:<13} {name:<30} median {median:>14.4f}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-':<5} {'' if ok else 'NOT STEADY'}")
            print("    " + " ".join(f"{v:.4g}" for v in series))
        print(f"{workload:<13} run time: median {statistics.median(durations):.1f} s,"
              f" max {max(durations):.1f} s over {len(durations)} runs")
        summary[workload] = {"metrics": rows, "run_time_s": statistics.median(durations)}

    if args.out:
        args.out.write_text(json.dumps({
            "seeds": args.seeds, "run_seconds": config["run_seconds"], "trace": args.trace,
            "workloads": summary,
        }, indent=2) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
