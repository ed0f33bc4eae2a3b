"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload chen-dense [--seeds 1-10] [--json out.json]

Runs BENCHMARK.json's command untraced once per seed of the lo-hi range,
one run at a time, for its run_seconds, and prints per metric the median, the quartiles
(statistics.quantiles with n=4) and their distance as a share of the
median, next to the bound BENCHMARK.json fixes for that metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range lo-hi")
    parser.add_argument("--json", help="also write the runs and summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lo, hi = (int(s) for s in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        notes = [line for line in lines if line.startswith("#")]
        runs.append({"seed": seed, "elapsed_s": elapsed, "notes": notes, **result})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed} ({elapsed:.1f} s): "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds[name]
        flag = f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:40s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{flag}")
    if args.json:
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
        }
        doc = {"workload": args.workload, "env": env, "runs": runs, "summary": summary}
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
