"""Layered benchmark for pathforms.

    python3 bench/run.py --workload verify|chen-dense|algebra-dense \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src`` directory, and inputs, outputs and span files go under
``.bench_out``.  One process, one thread, a closed loop with a single
caller: each op starts when the previous one has returned and been
checked.

With ``--trace 0`` the benchmark sets up (imports pathforms and builds
the workload's inputs) fifteen times and keeps the median, warms up on
one task, then runs whole cycles of the workload's fixed tasks for about
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs the workload's trace cycles untraced and then traced, repeating the pair
until ``--seconds`` have passed, and reports the per-layer metrics of the
first traced pass with the median traced/untraced time ratio.

Every task's outputs are checked exactly.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics; the
exit status is 0 only when every check passed.  See bench/README.md for
the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from tracing import OP_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Task, Workload  # noqa: E402

SETUP_REPEATS = 15

# Metric names and units, end-to-end and per layer.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Tally:
    """Outcome counts of the ops run so far, and the timed latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.useful_docs = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []


def import_pathforms():
    """Import pathforms afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "pathforms" or m.startswith("pathforms.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("pathforms")
    if Path(module.__file__).resolve().parent != SRC / "pathforms":
        raise ImportError(f"pathforms came from {module.__file__}, not from {SRC}")
    return module


def set_up(name: str, seed: int, fault: bool) -> tuple[Workload, float]:
    """Import and build the inputs SETUP_REPEATS times; the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_pathforms()
        workload = WORKLOADS[name](seed, OUT / name, fault)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_task(task: Task, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run the task's ops in order, timing each, then its check."""
    outputs: dict = {}
    for label, fn in task.ops:
        if tracer is not None:
            tracer.op_id += 1
            fn = tracer.wrap(OP_SPAN, fn)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            outputs[label] = fn(outputs)
        except Exception:
            tally.failed += 1
            tally.problems.append(f"{task.label} {label}: {traceback.format_exc()}")
            return
        tally.latencies.append(time.perf_counter() - start)
    try:
        failed = task.check(outputs)
    except Exception:
        failed = [f"check raised: {traceback.format_exc()}"]
    tally.failed += len(failed)
    tally.problems.extend(f"{task.label}: {what}" for what in failed)
    tally.units += task.units(outputs)
    tally.useful_docs += task.useful_docs(outputs)


def run_cycles(workload: Workload, cycles: int, tally: Tally, tracer=None) -> None:
    for _ in range(cycles):
        for task in workload.tasks:
            run_task(task, tally, tracer)


def nearest_rank(ordered: list[float], q: float) -> float:
    """The smallest sample with at least q percent of samples at or below it."""
    return ordered[max(math.ceil(len(ordered) * q / 100) - 1, 0)]


def measure(workload: Workload, seconds: float, setup_s: float, tally: Tally):
    run_task(workload.tasks[0], Tally())  # warm-up, not counted
    start = time.perf_counter()
    cycles = 0
    # Whole cycles only, ending as near to `seconds` as the cycle length allows.
    while cycles == 0 or (time.perf_counter() - start) * (1 + 0.5 / cycles) < seconds:
        run_cycles(workload, 1, tally)
        cycles += 1
    wall = time.perf_counter() - start
    ordered = sorted(tally.latencies)
    q = workload.tail_percentile
    values = {
        "setup_s": setup_s,
        "ops_per_s": tally.units / sum(ordered),
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": nearest_rank(ordered, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = len(ordered) * (100 - q) / 100
    notes = [
        f"{len(ordered)} ops, {tally.units} units, {cycles} cycles in {wall:.1f} s",
        f"latency_tail_s is p{q:g} of {len(ordered)} ops ({beyond:.0f} beyond)",
    ]
    return with_units("end_to_end", values), notes


def measure_traced(workload: Workload, seconds: float, name: str, tally: Tally):
    cycles = workload.trace_cycles
    lat = tally.latencies
    ratios = []
    layers = None
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < seconds:
        plain = len(lat)
        run_cycles(workload, cycles, tally)
        traced, useful = len(lat), tally.useful_docs
        with Tracer() as tracer:
            run_cycles(workload, cycles, tally, tracer)
        ratios.append(sum(lat[traced:]) / sum(lat[plain:traced]))
        if layers is None:
            layers = layer_metrics(tracer, tally.useful_docs - useful)
            tracer.write(OUT / f"{name}-spans.tsv")
            spans = len(tracer.span_name)
    layers["trace_overhead_ratio"] = statistics.median(ratios)
    notes = [
        f"{len(ratios)} untraced/traced pairs of {cycles} cycle(s); "
        f"{spans} spans in the first traced pass"
    ]
    return with_units("per_layer", layers), notes


def with_units(section: str, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json lists under section, with their units."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC[section]}


def run(name: str, seed: int, seconds: float, trace: bool, fault: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    workload, setup_s = set_up(name, seed, fault)
    tally = Tally()
    if trace:
        metrics, notes = measure_traced(workload, seconds, name, tally)
    else:
        metrics, notes = measure(workload, seconds, setup_s, tally)
    for line in notes:
        print(f"# {name}: {line}")
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':40s} {tally.failed:>8d}/{tally.attempted} ops")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_pathforms()
    except ImportError as e:
        print(f"error: cannot import pathforms from {SRC}: {e}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
