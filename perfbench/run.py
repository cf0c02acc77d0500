"""The qcycle benchmark: one workload, one seed, one JSON verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a
fresh worker process (perfbench/worker.py), one at a time, so that each
pass pays set-up and fills caches as a user's run does.

--trace 0  runs set-up probes, then passes until S seconds have gone, and
           reports the end-to-end metrics as medians over the passes.
--trace 1  runs two untraced and two traced passes, alternating, all with
           `sweep` and `check` in-process, asserts that the deterministic
           per-layer counts repeat exactly between the traced passes, and
           reports the per-layer metrics of the first traced pass;
           trace.overhead_ratio sets the traced passes' wall time against
           the untraced passes'.

The last line of standard output is the JSON verdict; progress and oracle
failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # set-up-only workers per run, besides the one each pass starts
RUN_LIMIT = 170.0  # seconds; no worker may outlive this from the start of the run

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sweep_points_per_s": "points/s",
    "check_s": "s",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "substances.gibbs_state.calls": "count",
    "substances.gibbs_state.levels": "count",
    "substances.gibbs_state.max_levels": "count",
    "substances.gibbs_state.self_s": "s",
    "substances.beta_for_force.calls": "count",
    "substances.beta_for_force.force_evals": "count",
    "substances.beta_for_force.self_s": "s",
    "numerics.integrate_adaptive.calls": "count",
    "numerics.integrate_adaptive.nodes": "count",
    "numerics.integrate_adaptive.self_s": "s",
    "processes.segment_heat_work.calls": "count",
    "processes.segment_heat_work.self_s": "s",
    "processes.states_per_sample": "ratio",
    "cycles.build.s": "s",
    "cycles.run_cycle.self_s": "s",
    "config.parse_config.s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.sweep.busy_ratio": "ratio",
    "checks.substance_s": "s",
    "checks.process_s": "s",
    "checks.cycle_s": "s",
    "trace.overhead_ratio": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """Run one worker to its end: (set-up seconds, its JSON result or None).

    Set-up is timed from just before the process starts to its `ready`
    line.  The worker is killed if it outlives the deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"worker {' '.join(extra)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def figures(results: list[dict]) -> dict[str, float]:
    """End-to-end figures over passes of identical operations.

    Each operation's time is its median over the passes, so one slow pass
    moves a figure less than it would move a median of pass totals.
    """
    ops = results[0]["ops"]
    seconds = [statistics.median(r["ops"][i]["seconds"] for r in results) for i in range(len(ops))]

    def total(keep):
        return sum(t for op, t in zip(ops, seconds) if keep(op))

    def is_sweep(op):
        return op["op"] == "sweep"

    def is_done_cycle(op):
        return op["op"] == "cycle" and op["error"] is None

    if any(map(is_sweep, ops)):
        rate = sum(op["points"] for op in ops if is_sweep(op)) / total(is_sweep)
    else:
        rate = sum(map(is_done_cycle, ops)) / total(is_done_cycle)
    return {
        "wall_s": sum(seconds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "sweep_points_per_s": rate,
        "check_s": total(lambda op: op["op"] == "check"),
    }


def tally(results: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every operation of every pass.

    An operation is correct when its outputs pass every oracle and it either
    succeeded or failed with the error kind it is kept for.
    """
    correct, attempted, failed = True, 0, 0
    for result in results:
        for op in result["ops"]:
            attempted += 1
            failed += op["error"] is not None
            if op["problems"] or op["error"] not in (None, op["expect"]):
                correct = False
                print(f"{op['name']}: error={op['error']} expected={op['expect']}", file=sys.stderr)
                for problem in op["problems"]:
                    print(f"  {problem}", file=sys.stderr)
    return correct, attempted, failed


def verdict(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    """The result line: every metric named in units, with its unit."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = [spawn(workload, seed, deadline, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        setup_s, result = spawn(workload, seed, deadline)
        setups.append(setup_s)
        results.append(result)
        print(f"pass {len(results)}: {figures([result])}", file=sys.stderr)
    metrics = figures(results)
    metrics["setup_s"] = statistics.median(setups)
    return verdict(*tally(results), metrics, END_TO_END_UNITS)


def trace(workload: str, seed: int, deadline: float) -> dict:
    plain, traced = [], []
    for k in (1, 2):  # alternate, so that drift of the machine's speed cancels
        plain.append(spawn(workload, seed, deadline, "--in-process")[1])
        path = os.path.join(SCRATCH, f"trace-{workload}-seed{seed}-{k}.jsonl")
        traced.append(spawn(workload, seed, deadline, "--trace", path)[1])
    correct, attempted, failed = tally(plain + traced)
    first, second = (r["layers"] for r in traced)
    for name in tracing.DETERMINISTIC:
        if first[name] != second[name]:
            correct = False
            print(f"{name} differs between traced passes: {first[name]} != {second[name]}",
                  file=sys.stderr)
    layers = dict(first)
    layers["setup.import_s"] = statistics.median(r["import_s"] for r in plain + traced)
    layers["trace.overhead_ratio"] = figures(traced)["wall_s"] / figures(plain)["wall_s"]
    return verdict(correct, attempted, failed, layers, PER_LAYER_UNITS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qcycle", "__init__.py")):
        print(f"no qcycle sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT
    try:
        if args.trace:
            result = trace(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
