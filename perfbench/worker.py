"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
                                [--setup-only] [--in-process] [--trace PATH]

Set-up is ``import qcycle`` and ``qcycle.cli`` plus parsing every config of
the workload and writing it to a temporary directory; the worker then prints
``ready`` so that its parent can time set-up from process start.  Unless ``--setup-only`` is given it runs every operation of the
pass once, checks each output against the oracles, and prints one JSON
line: per-operation seconds, error kind and oracle problems, peak RSS of
itself and of its child processes, and with ``--trace`` the per-layer
metrics of the pass (spans are written to PATH).

By default `sweep` and `check` run as child processes, one at a time, as a
user runs them.  With ``--in-process`` (implied by ``--trace``) they run
through ``qcycle.cli.main`` in the worker, so that spans from the sweep's
pool threads are seen and a traced pass can be set against an untraced
pass that takes the same route.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT = 150.0

# `qcycle` exit codes and the error each stands for
EXIT_ERRORS = {2: "ConfigError", 3: "ConvergenceError", 4: "DomainError"}


def _cli(qcycle, argv: list[str]) -> tuple[int, str]:
    """qcycle.cli.main in-process, with its printing captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qcycle.cli.main(argv)
    return code, out.getvalue()


def _child(argv: list[str], workdir: str, threads: int | None = None) -> tuple[int, str]:
    """`python -m qcycle.cli ...` in a child process, waited for."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if threads is not None:
        env["QCYCLE_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-m", "qcycle.cli", *argv],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    return done.returncode, done.stdout


def _library_outcome(op: dict, report) -> dict:
    return {
        "kind": op["config"]["cycle"]["kind"],
        "substance": op["config"]["substance"],
        "params": op["config"]["cycle"],
        "eta": report.eta_numeric,
        "Q_in": report.Q_in,
        "Q_out": report.Q_out,
        "W_net": report.W_net,
        "corners": [
            {"label": c.label, "L": c.L, "beta": c.beta, "F": c.F, "U": c.U, "regime": c.regime}
            for c in report.corner_table
        ],
        "segments": [
            {"F": [s.F for s in r.samples], "S": [s.S for s in r.samples]}
            for r in report.segment_results
        ],
    }


def _cli_outcome(op: dict, report_text: str, diagram_text: str) -> dict:
    report = json.loads(report_text)
    rows = [line.split(",") for line in diagram_text.splitlines()[1:]]
    segments = []
    for index in range(4):
        mine = [r for r in rows if r[0] == str(index)]
        segments.append({"F": [float(r[5]) for r in mine], "S": [float(r[7]) for r in mine]})
    return {
        "kind": report["cycle"]["kind"],
        "substance": op["config"]["substance"],
        "params": op["config"]["cycle"],
        "eta": report["eta_numeric"],
        "Q_in": report["Q_in"],
        "Q_out": report["Q_out"],
        "W_net": report["W_net"],
        "corners": report["corners"],
        "segments": segments,
    }


class Pass:
    """The operations of one pass and what they need at run time."""

    def __init__(self, qcycle, ops: list[dict], workdir: str, tracer, in_process: bool):
        self.qcycle = qcycle
        self.ops = ops
        self.workdir = workdir
        self.tracer = tracer
        self.in_process = in_process
        self.configs = {}
        self.paths = {}
        for op in ops:
            if "config" in op:
                text = json.dumps(op["config"])
                self.configs[op["name"]] = qcycle.parse_config(text)
                path = os.path.join(workdir, f"{op['name']}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.paths[op["name"]] = path

    def run(self) -> list[dict]:
        return [self._run(op) for op in self.ops]

    def _run(self, op: dict) -> dict:
        if self.tracer is not None:
            self.tracer.op = op["name"]
        record = {"name": op["name"], "op": op["op"], "expect": op.get("expect"), "error": None,
                  "problems": [], "bytes": 0}
        runner = {"cycle": self._cycle, "sweep": self._sweep, "check": self._check}[op["op"]]
        runner(op, record)
        return record

    def _cycle(self, op: dict, record: dict) -> None:
        q = self.qcycle
        if op["route"] == "library":
            config = self.configs[op["name"]]
            start = time.perf_counter()
            try:
                spec = config.build_cycle()
                report = q.run_cycle(spec, config.policy, config.output.samples_per_segment)
            except (q.QcycleError, ValueError) as err:
                record["error"] = type(err).__name__
            record["seconds"] = time.perf_counter() - start
            if record["error"] is None:
                outcome = _library_outcome(op, report)
        else:
            report_path = os.path.join(self.workdir, f"{op['name']}.report.json")
            diagram_path = os.path.join(self.workdir, f"{op['name']}.diagram.csv")
            argv = ["run", self.paths[op["name"]], "--report", report_path,
                    "--diagram", diagram_path]
            start = time.perf_counter()
            code, _ = _cli(q, argv)
            record["seconds"] = time.perf_counter() - start
            if code != 0:
                record["error"] = EXIT_ERRORS.get(code, f"exit {code}")
            else:
                with open(report_path, encoding="utf-8") as handle:
                    report_text = handle.read()
                with open(diagram_path, encoding="utf-8") as handle:
                    diagram_text = handle.read()
                record["bytes"] = len(report_text.encode()) + len(diagram_text.encode())
                try:
                    outcome = _cli_outcome(op, report_text, diagram_text)
                except (ValueError, KeyError, IndexError) as err:
                    record["problems"].append(f"unreadable output: {err!r}")
                    return
        if record["error"] is None:
            samples = op["config"]["output"]["samples_per_segment"]
            record["problems"] += oracles.check_cycle(outcome, samples, op["classical"])

    def _sweep(self, op: dict, record: dict) -> None:
        out = os.path.join(self.workdir, f"{op['name']}.csv")
        argv = ["sweep", self.paths[op["name"]], "--param", op["param"], "--from", repr(op["from"]),
                "--to", repr(op["to"]), "--steps", str(op["steps"]), "--out", out]
        threads = workloads.SWEEP_THREADS
        start = time.perf_counter()
        if not self.in_process:
            code, _ = _child(argv, self.workdir, threads)
        else:
            # left set: the worker ends with the pass, and only sweeps read it
            os.environ["QCYCLE_NUM_THREADS"] = str(threads)
            code, _ = _cli(self.qcycle, argv)
        record["seconds"] = time.perf_counter() - start
        record["points"] = op["steps"]
        if code != 0:
            record["error"] = EXIT_ERRORS.get(code, f"exit {code}")
            return
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
        record["bytes"] = len(text.encode())
        record["problems"] += oracles.check_sweep(text, op)

    def _check(self, op: dict, record: dict) -> None:
        argv = ["check", "--scope", op["scope"]]
        start = time.perf_counter()
        if not self.in_process:
            code, stdout = _child(argv, self.workdir)
        else:
            code, stdout = _cli(self.qcycle, argv)
        record["seconds"] = time.perf_counter() - start
        record["problems"] += oracles.check_check(code, stdout)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--in-process", action="store_true",
                        help="run sweep and check in this process")
    parser.add_argument("--trace", metavar="PATH", help="trace the pass; write its spans to PATH")
    args = parser.parse_args(argv)

    ops = workloads.operations(args.workload, args.seed)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import qcycle
    import qcycle.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(qcycle.__file__).startswith(SRC + os.sep):
        print(f"qcycle imported from {qcycle.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=SCRATCH)
    try:
        tracer = tracing.Tracer() if args.trace else None
        bench = Pass(qcycle, ops, workdir, tracer, args.in_process or tracer is not None)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if tracer is not None:
            tracer.install()
        try:
            records = bench.run()
        finally:
            if tracer is not None:
                tracer.remove()
        result = {"ops": records, "peak_rss_mb": _peak_rss_mb(), "import_s": import_s}
        if tracer is not None:
            tracer.write(args.trace)
            sweeps = {r["name"] for r in records if r["op"] == "sweep"}
            sweep_wall = sum(r["seconds"] for r in records if r["op"] == "sweep")
            layers = tracing.layer_metrics(tracer.spans, sweeps, sweep_wall)
            layers["cli.bytes_written"] = sum(r["bytes"] for r in records)
            result["layers"] = layers
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
