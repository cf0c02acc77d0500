"""Spans and counts around calls into qcycle's public functions.

The tracer wraps functions from the benchmark's side: it replaces each
target in every loaded ``qcycle`` module namespace that holds it (the
defining module and every ``from .x import name`` copy), so calls between
modules pass through the wrapper too.  Spans are kept in memory as
[name, start, end, parent, op, thread, extra] and written out once the pass
ends.  Nothing inside ``src/qcycle`` changes.

A span's parent is the innermost traced call open on the same thread.  A
span opened on another thread with nothing open there (a sweep point in the
pool) takes the outermost span open on the tracing thread as its parent.
Self time is a span's duration minus the union of its children's intervals,
so children that overlap in time are not subtracted twice.
"""

from __future__ import annotations

import json
import sys
import threading
import time

# (module, function) pairs.  The private check suites are wrapped only to
# split `check` time by scope.
TARGETS = (
    ("substances", "gibbs_state"),
    ("substances", "beta_for_force"),
    ("numerics", "integrate_adaptive"),
    ("processes", "segment_heat_work"),
    ("cycles", "build_brayton"),
    ("cycles", "build_diesel"),
    ("cycles", "build_otto"),
    ("cycles", "build_carnot"),
    ("cycles", "run_cycle"),
    ("config", "parse_config"),
    ("cli", "main"),
    ("checks", "_substance_checks"),
    ("checks", "_process_checks"),
    ("checks", "_cycle_checks"),
)

# span fields
NAME, START, END, PARENT, OP, THREAD, EXTRA = range(7)

# what a span's extra field records, from the call's result
_RESULT_SIZE = {
    "substances.gibbs_state": lambda state: state.levels_used,
    "processes.segment_heat_work": lambda result: len(result.samples),
}


class Tracer:
    """Collects spans for one pass; install() patches, remove() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> tuple[list, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.get_ident()
        with self._lock:
            index = len(self.spans)
            parent = stack[-1] if stack else (None if thread == self._home else self._root)
            record = [name, 0.0, 0.0, parent, self.op, thread, None]
            self.spans.append(record)
        if not stack and thread == self._home:
            self._root = index
        stack.append(index)
        record[START] = time.perf_counter()
        return record, stack

    def _wrapper(self, label: str, fn):
        size = _RESULT_SIZE.get(label)

        if label == "numerics.integrate_adaptive":

            def wrapped(f, *args, **kwargs):
                nodes = 0

                def counted(t):
                    nonlocal nodes
                    nodes += 1
                    return f(t)

                record, stack = self._open(label)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    record[END] = time.perf_counter()
                    stack.pop()
                    record[EXTRA] = nodes

            return wrapped

        def wrapped(*args, **kwargs):
            record, stack = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                record[EXTRA] = size(result)
            return result

        return wrapped

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qcycle" or n.startswith("qcycle.")]
        for module_name, name in TARGETS:
            original = getattr(sys.modules[f"qcycle.{module_name}"], name)
            wrapper = self._wrapper(f"{module_name}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON array per span, after a header line naming the fields."""
        fields = ["name", "start", "end", "parent", "op", "thread", "extra"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(fields) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    own = [s[END] - s[START] for s in spans]
    for index, intervals in children.items():
        lo, hi = spans[index][START], spans[index][END]
        covered, reach = 0.0, lo
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        own[index] -= covered
    return own


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], sweep_ops: set, sweep_wall: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    sweep_ops names the pass's `sweep` operations and sweep_wall their wall
    time (0 if none); cli.sweep.busy_ratio sets the run_cycle time under
    them against it.
    """
    own = _self_times(spans)
    names = [s[NAME] for s in spans]

    def pick(name):
        return [i for i, n in enumerate(names) if n == name]

    gibbs = pick("substances.gibbs_state")
    schedule = pick("substances.beta_for_force")
    quad = pick("numerics.integrate_adaptive")
    segments = pick("processes.segment_heat_work")
    runs = pick("cycles.run_cycle")
    builds = [i for i, n in enumerate(names) if n.startswith("cycles.build_")]
    samples = sum(spans[i][EXTRA] or 0 for i in segments)
    segment_states = sum(1 for i in gibbs if _has_ancestor(spans, i, "processes.segment_heat_work"))
    sweep_runs = [i for i in runs if spans[i][OP] in sweep_ops]

    def total(indices):
        return sum(spans[i][END] - spans[i][START] for i in indices)

    def self_total(indices):
        return sum(own[i] for i in indices)

    return {
        "substances.gibbs_state.calls": len(gibbs),
        "substances.gibbs_state.levels": sum(spans[i][EXTRA] or 0 for i in gibbs),
        "substances.gibbs_state.max_levels": max((spans[i][EXTRA] or 0 for i in gibbs), default=0),
        "substances.gibbs_state.self_s": self_total(gibbs),
        "substances.beta_for_force.calls": len(schedule),
        "substances.beta_for_force.force_evals": sum(
            1 for i in gibbs if _has_ancestor(spans, i, "substances.beta_for_force")
        ),
        "substances.beta_for_force.self_s": self_total(schedule),
        "numerics.integrate_adaptive.calls": len(quad),
        "numerics.integrate_adaptive.nodes": sum(spans[i][EXTRA] for i in quad),
        "numerics.integrate_adaptive.self_s": self_total(quad),
        "processes.segment_heat_work.calls": len(segments),
        "processes.segment_heat_work.self_s": self_total(segments),
        "processes.states_per_sample": segment_states / samples if samples else 0.0,
        "cycles.build.s": total(builds),
        "cycles.run_cycle.self_s": self_total(runs),
        "config.parse_config.s": total(pick("config.parse_config")),
        "cli.main.self_s": self_total(pick("cli.main")),
        "cli.sweep.busy_ratio": total(sweep_runs) / sweep_wall if sweep_wall else 0.0,
        "checks.substance_s": total(pick("checks._substance_checks")),
        "checks.process_s": total(pick("checks._process_checks")),
        "checks.cycle_s": total(pick("checks._cycle_checks")),
    }


# counts that must repeat exactly between two traced passes of one seed
DETERMINISTIC = (
    "substances.gibbs_state.calls",
    "substances.gibbs_state.levels",
    "substances.gibbs_state.max_levels",
    "substances.beta_for_force.calls",
    "substances.beta_for_force.force_evals",
    "numerics.integrate_adaptive.calls",
    "numerics.integrate_adaptive.nodes",
    "processes.segment_heat_work.calls",
    "cli.bytes_written",
)
