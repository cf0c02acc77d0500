"""The qcycle names that perfbench's tracer and worker read.

perfbench/tracing.py wraps the functions named in its TARGETS by module and
name, and reads GibbsState.levels_used and the length of a
segment_heat_work result's samples.  perfbench/worker.py parses a config,
builds and runs its cycle through the package, and reads the report's
totals, its corners and each sample's F and S.  A rename or removal of any
of them breaks the benchmark, so it fails here too.
"""

import importlib
import importlib.util
import pathlib

import pytest

import qcycle
from qcycle.processes import SAMPLE_FIELDS, isothermal_segment, segment_heat_work
from qcycle.substances import box, gibbs_state

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, name in _tracing().TARGETS:
        module = importlib.import_module(f"qcycle.{module_name}")
        assert callable(getattr(module, name, None)), f"qcycle.{module_name}.{name}"


def test_the_result_fields_the_benchmark_reads():
    size = _tracing()._RESULT_SIZE
    assert size["substances.gibbs_state"](gibbs_state(box(1), 1.0, 1.0)) == 0
    result = segment_heat_work(isothermal_segment(box(1), 1.0, 1.0, 1.5), samples_per_segment=8)
    assert size["processes.segment_heat_work"](result) == 8
    F = [sample.F for sample in result.samples]
    S = [sample.S for sample in result.samples]
    columns = dict(zip(SAMPLE_FIELDS, result.columns.tolist()))
    assert (F, S) == (columns["F"], columns["S"])


@pytest.mark.parametrize("name", ["brayton_box1d", "diesel_box1d", "carnot_spin_half"])
def test_the_run_fields_the_worker_reads(name):
    # the worker's library route: build and run a parsed config's cycle,
    # then read the report's totals and every corner
    config = qcycle.parse_config((GOLDENS / f"{name}.json").read_text())
    assert issubclass(qcycle.QcycleError, Exception)
    spec = config.build_cycle()
    report = qcycle.run_cycle(spec, config.policy, config.output.samples_per_segment)
    totals = (report.eta_numeric, report.Q_in, report.Q_out, report.W_net)
    assert all(type(value) is float for value in totals)
    assert [c.label for c in report.corner_table] == ["A", "B", "C", "D"]
    for c in report.corner_table:
        assert all(type(value) is float for value in (c.L, c.beta, c.F, c.U, c.regime))
    assert len(report.segment_results[0].samples) == config.output.samples_per_segment
