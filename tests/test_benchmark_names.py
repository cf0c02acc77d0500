"""The qcycle names that perfbench's tracer and worker read.

perfbench/tracing.py wraps the functions named in its TARGETS by module and
name, and reads GibbsState.levels_used and the length of a
segment_heat_work result's samples; perfbench/worker.py reads each sample's
F and S.  A rename or removal of any of them breaks the benchmark, so it
fails here too.
"""

import importlib
import importlib.util
import pathlib

from qcycle.processes import SAMPLE_FIELDS, isothermal_segment, segment_heat_work
from qcycle.substances import box, gibbs_state

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


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
