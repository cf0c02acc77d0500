"""Cycle builders, closed-form efficiencies and numeric agreement."""

import copy
import dataclasses
import inspect
import math
import pathlib
import sys

import numpy as np
import pytest

import mp_oracle
from qcycle import cycles, processes, substances
from test_cycle_oracle import ISOBAR_KINDS, _isobar_case
from qcycle.config import parse_config
from qcycle.cycles import (
    CYCLE_BUILDERS,
    CYCLE_KINDS,
    CYCLE_SEGMENTS,
    Corners,
    CycleSpec,
    build_brayton,
    build_carnot,
    build_diesel,
    build_otto,
    closed_form_efficiency,
    run_cycle,
)
from qcycle.errors import ConvergenceError, DomainError
from qcycle.numerics import NumericsPolicy
from qcycle.processes import (
    SAMPLE_FIELDS,
    segment_heat_work,
    stacked_heat_work,
)
from qcycle.substances import (
    KINDS,
    SpectrumModel,
    beta_for_force,
    box,
    cavity_mode,
    entropy,
    force,
    gibbs_state,
    harmonic,
    internal_energy,
    spin_half,
)


class TestClosedFormEfficiency:
    def test_carnot(self):
        eta = closed_form_efficiency("carnot", 3.0, {"temperature_ratio": 0.5})
        assert eta == 0.5

    def test_otto_rows(self):
        assert closed_form_efficiency("otto", 3.0, {"volume_ratio": 0.5}) == 0.75
        assert closed_form_efficiency("otto", 2.0, {"volume_ratio": 0.5}) == 0.5

    def test_brayton_rows(self):
        eta = closed_form_efficiency("brayton", 3.0, {"force_ratio": 0.125})
        assert eta == pytest.approx(1.0 - 0.125 ** (2.0 / 3.0), rel=1e-15)
        assert closed_form_efficiency("brayton", 5.0 / 3.0, {"force_ratio": 1.0}) == 0.0

    def test_diesel_factored_forms(self):
        eta3 = closed_form_efficiency("diesel", 3.0, {"r_C": 0.5, "r_E": 0.8})
        assert eta3 == pytest.approx(1.0 - (0.64 + 0.40 + 0.25) / 3.0, rel=1e-15)
        assert eta3 == pytest.approx(0.57, abs=1e-15)
        eta2 = closed_form_efficiency("diesel", 2.0, {"r_C": 0.5, "r_E": 0.8})
        assert eta2 == pytest.approx(0.35, abs=1e-15)

    def test_diesel_fractional_gamma(self):
        eta = closed_form_efficiency("diesel", 5.0 / 3.0, {"r_C": 0.5, "r_E": 0.8})
        g = 5.0 / 3.0
        assert eta == pytest.approx(1.0 - (0.8**g - 0.5**g) / (g * 0.3), rel=1e-14)

    def test_diesel_equal_ratios_rejected(self):
        with pytest.raises(ValueError):
            closed_form_efficiency("diesel", 3.0, {"r_C": 0.6, "r_E": 0.6})

    @pytest.mark.parametrize(
        "r_C, r_E", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)],
        ids=["r_C-0", "r_C-1", "r_E-0", "r_E-1"],
    )
    def test_diesel_ratios_at_their_bounds_rejected(self, r_C, r_E):
        with pytest.raises(ValueError, match="diesel ratios must lie in"):
            closed_form_efficiency("diesel", 3.0, {"r_C": r_C, "r_E": r_E})

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            closed_form_efficiency("otto", 1.0, {"volume_ratio": 0.5})

    def test_scaling_invariance(self):
        # efficiencies depend only on the ratios, not the absolute values
        base = closed_form_efficiency("brayton", 2.0, {"force_ratio": 0.125 / 0.5})
        scaled = closed_form_efficiency(
            "brayton", 2.0, {"force_ratio": (0.125 * 7.3) / (0.5 * 7.3)}
        )
        assert base == scaled


class TestBuilderTable:
    @pytest.mark.parametrize("kind", CYCLE_KINDS)
    def test_table_matches_the_builders_signature(self, kind):
        # the parameters after model, in order: a builder takes no policy,
        # which only run_cycle reads
        name, fields = CYCLE_BUILDERS[kind]
        params = list(inspect.signature(getattr(cycles, name)).parameters)
        assert params[0] == "model"
        assert tuple(params[1:]) == fields

    def test_table_lists_every_cycle_kind(self):
        assert list(CYCLE_BUILDERS) == ["brayton", "diesel", "otto", "carnot"]
        assert sorted(CYCLE_BUILDERS) == sorted(CYCLE_KINDS)


def _run_segments(spec):
    """The segments a run of spec builds, in A-D order."""
    return [r.segment for r in run_cycle(spec, samples_per_segment=16).segment_results]


class TestBrayton:
    def test_box_corner_ratio(self):
        segments = _run_segments(build_brayton(box(1), 8.0 * 30.0, 30.0, 1.0, 2.0))
        adiabat = segments[1]
        assert adiabat.L_end / adiabat.L_start == pytest.approx(2.0, rel=1e-14)
        assert segments[0].held_value == 240.0  # high-force isobar A->B
        assert segments[2].held_value == 30.0

    def test_cavity_corner_ratio(self):
        adiabat = _run_segments(build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5))[1]
        assert adiabat.L_end / adiabat.L_start == pytest.approx(2.0, rel=1e-14)

    def test_cavity_efficiency_exact(self):
        report = run_cycle(build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5), samples_per_segment=8)
        assert abs(report.eta_numeric - 0.5) <= 1e-8
        assert report.eta_closed == pytest.approx(0.5, rel=1e-15)
        assert report.closure_ok

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            build_brayton(cavity_mode(), 0.5, 2.0, 1.5, 2.5)

    def test_multidimensional_kind_rejected(self):
        with pytest.raises(ValueError):
            build_brayton(box(2), 2.0, 0.5, 1.0, 2.0)

    def test_first_law_around_loop(self):
        report = run_cycle(build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5), samples_per_segment=8)
        assert abs(report.W_net - (report.Q_in - report.Q_out)) <= 1e-8 * report.Q_in

    def test_box_isobars_solved_once_in_the_run(self, monkeypatch):
        calls = []
        quadrature = []
        solve = substances._box1d_x_for_mean
        integrate = processes.integrate_adaptive_batch

        def counted_solve(*args):
            calls.append(bool(quadrature))
            return solve(*args)

        def flagged_integrate(*args):
            quadrature.append(True)
            try:
                return integrate(*args)
            finally:
                quadrature.pop()

        monkeypatch.setattr(substances, "_box1d_x_for_mean", counted_solve)
        monkeypatch.setattr(processes, "integrate_adaptive_batch", flagged_integrate)
        spec = build_brayton(box(1), 20.0, 8.0, 1.0, 1.2)
        assert calls == []
        report = run_cycle(spec, samples_per_segment=16)
        assert calls == [False]
        assert abs(report.eta_numeric - report.eta_closed) <= 1e-12


class TestDiesel:
    def test_corner_forces_follow_adiabats(self):
        spec = build_diesel(box(1), 200.0, 2.0, 0.5, 0.8)
        corners = run_cycle(spec).corner_table
        f_c = corners[2].F
        f_d = corners[3].F
        assert f_c / 200.0 == pytest.approx(0.8**3, rel=1e-10)
        assert f_d / 200.0 == pytest.approx(0.5**3, rel=1e-10)

    def test_cavity_efficiency_exact(self):
        report = run_cycle(build_diesel(cavity_mode(), 1.0, 4.0, 0.5, 0.8), samples_per_segment=8)
        assert abs(report.eta_numeric - 0.35) <= 1e-8
        assert report.eta_closed == pytest.approx(0.35, abs=1e-15)

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            build_diesel(cavity_mode(), 1.0, 4.0, 0.8, 0.5)
        with pytest.raises(ValueError):
            build_diesel(cavity_mode(), 1.0, 4.0, 0.5, 1.2)

    def test_zero_largest_coordinate_rejected(self):
        with pytest.raises(ValueError, match="L1 > 0"):
            build_diesel(cavity_mode(), 1.0, 0.0, 0.5, 0.8)


class TestOttoAndCarnot:
    def test_otto_box_closed_form(self):
        report = run_cycle(build_otto(box(1), 1.0, 2.0, 0.3, 2.0), samples_per_segment=8)
        assert report.eta_closed == pytest.approx(1.0 - 0.25, rel=1e-15)
        assert abs(report.eta_numeric - report.eta_closed) <= 1e-8

    def test_otto_cavity_closed_form(self):
        report = run_cycle(build_otto(cavity_mode(), 1.0, 2.0, 0.3, 1.5), samples_per_segment=8)
        assert report.eta_closed == pytest.approx(0.5, rel=1e-15)
        assert abs(report.eta_numeric - 0.5) <= 1e-8

    def test_otto_multidimensional_volume_ratio(self):
        # 2D box: eta = 1 - (V0/V1)^(gamma-1) with V = L^2 and gamma = 2
        report = run_cycle(build_otto(box(2), 1.0, 2.0, 0.1, 2.0), samples_per_segment=8)
        assert report.eta_closed == pytest.approx(0.75, rel=1e-12)
        assert abs(report.eta_numeric - report.eta_closed) <= 1e-8

    @pytest.mark.parametrize(
        "model, L_A", [(box(3), 10.0), (box(2), 100.0)], ids=["box3d", "box2d"]
    )
    def test_multidimensional_carnot_stays_small(self, model, L_A):
        # the flattened multi-index sums took 4 GB of states here; that no
        # level is summed on a run is tests/test_reference.py's guard
        report = run_cycle(build_carnot(model, 10.0, 5.0, L_A, 2.0 * L_A))
        assert abs(report.eta_numeric - 0.5) <= 1e-8

    def test_otto_not_an_engine_rejected(self):
        with pytest.raises(ValueError):
            build_otto(box(1), 1.0, 2.0, 1.0, 2.0)  # beta_cold/4 < beta_hot

    @pytest.mark.parametrize(
        "model, T_H, T_C, L_A, L_B",
        [
            (harmonic(1), 1e300, 1e-10, 1.0, 2.0),
            (box(1), 1e300, 1e-300, 1.0, 2.0),
            (cavity_mode(), 1e300, 1.0, 1e10, 2e10),
            # L_C = L_B (T_H/T_C)^(1/p) is inf, L_D = L_A (T_H/T_C)^(1/p)
            # is not; a box's p = 2 needs the longer L_B for it
            (cavity_mode(), 1e150, 1e-150, 1e-10, 1e10),
            (box(1), 1e150, 1e-150, 1e-10, 1e200),
            (harmonic(1), 1e150, 1e-150, 1e-10, 1e10),
        ],
        ids=["harmonic1d", "box1d", "cavity-long", "cavity-only-C", "box1d-only-C", "harmonic1d-only-C"],
    )
    def test_carnot_stretched_past_the_largest_float_rejected(self, model, T_H, T_C, L_A, L_B):
        # corner C's L is inf: the builder refuses the loop rather than
        # leave its run sums that overflow to nan
        with pytest.raises(ValueError, match=r"^corner C of the carnot cycle has L = inf, "):
            build_carnot(model, T_H, T_C, L_A, L_B)

    @pytest.mark.parametrize(
        "build",
        [
            # beta_C = 1/T_C is inf
            lambda: build_carnot(box(1), 1e-300, 5e-324, 1.0, 2.0),
            # (L1/L0)^2 = 1e320 raises OverflowError in float arithmetic;
            # the builder refuses it as it would a product that is inf
            lambda: build_otto(box(1), 1.0, 1e160, 1e-300, 1e300),
        ],
        ids=["carnot", "otto"],
    )
    def test_corner_beta_past_the_largest_float_rejected(self, build):
        with pytest.raises(ValueError, match=r"^corner C of the \w+ cycle has beta = inf, "):
            build()

    @pytest.mark.parametrize(
        "model, L0, beta_hot",
        [(box(3), 1e-200, 1e-301), (harmonic(2), 1e-250, 1e-201)],
        ids=["box3d", "harmonic2d"],
    )
    def test_otto_volume_ratio_that_underflows_rejected(self, model, L0, beta_hot):
        # every corner is finite, but the volume ratio (L0/L1)^d underflows
        # to 0: closed_form_efficiency refuses it in the builder, before any
        # run.  (A Carnot's or Brayton's ratio underflows only where its
        # inverse stretches corner C to inf, which is refused first.)
        with pytest.raises(ValueError, match=r"^volume ratio must lie in \(0, 1\], got 0\.0$"):
            build_otto(model, L0, 1e-50, beta_hot, 1.0)

    def test_carnot_universality(self):
        for model in (cavity_mode(), harmonic(1), spin_half()):
            report = run_cycle(build_carnot(model, 2.0, 1.0, 1.0, 2.0), samples_per_segment=8)
            assert abs(report.eta_numeric - 0.5) <= 1e-6

    def test_carnot_engine_quantities_positive(self):
        report = run_cycle(build_carnot(spin_half(), 2.0, 1.0, 1.0, 3.0), samples_per_segment=8)
        assert report.Q_in > 0.0
        assert report.W_net > 0.0
        assert 0.0 <= report.eta_numeric < 1.0


class TestColdCarnot:
    """Carnot loops whose corners reach x = beta Delta of about 50, where the
    work is far below the ground energy, against the 50-digit oracle."""

    @pytest.mark.parametrize(
        "model, T_H, x",
        [
            (box(1), 0.2, 24.67),
            (box(1), 0.1, 49.3),
            (box(2), 0.2, 49.3),
            (cavity_mode(), 0.04, 25.0),
            (cavity_mode(), 0.02, 50.0),
            (spin_half(), 0.02, 50.0),
            (harmonic(3), 0.02, 50.0),
        ],
        ids=["box1d-25", "box1d-49", "box2d-49", "cavity-25", "cavity-50",
             "spin-50", "harmonic3d-50"],
    )
    def test_efficiency_and_totals_against_mpmath(self, model, T_H, x):
        report = run_cycle(build_carnot(model, T_H, 0.5 * T_H, 1.0, 2.0), samples_per_segment=8)
        q_in, _, w_net, _ = mp_oracle.carnot(model, T_H, 0.5 * T_H, 1.0, 2.0)
        assert max(c.regime for c in report.corner_table) == pytest.approx(x, rel=1e-3)
        assert abs(report.Q_in - q_in) <= 1e-12 * q_in
        assert abs(report.W_net - w_net) <= 1e-12 * w_net
        assert abs(report.eta_numeric - 0.5) <= 1e-12
        assert report.eta_closed == 0.5


class TestThinOtto:
    """Ottos whose hot corner sits a relative delta below beta_cold
    (L0/L1)^p, so that both adiabats carry nearly the same <g> and W_net
    cancels between them.  eta_closed = 1 - (L0/L1)^(gamma - 1) holds at
    any temperatures, so it is an exact reference for eta; the 50-digit
    oracle is one for Q_in and W_net as well."""

    @pytest.mark.parametrize(
        "model, beta_cold",
        [(box(1), 4.0), (box(2), 4.0), (cavity_mode(), 15.4), (spin_half(), 15.4)],
        ids=["box1d", "box2d", "cavity", "spin_half"],
    )
    def test_reports_to_1e_9_or_cancels(self, model, beta_cold):
        outcomes = []
        for delta in (1e-5, 1e-6, 1e-7):
            beta_hot = beta_cold * (1.0 / 1.1) ** model.scaling_power * (1.0 - delta)
            spec = build_otto(model, 1.0, 1.1, beta_hot, beta_cold)
            try:
                report = run_cycle(spec, samples_per_segment=8)
            except ConvergenceError as err:
                assert "cancellation factor" in str(err)
                outcomes.append("cancels")
                continue
            assert abs(report.eta_numeric - report.eta_closed) <= 1e-9 * report.eta_closed
            reference = mp_oracle.otto(model, 1.0, 1.1, beta_hot, beta_cold)
            assert abs(report.Q_in - reference.Q_in) <= 1e-9 * reference.Q_in
            assert abs(report.W_net - reference.W_net) <= 1e-9 * reference.W_net
            assert abs(report.eta_numeric - reference.eta) <= 1e-9 * reference.eta
            outcomes.append("reports")
        # the corners' x is 14 to 33; the widest loop reports, the thinnest
        # cancels
        assert outcomes[0] == "reports" and outcomes[-1] == "cancels"


class TestLoopInvariants:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5),
            lambda: build_diesel(cavity_mode(), 1.0, 4.0, 0.5, 0.8),
            lambda: build_otto(box(1), 1.0, 2.0, 0.3, 2.0),
            lambda: build_carnot(spin_half(), 2.0, 1.0, 1.0, 3.0),
        ],
    )
    def test_loop_entropy_and_closure(self, spec_factory):
        report = run_cycle(spec_factory(), samples_per_segment=8)
        assert abs(report.loop_entropy) <= 1e-9
        assert report.closure_residual <= 1e-10
        assert report.closure_ok

    def test_corner_table_labels(self):
        report = run_cycle(build_carnot(cavity_mode(), 2.0, 1.0, 1.0, 2.0), samples_per_segment=8)
        assert tuple(c.label for c in report.corner_table) == ("A", "B", "C", "D")
        for corner in report.corner_table:
            assert corner.T == pytest.approx(1.0 / corner.beta)
            assert math.isfinite(corner.F) and math.isfinite(corner.S)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: build_brayton(cavity_mode(), 1.0, 1.0, 1.5, 2.5), "F1 > F0"),
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.2, 1.2), "L_B > L_A"),
            (lambda: build_diesel(cavity_mode(), 1.0, 4.0, 0.7, 0.7), "r_C < r_E"),
            (lambda: build_otto(box(2), 1.5, 1.5, 0.3, 2.0), "L1 > L0"),
            # beta_cold (L0/L1)^p == beta_hot exactly: p = 2 and p = 1
            (lambda: build_otto(box(1), 1.0, 2.0, 0.5, 2.0), "not an engine"),
            (lambda: build_otto(cavity_mode(), 1.0, 2.0, 0.75, 1.5), "not an engine"),
            (lambda: build_carnot(cavity_mode(), 1.5, 1.5, 1.0, 2.0), "T_H > T_C"),
            (lambda: build_carnot(spin_half(), 2.0, 1.0, 1.0, 1.0), "L_B > L_A"),
        ],
        ids=["brayton-F", "brayton-L", "diesel-r", "otto-L", "otto-beta-box1d",
             "otto-beta-cavity", "carnot-T", "carnot-L"],
    )
    def test_zero_area_loop_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_heat_totals_are_floats(self):
        # at T_H = 1e-3 every segment's heat underflows to 0, which is an
        # error rather than eta = 0
        with pytest.raises(DomainError, match="x = 4934.8"):
            run_cycle(build_carnot(box(1), 1e-3, 5e-4, 1.0, 2.0), samples_per_segment=8)
        report = run_cycle(build_carnot(cavity_mode(), 2.0, 1.0, 1.0, 2.0), samples_per_segment=8)
        assert type(report.Q_in) is float and type(report.Q_out) is float
        assert report.Q_in > report.Q_out > 0.0


# every cycle kind on every substance it supports: Carnot and Otto on every
# kind, Brayton and Diesel on the 1D kinds with a positive force
def _every_supported_cycle():
    for kind in substances.KINDS:
        model = substances.SpectrumModel(kind)
        yield f"carnot-{kind}", lambda m=model: build_carnot(m, 2.0, 1.0, 1.0, 2.0)
        yield f"otto-{kind}", lambda m=model: build_otto(m, 1.0, 2.0, 0.3, 2.0)
    yield "brayton-box1d", lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2)
    yield "diesel-box1d", lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8)
    for model in (harmonic(1), cavity_mode()):
        yield f"brayton-{model.kind}", lambda m=model: build_brayton(m, 2.0, 0.5, 1.5, 2.5)
        yield f"diesel-{model.kind}", lambda m=model: build_diesel(m, 1.0, 4.0, 0.5, 0.8)


EVERY_CYCLE = dict(_every_supported_cycle())


class TestReportReadsTheBlock:
    """run_cycle reads the corners and loop_entropy from the batch's block
    at once; they must be what each result's own columns give."""

    @pytest.mark.parametrize("name", EVERY_CYCLE)
    def test_corners_and_loop_entropy_are_the_per_result_reads(self, name):
        spec = EVERY_CYCLE[name]()
        report = run_cycle(spec, samples_per_segment=16)
        S = SAMPLE_FIELDS.index("S")
        corners = SAMPLE_FIELDS.index("L"), S + 1
        for corner, r in zip(report.corner_table, report.segment_results):
            L, beta, T, F, U, S_A = r.columns[corners[0]:corners[1], 0].tolist()
            regime = substances.regime_parameter(spec.model, beta, L)
            assert (corner.L, corner.beta, corner.T, corner.F, corner.U, corner.S) == (L, beta, T, F, U, S_A)
            assert corner.regime == regime
            assert all(type(v) is float for v in dataclasses.astuple(corner)[1:])
        loop = sum((r.columns[S, -1] - r.columns[S, 0]).item() for r in report.segment_results)
        assert type(report.loop_entropy) is float
        assert math.copysign(1.0, report.loop_entropy) == math.copysign(1.0, loop)
        assert report.loop_entropy == loop

    def test_every_kind_is_covered(self):
        # Carnot and Otto on the 8 kinds, Brayton and Diesel on 3
        assert len(EVERY_CYCLE) == 2 * len(substances.KINDS) + 2 * 3


# every cycle kind on every substance it accepts among box1d, cavity,
# spin_half and box2d (the isobaric cycles need a 1D substance with a
# positive force)
BATCH_CYCLES = {
    "brayton-box1d": lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2),
    "brayton-cavity": lambda: build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5),
    "diesel-box1d": lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8),
    "diesel-cavity": lambda: build_diesel(cavity_mode(), 1.0, 4.0, 0.5, 0.8),
    "otto-box1d": lambda: build_otto(box(1), 1.0, 2.0, 0.3, 2.0),
    "otto-cavity": lambda: build_otto(cavity_mode(), 1.0, 2.0, 0.3, 1.5),
    "otto-spin_half": lambda: build_otto(spin_half(), 1.0, 3.0, 0.4, 2.5),
    "otto-box2d": lambda: build_otto(box(2), 10.0, 20.0, 0.1, 1.0),
    "carnot-box1d": lambda: build_carnot(box(1), 2.0, 1.0, 1.0, 2.0),
    "carnot-cavity": lambda: build_carnot(cavity_mode(), 2.0, 1.0, 1.0, 2.0),
    "carnot-spin_half": lambda: build_carnot(spin_half(), 2.0, 1.0, 1.0, 3.0),
    "carnot-box2d": lambda: build_carnot(box(2), 10.0, 5.0, 10.0, 20.0),
}


def assert_same_result(batched, alone):
    assert batched.segment == alone.segment
    assert (batched.Q, batched.W_on, batched.W_thermal, batched.W_scale, batched.delta_U) == (
        alone.Q, alone.W_on, alone.W_thermal, alone.W_scale, alone.delta_U
    )
    assert batched.samples == alone.samples
    assert abs(batched.Q_direct - alone.Q_direct) <= 1e-15 * abs(alone.Q_direct)


class TestStackedSegments:
    @pytest.mark.parametrize("name", BATCH_CYCLES)
    def test_cycle_batch_matches_each_segment_alone(self, name):
        spec = BATCH_CYCLES[name]()
        report = run_cycle(spec, samples_per_segment=16)
        assert len(report.segment_results) == 4
        for result in report.segment_results:
            assert_same_result(result, segment_heat_work(result.segment, samples_per_segment=16))

    def test_segments_of_two_cycles_in_one_batch(self):
        segments = _run_segments(BATCH_CYCLES["otto-box1d"]()) + _run_segments(BATCH_CYCLES["carnot-box1d"]())
        results = stacked_heat_work(segments, samples_per_segment=8)
        assert len(results) == 8
        for result, segment in zip(results, segments):
            assert_same_result(result, segment_heat_work(segment, samples_per_segment=8))

    def test_mixed_models_rejected(self):
        segments = _run_segments(BATCH_CYCLES["otto-box1d"]())[:2] + _run_segments(BATCH_CYCLES["otto-box2d"]())[:2]
        with pytest.raises(ValueError, match="one model"):
            stacked_heat_work(segments)

    def test_empty_batch(self):
        assert stacked_heat_work(()) == ()

    @pytest.mark.parametrize("name", BATCH_CYCLES)
    def test_corners_are_the_gibbs_states_of_the_segment_starts(self, name):
        spec = BATCH_CYCLES[name]()
        report = run_cycle(spec, samples_per_segment=16)
        for corner, result in zip(report.corner_table, report.segment_results):
            segment = result.segment
            state = gibbs_state(spec.model, segment.beta_start, segment.L_start)
            assert (corner.L, corner.beta) == (segment.L_start, segment.beta_start)
            assert corner.F == force(state, spec.model)
            assert corner.U == internal_energy(state, spec.model)
            assert corner.S == entropy(state)

    @pytest.mark.parametrize("name", BATCH_CYCLES)
    def test_thermal_parts_drop_only_the_ground_energy(self, name):
        spec = BATCH_CYCLES[name]()
        report = run_cycle(spec, samples_per_segment=16)
        model = spec.model
        for r in report.segment_results:
            seg = r.segment
            ground = model.ground_energy(seg.L_end) - model.ground_energy(seg.L_start)
            scale = abs(r.W_on) + abs(model.ground_energy(min(seg.L_start, seg.L_end)))
            assert abs(r.W_on - r.W_thermal - ground) <= 1e-14 * scale
            # the rounding scale covers the part it bounds
            assert r.W_scale >= abs(r.W_thermal)
        work = sum(abs(r.W_on) for r in report.segment_results)
        assert abs(report.W_net + sum(r.W_on for r in report.segment_results)) <= 1e-14 * work


def _refuse_quadrature(*_args, **_kwargs):
    raise AssertionError("the heat cross-check was integrated")


class TestCrossCheckOnRead:
    def test_run_integrates_no_cross_check(self, monkeypatch):
        expected = {name: run_cycle(make(), samples_per_segment=16) for name, make in BATCH_CYCLES.items()}
        monkeypatch.setattr(processes, "integrate_adaptive_batch", _refuse_quadrature)
        for name, make in BATCH_CYCLES.items():
            assert run_cycle(make(), samples_per_segment=16) == expected[name], name

    @pytest.mark.parametrize("name", BATCH_CYCLES)
    def test_first_read_integrates_the_batch_once(self, name, monkeypatch):
        calls = []
        integrate = processes.integrate_adaptive_batch

        def counted(f, k, policy):
            calls.append(k)
            return integrate(f, k, policy)

        monkeypatch.setattr(processes, "integrate_adaptive_batch", counted)
        spec = BATCH_CYCLES[name]()
        report = run_cycle(spec, samples_per_segment=16)
        assert calls == []
        results = report.segment_results
        first = results[-1].Q_direct
        heat_exchanging = sum(r.segment.kind != "adiabatic" for r in results)
        assert calls == [heat_exchanging]
        direct = [r.Q_direct for r in results] + [r.Q_direct for r in results]
        assert calls == [heat_exchanging]
        assert direct[-1] == first
        for r, value in zip(results, direct):
            if r.segment.kind == "adiabatic":
                assert value == 0.0
            else:
                assert abs(value - r.Q) <= 1e-12 * abs(r.Q)

    def test_cross_check_that_cannot_converge_raises_on_read(self):
        policy = NumericsPolicy(quad_tol=1e-16, quad_max_depth=1)
        report = run_cycle(build_diesel(box(1), 20.0, 2.0, 0.5, 0.8), policy, 16)
        assert 0.0 < report.eta_numeric < 1.0
        for r in report.segment_results:
            with pytest.raises(ConvergenceError, match="max depth"):
                r.Q_direct


def _refuse_path_sample(*_args, **_kwargs):
    raise AssertionError("a PathSample was built")


class TestSamplesAreColumns:
    def test_run_builds_no_path_sample(self, monkeypatch):
        expected = {name: run_cycle(make(), samples_per_segment=16) for name, make in BATCH_CYCLES.items()}
        monkeypatch.setattr(processes, "PathSample", _refuse_path_sample)
        for name, make in BATCH_CYCLES.items():
            assert run_cycle(make(), samples_per_segment=16) == expected[name], name

    @pytest.mark.parametrize("name", ["brayton-box1d", "otto-box2d"])
    def test_samples_are_built_once_from_the_columns(self, name):
        report = run_cycle(BATCH_CYCLES[name](), samples_per_segment=16)
        for r in report.segment_results:
            samples = r.samples
            assert r.samples is samples
            assert [list(dataclasses.astuple(s)) for s in samples] == r.columns.T.tolist()
            assert [f.name for f in dataclasses.fields(samples[0])] == list(SAMPLE_FIELDS)
            assert all(type(v) is float for v in dataclasses.astuple(samples[3]))

    def test_columns_are_read_only(self):
        result = run_cycle(BATCH_CYCLES["carnot-cavity"](), samples_per_segment=8).segment_results[0]
        assert result.columns.shape == (9, 8)
        with pytest.raises(ValueError):
            result.columns[1, 0] = 2.0

    def test_results_that_differ_in_one_sample_are_unequal(self):
        report = run_cycle(BATCH_CYCLES["diesel-box1d"](), samples_per_segment=16)
        result = report.segment_results[1]
        batch = result._batch
        moved = batch.columns.copy()
        U = SAMPLE_FIELDS.index("U")
        moved[U, 1, 7] = np.nextafter(moved[U, 1, 7], np.inf)
        twin = dataclasses.replace(result, _batch=dataclasses.replace(batch, columns=batch.columns.copy(), built={}))
        other = dataclasses.replace(result, _batch=dataclasses.replace(batch, columns=moved, built={}))
        assert twin == result
        assert other != result
        assert [a == b for a, b in zip(other.samples, result.samples)].count(False) == 1
        # the totals and the segment alone do not make two results equal
        assert result != report.segment_results[3]


class TestSubnormalHeat:
    """Cold Carnots whose Q_in or W_net is below the smallest normal float,
    where a subnormal's absolute spacing of 2^-1074 is no relative accuracy."""

    @pytest.mark.parametrize(
        "model, T_H_range",
        [(cavity_mode(), (1.0 / 1500.0, 1.0 / 1380.0)), (box(1), (0.0049, 0.0054))],
        ids=["cavity", "box1d"],
    )
    def test_cold_carnot_scan_reports_right_or_refuses(self, model, T_H_range):
        # the scan crosses Q_in = 2.2e-308: without the subnormal guard some
        # of these points report eta off by up to 0.07
        outcomes = []
        for T_H in np.geomspace(*T_H_range, 40).tolist():
            try:
                report = run_cycle(build_carnot(model, T_H, 0.5 * T_H, 1.0, 2.0), samples_per_segment=8)
            except DomainError as err:
                assert "smallest normal float" in str(err)
                outcomes.append("refused")
                continue
            assert report.Q_in >= sys.float_info.min and report.W_net >= sys.float_info.min
            assert abs(report.eta_numeric - 0.5) <= 1e-12
            outcomes.append("reports")
        assert outcomes[0] == "refused" and outcomes[-1] == "reports"

    def test_subnormal_net_work_of_a_normal_heat_is_refused(self):
        # Q_in = 2.4e-307 is normal, W_net = Q_in / 100 is not; corner A
        # sits at x = 943
        T_H = 0.005232395895840544
        spec = build_carnot(box(1), T_H, 0.99 * T_H, 1.0, 2.0)
        with pytest.raises(DomainError, match=r"^W_net = 2\.36\d*e-309 .* x = 943\.1"):
            run_cycle(spec, samples_per_segment=8)

    def test_net_work_that_cancels_to_zero_is_a_cancellation(self):
        # a Carnot at one temperature, whose adiabats have zero length: its
        # isotherm out and back has a normal Q_in and two W_thermal that are
        # exact negatives, so W_net is 0 and the cancellation test, not the
        # subnormal guard, refuses it
        corners = Corners((1.0, 2.0, 2.0, 1.0), (1.0, 1.0, 1.0, 1.0), ())
        spec = CycleSpec(box(1), "carnot", corners, 0.0)
        with pytest.raises(ConvergenceError, match="W_net = -?0 .* cancellation factor is inf"):
            run_cycle(spec, samples_per_segment=8)


GOLDENS = pathlib.Path(__file__).parent / "goldens"
GOLDEN_RUNS = sorted(
    p.stem for p in GOLDENS.glob("*.json") if not p.name.endswith(".report.json")
)
# the Brayton and Diesel of BATCH_CYCLES
ISOBARIC_BATCH_CYCLES = [name for name in BATCH_CYCLES if name.startswith(("brayton-", "diesel-"))]


def _count_kernel_calls(monkeypatch):
    """The element counts of every substances._kernel call from now on."""
    calls = []
    kernel = substances._kernel

    def counted(kind, x):
        calls.append(np.size(x))
        return kernel(kind, x)

    monkeypatch.setattr(substances, "_kernel", counted)
    return calls


class TestKernelCalls:
    """substances._kernel calls, counted.  No builder evaluates a state, so
    a Carnot's or Otto's run makes the cycle's one call, the batch's, and a
    Brayton's or Diesel's run adds one schedule solve, of its isobar
    samples, whose ends are its isobar corners."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_builders_make_no_call(self, kind, monkeypatch):
        model = SpectrumModel(kind)
        calls = _count_kernel_calls(monkeypatch)
        monkeypatch.setattr(cycles, "beta_for_force", _refuse_schedule)
        build_carnot(model, 2.0, 1.0, 1.0, 2.0)
        build_otto(model, 1.0, 2.0, 0.3, 2.0)
        # Brayton and Diesel on the 1D kinds that have an isobar
        for cycle in ("brayton", "diesel"):
            EVERY_CYCLE.get(f"{cycle}-{kind}", lambda: None)()
        assert calls == []

    def test_builders_of_every_isobar_kind_are_counted(self):
        isobaric = [name for name in EVERY_CYCLE if name.startswith(("brayton-", "diesel-"))]
        assert sorted(isobaric) == sorted(
            f"{cycle}-{kind}" for cycle in ("brayton", "diesel") for kind in ISOBAR_KINDS
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("build", [build_carnot, build_otto], ids=["carnot", "otto"])
    def test_carnot_and_otto_cycles_make_one_call(self, kind, build, monkeypatch):
        args = (2.0, 1.0, 1.0, 2.0) if build is build_carnot else (1.0, 2.0, 0.3, 2.0)
        calls = _count_kernel_calls(monkeypatch)
        run_cycle(build(SpectrumModel(kind), *args), samples_per_segment=16)
        assert calls == [4 * 16]

    # the calls of each golden run's builder and of its run_cycle.  A box
    # schedule makes its Newton evaluations, one when warm and three for the
    # cold Brayton's samples, before the batch's call.
    GOLDEN_CALLS = {
        "brayton_box1d": (0, 2),
        "brayton_box1d_cold": (0, 4),
        "diesel_box1d": (0, 2),
        "diesel_box1d_long": (0, 2),
        "carnot_box3d": (0, 1),
        "carnot_spin_half": (0, 1),
        "otto_harmonic2d": (0, 1),
    }

    @pytest.mark.parametrize("name", GOLDEN_CALLS)
    def test_golden_runs_call_counts(self, name, monkeypatch):
        config = parse_config((GOLDENS / f"{name}.json").read_text())
        calls = _count_kernel_calls(monkeypatch)
        spec = config.build_cycle()
        built = len(calls)
        run_cycle(spec, config.policy, config.output.samples_per_segment)
        assert (built, len(calls) - built) == self.GOLDEN_CALLS[name]

    def test_every_golden_run_is_counted(self):
        assert sorted(self.GOLDEN_CALLS) == sorted(GOLDEN_RUNS)

    @pytest.mark.parametrize("name", ISOBARIC_BATCH_CYCLES)
    def test_run_makes_one_call_more_than_its_sample_schedule(self, name, monkeypatch):
        # the Newton evaluations of the isobar samples, the run's L rows,
        # then one call on all k n samples, whose isobar rows the
        # schedule's residual check reads
        calls = _count_kernel_calls(monkeypatch)
        report = run_cycle(BATCH_CYCLES[name](), samples_per_segment=16)
        ran = list(calls)
        isobars = [r for r in report.segment_results if r.segment.kind == "isobaric"]
        force = np.array([[r.segment.held_value] for r in isobars])
        L = np.array([r.columns[1] for r in isobars])
        calls.clear()
        beta_for_force(report.segment_results[0].segment.model, force, L, checked=False)
        assert ran == calls + [4 * 16]

    # a spec keeps no state of its run: a second run of the same spec makes
    # the calls of its first, and at 2 samples per segment that run is the
    # schedule solve of its isobar corners alone, A, B, C and D or A and B
    # (Newton evaluations on the box, none on the closed schedules), then
    # the batch's call, whose states check it
    @pytest.mark.parametrize("name", ISOBARIC_BATCH_CYCLES)
    def test_each_run_of_a_spec_makes_the_same_calls(self, name, monkeypatch):
        spec = BATCH_CYCLES[name]()
        calls = _count_kernel_calls(monkeypatch)
        run_cycle(spec, samples_per_segment=2)
        first = list(calls)
        calls.clear()
        run_cycle(spec, samples_per_segment=2)
        assert calls == first
        assert first[-1] == 4 * 2
        assert all(n == len(spec.corners.force) * 2 for n in first[:-1])

    @pytest.mark.parametrize("name", ["brayton-box1d", "diesel-box1d"])
    def test_warm_box_cycle_makes_two_kernel_calls(self, name, monkeypatch):
        # one Newton evaluation over the isobar samples, whose first and
        # last L are the isobar corners, in A-D order; then the batch's
        # call.  The builder makes none.
        solved = []
        solve = cycles.beta_for_force

        def recorded(model, force, L, *args, **kwargs):
            solved.append(np.array(L))
            return solve(model, force, L, *args, **kwargs)

        monkeypatch.setattr(cycles, "beta_for_force", recorded)
        calls = _count_kernel_calls(monkeypatch)
        report = run_cycle(BATCH_CYCLES[name]())
        isobars = sum(r.segment.kind == "isobaric" for r in report.segment_results)
        assert calls == [isobars * 64, 4 * 64]
        assert len(solved) == 1 and solved[0].shape == (isobars, 64)
        corners = [c.L for c in report.corner_table[: 2 * isobars]]
        assert solved[0][:, [0, -1]].ravel().tolist() == corners


def _refuse_schedule(*_args, **_kwargs):
    raise AssertionError("a schedule was solved")


# the Braytons and Diesels of BATCH_CYCLES, one Carnot and one Otto, and a
# box Brayton whose F1 lies below the vacuum force at L_A, a corner that no
# temperature reaches
SPEC_CASES = {
    **{name: BATCH_CYCLES[name] for name in ISOBARIC_BATCH_CYCLES},
    "carnot-box1d": BATCH_CYCLES["carnot-box1d"],
    "otto-box1d": BATCH_CYCLES["otto-box1d"],
    "brayton-box1d-unreachable": lambda: build_brayton(box(1), 1.0, 0.5, 1.0, 1.2),
}


class TestSpecIsData:
    """A spec holds its corners and no segments: only run_cycle builds them,
    and solves a Brayton's or Diesel's corner betas.  So printing, comparing
    or copying a spec evaluates no state and raises nothing, even where the
    run refuses."""

    @pytest.mark.parametrize("name", SPEC_CASES)
    def test_spec_operations_make_no_call(self, name, monkeypatch):
        build = SPEC_CASES[name]
        spec, twin = build(), build()
        with monkeypatch.context() as patch:
            calls = _count_kernel_calls(patch)
            patch.setattr(cycles, "beta_for_force", _refuse_schedule)
            assert [f.name for f in dataclasses.fields(spec)] == ["model", "kind", "corners", "eta_closed"]
            assert repr(spec) == repr(twin)
            assert spec == twin and not spec != twin
            other = dataclasses.replace(twin, eta_closed=0.0)
            assert spec != other and not spec == other
            # the corners are compared: a spec whose corners lie elsewhere
            # is another cycle
            moved = dataclasses.replace(twin, corners=twin.corners._replace(L=twin.corners.L[::-1]))
            assert spec != moved and not spec == moved
            copies = copy.deepcopy(spec), dataclasses.replace(spec)
            assert all(c == spec and c.corners == spec.corners for c in copies)
            assert calls == []
        ran = _outcome(lambda: run_cycle(build(), samples_per_segment=16))
        for c in copies:
            assert _outcome(lambda: run_cycle(c, samples_per_segment=16)) == ran

    @pytest.mark.parametrize("kind", CYCLE_KINDS)
    def test_equal_specs_hash_equal(self, kind):
        # a spec is a model, a kind, its Corners and a float: it hashes by
        # value, so two builds of one cycle are one set member
        spec, twin = BATCH_CYCLES[f"{kind}-box1d"](), BATCH_CYCLES[f"{kind}-box1d"]()
        assert spec is not twin and hash(spec) == hash(twin)
        assert {spec, twin} == {spec} and len({spec, twin}) == 1

    def test_unreachable_corner_refuses_the_run(self):
        spec = SPEC_CASES["brayton-box1d-unreachable"]()
        with pytest.raises(DomainError) as err:
            run_cycle(spec)
        assert str(err.value) == (
            "no positive temperature: the box1d equilibrium force lies above "
            "the vacuum force, vacuum force 9.869604401089358 at L=1.0, axis "
            "target 1.0"
        )


def _miss_the_solves_at(monkeypatch, elements):
    """Make every box Newton solve return x (1 + 1e-8) at elements, an index
    or a slice, so that the 1e-10 residual check fails there."""
    solve = substances._box1d_x_for_mean

    def missed(target, policy):
        x = solve(target, policy).copy()
        x[elements] *= 1.0 + 1e-8
        return x

    monkeypatch.setattr(substances, "_box1d_x_for_mean", missed)


def _residual_message(L, force):
    return f"isobaric schedule residual exceeds 1e-10 at L={L}, axis target force {force}"


def _long_diesel():
    # L_A + (L_B - L_A) is 1.8000000000000003, where corner B lies at
    # L_B = 1.8: its isobar's last sample must be pinned to L_B
    return build_diesel(box(1), 200.0, 2.0, 0.3, 0.9)


class TestScheduleResidualErrors:
    """A schedule solve that misses raises ConvergenceError naming the first
    failing L, with the message of the solve's residual check.

    A run solves the isobar samples, row by row in segment order, and the
    batch checks them in that order.  Each row starts and ends at its
    corners, so a run checks every isobar corner, as its row's first or
    last sample, and a run at two samples per segment, whose rows hold
    their corners alone, checks them in A, B, C, D order."""

    @pytest.mark.parametrize("corner", [0, 1, 2, 3], ids=list("ABCD"))
    def test_brayton_segments_name_the_first_failing_corner(self, corner, monkeypatch):
        seg = _run_segments(build_brayton(box(1), 20.0, 8.0, 1.0, 1.2))[corner]
        force = 20.0 if corner < 2 else 8.0
        spec = build_brayton(box(1), 20.0, 8.0, 1.0, 1.2)
        _miss_the_solves_at(monkeypatch, slice(corner, None))
        with pytest.raises(ConvergenceError) as err:
            run_cycle(spec, samples_per_segment=2)
        assert str(err.value) == _residual_message(seg.L_start, force)

    @pytest.mark.parametrize("corner", [0, 1], ids=list("AB"))
    def test_diesel_segments_name_the_first_failing_corner(self, corner, monkeypatch):
        L = (0.55 * 2.0, 0.8 * 2.0)[corner]
        spec = build_diesel(box(1), 20.0, 2.0, 0.55, 0.8)
        _miss_the_solves_at(monkeypatch, slice(corner, None))
        with pytest.raises(ConvergenceError) as err:
            run_cycle(spec, samples_per_segment=2)
        assert str(err.value) == _residual_message(L, 20.0)

    @pytest.mark.parametrize(
        "build, start, segment, sample",
        [
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2), 0, 0, 0),
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2), 16 + 3, 2, 3),
            (lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8), 0, 0, 0),
            (lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8), 5, 0, 5),
        ],
        ids=["brayton-first", "brayton-CD-4th", "diesel-first", "diesel-6th"],
    )
    def test_run_names_the_first_failing_sample(self, build, start, segment, sample, monkeypatch):
        # the solve's elements are the isobar samples, row by row
        expected = run_cycle(build(), samples_per_segment=16).segment_results[segment]
        L = expected.columns[1, sample].item()
        _miss_the_solves_at(monkeypatch, slice(start, None))
        with pytest.raises(ConvergenceError) as err:
            run_cycle(build(), samples_per_segment=16)
        assert str(err.value) == _residual_message(L, expected.segment.held_value)

    @pytest.mark.parametrize(
        "build, corners",
        [
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2), 4),
            (lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8), 2),
        ],
        ids=["brayton", "diesel"],
    )
    def test_run_names_the_first_failing_corner(self, build, corners, monkeypatch):
        # a miss from a corner's element on, A, B, C and D at the first and
        # last sample of each isobar row, names that corner's L
        segments = _run_segments(build())
        elements = (0, 15, 16, 31)[:corners]
        for corner, element in enumerate(elements):
            isobar = segments[corner // 2 * 2]
            with monkeypatch.context() as patch:
                _miss_the_solves_at(patch, slice(element, None))
                with pytest.raises(ConvergenceError) as err:
                    run_cycle(build(), samples_per_segment=16)
            L = segments[corner].L_start
            assert str(err.value) == _residual_message(L, isobar.held_value)

    @pytest.mark.parametrize(
        "build, corner, element",
        [
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2), 1, 15),
            (lambda: build_brayton(box(1), 20.0, 8.0, 1.0, 1.2), 3, 31),
            (lambda: build_diesel(box(1), 20.0, 2.0, 0.55, 0.8), 1, 15),
            (_long_diesel, 1, 15),
        ],
        ids=["brayton-B", "brayton-D", "diesel-B", "long-diesel-B"],
    )
    def test_run_checks_the_corners_that_start_an_adiabat(self, build, corner, element, monkeypatch):
        # a miss at that corner alone, its isobar row's last sample: the
        # batch's check names the corner's own L
        isobar, adiabat = _run_segments(build())[corner - 1 : corner + 1]
        _miss_the_solves_at(monkeypatch, element)
        with pytest.raises(ConvergenceError) as err:
            run_cycle(build(), samples_per_segment=16)
        assert str(err.value) == _residual_message(adiabat.L_start, isobar.held_value)

    def test_long_diesel_isobar_ends_at_its_corner(self):
        L_A, L_B = 0.3 * 2.0, 0.9 * 2.0
        assert L_A + 1.0 * (L_B - L_A) == 1.8000000000000003
        report = run_cycle(_long_diesel(), samples_per_segment=16)
        assert report.segment_results[0].columns[1, -1] == 1.8
        assert report.corner_table[1].L == 1.8


def _outcome(call):
    """The value of call(), or the class and message of the error it raises."""
    try:
        return call()
    except (ConvergenceError, DomainError) as err:
        return type(err).__name__, str(err)


def _isobar_cycle(kind, cycle, x):
    """The oracle test's Brayton or Diesel whose corner B holds x = beta Delta
    and corner A, on the same isobar, twice it."""
    model, build, _, args = _isobar_case(kind, cycle, x)
    return lambda: build(model, *args)


# warm, cold and classical corners on every isobar kind, and the long Diesel
ISOBAR_CYCLES = {
    f"{cycle}-{kind}-{x:g}": _isobar_cycle(kind, cycle, x)
    for kind in ISOBAR_KINDS
    for cycle in ("brayton", "diesel")
    for x in (1e-6, 0.03, 10.0)
}
ISOBAR_CYCLES["diesel-box1d-long"] = _long_diesel


# the isobar cycles, and one Carnot and one Otto, whose corners carry their
# betas
RUN_ROUTE_CYCLES = {
    **ISOBAR_CYCLES,
    "carnot-box2d": BATCH_CYCLES["carnot-box2d"],
    "otto-box2d": BATCH_CYCLES["otto-box2d"],
}


class TestSegmentsComeFromTheRun:
    """Every run builds its segments from the spec's corners, a Brayton's or
    Diesel's from the ends of its isobar rows: they must be the kinds
    CYCLE_SEGMENTS names, sit on the spec's corners, betas and forces, close
    the loop, and leave the spec as it was, so that a second run of the
    same spec reports what a fresh spec's run does."""

    @pytest.mark.parametrize("name", RUN_ROUTE_CYCLES)
    def test_run_segments_sit_on_the_spec_corners(self, name):
        spec = RUN_ROUTE_CYCLES[name]()
        ran = _outcome(lambda: run_cycle(spec, samples_per_segment=16))
        if isinstance(ran, tuple):
            # only a corner that no temperature reaches refuses here
            # (test_every_isobar_cycle_is_kept)
            assert ran[0] == "DomainError"
            return
        segments = [r.segment for r in ran.segment_results]
        corners = spec.corners
        kinds = CYCLE_SEGMENTS[spec.kind]
        assert [s.kind for s in segments] == list(kinds)
        assert [s.L_start for s in segments] == list(corners.L)
        if corners.beta is not None:
            assert [s.beta_start for s in segments] == list(corners.beta)
        for seg, after in zip(segments, segments[1:] + segments[:1]):
            assert seg.L_end == after.L_start
        isobars = [i for i, kind in enumerate(kinds) if kind == "isobaric"]
        assert (corners.beta is None) == bool(isobars)
        for i, held in zip(isobars, corners.force, strict=True):
            isobar, before = segments[i], segments[i - 1]
            assert (isobar.kind, isobar.held_value) == ("isobaric", held)
            # the isobar's ends, and the end of the adiabat whose frozen
            # occupations reach its first corner, hold its force
            ends = (
                (isobar.beta_start, isobar.L_start),
                (isobar.beta_end, isobar.L_end),
                (before.beta_end, before.L_end),
            )
            assert before.kind == "adiabatic"
            for beta, L in ends:
                assert force(gibbs_state(spec.model, beta, L), spec.model) == pytest.approx(held, rel=1e-9)

    @pytest.mark.parametrize("name", RUN_ROUTE_CYCLES)
    def test_report_does_not_depend_on_an_earlier_run(self, name):
        build = RUN_ROUTE_CYCLES[name]
        fresh = _outcome(lambda: run_cycle(build(), samples_per_segment=16))
        spec = build()
        _outcome(lambda: run_cycle(spec, samples_per_segment=16))
        assert spec == build()
        again = _outcome(lambda: run_cycle(spec, samples_per_segment=16))
        if isinstance(fresh, tuple):
            assert again == fresh
            return
        assert repr(_report_fields(again)) == repr(_report_fields(fresh))
        for a, b in zip(again.segment_results, fresh.segment_results):
            assert a.columns.tobytes() == b.columns.tobytes()

    def test_every_isobar_cycle_is_kept(self):
        # the cases that report: every one but the cold box Brayton, whose
        # F1 lies below the vacuum force at its rounded L_A
        refused = [
            name for name, build in ISOBAR_CYCLES.items()
            if isinstance(_outcome(lambda b=build: run_cycle(b(), samples_per_segment=16)), tuple)
        ]
        assert refused == ["brayton-box1d-10"]


def _report_fields(report):
    """Every field of a report but the segments' samples: its totals and
    guards, the corner table, and each segment with its totals."""
    return (
        report.kind, report.Q_in, report.Q_out, report.W_net, report.eta_numeric,
        report.eta_closed, report.gamma_used, report.loop_entropy, report.closure_residual,
        report.closure_ok, report.first_law_residual, report.corner_table,
        tuple((r.segment, r.Q, r.W_on, r.W_thermal, r.W_scale, r.delta_U)
              for r in report.segment_results),
    )


def _golden_cycle(name):
    config = parse_config((GOLDENS / f"{name}.json").read_text())
    return lambda n: run_cycle(config.build_cycle(), config.policy, n)


# the golden runs, every cycle kind on every substance it supports, the
# isobaric cycles, and loops that refuse: a Carnot whose heat
# underflows and two thin Ottos that cancel
SAMPLE_COUNT_CASES = {
    **{f"golden-{name}": _golden_cycle(name) for name in GOLDEN_RUNS},
    **{name: lambda n, b=build: run_cycle(b(), samples_per_segment=n) for name, build in EVERY_CYCLE.items()},
    **{name: lambda n, b=build: run_cycle(b(), samples_per_segment=n) for name, build in ISOBAR_CYCLES.items()},
    "underflow-carnot-box1d": lambda n: run_cycle(
        build_carnot(box(1), 1e-3, 5e-4, 1.0, 2.0), samples_per_segment=n
    ),
    "thin-otto-box1d": lambda n: run_cycle(
        build_otto(box(1), 1.0, 1.1, 4.0 * (1.0 / 1.1) ** 2 * (1.0 - 1e-7), 4.0), samples_per_segment=n
    ),
    "thin-otto-cavity": lambda n: run_cycle(
        build_otto(cavity_mode(), 1.0, 1.1, 15.4 / 1.1 * (1.0 - 1e-7), 15.4), samples_per_segment=n
    ),
}


class TestSampleCountPremise:
    """Every total and guard of a report reads its segments' end samples
    only, so a report and its exit outcome are the same at 2 samples per
    segment as at 64.  A change that makes a total depend on the interior
    samples fails here."""

    @pytest.mark.parametrize("name", SAMPLE_COUNT_CASES)
    def test_report_is_the_same_at_2_and_64_samples(self, name):
        run = SAMPLE_COUNT_CASES[name]
        few, many = (_outcome(lambda n=n: run(n)) for n in (2, 64))
        if isinstance(many, tuple):
            assert few == many
        else:
            assert repr(_report_fields(few)) == repr(_report_fields(many))

    def test_refusals_are_covered(self):
        outcomes = {name: _outcome(lambda r=run: r(2)) for name, run in SAMPLE_COUNT_CASES.items()}
        refused = {name: o[0] for name, o in outcomes.items() if isinstance(o, tuple)}
        assert refused == {
            "brayton-box1d-10": "DomainError",
            "underflow-carnot-box1d": "DomainError",
            "thin-otto-box1d": "ConvergenceError",
            "thin-otto-cavity": "ConvergenceError",
        }
