"""Cycle builders, closed-form efficiencies and numeric agreement."""

import dataclasses
import inspect
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from qcycle import cycles, processes, substances
from qcycle.cycles import (
    CYCLE_BUILDERS,
    CYCLE_KINDS,
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
    isobaric_schedule,
    isobaric_segment,
    isothermal_segment,
    segment_heat_work,
    stacked_heat_work,
)
from qcycle.substances import (
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
        # the parameters between model and policy, in order
        name, fields = CYCLE_BUILDERS[kind]
        params = list(inspect.signature(getattr(cycles, name)).parameters)
        assert (params[0], params[-1]) == ("model", "policy")
        assert tuple(params[1:-1]) == fields

    def test_table_lists_every_cycle_kind(self):
        assert list(CYCLE_BUILDERS) == ["brayton", "diesel", "otto", "carnot"]
        assert sorted(CYCLE_BUILDERS) == sorted(CYCLE_KINDS)


class TestBrayton:
    def test_box_corner_ratio(self):
        spec = build_brayton(box(1), 8.0 * 30.0, 30.0, 1.0, 2.0)
        adiabat = spec.segments[1]
        assert adiabat.L_end / adiabat.L_start == pytest.approx(2.0, rel=1e-14)
        assert spec.segments[0].held_value == 240.0  # high-force isobar A->B
        assert spec.segments[2].held_value == 30.0

    def test_cavity_corner_ratio(self):
        spec = build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5)
        adiabat = spec.segments[1]
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

    def test_box_isobars_solved_once_in_the_builder_and_once_for_the_samples(self, monkeypatch):
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
        assert calls == [False]
        report = run_cycle(spec, samples_per_segment=16)
        assert calls == [False, False]
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

    def test_carnot_universality(self):
        for model in (cavity_mode(), harmonic(1), spin_half()):
            report = run_cycle(build_carnot(model, 2.0, 1.0, 1.0, 2.0), samples_per_segment=8)
            assert abs(report.eta_numeric - 0.5) <= 1e-6

    def test_carnot_engine_quantities_positive(self):
        report = run_cycle(build_carnot(spin_half(), 2.0, 1.0, 1.0, 3.0), samples_per_segment=8)
        assert report.Q_in > 0.0
        assert report.W_net > 0.0
        assert 0.0 <= report.eta_numeric < 1.0


def _mp_axis_entropy(model, beta, L):
    """Entropy of one axis of model's Gibbs state at (beta, L), by mpmath
    level sums over the gaps g = E - E_0, up to beta g = 300."""
    beta, L = mp.mpf(beta), mp.mpf(L)
    kind = model.axis.kind
    if kind == "spin_half":
        gaps = [1 / L]
    elif kind == "box1d":
        unit = mp.pi**2 / (2 * model.mass * L * L)
        top = int(mp.sqrt(300 / (beta * unit))) + 2
        gaps = [unit * (n * n - 1) for n in range(2, top + 1)]
    else:
        unit = model.mode_constant / L
        gaps = [unit * n for n in range(1, int(300 / (beta * unit)) + 2)]
    weights = [mp.exp(-beta * g) for g in gaps]
    excited = mp.fsum(weights)
    mean = mp.fsum(g * w for g, w in zip(gaps, weights)) / (1 + excited)
    return mp.log1p(excited) + beta * mean


class TestColdCarnot:
    """Carnot loops whose corners reach x = beta Delta of about 50, where the
    work is far below the ground energy, against mpmath level sums."""

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
        spec = build_carnot(model, T_H, 0.5 * T_H, 1.0, 2.0)
        report = run_cycle(spec, samples_per_segment=8)
        hot, cold = spec.segments[0], spec.segments[2]
        with mp.workdps(50):
            heats = [
                model.dimension
                * (_mp_axis_entropy(model, seg.beta_end, seg.L_end)
                   - _mp_axis_entropy(model, seg.beta_start, seg.L_start))
                / seg.beta_start
                for seg in (hot, cold)
            ]
            q_in, w_net = float(heats[0]), float(mp.fsum(heats))
        assert max(c.regime for c in report.corner_table) == pytest.approx(x, rel=1e-3)
        assert abs(report.Q_in - q_in) <= 1e-12 * q_in
        assert abs(report.W_net - w_net) <= 1e-12 * w_net
        assert abs(report.eta_numeric - 0.5) <= 1e-12
        assert report.eta_closed == 0.5


class TestThinOtto:
    """Ottos whose hot corner sits a relative delta below beta_cold
    (L0/L1)^p, so that both adiabats carry nearly the same <g> and W_net
    cancels between them.  eta_closed = 1 - (L0/L1)^(gamma - 1) holds at
    any temperatures, so it is the exact reference."""

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
        for result, segment in zip(report.segment_results, spec.segments):
            assert_same_result(result, segment_heat_work(segment, samples_per_segment=16))

    def test_segments_of_two_cycles_in_one_batch(self):
        segments = BATCH_CYCLES["otto-box1d"]().segments + BATCH_CYCLES["carnot-box1d"]().segments
        results = stacked_heat_work(segments, samples_per_segment=8)
        assert len(results) == 8
        for result, segment in zip(results, segments):
            assert_same_result(result, segment_heat_work(segment, samples_per_segment=8))

    def test_mixed_models_rejected(self):
        segments = BATCH_CYCLES["otto-box1d"]().segments[:2] + BATCH_CYCLES["otto-box2d"]().segments[:2]
        with pytest.raises(ValueError, match="one model"):
            stacked_heat_work(segments)

    def test_empty_batch(self):
        assert stacked_heat_work(()) == ()

    @pytest.mark.parametrize("name", BATCH_CYCLES)
    def test_corners_are_the_gibbs_states_of_the_segment_starts(self, name):
        spec = BATCH_CYCLES[name]()
        report = run_cycle(spec, samples_per_segment=16)
        for corner, segment in zip(report.corner_table, spec.segments):
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
        for r, seg in zip(report.segment_results, spec.segments):
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
        heat_exchanging = sum(s.kind != "adiabatic" for s in spec.segments)
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
        report = run_cycle(build_diesel(box(1), 20.0, 2.0, 0.5, 0.8, policy), policy, 16)
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
        # an isotherm out and back: Q_in is normal and the two W_thermal are
        # exact negatives, so W_net is 0 and the cancellation test, not the
        # subnormal guard, refuses it
        model = box(1)
        out = isothermal_segment(model, 1.0, 1.0, 2.0)
        back = isothermal_segment(model, 1.0, 2.0, 1.0)
        spec = CycleSpec(model, "carnot", (out, back), {"T_H": 1.0, "T_C": 1.0})
        with pytest.raises(ConvergenceError, match="W_net = -?0 .* cancellation factor is inf"):
            run_cycle(spec, samples_per_segment=8)


def _count_kernel_calls(monkeypatch):
    """The element counts of every substances._kernel call from now on."""
    calls = []
    kernel = substances._kernel

    def counted(kind, x):
        calls.append(np.size(x))
        return kernel(kind, x)

    monkeypatch.setattr(substances, "_kernel", counted)
    return calls


class TestAdiabatPairInTheBuilders:
    @pytest.mark.parametrize(
        "name", [n for n in BATCH_CYCLES if n.startswith(("carnot", "otto"))]
    )
    def test_carnot_and_otto_make_one_kernel_call(self, name, monkeypatch):
        calls = _count_kernel_calls(monkeypatch)
        BATCH_CYCLES[name]()
        assert calls == [2]

    @pytest.mark.parametrize("model", [box(1), cavity_mode()], ids=lambda m: m.kind)
    def test_brayton_makes_one_call_more_than_its_schedule(self, model, monkeypatch):
        F1, F0 = (20.0, 8.0) if model.kind == "box1d" else (2.0, 0.5)
        calls = _count_kernel_calls(monkeypatch)
        spec = build_brayton(model, F1, F0, 1.5, 2.5)
        built = list(calls)
        calls.clear()
        corners = np.array([seg.L_start for seg in spec.segments])
        isobaric_schedule(model, np.array([F1, F1, F0, F0]), corners)
        assert built == calls + [2]

    @pytest.mark.parametrize("model", [box(1), cavity_mode()], ids=lambda m: m.kind)
    def test_diesel_makes_one_call_more_than_its_schedule(self, model, monkeypatch):
        F1, L1 = (20.0, 2.0) if model.kind == "box1d" else (1.0, 4.0)
        calls = _count_kernel_calls(monkeypatch)
        build_diesel(model, F1, L1, 0.55, 0.8)
        built = list(calls)
        calls.clear()
        isobaric_segment(model, F1, 0.55 * L1, 0.8 * L1)
        assert built == calls + [2]
