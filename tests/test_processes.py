"""Segment construction, schedules, adiabats and first-law integration."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from qcycle.errors import DomainError
from qcycle.numerics import DEFAULT_POLICY
from qcycle.processes import (
    _adiabatic_pair,
    adiabatic_advance,
    adiabatic_segment,
    build_segment,
    isobaric_schedule,
    isobaric_segment,
    isochoric_segment,
    isothermal_segment,
    reverse_segment,
    segment_heat_work,
    segment_point,
    work_gauss_reference,
)
from qcycle.reference import gibbs_sums
from qcycle.substances import (
    KINDS,
    SpectrumModel,
    box,
    cavity_mode,
    entropy,
    equilibrium_force,
    force,
    gibbs_state,
    harmonic,
    internal_energy,
    regime_parameter,
    spin_half,
    vacuum_force,
)


class TestIsobaricSchedule:
    def test_cavity_closed_inversion(self):
        beta = isobaric_schedule(cavity_mode(), 1.0, 1.0)
        assert beta == pytest.approx(math.log(3.0), rel=1e-14)

    def test_cavity_domain_boundary(self):
        # 2 F L^2 = kappa: the logarithm's argument diverges, no schedule
        with pytest.raises(DomainError):
            isobaric_schedule(cavity_mode(), 0.5, 1.0)

    def test_box_classical_inversion_limit(self):
        # the classical form beta = 1/(F L) emerges as beta E_1 -> 0; the
        # exact schedule deviates by O(sqrt(beta E_1 / pi))
        model = box(1)
        f0, L = 10.0, 100.0
        beta = isobaric_schedule(model, f0, L)
        c = regime_parameter(model, beta, L)
        assert c < 1e-6
        assert abs(beta * f0 * L - 1.0) <= 2.0 * math.sqrt(c / math.pi)
        realized = equilibrium_force(model, beta, L)
        assert abs(realized - f0) <= 1e-10 * f0

    def test_random_cavity_pairs_residual(self):
        rng = np.random.default_rng(7)
        model = cavity_mode()
        for _ in range(25):
            L = float(rng.uniform(0.4, 4.0))
            f0 = (0.5 / L**2) * (1.0 + float(rng.uniform(0.01, 8.0)))
            beta = isobaric_schedule(model, f0, L)
            assert abs(equilibrium_force(model, beta, L) - f0) <= 1e-10 * f0


class TestAdiabaticAdvance:
    def test_box_beta_rescaling(self):
        model = box(1)
        state = gibbs_state(model, 1.0, 1.0)
        moved = adiabatic_advance(model, state, 2.0)
        assert moved.beta == pytest.approx(4.0, rel=1e-15)
        assert moved.length == 2.0

    def test_cavity_beta_rescaling(self):
        model = cavity_mode()
        state = gibbs_state(model, 1.0, 1.0)
        assert adiabatic_advance(model, state, 2.0).beta == pytest.approx(2.0)

    def test_identity(self):
        model = spin_half()
        state = gibbs_state(model, 1.3, 1.1)
        same = adiabatic_advance(model, state, 1.1)
        assert same.beta == state.beta
        assert same == state

    def test_probabilities_frozen_and_entropy_conserved(self):
        model = box(1)
        state = gibbs_state(model, 0.8, 1.0)
        moved = adiabatic_advance(model, state, 1.7)
        assert moved.x == state.x and moved.moments == state.moments
        start_p = gibbs_sums(model, state.beta, state.length).probabilities
        moved_p = gibbs_sums(model, moved.beta, moved.length).probabilities
        assert start_p.size == moved_p.size
        assert np.abs(start_p - moved_p).max() <= 1e-14
        fresh = gibbs_state(model, moved.beta, moved.length)
        assert abs(entropy(fresh) - entropy(state)) <= 1e-12

    def test_product_state_keeps_its_axes(self):
        model = harmonic(3)
        state = gibbs_state(model, 0.8, 1.0)
        moved = adiabatic_advance(model, state, 1.5)
        assert moved.axes == 3
        assert entropy(moved) == entropy(state)

    def test_invalid_target(self):
        model = box(1)
        state = gibbs_state(model, 1.0, 1.0)
        with pytest.raises(ValueError):
            adiabatic_advance(model, state, -1.0)


class TestSegmentConstruction:
    def test_build_segment_dispatch(self):
        model = cavity_mode()
        iso = build_segment("isothermal", model, (1.0, 1.0), 2.0)
        assert iso.kind == "isothermal" and iso.held == "T"
        cho = build_segment("isochoric", model, (1.0, 1.0), 2.0)
        assert cho.beta_end == 2.0 and cho.L_end == 1.0
        bar = build_segment("isobaric", model, (math.log(3.0), 1.0), 1.5)
        assert bar.held == "F"
        assert bar.held_value == pytest.approx(1.0, rel=1e-11)
        ada = build_segment("adiabatic", model, (1.0, 1.0), 2.0)
        assert ada.beta_end == pytest.approx(2.0)
        with pytest.raises(ValueError):
            build_segment("isoenthalpic", model, (1.0, 1.0), 2.0)

    def test_isobaric_below_vacuum_rejected(self):
        with pytest.raises(DomainError):
            isobaric_segment(cavity_mode(), 0.4, 1.0, 2.0)

    def test_segment_point_schedules(self):
        model = cavity_mode()
        seg = isobaric_segment(model, 1.0, 1.0, 2.0)
        beta, L = segment_point(seg, 0.5)
        assert L == 1.5
        assert beta == pytest.approx(isobaric_schedule(model, 1.0, 1.5), rel=1e-14)

    def test_reverse_segment(self):
        seg = isothermal_segment(box(1), 0.8, 1.0, 2.0)
        rev = reverse_segment(seg)
        assert (rev.L_start, rev.L_end) == (2.0, 1.0)
        assert rev.held_value == seg.held_value


class TestSegmentHeatWork:
    def test_adiabatic_zero_heat(self):
        seg = adiabatic_segment(cavity_mode(), 0.9, 1.0, 2.3)
        r = segment_heat_work(seg, samples_per_segment=8)
        assert r.Q == 0.0
        assert r.Q_direct == 0.0
        assert r.W_on == pytest.approx(r.delta_U, rel=1e-14)

    def test_isochoric_zero_work(self):
        seg = isochoric_segment(box(1), 1.2, 0.6, 1.8)
        r = segment_heat_work(seg, samples_per_segment=8)
        assert r.W_on == 0.0
        assert r.Q == pytest.approx(r.delta_U, rel=1e-14)
        assert r.Q == pytest.approx(r.Q_direct, rel=1e-7)

    def test_box_isobaric_heat_classical(self):
        # Q = (3/2) F1 (L_B - L_A) in the classical regime
        f1 = 10.0
        seg = isobaric_segment(box(1), f1, 100.0, 150.0)
        r = segment_heat_work(seg, samples_per_segment=8)
        expected = 1.5 * f1 * 50.0
        assert abs(r.Q / expected - 1.0) <= 1e-3
        assert r.W_on == pytest.approx(-f1 * 50.0, rel=1e-9)

    def test_cavity_isobaric_heat_exact_bookkeeping(self):
        # U = F L for the cavity, so dU = F1 dL and Q = dU - W = 2 F1 dL;
        # the work output alone is F1 dL
        f1 = 1.0
        seg = isobaric_segment(cavity_mode(), f1, 1.0, 2.0)
        r = segment_heat_work(seg, samples_per_segment=8)
        assert r.delta_U == pytest.approx(f1 * 1.0, rel=1e-11)
        assert r.W_by == pytest.approx(f1 * 1.0, rel=1e-9)
        assert r.Q == pytest.approx(2.0 * f1 * 1.0, rel=1e-9)
        assert r.Q == pytest.approx(r.Q_direct, rel=1e-7)

    def test_isothermal_box_classical_energy_constancy(self):
        # U depends only on T for the box in the classical limit, so
        # dU << |W| along an isotherm; the residual scales as sqrt(beta E_1)
        seg = isothermal_segment(box(1), 1e-6 / box(1).ground_energy(100.0), 100.0, 200.0)
        r = segment_heat_work(seg, samples_per_segment=8)
        assert abs(r.delta_U) <= 1e-3 * abs(r.W_on)

    def test_first_law_closure_and_duality(self):
        segments = (
            isothermal_segment(spin_half(), 1.2, 0.7, 1.9),
            isobaric_segment(cavity_mode(), 1.0, 1.0, 1.6),
            isochoric_segment(box(1), 1.2, 0.6, 1.8),
        )
        for seg in segments:
            r = segment_heat_work(seg, samples_per_segment=8)
            scale = max(abs(r.Q), abs(r.W_on), abs(r.delta_U))
            assert abs(r.delta_U - r.Q_direct - r.W_on) <= 1e-10 * scale
            gauss = work_gauss_reference(seg)
            assert abs(r.W_on - gauss) <= 1e-8 * scale

    def test_reversal_antisymmetry(self):
        seg = isobaric_segment(cavity_mode(), 1.0, 1.0, 1.6)
        fwd = segment_heat_work(seg, samples_per_segment=8)
        bwd = segment_heat_work(reverse_segment(seg), samples_per_segment=8)
        scale = max(abs(fwd.Q), abs(fwd.W_on))
        assert abs(fwd.Q + bwd.Q) <= 1e-8 * scale
        assert abs(fwd.W_on + bwd.W_on) <= 1e-8 * scale

    def test_held_value_drift(self):
        seg = isobaric_segment(cavity_mode(), 1.0, 1.0, 1.6)
        r = segment_heat_work(seg, samples_per_segment=16)
        for sample in r.samples:
            assert abs(sample.F - 1.0) <= 1e-8

    def test_sample_bookkeeping(self):
        seg = isothermal_segment(cavity_mode(), 0.9, 1.0, 2.0)
        r = segment_heat_work(seg, samples_per_segment=16)
        ts = [s.t for s in r.samples]
        assert ts == sorted(ts) and len(ts) == 16
        u0 = r.samples[0].U
        for s in r.samples:
            assert s.U - u0 == pytest.approx(s.Q_cum + s.W_cum, abs=1e-12)
        assert r.samples[-1].W_cum == r.W_on

    def test_minimum_samples(self):
        seg = isothermal_segment(cavity_mode(), 0.9, 1.0, 2.0)
        with pytest.raises(ValueError):
            segment_heat_work(seg, samples_per_segment=1)

    def test_spin_isothermal_heat_is_t_ds(self):
        # quasi-static isothermal heat must equal T * (S_end - S_start)
        beta = 1.2
        seg = isothermal_segment(spin_half(), beta, 0.7, 1.9)
        r = segment_heat_work(seg, samples_per_segment=8)
        ds = r.samples[-1].S - r.samples[0].S
        assert r.Q == pytest.approx(ds / beta, rel=1e-9)

    def test_cold_isobar_cross_check_stays_inside_segment(self):
        # The held force lies within about 1e-5 of the zero-temperature force
        # pi^2/L^3 at the start, so the path does not exist just before it.
        L_a, L_b = 1.3642008072044707, 2.267072997342462
        f1 = equilibrium_force(box(1), 1.6718891195479735, L_a)
        seg = isobaric_segment(box(1), f1, L_a, L_b)
        r = segment_heat_work(seg, samples_per_segment=4)
        assert r.Q == pytest.approx(5.26, abs=0.01)
        scale = max(abs(r.Q), abs(r.W_on), abs(r.delta_U))
        assert abs(r.delta_U - r.Q_direct - r.W_on) <= 1e-10 * scale

    def test_cold_isochore_heat_closes_to_contract(self):
        # Q = -5.2e-6 against a ground energy of 4.9: weighting dP with the
        # gaps E_n - E_0 keeps the rounding noise at the thermal scale
        r = segment_heat_work(isochoric_segment(box(1), 1.0, 1.0, 1.2))
        assert r.Q == pytest.approx(-5.22e-6, rel=1e-3)
        assert abs(r.delta_U - r.Q_direct - r.W_on) <= 1e-10 * abs(r.Q)

    @pytest.mark.parametrize(
        "seg",
        [
            isothermal_segment(box(2), 0.8, 1.0, 1.6),
            isothermal_segment(harmonic(3), 0.6, 1.1, 1.8),
            isochoric_segment(box(3), 1.2, 0.6, 1.8),
        ],
        ids=lambda seg: f"{seg.kind}-{seg.model.kind}",
    )
    def test_multidimensional_first_law_closure(self, seg):
        r = segment_heat_work(seg, samples_per_segment=8)
        scale = max(abs(r.Q), abs(r.W_on), abs(r.delta_U))
        assert abs(r.delta_U - r.Q_direct - r.W_on) <= 1e-10 * scale


@pytest.mark.parametrize("model", [box(1), box(2), cavity_mode(), spin_half()],
                         ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", ["isothermal", "isochoric", "isobaric", "adiabatic"])
def test_array_samples_match_per_sample_states(model, kind):
    # every sample of the array route against a state built for it alone;
    # the box1d isochore runs x = beta E_1 from 0.74 to 8.4, across the
    # kernel's switch at x = 1
    end = 1.7 if kind == "isochoric" else 1.2
    seg = build_segment(kind, model, (0.15, 1.0), end)
    r = segment_heat_work(seg, samples_per_segment=16)
    for sample in r.samples:
        beta, L = segment_point(seg, sample.t)
        assert (sample.beta, sample.L) == pytest.approx((beta, L), rel=1e-13, abs=0.0)
        state = gibbs_state(model, sample.beta, sample.L)
        expected = (internal_energy(state, model), entropy(state), force(state, model))
        assert (sample.U, sample.S, sample.F) == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert sample.T == 1.0 / sample.beta


def _mp_levels(substance, dim, L):
    """Every level of the flattened spectrum, enumerated directly.

    The box cases below are cold (beta E_1 >= 10), so indices up to 12 per
    axis leave out weight below exp(-1600) of the partition sum.
    """
    L = mp.mpf(L)
    if substance == "spin_half":
        return [-1 / (2 * L), 1 / (2 * L)]
    unit = mp.pi**2 / (2 * L * L)
    indices = itertools.product(range(1, 13), repeat=dim)
    return [unit * sum(n * n for n in index) for index in indices]


def _mp_entropy_energy(levels, beta):
    """(S, U) of the Gibbs state over `levels`, by direct level sums."""
    beta = mp.mpf(beta)
    weights = [mp.exp(-beta * e) for e in levels]
    z = mp.fsum(weights)
    u = mp.fsum(e * w for e, w in zip(levels, weights)) / z
    return mp.log(z) + beta * u, u


@pytest.mark.parametrize(
    "kind, substance, dim, L0, L1, beta0, beta1",
    [
        # an ordinary spin isotherm, Q = 0.13
        ("isothermal", "spin_half", 1, 0.9661252222001411, 2.901673744973057,
         3.06266951365504, 3.06266951365504),
        # Q = 3.8e-12 against 2 E_1 = 30: no difference of energies resolves it
        ("isochoric", "box", 2, 0.5770209846557413, 0.5770209846557413,
         0.7196730685174368, 0.6866010794992774),
        # Q = -2.4e-16 against 3 E_1 = 27
        ("isochoric", "box", 3, 0.7446670251850824, 0.7446670251850824,
         1.5112053044146398, 2.529103442588524),
        # Q = 2.5e-15 against E_1 = 7.7
        ("isothermal", "box", 1, 0.8, 0.9, 2.0, 2.0),
        # Q = 1.3e-38 against E_1 = 14
        ("isothermal", "box", 1, 0.6, 0.7, 3.0, 3.0),
        # x = beta E_1 from 49 to 52: Q = -7.5e-64 against E_1 = 4.9
        ("isochoric", "box", 1, 1.0, 1.0, 10.0, 10.5),
        # x from 0.2 down to 0.1, Q = 0.019
        ("isothermal", "spin_half", 1, 1.0, 2.0, 0.2, 0.2),
    ],
    ids=["spin-isotherm", "box2d-isochore", "box3d-isochore",
         "box1d-isotherm", "box1d-cold-isotherm", "box1d-cold-isochore",
         "spin-hot-isotherm"],
)
def test_heat_matches_level_sum_reference(kind, substance, dim, L0, L1, beta0, beta1):
    model = spin_half() if substance == "spin_half" else box(dim)
    if kind == "isothermal":
        seg = isothermal_segment(model, beta0, L0, L1)
    else:
        seg = isochoric_segment(model, L0, beta0, beta1)
    r = segment_heat_work(seg, samples_per_segment=4)
    with mp.workdps(80):
        s0, u0 = _mp_entropy_energy(_mp_levels(substance, dim, L0), beta0)
        s1, u1 = _mp_entropy_energy(_mp_levels(substance, dim, L1), beta1)
        reference = float((s1 - s0) / beta0 if kind == "isothermal" else u1 - u0)
    assert abs(r.Q - reference) <= 1e-12 * abs(reference)
    assert abs(r.Q - r.Q_direct) <= 1e-12 * abs(r.Q)


def test_random_segments_close():
    models = (
        box(1), box(2), box(3), harmonic(1), harmonic(3), cavity_mode(), spin_half()
    )
    rng = np.random.default_rng(2007)
    closed = 0
    for _ in range(150):
        model = models[rng.integers(len(models))]
        kind = ("isothermal", "isochoric", "isobaric")[rng.integers(3)]
        beta, beta_end = rng.uniform(0.2, 5.0, 2)
        L0, L1 = rng.uniform(0.5, 3.0, 2)
        if kind == "isobaric":  # expanding
            L0, L1 = min(L0, L1), max(L0, L1)
        end = beta_end if kind == "isochoric" else L1
        try:
            seg = build_segment(kind, model, (beta, L0), end)
        except DomainError:
            # the held force does not exceed the zero-temperature force, to
            # rounding, at one end of the path
            held = equilibrium_force(model, beta, L0)
            excess = min(held - vacuum_force(model, L) for L in (L0, L1))
            assert excess <= 1e-12 * abs(held)
            continue
        r = segment_heat_work(seg, samples_per_segment=4)
        scale = max(abs(r.Q), abs(r.W_on), abs(r.delta_U))
        assert abs(r.delta_U - r.Q_direct - r.W_on) <= 1e-10 * scale, seg
        assert abs(r.Q - r.Q_direct) <= 1e-10 * abs(r.Q), seg
        closed += 1
    assert closed >= 120


@pytest.mark.parametrize(
    "model, x",
    [(box(1), 1e-6), (box(1), 0.3), (box(1), 5.0), (cavity_mode(), 1.0),
     (harmonic(1), 0.4), (spin_half(), 1.0)],
    ids=["box1d-classical", "box1d-0.3", "box1d-cold", "cavity", "harmonic1d", "spin"],
)
def test_isobar_direct_heat_matches_closed_form(model, x):
    # Q_direct integrates T dS in ln x, with L explicit in x; Q is dU - W_on
    # from the samples, each solved for beta at its L
    L0 = 1.0
    beta = x / regime_parameter(model, 1.0, L0)
    seg = isobaric_segment(model, equilibrium_force(model, beta, L0), L0, 1.2 * L0)
    r = segment_heat_work(seg, samples_per_segment=8)
    assert r.Q != 0.0
    assert abs(r.Q_direct - r.Q) <= 1e-12 * abs(r.Q)


@pytest.mark.parametrize(
    "model, beta0, beta1, bound",
    [(box(1), 10.0, 10.5, 1e-14), (cavity_mode(), 30.0, 31.0, 1e-15)],
    ids=["box1d-cold", "cavity-cold"],
)
def test_cold_isochore_direct_heat(model, beta0, beta1, bound):
    # an isochore's nodes are x0 e^(t ds), which keeps the cold box1d
    # isochore's cross-check at 5.8e-15 (2.0e-14 from e^(s0 + t ds)) and the
    # cavity's at 4.3e-16 (3.0e-15)
    r = segment_heat_work(isochoric_segment(model, 1.0, beta0, beta1), samples_per_segment=4)
    assert r.Q != 0.0
    assert abs(r.Q_direct - r.Q) <= bound * abs(r.Q)


def _beta_at(model, L, x):
    """A beta at which the kernel's x = beta Delta(L) is exactly x."""
    gap = gibbs_state(model, 1.0, L).gap
    beta = x / gap
    for _ in range(8):
        if beta * gap == x:
            return beta
        beta = np.nextafter(beta, np.inf if beta * gap < x else 0.0).item()
    raise AssertionError(f"no beta gives x = {x!r} at L = {L!r}")


class TestAdiabatPair:
    """The builders' one-call pair of adiabats against adiabatic_segment,
    which evaluates each start alone: equal segments, so bitwise equal held
    entropies."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_pair_equals_two_adiabatic_segments(self, kind):
        model = SpectrumModel(kind)
        starts = ((0.3, 1.0, 1.7), (2.5, 1.9, 0.8))
        expected = tuple(adiabatic_segment(model, *start) for start in starts)
        assert _adiabatic_pair(model, *zip(*starts)) == expected

    # box1d kernel arguments on both sides of its switch at x = 1
    BOX1D_X = (1e-12, 0.5, np.nextafter(1.0, 0.0).item(), np.nextafter(1.0, 2.0).item(), 700.0)

    @pytest.mark.parametrize("x_a, x_b", itertools.combinations_with_replacement(BOX1D_X, 2))
    def test_box1d_pair_across_regimes(self, x_a, x_b):
        model = box(1)
        L_start, L_end = (1.0, 1.3), (1.5, 0.9)
        beta = tuple(_beta_at(model, L, x) for L, x in zip(L_start, (x_a, x_b)))
        assert tuple(gibbs_state(model, b, L).x for b, L in zip(beta, L_start)) == (x_a, x_b)
        pair = _adiabatic_pair(model, beta, L_start, L_end)
        assert pair == tuple(
            adiabatic_segment(model, b, L0, L1) for b, L0, L1 in zip(beta, L_start, L_end)
        )
