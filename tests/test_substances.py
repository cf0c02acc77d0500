"""Substance state functions against closed forms and direct-sum oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcycle import reference, substances
from qcycle.cycles import build_brayton, build_carnot, build_otto, run_cycle
from qcycle.errors import ConvergenceError, DomainError
from qcycle.numerics import NumericsPolicy, derivative_centered
from qcycle.reference import (
    energy_level,
    entropy_closed,
    force_equilibrium_closed,
    gibbs_sums,
    internal_energy_closed,
    level_energies,
)
from qcycle.substances import (
    SpectrumModel,
    box,
    beta_for_force,
    cavity_mode,
    entropy,
    equilibrium_force,
    force,
    free_energy,
    gibbs_state,
    harmonic,
    internal_energy,
    regime_parameter,
    spin_half,
    vacuum_force,
)

ALL_1D = (box(1), cavity_mode(), harmonic(1), spin_half())


def flattened_direct(model, beta, L):
    """Brute-force (ln Z, U, F, S, free energy) over the flattened
    multi-index spectrum, summed until beta (E_n - E_0) exceeds 40."""
    count = 64
    while True:
        e = level_energies(model, L, count)
        if beta * (e[-1] - e[0]) > 40.0:
            break
        count *= 2
    w = np.exp(-beta * (e - e[0]))
    z_shift = float(w.sum())
    p = w / z_shift
    log_z = math.log(z_shift) - beta * float(e[0])
    u = float(p @ e)
    f = float(p @ (model.scaling_power * e / L))  # -sum_n P_n dE_n/dL
    s = -float(p[p > 0.0] @ np.log(p[p > 0.0]))
    return log_z, u, f, s, -log_z / beta


class TestSpectrum:
    def test_box1d_level(self):
        assert energy_level(box(1), 1, math.pi) == pytest.approx(0.5, rel=1e-15)

    def test_cavity_level(self):
        assert energy_level(cavity_mode(), 0, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_spin_levels(self):
        assert energy_level(spin_half(), 0, 1.0) == -0.5
        assert energy_level(spin_half(), 1, 1.0) == 0.5

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            energy_level(box(1), 0, 1.0)
        with pytest.raises(ValueError):
            energy_level(spin_half(), 2, 1.0)
        with pytest.raises(ValueError):
            energy_level(cavity_mode(), -1, 1.0)

    def test_nonpositive_coordinate(self):
        with pytest.raises(ValueError):
            energy_level(box(1), 1, 0.0)

    def test_box2d_flattened_enumeration(self):
        # sums of two squares over n_i >= 1, sorted with multiplicity
        unit = math.pi**2 / 2.0
        values = level_energies(box(2), 1.0, 11) / unit
        assert values == pytest.approx([2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18])

    def test_box3d_ground(self):
        assert box(3).ground_energy(1.0) == pytest.approx(3.0 * math.pi**2 / 2.0)

    @pytest.mark.parametrize("kind", substances.KINDS)
    def test_ground_energy_is_lowest_enumerated_level(self, kind):
        model = SpectrumModel(kind=kind, mass=0.7, mode_constant=1.4)
        for L in (0.3, 1.0, 7.5):
            assert model.ground_energy(L) == level_energies(model, L, 1)[0]

    def test_harmonic_shell_degeneracy(self):
        # 2D shells have degeneracy N+1, 3D shells (N+1)(N+2)/2
        two = level_energies(harmonic(2), 1.0, 6)
        assert two == pytest.approx([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        three = level_energies(harmonic(3), 1.0, 10)
        assert three == pytest.approx([1.5] + [2.5] * 3 + [3.5] * 6)

    def test_gamma_table(self):
        expected = {
            "box1d": 3.0,
            "box2d": 2.0,
            "box3d": 5.0 / 3.0,
            "harmonic1d": 2.0,
            "harmonic2d": 1.5,
            "harmonic3d": 4.0 / 3.0,
            "cavity": 2.0,
            "spin_half": 2.0,
        }
        models = [box(1), box(2), box(3), harmonic(1), harmonic(2), harmonic(3),
                  cavity_mode(), spin_half()]
        for model in models:
            assert model.gamma == pytest.approx(expected[model.kind], rel=1e-15)

    def test_axis_keeps_parameters(self):
        assert box(3, mass=0.7).axis == box(1, mass=0.7)
        assert harmonic(2, mode_constant=1.4).axis == harmonic(1, mode_constant=1.4)
        for model in ALL_1D:
            assert model.axis is model

    def test_model_validation(self):
        with pytest.raises(ValueError):
            box(4)
        with pytest.raises(ValueError):
            box(1, mass=-1.0)
        with pytest.raises(ValueError):
            harmonic(1, mode_constant=0.0)


# g_n of each 1D kind (E_n = E_0 + Delta g_n), and its first index
_GAPS = {
    "box1d": (lambda n: n * n - 1, 1),
    "cavity": (lambda n: n, 0),
    "harmonic1d": (lambda n: n, 0),
}


def mp_kernel(kind, x):
    """(ln z, <g>, Var g) of z = sum_n exp(-x g_n), by mpmath level sums.

    The sums run over the excited levels (g > 0), so that ln z = log1p(...)
    keeps its digits when they are nearly empty.  Above x = 0.05 they are
    direct sums up to x g = 120; below, where the terms decay slowly, they
    run by Euler-Maclaurin summation.
    """
    with mp.workdps(40):
        x = mp.mpf(x)
        if kind == "spin_half":
            sums = [mp.exp(-x)] * 3
        else:
            gap, first = _GAPS[kind]

            def term(n, j):
                return gap(n) ** j * mp.exp(-x * gap(n))

            if x >= 0.05:
                levels = range(first + 1, first + 2 + int(mp.sqrt(120 / x) if kind == "box1d" else 120 / x))
                sums = [mp.fsum(term(n, j) for n in levels) for j in range(3)]
            else:
                sums = [mp.nsum(lambda n, j=j: term(n, j), [first + 1, mp.inf], method="e")
                        for j in range(3)]
        excited, s1, s2 = sums
        z = 1 + excited
        mean = s1 / z
        return float(mp.log1p(excited)), float(mean), float(s2 / z - mean * mean)


KERNEL_KINDS = ("box1d", "cavity", "harmonic1d", "spin_half")


class TestKernel:
    """The exact per-axis kernel against mpmath level sums."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize(
        "x", (1e-9, 1e-5, 0.05, 0.3, 0.69, 0.7, 0.999, 1.0, 1.7, 5.0, 50.0)
    )
    def test_matches_mpmath_sums(self, kind, x):
        got = substances._kernel(kind, x)
        for value, reference in zip(got, mp_kernel(kind, x)):
            assert value == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_one_mixed_array(self, kind):
        # one call on an array straddling x = 1, with both extremes in it;
        # at x = 1e-30, where nsum fails, the leading asymptotics are exact
        # to rounding
        xs = np.array([5.0, 1e-30, 0.999, 1.0, 1e-9, 700.0, 0.3, 1.7, 0.05, 50.0, 0.69, 0.7])
        got = np.array(substances._kernel(kind, xs))
        assert got.shape == (3, xs.size) and np.isfinite(got).all()
        tiny = {
            "box1d": (math.log(math.sqrt(math.pi / 1e-30) / 2.0), 0.5e30, 0.5e60),
            "cavity": (-math.log(1e-30), 1e30, 1e60),
            "harmonic1d": (-math.log(1e-30), 1e30, 1e60),
            "spin_half": (math.log(2.0), 0.5, 0.25),
        }[kind]
        for column, x in zip(got.T, xs):
            reference = tiny if x == 1e-30 else mp_kernel(kind, x)
            for value, expected in zip(column, reference):
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("x", (1e-30, 700.0))
    def test_finite_at_extremes(self, kind, x):
        assert all(math.isfinite(v) for v in substances._kernel(kind, x))

    @pytest.mark.parametrize("model", ALL_1D, ids=lambda m: m.kind)
    @pytest.mark.parametrize("x", (1e-3, 0.1, 0.7, 1.0, 2.0, 10.0))
    def test_lazy_vector_matches_kernel(self, model, x):
        # the summed level vector, cut where the omitted weight is below
        # 1e-16 of z, against the state functions that read only the kernel
        L = 1.3
        beta = x / regime_parameter(model, 1.0, L)
        state = gibbs_state(model, beta, L)
        sums = gibbs_sums(model, beta, L)
        p = sums.probabilities
        # the vector's own sum of Boltzmann factors is z
        assert abs(sums.log_z - state.moments[0]) <= 1e-13
        energies = sums.energies
        scale = abs(state.ground) + state.gap * state.moments[1]
        assert abs(float(p @ energies) - internal_energy(state, model)) <= 1e-13 * scale
        shannon = -float(p[p > 0.0] @ np.log(p[p > 0.0]))
        assert shannon == pytest.approx(entropy(state), rel=1e-13, abs=1e-13)

    def test_no_run_path_builds_a_vector(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a probability vector was built")

        monkeypatch.setattr(reference, "_axis_weights", refuse)
        report = run_cycle(build_brayton(box(1), 10.0, 1.25, 100.0, 200.0))
        assert abs(report.eta_numeric - report.eta_closed) <= 1e-12

    def test_no_run_path_enumerates_multi_indices(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the flattened multi-index spectrum was enumerated")

        monkeypatch.setattr(reference, "_flattened_sums", refuse)
        carnot = run_cycle(build_carnot(box(2), 10.0, 5.0, 100.0, 200.0), samples_per_segment=8)
        otto = run_cycle(build_otto(box(3), 1.0, 2.0, 0.3, 2.0), samples_per_segment=8)
        assert abs(carnot.eta_numeric - 0.5) <= 1e-8
        assert abs(otto.eta_numeric - otto.eta_closed) <= 1e-8


def test_box1d_kernel_from_the_series_switch_to_x_1():
    # on [0.5, 1) the direct series holds all three moments to 1e-15 of
    # 50-digit level sums; the theta form, taken below 0.5, would lose about
    # three bits of <g> = -1 - f b/x there to the -1
    xs = np.geomspace(0.5, 1.0, 41)[:-1]
    got = np.array(substances._kernel("box1d", xs))
    with mp.workdps(50):
        for column, x in zip(got.T, xs):
            x = mp.mpf(float(x))
            sums = [mp.fsum((n * n - 1) ** j * mp.exp(-x * (n * n - 1)) for n in range(2, 40))
                    for j in range(3)]
            z = 1 + sums[0]
            mean = sums[1] / z
            reference = (mp.log1p(sums[0]), mean, sums[2] / z - mean * mean)
            for value, expected in zip(column, reference):
                assert abs(value / float(expected) - 1.0) <= 1e-15


def test_box1d_series_rounds_alike_at_every_shape():
    # one x gives the same bits alone, as a one-element array and inside a
    # (k, n) batch: the series adds its nine terms in one order at every shape
    xs = np.geomspace(0.5, 60.0, 64)
    batch = [m.ravel() for m in substances._kernel("box1d", xs.reshape(4, 16))]
    for i, x in enumerate(xs):
        expected = [m[i] for m in batch]
        assert [float(m) for m in substances._kernel("box1d", x)] == expected
        assert [m.item() for m in substances._kernel("box1d", xs[i:i + 1])] == expected


def _box1d_theta_three_terms(x):
    """The theta form as it stood with three terms, k = 1, 2, 3, in each of
    theta's sums."""
    y = np.multiply.outer(math.pi**2 / x, np.array([1.0, 4.0, 9.0]))
    e = np.exp(-y)
    ye = y * e
    theta = 1.0 + 2.0 * e.sum(axis=-1)
    d1 = 2.0 * ye.sum(axis=-1) / theta
    d2 = 2.0 * ((y - 2.0) * ye).sum(axis=-1) / theta
    a = np.sqrt(np.pi / x) * theta
    b = d1 - 0.5
    f = a / (a - 1.0)
    mean = -1.0 - f * b / x
    var = f * (0.5 + d2 - d1 * d1 - b * b / (a - 1.0)) / (x * x)
    return x + np.log(0.5 * (a - 1.0)), mean, var


def _same_bits(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_box1d_theta_keeps_one_term_exactly():
    # below x = 0.5 the k >= 2 terms are under half an ulp of the k = 1
    # term, so the one-term theta gives the three-term moments bit for bit:
    # on a log grid over [1e-30, 0.5), on the 1000 floats just below 0.5,
    # and on arrays of 1 to 9 elements
    grid = np.geomspace(1e-30, 0.5, 100_001)[:-1]
    top = 0.5 - np.arange(1000, 0, -1) * 2.0**-54
    for xs in (grid, top):
        assert _same_bits(substances._box1d_theta(xs), _box1d_theta_three_terms(xs))
    for size in range(1, 10):
        for start in range(0, grid.size - size, 4999):
            xs = grid[start:start + size]
            assert _same_bits(substances._box1d_theta(xs), _box1d_theta_three_terms(xs))


class TestPartitionFunction:
    def test_cavity_closed_geometric(self):
        z = math.exp(gibbs_state(cavity_mode(), math.log(2.0), 1.0).log_partition)
        assert z == pytest.approx(math.sqrt(2.0), rel=1e-14)
        sums = gibbs_sums(cavity_mode(), math.log(2.0), 1.0)
        assert math.exp(sums.log_partition) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert sums.tail_bound <= 1e-16

    def test_spin_high_temperature_limit(self):
        z = math.exp(gibbs_state(spin_half(), 1e-9, 1.0).log_partition)
        assert z == pytest.approx(2.0, rel=1e-9)
        sums = gibbs_sums(spin_half(), 1e-9, 1.0)
        assert math.exp(sums.log_partition) == pytest.approx(2.0, rel=1e-9)
        assert sums.probabilities.size == 2

    def test_box_against_direct_sum_oracle(self):
        z = math.exp(gibbs_state(box(1), 1.0, 1.0).log_partition)
        oracle = math.exp(gibbs_sums(box(1), 1.0, 1.0).log_partition)
        assert abs(z - oracle) <= 1e-12 * oracle

    def test_box_theta_duality_identity(self):
        # Z = (1/2) sqrt(pi/c) theta_dual - 1/2 with the dual-series factor
        # theta_dual = 1 + 2 sum_k exp(-pi^2 k^2 / c); the bare classical
        # form (theta_dual -> 1) holds only as c -> 0.
        z = math.exp(gibbs_state(box(1), 1.0, 1.0).log_partition)
        c = math.pi**2 / 2.0
        dual = 1.0 + 2.0 * sum(math.exp(-math.pi**2 * k * k / c) for k in range(1, 6))
        closed = 0.5 * math.sqrt(math.pi / c) * dual - 0.5
        assert abs(z - closed) <= 1e-12

    def test_separable_product_box2d(self):
        z2 = math.exp(gibbs_state(box(2), 0.7, 1.3).log_partition)
        z1 = math.exp(gibbs_sums(box(1), 0.7, 1.3).log_partition)
        assert z2 == pytest.approx(z1 * z1, rel=1e-11)

    def test_separable_product_harmonic3d(self):
        z3 = math.exp(gibbs_state(harmonic(3), 0.9, 1.1).log_partition)
        z1 = math.exp(gibbs_sums(harmonic(1), 0.9, 1.1).log_partition)
        assert z3 == pytest.approx(z1**3, rel=1e-11)

    def test_level_cap_error(self):
        # at x = 1e-7 the cavity vector needs about 4e8 levels to cut its
        # tail below 1e-16 of z, past the 1e7 cap; nothing is allocated
        with pytest.raises(ConvergenceError, match="level cap"):
            gibbs_sums(cavity_mode(), 1e-7, 1.0)

    def test_invalid_arguments(self):
        for route in (gibbs_state, gibbs_sums):
            with pytest.raises(ValueError):
                route(box(1), -1.0, 1.0)
            with pytest.raises(ValueError):
                route(box(1), 1.0, 0.0)


MULTID = (box(2, mass=0.7), box(3, mass=0.7), harmonic(2, 1.4), harmonic(3, 1.4))


class TestMultidimensionalOracle:
    """The per-axis product state against direct sums over the flattened
    multi-index spectrum, which no state function sums."""

    @pytest.mark.parametrize("model", MULTID, ids=lambda m: m.kind)
    @pytest.mark.parametrize("x", (0.3, 1.0, 3.0))
    def test_state_functions_match_flattened_sums(self, model, x):
        L = 1.3
        beta = x / regime_parameter(model.axis, 1.0, L)  # per axis
        state = gibbs_state(model, beta, L)
        log_z, u, f, s, a = flattened_direct(model, beta, L)
        assert state.axes == model.dimension
        assert state.log_partition == pytest.approx(log_z, rel=1e-11)
        assert internal_energy(state, model) == pytest.approx(u, rel=1e-11)
        assert force(state, model) == pytest.approx(f, rel=1e-11)
        assert entropy(state) == pytest.approx(s, rel=1e-11)
        assert free_energy(model, beta, L) == pytest.approx(a, rel=1e-11)

    @pytest.mark.parametrize(
        "model, x",
        [
            (harmonic(3), 0.05),
            (harmonic(3), 1e-3),
            (harmonic(2), 1e-3),
            (box(3), 1e-3),
            (box(2), 1e-6),
            (box(2), 1e-7),
        ],
        ids=lambda v: getattr(v, "kind", repr(v)),
    )
    def test_former_level_cap_points_evaluate(self, model, x):
        # x is the regime parameter: beta*omega for the oscillators, beta
        # times the ground energy for the boxes.  The flattened multi-index
        # sum reached level_cap = 1e7 at each of these points.
        L = 1.0
        beta = x / regime_parameter(model, 1.0, L)
        state = gibbs_state(model, beta, L)
        assert gibbs_sums(model, beta, L).tail_bound <= 1e-11  # (1 + r)^d - 1, r <= 1e-12
        identity = state.log_partition + beta * internal_energy(state, model)
        assert entropy(state) == pytest.approx(identity, rel=1e-10)
        if model.kind.startswith("harmonic"):
            axis_u = internal_energy_closed(harmonic(1), beta, L)
            assert internal_energy(state, model) == pytest.approx(
                model.dimension * axis_u, rel=1e-10
            )


class TestGibbsState:
    def test_cavity_geometric_probabilities(self):
        sums = gibbs_sums(cavity_mode(), math.log(2.0), 1.0)
        expected = 0.5 ** (np.arange(8) + 1)
        assert sums.probabilities[:8] == pytest.approx(expected, rel=1e-13)

    def test_spin_ground_state_projection(self):
        sums = gibbs_sums(spin_half(), 200.0, 1.0)
        assert sums.probabilities[0] == pytest.approx(1.0, abs=1e-80)
        assert sums.probabilities[1] < 1e-80

    def test_normalization_contract(self):
        # the summed Z over the kernel's Z: the omitted tail, at most
        for model in ALL_1D + (box(2), harmonic(3)):
            state = gibbs_state(model, 0.9, 1.2)
            sums = gibbs_sums(model, 0.9, 1.2)
            total = math.exp(sums.axes * (sums.log_z - state.moments[0]))
            slack = 1e-14  # float rounding of the normalized sum
            assert 1.0 - sums.tail_bound - slack <= total <= 1.0 + slack

    def test_boltzmann_ordering(self):
        for model in ALL_1D + (box(2), harmonic(2)):
            p = gibbs_sums(model, 1.1, 0.9).probabilities
            assert np.all(np.diff(p) <= 1e-18)

    def test_probabilities_read_only(self):
        sums = gibbs_sums(cavity_mode(), 1.0, 1.0)
        with pytest.raises(ValueError):
            sums.probabilities[0] = 0.3

    def test_log_partition_stable_at_extreme_beta(self):
        state = gibbs_state(spin_half(), 4000.0, 1.0)
        assert state.log_partition == pytest.approx(2000.0, rel=1e-12)
        sums = gibbs_sums(spin_half(), 4000.0, 1.0)
        assert sums.log_partition == pytest.approx(2000.0, rel=1e-12)
        with pytest.raises(OverflowError):  # Z itself overflows
            math.exp(sums.log_partition)


class TestForce:
    def test_cavity_radiation_force(self):
        model = cavity_mode()
        state = gibbs_state(model, math.log(2.0), 1.0)
        assert force(state, model) == pytest.approx(1.5, rel=1e-11)

    def test_spin_ground_state_force(self):
        model = spin_half()
        state = gibbs_state(model, 500.0, 1.0)
        assert force(state, model) == pytest.approx(-0.5, rel=1e-13)

    def test_box_classical_equation_of_state(self):
        model = box(1)
        e1 = model.ground_energy(1.0)
        beta = 1e-6 / e1  # beta E_1 = 1e-6
        # independent oracle: the direct level sum
        f_oracle = reference.gibbs_sums(model, beta, 1.0).force
        got = equilibrium_force(model, beta, 1.0)
        assert got == pytest.approx(f_oracle, rel=1e-10)
        assert abs(got * 1.0 * beta - 1.0) <= 2e-3

    def test_non_equilibrium_vector(self):
        # inverted two-level population: force follows the occupation, not beta
        model = spin_half()
        p = np.array([0.25, 0.75])
        # E = (-1/4, +1/4), dE/dL = (1/8, -1/8); F = -(0.25/8 - 0.75/8)
        assert reference.force(model, p, 2.0) == pytest.approx(0.0625, rel=1e-15)

    def test_closed_forms(self):
        assert force_equilibrium_closed(box(1), 0.5, 2.0) == pytest.approx(1.0)
        assert force_equilibrium_closed(cavity_mode(), math.log(3.0), 1.0) == (
            pytest.approx(1.0, rel=1e-14)
        )
        # beta -> infinity leaves only the vacuum term kappa / (2 L^2)
        assert force_equilibrium_closed(cavity_mode(), 500.0, 2.0) == pytest.approx(
            1.0 / 8.0, rel=1e-13
        )
        with pytest.raises(ValueError):
            force_equilibrium_closed(box(2), 1.0, 1.0)

    def test_cavity_summed_matches_closed_to_1e12(self):
        for beta in (0.4, 1.0, 2.7):
            for L in (0.7, 1.9):
                summed = equilibrium_force(cavity_mode(), beta, L)
                closed = force_equilibrium_closed(cavity_mode(), beta, L)
                assert summed == pytest.approx(closed, rel=1e-12)

    def test_force_equals_free_energy_gradient(self):
        for model in ALL_1D + (box(2),):
            for beta, L in ((0.6, 1.0), (1.4, 2.2)):
                summed = equilibrium_force(model, beta, L)
                grad = -derivative_centered(
                    lambda x: free_energy(model, beta, x), L
                )
                assert summed == pytest.approx(grad, rel=1e-6)


class TestEquationOfStateLimit:
    def test_classical_convergence_grid(self):
        model = box(1)
        e1 = model.ground_energy(1.0)
        deviations = []
        for c in (1e-4, 1e-6, 1e-8):
            beta = c / e1
            f = equilibrium_force(model, beta, 1.0)
            dev = abs(f * beta - 1.0)
            assert dev <= 3.0 * math.sqrt(c / math.pi)
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]


class TestInternalEnergy:
    def test_cavity_mean_photon_form(self):
        model = cavity_mode()
        state = gibbs_state(model, math.log(2.0), 1.0)
        assert internal_energy(state, model) == pytest.approx(1.5, rel=1e-11)

    def test_box_equipartition_limit(self):
        model = box(1)
        beta = 1e-6 / model.ground_energy(1.0)
        state = gibbs_state(model, beta, 1.0)
        assert abs(internal_energy(state, model) * 2.0 * beta - 1.0) <= 2e-3

    def test_spin_ground_energy(self):
        model = spin_half()
        state = gibbs_state(model, 300.0, 1.0)
        assert internal_energy(state, model) == pytest.approx(-0.5, rel=1e-13)

    def test_closed_forms(self):
        assert internal_energy_closed(box(1), 2.5, 7.0) == pytest.approx(0.2)
        assert internal_energy_closed(cavity_mode(), math.log(2.0), 1.0) == (
            pytest.approx(1.5)
        )
        assert internal_energy_closed(spin_half(), 300.0, 1.0) == pytest.approx(
            -0.5, rel=1e-13
        )
        with pytest.raises(ValueError):
            internal_energy_closed(harmonic(2), 1.0, 1.0)


class TestEntropy:
    def test_pure_state_zero(self):
        state = gibbs_state(spin_half(), 2000.0, 1.0)
        assert entropy(state) == pytest.approx(0.0, abs=1e-15)

    def test_cavity_closed_form(self):
        model = cavity_mode()
        state = gibbs_state(model, math.log(2.0), 1.0)
        s = entropy(state)
        assert s == pytest.approx(2.0 * math.log(2.0), rel=1e-10)
        assert s == pytest.approx(entropy_closed(model, math.log(2.0), 1.0), rel=1e-10)

    def test_identity_with_partition_and_energy(self):
        for model in ALL_1D + (harmonic(3),):
            state = gibbs_state(model, 0.8, 1.3)
            identity = state.log_partition + 0.8 * internal_energy(state, model)
            assert entropy(state) == pytest.approx(identity, rel=1e-10)

    def test_box_classical_reference_converges(self):
        # S from Eq-of-state-consistent sums approaches the classical form
        # 1/2 + ln((1/2) sqrt(2 m L^2 / (pi beta))) as beta E_1 -> 0
        model = box(1)
        previous = math.inf
        for L in (math.sqrt(2.0 * math.pi) * 10.0**k for k in (1, 2, 3)):
            state = gibbs_state(model, 1.0, L)
            closed = entropy_closed(model, 1.0, L)
            dev = abs(entropy(state) - closed)
            c = regime_parameter(model, 1.0, L)
            assert dev <= 2.0 * math.sqrt(c / math.pi)
            assert dev < previous
            previous = dev

    def test_closed_form_at_reference_point(self):
        # at L = sqrt(2 pi), beta = 1 the classical formula gives exactly 1/2
        assert entropy_closed(box(1), 1.0, math.sqrt(2.0 * math.pi)) == (
            pytest.approx(0.5, rel=1e-14)
        )


class TestHotSpin:
    """The spin's U cancels to -(Delta/2) tanh(x/2) as x -> 0; the kernel's
    E_0 + Delta <g> would lose 1e-9 of it at x = 1e-8."""

    @pytest.mark.parametrize("x", (1e-5, 1e-8))
    def test_energy_and_forces_against_mpmath(self, x):
        model, L = spin_half(), 1.3
        beta = x * L  # Delta = 1/L
        with mp.workdps(40):
            u = -mp.tanh(mp.mpf(x) / 2) / (2 * mp.mpf(L))
            free = -mp.log(2 * mp.cosh(mp.mpf(x) / 2)) / mp.mpf(beta)
            u, force_ref, free = float(u), float(u / L), float(free)
        state = gibbs_state(model, beta, L)
        assert internal_energy(state, model) == pytest.approx(u, rel=1e-14, abs=0.0)
        assert force(state, model) == pytest.approx(force_ref, rel=1e-14, abs=0.0)
        assert free_energy(model, beta, L) == pytest.approx(free, rel=1e-14, abs=0.0)
        # the array route reads the same per-axis energy
        energy = substances.axis_states(model, np.full(3, beta), np.full(3, L)).energy
        assert energy == pytest.approx([internal_energy(state, model)] * 3, rel=1e-15)


class TestFreeEnergy:
    def test_spin_closed_form(self):
        for beta, L in ((0.5, 1.0), (2.0, 0.7)):
            closed = -math.log(2.0 * math.cosh(0.5 * beta / L)) / beta
            assert free_energy(spin_half(), beta, L) == pytest.approx(closed, rel=1e-13)

    def test_cavity_value(self):
        assert free_energy(cavity_mode(), math.log(2.0), 1.0) == pytest.approx(
            -0.5, rel=1e-13
        )

    def test_ground_state_limit(self):
        assert free_energy(box(1), 500.0, 1.0) == pytest.approx(
            box(1).ground_energy(1.0), rel=1e-12
        )


class TestMonotonicity:
    def test_z_and_u_increase_with_temperature(self):
        # positive-spectrum kinds only; the spin's Z decreases with T
        for model in (box(1), box(2), harmonic(1), harmonic(3), cavity_mode()):
            z_prev, u_prev = -math.inf, -math.inf
            for T in np.linspace(0.5, 3.0, 6):
                beta = 1.0 / float(T)
                state = gibbs_state(model, beta, 1.2)
                z = math.exp(state.log_partition)
                u = internal_energy(state, model)
                assert z > z_prev
                assert u >= u_prev
                z_prev, u_prev = z, u

    def test_spin_z_decreases_with_temperature(self):
        z_cold = math.exp(gibbs_state(spin_half(), 4.0, 1.0).log_partition)
        z_hot = math.exp(gibbs_state(spin_half(), 1.0, 1.0).log_partition)
        assert z_hot < z_cold


class TestBetaForForce:
    def test_cavity_closed_inversion(self):
        assert beta_for_force(cavity_mode(), 1.0, 1.0) == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    def test_cavity_vacuum_boundary(self):
        with pytest.raises(DomainError):
            beta_for_force(cavity_mode(), 0.5, 1.0)  # 2 F L^2 = kappa exactly

    def test_box_vacuum_floor(self):
        model = box(1)
        assert vacuum_force(model, 1.0) == pytest.approx(math.pi**2, rel=1e-15)
        with pytest.raises(DomainError):
            beta_for_force(model, math.pi**2, 1.0)

    def test_box_residual_and_classical_limit(self):
        model = box(1)
        f0, L = 10.0, 100.0
        beta = beta_for_force(model, f0, L)
        realized = equilibrium_force(model, beta, L)
        assert abs(realized - f0) <= 1e-10 * f0
        # classical inversion beta = 1/(F L) is approached from above
        c = regime_parameter(model, beta, L)
        assert abs(beta * f0 * L - 1.0) <= 2.0 * math.sqrt(c / math.pi)

    def test_box_quantum_regime_residual(self):
        model = box(1)
        beta = beta_for_force(model, 30.0, 1.0)  # above the pi^2 floor
        assert abs(equilibrium_force(model, beta, 1.0) - 30.0) <= 1e-10 * 30.0

    def test_spin_negative_force_round_trip(self):
        model = spin_half()
        target = -0.2
        beta = beta_for_force(model, target, 1.0)
        assert equilibrium_force(model, beta, 1.0) == pytest.approx(target, rel=1e-12)

    def test_spin_positive_force_unreachable(self):
        with pytest.raises(DomainError):
            beta_for_force(spin_half(), 0.1, 1.0)

    @pytest.mark.parametrize("model", [cavity_mode(), harmonic(1), spin_half()], ids=lambda m: m.kind)
    @pytest.mark.parametrize("x", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_closed_schedule_keeps_its_digits_in_the_warm_limit(self, model, x):
        # F is a float at corner x = beta Delta; its exact inverse, at 50
        # digits, is (L/kappa) ln((2 F L^2 + kappa)/(2 F L^2 - kappa)) for
        # the linear spectra and 2 L atanh(-2 F L^2) for the spin.  The log of
        # the rounded ratio, about 1 + 2x, lost eps/x: 1.1e-8 at x = 1e-8
        L = 2.0
        spin = model.kind == "spin_half"
        with mp.workdps(50):
            mL = mp.mpf(L)
            kappa = mp.mpf(1 if spin else model.mode_constant)
            F = float(_mp_energy(model, mp.mpf(x) * mL / kappa, mL) / mL)  # p = 1
            mF = mp.mpf(F)
            if spin:
                exact = 2 * mL * mp.atanh(-2 * mF * mL**2)
            else:
                exact = (mL / kappa) * mp.log((2 * mF * mL**2 + kappa) / (2 * mF * mL**2 - kappa))
            assert abs(mp.mpf(beta_for_force(model, F, L)) - exact) <= 1e-15 * exact
            betas = beta_for_force(model, np.array([F, F]), L)
            assert abs(mp.mpf(betas[1]) - exact) <= 1e-15 * exact

    def test_random_box_schedules(self):
        # targets from 1e-8 to 1e8 above the zero-temperature force
        rng = np.random.default_rng(4427)
        model = box(1)
        for _ in range(2000):
            L = float(10.0 ** rng.uniform(-2.0, 3.0))
            target = vacuum_force(model, L) * (1.0 + float(10.0 ** rng.uniform(-8.0, 8.0)))
            beta = beta_for_force(model, target, L)
            assert abs(equilibrium_force(model, beta, L) - target) <= 1e-10 * target

    def test_random_box_schedules_as_one_array(self):
        # the targets of test_random_box_schedules, solved in one call; each
        # residual by the scalar route
        rng = np.random.default_rng(4427)
        model = box(1)
        pairs = []
        for _ in range(2000):
            x = float(10.0 ** rng.uniform(-2.0, 3.0))
            pairs.append((x, vacuum_force(model, x) * (1.0 + float(10.0 ** rng.uniform(-8.0, 8.0)))))
        L, targets = np.array(pairs).T
        betas = beta_for_force(model, targets, L)
        assert betas.shape == L.shape
        for beta, target, x in zip(betas.tolist(), targets.tolist(), L.tolist()):
            assert abs(equilibrium_force(model, beta, x) - target) <= 1e-10 * target

    def test_array_solve_keeps_its_errors(self):
        model = box(1)
        L = np.array([1.0, 1.2, 1.5])
        with pytest.raises(DomainError):
            beta_for_force(model, math.pi**2, L)  # the vacuum force at L = 1
        # x = 1 at L = 1, where the Newton seed is off by 0.6 %: one
        # iteration cannot solve it, and the default cap does
        target = equilibrium_force(model, 2.0 / math.pi**2, 1.0)
        with pytest.raises(ConvergenceError):
            beta_for_force(model, target, L, NumericsPolicy(root_max_iter=1))
        beta = beta_for_force(model, target, L)
        assert beta[0] == pytest.approx(2.0 / math.pi**2, rel=1e-14)

    def test_box2d_generic_root_solve(self):
        model = box(2)
        target = vacuum_force(model, 1.0) * 3.0
        beta = beta_for_force(model, target, 1.0)
        assert abs(equilibrium_force(model, beta, 1.0) - target) <= 1e-10 * target


class TestBox1dNewtonSeed:
    """The closed-form seed of box1d's Newton solve for x at a given <g>."""

    @staticmethod
    def mean_at(x):
        return substances._kernel("box1d", np.asarray(x, dtype=float))[1]

    def test_kernel_evaluations_per_solve(self, monkeypatch):
        calls = []
        kernel = substances._kernel

        def counted(kind, x):
            calls.append(kind)
            return kernel(kind, x)

        xs = np.geomspace(1e-9, 230.0, 241)
        targets = self.mean_at(xs)
        counts = []
        monkeypatch.setattr(substances, "_kernel", counted)
        for target in targets:
            calls.clear()
            substances._box1d_x_for_mean(np.array([target]), NumericsPolicy())
            counts.append(len(calls))
        counts = np.array(counts)
        assert (counts[xs < 0.1] == 1).all()
        assert (counts[(xs >= 0.1) & (xs < 0.5)] <= 2).all()
        assert counts.max() <= 4

    # up to <g> = 1e150: above about 5e153, x falls below 1e-154, where
    # Var(g) ~ 1/(2 x^2) overflows float64 and the kernel warns
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=math.log(1e-300), max_value=math.log(1e150)))
    def test_newton_solves_any_target_in_four_evaluations(self, log_target):
        target = np.array([math.exp(log_target)])
        calls = []
        kernel = substances._kernel

        def counted(kind, x):
            calls.append(kind)
            return kernel(kind, x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(substances, "_kernel", counted)
            x = substances._box1d_x_for_mean(target, NumericsPolicy())
        assert len(calls) <= 4
        assert abs(self.mean_at(x)[0] / target[0] - 1.0) <= 1e-12

    def test_round_trip_through_the_kernel(self):
        # 50,000 points, so that the band above the kernel's switch at
        # x = 0.5 is sampled densely
        xs = np.geomspace(1e-12, 230.0, 50_000)
        solved = substances._box1d_x_for_mean(self.mean_at(xs), NumericsPolicy())
        assert np.abs(solved / xs - 1.0).max() <= 1e-15

    @pytest.mark.parametrize(
        "target",
        [
            1e12,
            1e-300,
            substances._SEED_SWITCH,
            np.nextafter(substances._SEED_SWITCH, 0.0),
            np.nextafter(substances._SEED_SWITCH, 1.0),
        ],
        ids=["hot", "cold", "switch", "below-switch", "above-switch"],
    )
    def test_seed_is_finite_and_brackets_the_root(self, target):
        target = np.array([target])
        seed = substances._box1d_x_seed(target)
        root = substances._box1d_x_for_mean(target, NumericsPolicy())
        assert np.isfinite(seed).all()
        # the root lies between x = 0.99 and 1.01 times the seed's: the
        # switch, at x = 1, is where either seed is worst (0.6 %)
        below, above = self.mean_at(0.99 * np.exp(seed)), self.mean_at(1.01 * np.exp(seed))
        assert below > target > above
        assert abs(np.log(root) - seed) <= 0.01

    def test_mixed_array_across_the_switch_does_not_warn(self):
        switch = substances._SEED_SWITCH
        targets = np.array([1e12, 5.0, 3.0, 1.0, np.nextafter(switch, 1.0), switch,
                            np.nextafter(switch, 0.0), 0.01, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = substances._box1d_x_seed(targets)
            solved = substances._box1d_x_for_mean(targets, NumericsPolicy())
        assert np.isfinite(seed).all()
        alone = [substances._box1d_x_for_mean(t, NumericsPolicy()) for t in targets[:, None]]
        assert np.abs(solved / np.concatenate(alone) - 1.0).max() <= 1e-15


def _mp_energy(model, beta, L):
    """U at (beta, L) of a linear spectrum or the spin, in mpmath: the Bose
    form (omega/2) coth(beta omega / 2), or -(1/2L) tanh(beta / 2L)."""
    if model.kind == "spin_half":
        return -mp.tanh(beta / (2 * L)) / (2 * L)
    omega = mp.mpf(model.mode_constant) / L
    return omega / 2 * mp.coth(beta * omega / 2)
