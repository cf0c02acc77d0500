"""Property-based invariants over randomized substances and paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcycle import cycles
from qcycle.processes import (
    adiabatic_advance,
    isothermal_segment,
    reverse_segment,
    segment_heat_work,
)
from qcycle.reference import gibbs_sums
from qcycle.substances import (
    KINDS,
    SpectrumModel,
    box,
    cavity_mode,
    entropy,
    gibbs_state,
    harmonic,
    internal_energy,
    spin_half,
)
from qcycle.cycles import CYCLE_BUILDERS, CYCLE_KINDS, closed_form_efficiency

MODELS = st.sampled_from([box(1), cavity_mode(), harmonic(1), spin_half()])
BETAS = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
LENGTHS = st.floats(min_value=0.5, max_value=3.0, allow_nan=False)


def assert_same_occupations(a, b):
    """Two summed occupation vectors agree to 1e-14, the shorter padded with
    zeros: x may differ in its last bit, and with it the level count."""
    n = max(a.size, b.size)
    a, b = np.pad(a, (0, n - a.size)), np.pad(b, (0, n - b.size))
    assert np.abs(a - b).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(model=MODELS, beta=BETAS, L=LENGTHS)
def test_normalization(model, beta, L):
    # the summed z over the kernel's z: the omitted tail, at most
    state = gibbs_state(model, beta, L)
    sums = gibbs_sums(model, beta, L)
    total = math.exp(sums.log_z - state.moments[0])
    assert 1.0 - sums.tail_bound - 1e-14 <= total <= 1.0 + 1e-14


@settings(max_examples=40, deadline=None)
@given(model=MODELS, beta=BETAS, L=LENGTHS)
def test_entropy_identity(model, beta, L):
    state = gibbs_state(model, beta, L)
    identity = state.log_partition + beta * internal_energy(state, model)
    assert entropy(state) == pytest.approx(identity, rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(model=MODELS, beta=BETAS, L=LENGTHS, L_to=LENGTHS)
def test_adiabat_preserves_entropy_and_occupations(model, beta, L, L_to):
    start = gibbs_state(model, beta, L)
    moved = adiabatic_advance(model, start, L_to)
    assert moved.x == start.x and moved.moments == start.moments
    assert_same_occupations(
        gibbs_sums(model, start.beta, start.length).probabilities,
        gibbs_sums(model, moved.beta, moved.length).probabilities,
    )
    fresh = gibbs_state(model, moved.beta, moved.length)
    assert abs(entropy(fresh) - entropy(start)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from([cavity_mode(), spin_half()]),
    beta=BETAS,
    L0=LENGTHS,
    L1=LENGTHS,
)
# a one-ulp segment: the heat cross-check integrand there is pure rounding noise
@example(model=cavity_mode(), beta=1.0, L0=0.5, L1=0.5000000000000001)
# the truncation count of the Gibbs sum changes from 18 to 17 levels mid-path
@example(
    model=cavity_mode(),
    beta=3.960234986110861,
    L0=2.4501189975494793,
    L1=2.1735844956700165,
)
def test_isothermal_reversal_antisymmetry(model, beta, L0, L1):
    seg = isothermal_segment(model, beta, L0, L1)
    fwd = segment_heat_work(seg, samples_per_segment=4)
    bwd = segment_heat_work(reverse_segment(seg), samples_per_segment=4)
    scale = max(abs(fwd.Q), abs(fwd.W_on), 1e-12)
    assert abs(fwd.Q + bwd.Q) <= 1e-8 * scale
    assert abs(fwd.W_on + bwd.W_on) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from([box(1), cavity_mode(), harmonic(1)]),
    t_lo=st.floats(min_value=0.3, max_value=2.0),
    ratio=st.floats(min_value=1.05, max_value=3.0),
    L=LENGTHS,
)
def test_partition_and_energy_monotone_in_temperature(model, t_lo, ratio, L):
    # positive-spectrum kinds: Z strictly increases and U does not decrease
    cold = gibbs_state(model, 1.0 / t_lo, L)
    hot = gibbs_state(model, 1.0 / (t_lo * ratio), L)
    assert hot.log_partition > cold.log_partition
    assert internal_energy(hot, model) >= internal_energy(cold, model)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    ratio=st.floats(min_value=0.05, max_value=0.95),
    gamma=st.sampled_from([1.5, 2.0, 3.0, 5.0 / 3.0]),
)
def test_closed_form_depends_only_on_ratios(scale, ratio, gamma):
    direct = closed_form_efficiency("brayton", gamma, {"force_ratio": ratio})
    f1 = scale
    f0 = ratio * scale
    rescaled = closed_form_efficiency("brayton", gamma, {"force_ratio": f0 / f1})
    assert rescaled == pytest.approx(direct, rel=1e-12)
    assert 0.0 < direct < 1.0


@settings(max_examples=30, deadline=None)
@given(beta=BETAS, L=LENGTHS)
def test_spin_force_negative_and_bounded(beta, L):
    from qcycle.substances import equilibrium_force

    f = equilibrium_force(spin_half(), beta, L)
    assert -0.5 / (L * L) < f < 0.0


@settings(max_examples=30, deadline=None)
@given(beta=BETAS, L=LENGTHS)
def test_cavity_force_above_vacuum(beta, L):
    from qcycle.substances import equilibrium_force, vacuum_force

    model = cavity_mode()
    assert equilibrium_force(model, beta, L) > vacuum_force(model, L)


@settings(max_examples=30, deadline=None)
@given(model=MODELS, beta=BETAS, L=LENGTHS)
def test_boltzmann_ordering(model, beta, L):
    p = gibbs_sums(model, beta, L).probabilities
    assert np.all(np.diff(p) <= 1e-18)


# a cycle parameter log-uniform over almost every decade a float holds,
# and a Diesel ratio in (0, 1)
HUGE_RANGE = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(CYCLE_KINDS),
    substance=st.sampled_from(KINDS),
    values=st.tuples(HUGE_RANGE, HUGE_RANGE, HUGE_RANGE, HUGE_RANGE),
    ratios=st.tuples(OPEN_UNIT, OPEN_UNIT),
)
# an engine whose (L1/L0)^2 raises OverflowError at corner C
@example(kind="otto", substance="box1d", values=(1.0, 1e160, 1e-300, 1e300), ratios=(0.5, 0.5))
def test_a_build_refuses_or_holds_only_floats_it_can_run(kind, substance, values, ratios):
    name, fields = CYCLE_BUILDERS[kind]
    # a Diesel's last two parameters are r_C and r_E
    params = dict(zip(fields, values[:2] + ratios if kind == "diesel" else values))
    builder = getattr(cycles, name)
    try:
        spec = builder(SpectrumModel(kind=substance), **params)
    except ValueError:
        return
    L, beta, _ = spec.corners
    assert all(0.0 < value < math.inf for value in L + (beta or ()))
    assert 0.0 <= spec.eta_closed <= 1.0
    twin = builder(SpectrumModel(kind=substance), **params)
    assert twin == spec and hash(twin) == hash(spec)
