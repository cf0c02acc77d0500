"""Quasi-static process segments and first-law heat/work integration.

A segment is one leg of a cycle: isothermal, isochoric, isobaric or
adiabatic.  The path is parameterized linearly in the free variable over
t in [0, 1] (L for all kinds except isochoric, which is linear in beta);
the conserved quantity of each kind is recorded and can be checked at any
sample.  Work on the system is the quadrature of dW = sum_n P_n dE_n along
the path, heat is the exact first-law complement Q = dU - W, and an
independent finite-difference quadrature of dQ = sum_n E_n dP_n is carried
as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import DEFAULT_POLICY, NumericsPolicy, integrate_adaptive, integrate_gauss
from .substances import (
    GibbsState,
    SpectrumModel,
    beta_for_force,
    entropy,
    equilibrium_force,
    force,
    gibbs_state,
    internal_energy,
    state_energies,
)

SEGMENT_KINDS = ("isothermal", "isochoric", "isobaric", "adiabatic")


@dataclass(frozen=True)
class ProcessSegment:
    """One quasi-static path with its endpoints and conserved quantity.

    held names the conserved quantity ("T", "L", "F" or "S") and held_value
    records its value for drift verification along the realized path.
    """

    kind: str
    model: SpectrumModel
    beta_start: float
    L_start: float
    beta_end: float
    L_end: float
    held: str
    held_value: float

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        for name in ("beta_start", "beta_end", "L_start", "L_end"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PathSample:
    """State snapshot at path parameter t, with cumulative heat and work."""

    t: float
    L: float
    beta: float
    T: float
    F: float
    U: float
    S: float
    Q_cum: float
    W_cum: float


@dataclass(frozen=True)
class SegmentResult:
    """Integrated heat and work of one segment.

    Q is the first-law bookkeeping value delta_U - W_on; Q_direct is the
    independent quadrature of sum_n E_n dP_n and must agree with Q within
    quadrature tolerance, or within the finite-difference rounding noise
    where the heat is smaller than that.  W_on is work done ON the system
    (positive compressing a positive-force substance); W_by = -W_on.
    """

    segment: ProcessSegment
    Q: float
    W_on: float
    delta_U: float
    Q_direct: float
    samples: tuple[PathSample, ...]

    @property
    def W_by(self) -> float:
        return -self.W_on


def isobaric_schedule(
    model: SpectrumModel,
    force_target: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Bath schedule beta(L) that holds the equilibrium force constant.

    Closed inversions where they are exact: the cavity/1D-oscillator
    beta = (L/kappa) ln((2 F L^2 + kappa)/(2 F L^2 - kappa)), defined only
    above the vacuum force kappa/(2 L^2), and the spin's atanh form for
    negative targets.  Box kinds invert the summed force by a bracketed
    root solve seeded with the classical beta = 1/(F L).  In every case
    the residual satisfies |F(beta, L) - F0| <= 1e-10 |F0|.
    """
    return beta_for_force(model, force_target, L, policy)


def adiabatic_advance(
    model: SpectrumModel, state: GibbsState, L_to: float
) -> GibbsState:
    """Quantum adiabatic transport of a state to a new coordinate.

    All level spacings of the supported spectra scale by the common factor
    (L/L_to)^p, so the occupation probabilities stay frozen and beta
    rescales by (L_to/L)^p, keeping every beta * E_n invariant.  The
    probability vector of the returned state is the same array; entropy and
    the partition value are exactly conserved.
    """
    if L_to <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L_to}")
    ratio = (L_to / state.length) ** model.scaling_power
    return GibbsState(
        beta=state.beta * ratio,
        length=L_to,
        probabilities=state.probabilities,
        partition_value=state.partition_value,
        log_partition=state.log_partition,
        truncation_error_bound=state.truncation_error_bound,
        axes=state.axes,
    )


def isothermal_segment(
    model: SpectrumModel, beta: float, L_start: float, L_end: float
) -> ProcessSegment:
    return ProcessSegment(
        kind="isothermal",
        model=model,
        beta_start=beta,
        L_start=L_start,
        beta_end=beta,
        L_end=L_end,
        held="T",
        held_value=1.0 / beta,
    )


def isochoric_segment(
    model: SpectrumModel, L: float, beta_start: float, beta_end: float
) -> ProcessSegment:
    return ProcessSegment(
        kind="isochoric",
        model=model,
        beta_start=beta_start,
        L_start=L,
        beta_end=beta_end,
        L_end=L,
        held="L",
        held_value=L,
    )


def isobaric_segment(
    model: SpectrumModel,
    force_held: float,
    L_start: float,
    L_end: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> ProcessSegment:
    beta_start = isobaric_schedule(model, force_held, L_start, policy)
    beta_end = isobaric_schedule(model, force_held, L_end, policy)
    return ProcessSegment(
        kind="isobaric",
        model=model,
        beta_start=beta_start,
        L_start=L_start,
        beta_end=beta_end,
        L_end=L_end,
        held="F",
        held_value=force_held,
    )


def adiabatic_segment(
    model: SpectrumModel,
    beta_start: float,
    L_start: float,
    L_end: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> ProcessSegment:
    start = gibbs_state(model, beta_start, L_start, policy)
    beta_end = beta_start * (L_end / L_start) ** model.scaling_power
    return ProcessSegment(
        kind="adiabatic",
        model=model,
        beta_start=beta_start,
        L_start=L_start,
        beta_end=beta_end,
        L_end=L_end,
        held="S",
        held_value=entropy(start),
    )


def build_segment(
    kind: str,
    model: SpectrumModel,
    start: tuple[float, float],
    endpoint: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> ProcessSegment:
    """Generic constructor: start is (beta, L); endpoint is the free
    variable's end value (L for all kinds except isochoric, where it is
    beta).  An isobaric segment holds the equilibrium force of the start
    state."""
    beta, L = start
    if kind == "isothermal":
        return isothermal_segment(model, beta, L, endpoint)
    if kind == "isochoric":
        return isochoric_segment(model, L, beta, endpoint)
    if kind == "isobaric":
        held = equilibrium_force(model, beta, L, policy)
        return isobaric_segment(model, held, L, endpoint, policy)
    if kind == "adiabatic":
        return adiabatic_segment(model, beta, L, endpoint, policy)
    raise ValueError(f"unknown segment kind {kind!r}")


def reverse_segment(segment: ProcessSegment) -> ProcessSegment:
    """The same path run end to start; Q and W change sign."""
    return ProcessSegment(
        kind=segment.kind,
        model=segment.model,
        beta_start=segment.beta_end,
        L_start=segment.L_end,
        beta_end=segment.beta_start,
        L_end=segment.L_start,
        held=segment.held,
        held_value=segment.held_value,
    )


def segment_point(
    segment: ProcessSegment, t: float, policy: NumericsPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """(beta, L) at path parameter t; linear in the free variable."""
    kind = segment.kind
    if kind == "isochoric":
        beta = segment.beta_start + t * (segment.beta_end - segment.beta_start)
        return beta, segment.L_start
    L = segment.L_start + t * (segment.L_end - segment.L_start)
    if kind == "isothermal":
        return segment.beta_start, L
    if kind == "adiabatic":
        power = segment.model.scaling_power
        return segment.beta_start * (L / segment.L_start) ** power, L
    return isobaric_schedule(segment.model, segment.held_value, L, policy), L


def segment_heat_work(
    segment: ProcessSegment,
    policy: NumericsPolicy = DEFAULT_POLICY,
    samples_per_segment: int = 64,
    with_cross_check: bool = True,
) -> SegmentResult:
    """Integrate heat and work along a segment.

    W_on = -int F dL by adaptive quadrature accumulated over the sample
    grid (identically zero for isochoric legs, exactly delta_U for
    adiabatic legs, whose probabilities are frozen and Q = 0).  Q is
    reported from the exact bookkeeping delta_U - W_on; Q_direct
    rediscretizes the heat as the quadrature of sum_n (E_n - E_0) dP_n/dt
    (per axis, times d for the multi-dimensional kinds) with second-order
    differences of the occupation vector that stay inside the segment.  Its
    budget never drops below the rounding noise of those differences, so a
    segment of a few ulp in L returns instead of exhausting the quadrature
    depth.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be at least 2")
    model = segment.model
    dL = segment.L_end - segment.L_start
    cache: dict[float, GibbsState] = {}

    def state_at(t: float) -> GibbsState:
        st = cache.get(t)
        if st is None:
            beta, L = segment_point(segment, t, policy)
            st = gibbs_state(model, beta, L, policy)
            cache[t] = st
        return st

    def work_rate(t: float) -> float:
        return -force(state_at(t), model) * dL

    ts = np.linspace(0.0, 1.0, samples_per_segment)
    states = [state_at(float(t)) for t in ts]
    U = np.array([internal_energy(st, model) for st in states])
    S = np.array([entropy(st) for st in states])
    F = np.array([force(st, model) for st in states])

    if segment.kind == "isochoric":
        W_cum = np.zeros_like(ts)
    elif segment.kind == "adiabatic":
        W_cum = U - U[0]  # frozen probabilities: dU is pure work
    else:
        W_cum = np.empty_like(ts)
        W_cum[0] = 0.0
        for i in range(1, ts.size):
            W_cum[i] = W_cum[i - 1] + integrate_adaptive(
                work_rate, float(ts[i - 1]), float(ts[i]), policy
            )
    W_on = float(W_cum[-1])
    delta_U = float(U[-1] - U[0])
    Q = delta_U - W_on
    Q_cum = (U - U[0]) - W_cum

    if segment.kind == "adiabatic" or not with_cross_check:
        Q_direct = 0.0 if segment.kind == "adiabatic" else Q
    else:
        # The differenced occupation vector carries rounding noise of order
        # eps/h, so the step is floored at 1e-5 and the quadrature budget at
        # 3e-9 relative: an order below the 1e-8 closure contract, but above
        # the noise the adaptive refinement would otherwise chase.
        h = max(policy.fd_step_rel, 1e-5)
        axis, d = model.axis, model.dimension

        def occupations(st: GibbsState, n: int) -> np.ndarray:
            # The state truncated at n >= levels_used levels.  Every vector
            # of a difference must omit the same tail: where the truncation
            # count changes across the stencil, the omitted weight would
            # otherwise enter the rate amplified by 1/h, a step that no
            # quadrature budget can resolve.
            if st.levels_used == n:
                return st.probabilities
            levels = axis.level_energies(st.length, n)
            weights = np.exp(-st.beta * (levels - levels[0]))
            return weights / weights.sum()

        def heat_rate(t: float) -> float:
            # dP/dt by the centred difference; within h of an end, where that
            # would leave [0, 1] (an isobar may not exist beyond its start),
            # by the slope at t of the quadratic through three states inside
            # the segment.  That is the second-order one-sided difference at
            # the end and the centred one at distance h, so the rate has no
            # step there for the adaptive quadrature to chase.
            if h <= t <= 1.0 - h:
                hi, lo = state_at(t + h), state_at(t - h)
                n = max(hi.levels_used, lo.levels_used)
                dp = occupations(hi, n) - occupations(lo, n)
            else:
                a = 0.0 if t < h else 1.0 - 2.0 * h
                u = (t - a) / h
                weighted = (
                    (state_at(a), 2.0 * u - 3.0),
                    (state_at(a + h), 4.0 - 4.0 * u),
                    (state_at(a + 2.0 * h), 2.0 * u - 1.0),
                )
                n = max(st.levels_used for st, _ in weighted)
                dp = sum(c * occupations(st, n) for st, c in weighted)
            _, L = segment_point(segment, t, policy)
            energies = axis.level_energies(L, n)
            return d * float((energies - energies[0]) @ dp) / (2.0 * h)

        # Every vector is normalized and the stencil weights sum to zero, so
        # weighting dP with the gaps E_n - E_0 instead of E_n changes nothing
        # but the rounding: the noise on heat_rate is about
        # eps <E - E_0> / (2 h), which scales with the thermal energy rather
        # than with the ground energy, and no budget below it can be met.
        # The scale is floored so that the budget never drops under it: on a
        # segment whose heat is at the rounding level (|dL| of a few ulp) the
        # refinement stops at the noise instead of raising, while on
        # ordinary segments the relative budget binds as before.
        cross_policy = replace(policy, quad_tol=max(policy.quad_tol, 3e-9))

        def thermal_energy(st: GibbsState) -> float:  # <E - E_0>
            energies = state_energies(model, st)
            return d * float((energies - energies[0]) @ st.probabilities)

        noise = np.finfo(float).eps * max(map(thermal_energy, states)) / (2.0 * h)
        scale = max(abs(Q), abs(W_on), abs(delta_U), noise / cross_policy.quad_tol)
        Q_direct = integrate_adaptive(
            heat_rate, 0.0, 1.0, cross_policy, scale_hint=scale
        )

    records = tuple(
        PathSample(
            t=float(ts[i]),
            L=states[i].length,
            beta=states[i].beta,
            T=states[i].temperature,
            F=float(F[i]),
            U=float(U[i]),
            S=float(S[i]),
            Q_cum=float(Q_cum[i]),
            W_cum=float(W_cum[i]),
        )
        for i in range(ts.size)
    )
    return SegmentResult(
        segment=segment,
        Q=Q,
        W_on=W_on,
        delta_U=delta_U,
        Q_direct=Q_direct,
        samples=records,
    )


def work_gauss_reference(
    segment: ProcessSegment,
    policy: NumericsPolicy = DEFAULT_POLICY,
    panels: int = 20,
) -> float:
    """W_on rediscretized on a fixed Gauss-Legendre grid.

    Same force integrand as segment_heat_work but a different node set and
    refinement rule; agreement checks the integrator rather than repeating
    it.
    """
    if segment.kind == "isochoric":
        return 0.0
    dL = segment.L_end - segment.L_start

    def work_rate(t: float) -> float:
        beta, L = segment_point(segment, t, policy)
        return -force(gibbs_state(segment.model, beta, L, policy), segment.model) * dL

    return integrate_gauss(work_rate, 0.0, 1.0, panels=panels)
