"""Quasi-static process segments and their first-law bookkeeping.

A segment is one leg of a cycle: isothermal, isochoric, isobaric or
adiabatic.  The path is parameterized linearly in the free variable over
t in [0, 1] (L for all kinds except isochoric, which is linear in beta);
the conserved quantity of each kind is recorded and can be checked at any
sample.  Every state along a path is a Gibbs state of a spectrum
E_n = c_n / L^p, so the work sum_n P_n dE_n and the heat sum_n E_n dP_n
have closed forms on every segment kind: the cumulative heat and work are
exact at each sample, and the quadrature of the exact heat rate is carried
as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_POLICY, NumericsPolicy, integrate_adaptive, integrate_gauss
from .substances import (
    GibbsState,
    SpectrumModel,
    axis_states,
    beta_for_force,
    entropy,
    equilibrium_force,
    gibbs_state,
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

    Q, W_on and delta_U are the closed forms of segment_heat_work, so
    Q = delta_U - W_on up to rounding; Q_direct is the adaptive quadrature
    of the exact heat rate sum_n E_n dP_n/dt and agrees with Q within the
    quadrature tolerance.  W_on is work done ON the system (positive
    compressing a positive-force substance); W_by = -W_on.
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
    force_target,
    L,
    policy: NumericsPolicy = DEFAULT_POLICY,
):
    """Bath schedule beta(L) that holds the equilibrium force constant.

    An alias of substances.beta_for_force: closed inversions for the linear
    spectra and the spin, one vectorised Newton solve for the box kinds,
    floats or arrays, and |F(beta, L) - F0| <= 1e-10 |F0| in every case.
    """
    return beta_for_force(model, force_target, L, policy)


def adiabatic_advance(
    model: SpectrumModel, state: GibbsState, L_to: float
) -> GibbsState:
    """Quantum adiabatic transport of a state to a new coordinate.

    All level spacings of the supported spectra scale by the common factor
    (L/L_to)^p, so the occupation probabilities stay frozen and beta
    rescales by (L_to/L)^p, keeping every beta * E_n invariant.  The
    returned state keeps x = beta Delta and the kernel moments, rescales
    E_0 and Delta, and shares the state's probability vector, built or not;
    entropy and the partition value are exactly conserved.
    """
    if L_to <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L_to}")
    ratio = (L_to / state.length) ** model.scaling_power
    return GibbsState(
        beta=state.beta * ratio,
        length=L_to,
        partition_value=state.partition_value,
        log_partition=state.log_partition,
        axes=state.axes,
        ground=state.ground / ratio,
        gap=state.gap / ratio,
        x=state.x,
        moments=state.moments,
        occupations=state.occupations,
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
    beta_start, beta_end = isobaric_schedule(
        model, force_held, np.array([L_start, L_end]), policy
    ).tolist()
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
    segment: ProcessSegment, t, policy: NumericsPolicy = DEFAULT_POLICY
):
    """(beta, L) at path parameter t, a float or an array; linear in the
    free variable.  For an array both come back with t's shape, an isobar's
    beta from one schedule solve over all of t."""
    kind = segment.kind
    # the held coordinate is taken as value + 0 t, so that it has t's shape
    if kind == "isochoric":
        beta = segment.beta_start + t * (segment.beta_end - segment.beta_start)
        return beta, segment.L_start + 0.0 * t
    L = segment.L_start + t * (segment.L_end - segment.L_start)
    if kind == "isothermal":
        return segment.beta_start + 0.0 * t, L
    if kind == "adiabatic":
        power = segment.model.scaling_power
        return segment.beta_start * (L / segment.L_start) ** power, L
    return isobaric_schedule(segment.model, segment.held_value, L, policy), L


def segment_heat_work(
    segment: ProcessSegment,
    policy: NumericsPolicy = DEFAULT_POLICY,
    samples_per_segment: int = 64,
) -> SegmentResult:
    """Heat and work along a segment, exact at every sample.

    The samples are array operations: one segment_point call and one
    axis_states call give every sample's beta, L, per-axis ground energy
    E_0 and kernel moments, and the PathSamples are built from the finished
    columns.  With d axes and g = E - E_0, the cumulative work on the system
    is A(t) - A(0) on an isotherm (A = -ln Z / beta = d (E_0 - ln z / beta)),
    -F0 (L(t) - L0) on an isobar, zero on an isochore and U(t) - U(0) on an
    adiabat.  delta_U = d (Delta E_0 + Delta <g>), so a cold segment keeps
    its relative accuracy.  Q is T Delta S with S = d (ln z + beta <g>) on an
    isotherm and delta_U - W_on on the other kinds (zero on an adiabat).

    Q_direct is the adaptive quadrature of the exact heat rate
    sum_n E_n dP_n/dt = -d kappa Var g, kappa = beta' - p beta L'/L, which on
    an isobar (F = p U / L held) reduces to (p + 1) U L'/L; the rate takes
    each refinement level's nodes as one array.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be at least 2")
    model, kind = segment.model, segment.kind
    d, p = model.dimension, model.scaling_power
    dL = segment.L_end - segment.L_start
    dbeta = segment.beta_end - segment.beta_start

    def states_at(t: np.ndarray):
        beta, L = segment_point(segment, t, policy)
        return beta, L, axis_states(model, beta, L)

    ts = np.linspace(0.0, 1.0, samples_per_segment)
    beta, L, st = states_at(ts)
    e0 = d * st.ground
    thermal = st.gap * st.mean  # <E - E_0> per axis
    U_cum = (e0 - e0[0]) + d * (thermal - thermal[0])

    if kind == "isothermal":
        shift = d * (st.log_z - st.log_z[0]) / segment.beta_start
        W_cum = (e0 - e0[0]) - shift
        Q_cum = shift + d * (thermal - thermal[0])
    else:
        if kind == "isochoric":
            W_cum = np.zeros_like(ts)
        elif kind == "isobaric":
            W_cum = -segment.held_value * (L - L[0])
        else:  # adiabatic: frozen probabilities, dU is pure work
            W_cum = U_cum
        Q_cum = U_cum - W_cum
    W_on, Q, delta_U = float(W_cum[-1]), float(Q_cum[-1]), float(U_cum[-1])

    def heat_rate(t: np.ndarray) -> np.ndarray:
        beta, L, st = states_at(t)
        if kind == "isobaric":
            return (p + 1) * (d * st.energy) * dL / L
        kappa = dbeta - p * beta * dL / L
        return -d * kappa * (st.gap * st.gap * st.var)

    Q_direct = 0.0
    if kind != "adiabatic":
        Q_direct = integrate_adaptive(heat_rate, 0.0, 1.0, policy)

    U = d * st.energy
    S = d * (st.log_z + st.x * st.mean)
    columns = (ts, L, beta, 1.0 / beta, p * U / L, U, S, Q_cum, W_cum)
    return SegmentResult(
        segment=segment,
        Q=Q,
        W_on=W_on,
        delta_U=delta_U,
        Q_direct=Q_direct,
        samples=tuple(map(PathSample, *(column.tolist() for column in columns))),
    )


def work_gauss_reference(
    segment: ProcessSegment,
    policy: NumericsPolicy = DEFAULT_POLICY,
    panels: int = 20,
) -> float:
    """W_on as the quadrature of -F dL on a fixed Gauss-Legendre grid.

    An independent route to the closed-form work of segment_heat_work: it
    integrates the equilibrium force p U / L along the realized path.
    """
    if segment.kind == "isochoric":
        return 0.0
    model = segment.model
    dL = segment.L_end - segment.L_start

    def work_rate(t: np.ndarray) -> np.ndarray:
        beta, L = segment_point(segment, t, policy)
        U = model.dimension * axis_states(model, beta, L).energy
        return -model.scaling_power * U / L * dL

    return integrate_gauss(work_rate, 0.0, 1.0, panels=panels)
