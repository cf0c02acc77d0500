"""Quasi-static process segments and their first-law bookkeeping.

A segment is one leg of a cycle: isothermal, isochoric, isobaric or
adiabatic.  The path is parameterized linearly in the free variable over
t in [0, 1] (L for all kinds except isochoric, which is linear in beta);
the conserved quantity of each kind is recorded and can be checked at any
sample.  Every state along a path is a Gibbs state of a spectrum
E_n = c_n / L^p, so the work sum_n P_n dE_n and the heat sum_n E_n dP_n
have closed forms on every segment kind: the cumulative heat and work are
exact at each sample.  The quadrature of the exact heat rate, an
independent cross-check of the heat, is integrated only when it is read
(SegmentResult.Q_direct), never on a run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import (
    DEFAULT_POLICY,
    NumericsPolicy,
    integrate_adaptive_batch,
    integrate_gauss,
)
from .substances import (
    GibbsState,
    SpectrumModel,
    _axis_scale,
    _gibbs_entropy,
    _kernel,
    axis_states,
    beta_for_force,
    entropy,
    equilibrium_force,
    gibbs_state,
    isobar_states,
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


@dataclass(slots=True)
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


# PathSample's fields in order: the rows of SegmentResult.columns
SAMPLE_FIELDS = tuple(f.name for f in fields(PathSample))
_L_ROW, _BETA_ROW = SAMPLE_FIELDS.index("L"), SAMPLE_FIELDS.index("beta")


@dataclass(frozen=True, eq=False)
class SegmentResult:
    """Integrated heat and work of one segment.

    Q, W_on and delta_U are the closed forms of segment_heat_work, so
    Q = delta_U - W_on up to rounding.  The property Q_direct, an
    independent cross-check of Q, is the adaptive quadrature of the exact
    heat rate sum_n E_n dP_n = T dS and agrees with Q within the quadrature
    tolerance.  No run computes it: its first read integrates every segment
    of the result's batch at once and keeps the values, so a quadrature
    that cannot converge raises ConvergenceError at that read.

    The samples stay columns of the batch: columns is the segment's
    read-only (9, n) float array, one row per PathSample field in
    SAMPLE_FIELDS order, and samples builds the tuple of n PathSamples from
    it on its first read and keeps it.  Two results are equal when their
    segments, totals and every sample value are; neither builds a
    PathSample to compare.

    W_on is work done ON the system (positive compressing a positive-force
    substance); W_by = -W_on.  W_thermal is W_on less its ground part
    d Delta E_0, formed without that subtraction except on an isobar; the
    ground parts sum to exactly zero around a closed loop, so a cycle's net
    work is the sum of the thermal parts.
    W_scale is the rounding scale of W_thermal, the size of the terms it
    subtracts: its magnitude on an isotherm, |F0 dL| + |d Delta E_0| on an
    isobar, and on an adiabat d Delta (<g> + x Var(g)), Delta the gap,
    summed over both ends: each end's thermal energy widened by its slope
    in ln x.  The two ends share x only up to rounding, and on a cold
    adiabat a one-ulp move of x moves the thermal energy by x ulps.
    """

    segment: ProcessSegment
    Q: float
    W_on: float
    W_thermal: float
    W_scale: float
    delta_U: float
    _batch: _SegmentBatch = field(repr=False)
    _row: int = field(repr=False)

    @property
    def W_by(self) -> float:
        return -self.W_on

    @property
    def columns(self) -> np.ndarray:
        return self._batch.columns[:, self._row]

    @property
    def samples(self) -> tuple[PathSample, ...]:
        return self._batch.samples(self._row)

    @property
    def Q_direct(self) -> float:
        return self._batch.q_direct(self._row)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.segment == other.segment
            and (self.Q, self.W_on, self.W_thermal, self.W_scale, self.delta_U)
            == (other.Q, other.W_on, other.W_thermal, other.W_scale, other.delta_U)
            and np.array_equal(self.columns, other.columns)
        )


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
    returned state keeps x = beta Delta and the kernel moments, and
    rescales E_0 and Delta; entropy and ln Z are exactly conserved.
    """
    if L_to <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L_to}")
    ratio = (L_to / state.length) ** model.scaling_power
    return state._replace(
        beta=state.beta * ratio,
        length=L_to,
        ground=state.ground / ratio,
        gap=state.gap / ratio,
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
    model: SpectrumModel, beta_start: float, L_start: float, L_end: float
) -> ProcessSegment:
    start = gibbs_state(model, beta_start, L_start)
    return _adiabat(model, beta_start, L_start, L_end, entropy(start))


def _adiabatic_pair(
    model: SpectrumModel,
    beta_start: tuple[float, float],
    L_start: tuple[float, float],
    L_end: tuple[float, float],
) -> tuple[ProcessSegment, ProcessSegment]:
    """The adiabatic_segments of two starts, each argument a pair, from one
    axis_states call on 2-element arrays instead of two gibbs_state calls.

    The kernel is elementwise and the held entropy is _gibbs_entropy, as in
    entropy, so each held value is bitwise the one adiabatic_segment gives.
    The arguments are validated by ProcessSegment only.
    """
    st = axis_states(model, np.array(beta_start), np.array(L_start))
    held = _gibbs_entropy(model.dimension, st.log_z, st.x, st.mean).tolist()
    return tuple(
        _adiabat(model, *start) for start in zip(beta_start, L_start, L_end, held)
    )


def _adiabat(
    model: SpectrumModel, beta_start: float, L_start: float, L_end: float, S: float
) -> ProcessSegment:
    """The adiabat from (beta_start, L_start) to L_end that holds entropy S:
    beta L^p is constant along it."""
    return ProcessSegment(
        kind="adiabatic",
        model=model,
        beta_start=beta_start,
        L_start=L_start,
        beta_end=beta_start * (L_end / L_start) ** model.scaling_power,
        L_end=L_end,
        held="S",
        held_value=S,
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
        held = equilibrium_force(model, beta, L)
        return isobaric_segment(model, held, L, endpoint, policy)
    if kind == "adiabatic":
        return adiabatic_segment(model, beta, L, endpoint)
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


# the columns of a segment table, one row per segment: the kind's index in
# SEGMENT_KINDS, the path's start and slope in L and in beta, and the held
# value.  An isochore holds L and is the only kind linear in beta; an
# adiabat's and an isobar's beta follow from L.
_KIND, _L0, _L_SLOPE, _BETA0, _BETA_SLOPE, _HELD = range(6)
_ISOTHERMAL, _ISOCHORIC, _ISOBARIC, _ADIABATIC = range(4)


def _segment_table(segments: Sequence[ProcessSegment]) -> np.ndarray:
    rows = []
    for s in segments:
        kind = SEGMENT_KINDS.index(s.kind)
        isochoric = kind == _ISOCHORIC
        L_slope = 0.0 if isochoric else s.L_end - s.L_start
        beta_slope = s.beta_end - s.beta_start if isochoric else 0.0
        rows.append((kind, s.L_start, L_slope, s.beta_start, beta_slope, s.held_value))
    return np.array(rows).T


def _path_points(model: SpectrumModel, columns, t, policy: NumericsPolicy):
    """(beta, L) at path parameters t along the segments whose table columns
    are given per element of t, linear in the free variable.  Every isobar
    element takes its beta from one schedule solve."""
    kind = columns[_KIND]
    L0, beta0 = columns[_L0], columns[_BETA0]
    L = L0 + t * columns[_L_SLOPE]
    beta = np.where(
        kind == _ADIABATIC,
        beta0 * (L / L0) ** model.scaling_power,
        beta0 + t * columns[_BETA_SLOPE],
    )
    isobaric = kind == _ISOBARIC
    if isobaric.any():
        beta[isobaric] = isobaric_schedule(
            model, columns[_HELD][isobaric], L[isobaric], policy
        )
    return beta, L


def segment_point(
    segment: ProcessSegment, t, policy: NumericsPolicy = DEFAULT_POLICY
):
    """(beta, L) at path parameter t, a float or an array; linear in the
    free variable.  For an array both come back with t's shape, an isobar's
    beta from one schedule solve over all of t."""
    t = np.asarray(t, dtype=float)
    columns = np.repeat(_segment_table((segment,)), t.size, axis=1)
    beta, L = _path_points(segment.model, columns, t.ravel(), policy)
    if t.ndim == 0:
        return beta.item(), L.item()
    return beta.reshape(t.shape), L.reshape(t.shape)


@dataclass(eq=False, slots=True)
class _SegmentBatch:
    """The samples of one stacked_heat_work batch as columns, and the
    Q_direct of every segment in it, integrated on the first read of any of
    them and kept.

    columns is the read-only (9, k, n) array of every sample's PathSample
    fields, in SAMPLE_FIELDS order; a segment's PathSample tuple is built
    from its row on the first read of its samples and kept.  For the
    cross-check the batch also holds each segment's kind, held value and
    beta0 (table columns), and forms the gap Delta and x = beta Delta at
    t = 0 and t = 1 from the L and beta rows as axis_states does.  Every
    non-adiabatic segment is integrated in s = ln x, between those two x,
    at the exact rate sum_n E_n dP_n/ds = T dS/ds.
    With S = d (ln z + x <g>), dS/dx = -d x Var(g), so
    dQ/ds = -d Delta x Var(g), with Delta = x / beta0 on an isotherm, the
    held Delta(L) on an isochore, and on an isobar the Delta at which L is
    explicit in x (isobar_states), so no node solves the schedule.  A node's
    x is x0 e^(t ds) on an isochore, which holds a cold box isochore's
    cross-check to 6e-15 of Q instead of 2e-14, and e^(s0 + t ds) on the
    other kinds, where that form does no worse.  All of them are one
    integrate_adaptive_batch call, each refinement level's nodes of every
    segment as one array and each segment to its own tolerance, so a
    segment's value does not depend on the others in the batch.  An
    adiabat's Q_direct is zero.  Two threads reading at once may both
    integrate, or both build a row's samples; they store the same values,
    and every read of a row's samples returns the tuple stored first.
    """

    columns: np.ndarray
    model: SpectrumModel
    kind: np.ndarray
    held: np.ndarray
    beta0: np.ndarray
    policy: NumericsPolicy
    heats: list[float] | None = None
    built: dict[int, tuple[PathSample, ...]] = field(default_factory=dict)

    def samples(self, row: int) -> tuple[PathSample, ...]:
        built = self.built.get(row)
        if built is None:
            built = tuple(map(PathSample, *self.columns[:, row].tolist()))
            built = self.built.setdefault(row, built)
        return built

    def q_direct(self, row: int) -> float:
        if self.heats is None:
            self.heats = self._integrate()
        return self.heats[row]

    def _integrate(self) -> list[float]:
        model, kind = self.model, self.kind
        d = model.dimension
        integrated = np.flatnonzero(kind != _ADIABATIC)
        ends = [0, -1]
        gaps = _axis_scale(model.axis, self.columns[_L_ROW][:, ends])[1]
        x0, x1 = (self.columns[_BETA_ROW][:, ends] * gaps).T
        s0 = np.log(x0)
        ds = np.log(x1) - s0
        # a node's x is scale e^(base + t ds): x0 e^(t ds) on an isochore
        isochoric = kind == _ISOCHORIC
        scale = np.where(isochoric, x0, 1.0)
        base = np.where(isochoric, 0.0, s0)
        gap0 = gaps[:, 0]

        def heat_rate(owner: np.ndarray, t: np.ndarray) -> np.ndarray:
            rows = integrated[owner]
            x = scale[rows] * np.exp(base[rows] + t * ds[rows])
            gap = np.where(kind[rows] == _ISOTHERMAL, x / self.beta0[rows], gap0[rows])
            var = np.empty_like(x)
            isobaric = kind[rows] == _ISOBARIC
            if isobaric.any():
                st = isobar_states(model, self.held[rows[isobaric]], x[isobaric])
                gap[isobaric], var[isobaric] = st.gap, st.var
            if not isobaric.all():
                var[~isobaric] = _kernel(model.axis.kind, x[~isobaric])[2]
            return -d * gap * var * x * ds[rows]

        values = [0.0] * kind.size
        if integrated.size:
            quadratures = integrate_adaptive_batch(heat_rate, integrated.size, self.policy)
            for row, value in zip(integrated.tolist(), quadratures):
                values[row] = value
        return values


def stacked_heat_work(
    segments: Sequence[ProcessSegment],
    policy: NumericsPolicy = DEFAULT_POLICY,
    samples_per_segment: int = 64,
) -> tuple[SegmentResult, ...]:
    """Heat and work along k segments of one model, exact at every sample,
    as one batch.

    The samples of all segments are array operations: one path pass (every
    isobar sample from one schedule solve) and one axis_states call give
    every sample's beta, L, per-axis ground energy E_0 and kernel moments as
    (k, n) arrays.  The results keep the finished columns, one (9, k, n)
    array that no run converts: a segment's PathSamples are built only when
    its samples are read.
    With d axes and g = E - E_0, the cumulative work on the system is
    A(t) - A(0) on an isotherm (A = -ln Z / beta = d (E_0 - ln z / beta)),
    -F0 (L(t) - L0) on an isobar, zero on an isochore and U(t) - U(0) on an
    adiabat.  delta_U = d (Delta E_0 + Delta <g>), so a cold segment keeps
    its relative accuracy.  Q is T Delta S with S = d (ln z + beta <g>) on an
    isotherm and delta_U - W_on on the other kinds (zero on an adiabat).
    W_thermal, the end value of W_on less d Delta E_0, is -d Delta ln z / beta0
    on an isotherm, d Delta(Delta <g>) on an adiabat, zero on an isochore and
    -F0 dL - d Delta E_0 on an isobar.

    No quadrature runs here: the results share one _SegmentBatch, which
    holds the columns and integrates every segment's Q_direct on the first
    read of any of them.  Segments of different models raise
    ValueError.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be at least 2")
    if not segments:
        return ()
    model = segments[0].model
    if any(seg.model != model for seg in segments[1:]):
        raise ValueError("stacked segments must share one model")
    d, p = model.dimension, model.scaling_power
    table = _segment_table(segments)
    k, n = len(segments), samples_per_segment

    ts = np.linspace(0.0, 1.0, n)
    beta, L = _path_points(model, np.repeat(table, n, axis=1), np.tile(ts, k), policy)
    beta, L = beta.reshape(k, n), L.reshape(k, n)
    st = axis_states(model, beta, L)
    kind, held = table[_KIND][:, None], table[_HELD][:, None]
    e0 = d * st.ground
    thermal = st.gap * st.mean  # <E - E_0> per axis
    ground_shift = e0 - e0[:, :1]
    thermal_shift = d * (thermal - thermal[:, :1])
    U_cum = ground_shift + thermal_shift
    # on an isotherm at its bath's beta0: d Delta ln z / beta0, which is
    # T Delta S less thermal_shift and ground_shift less W_cum
    shift = d * (st.log_z - st.log_z[:, :1]) / table[_BETA0][:, None]
    isothermal = kind == _ISOTHERMAL
    # work on the system: A(t) - A(0) on an isotherm, -F0 (L - L0) on an
    # isobar, all of dU on an adiabat (frozen probabilities), none on an
    # isochore
    W_cum = np.where(
        isothermal,
        ground_shift - shift,
        np.where(
            kind == _ISOBARIC,
            -held * (L - L[:, :1]),
            np.where(kind == _ADIABATIC, U_cum, 0.0),
        ),
    )
    Q_cum = np.where(isothermal, shift + thermal_shift, U_cum - W_cum)
    kinds = table[_KIND]
    W_thermal = np.where(
        kinds == _ISOTHERMAL,
        -shift[:, -1],
        np.where(
            kinds == _ISOBARIC,
            W_cum[:, -1] - ground_shift[:, -1],
            np.where(kinds == _ADIABATIC, thermal_shift[:, -1], 0.0),
        ),
    )
    # thermal energy per axis widened by its slope in ln x
    widened = st.gap * (st.mean + st.x * st.var)
    W_scale = np.where(
        kinds == _ADIABATIC,
        d * (widened[:, 0] + widened[:, -1]),
        np.where(
            kinds == _ISOBARIC,
            np.abs(W_cum[:, -1]) + np.abs(ground_shift[:, -1]),
            np.abs(W_thermal),
        ),
    )

    U = d * st.energy
    S = _gibbs_entropy(d, st.log_z, st.x, st.mean)
    columns = np.empty((len(SAMPLE_FIELDS), k, n))
    columns[0] = ts
    columns[1:] = (L, beta, 1.0 / beta, p * U / L, U, S, Q_cum, W_cum)
    columns.flags.writeable = False
    batch = _SegmentBatch(columns, model, table[_KIND], table[_HELD], table[_BETA0], policy)
    totals = zip(
        Q_cum[:, -1].tolist(), W_cum[:, -1].tolist(), W_thermal.tolist(),
        W_scale.tolist(), U_cum[:, -1].tolist(),
    )
    return tuple(
        SegmentResult(seg, *total, batch, i)
        for i, (seg, total) in enumerate(zip(segments, totals))
    )


def segment_heat_work(
    segment: ProcessSegment,
    policy: NumericsPolicy = DEFAULT_POLICY,
    samples_per_segment: int = 64,
) -> SegmentResult:
    """Heat and work along one segment: stacked_heat_work of it alone."""
    return stacked_heat_work((segment,), policy, samples_per_segment)[0]


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
