"""Quasi-static process segments and their first-law bookkeeping.

A segment is one leg of a cycle: isothermal, isochoric, isobaric or
adiabatic.  The path is parameterized linearly in the free variable over
t in [0, 1] (L for all kinds except isochoric, which is linear in beta);
the conserved quantity of each kind is named, recorded on every kind but
the adiabat (whose entropy is its first sample's), and can be checked at
any sample.  Every state along a path is a Gibbs state of a spectrum
E_n = c_n / L^p, so the work sum_n P_n dE_n and the heat sum_n E_n dP_n
have closed forms on every segment kind: the cumulative heat and work are
exact at each sample.  The quadrature of the exact heat rate, an
independent cross-check of the heat, is integrated only when it is read
(SegmentResult.Q_direct), never on a run.
"""

from __future__ import annotations

import functools
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
    _check_schedule,
    _gibbs_entropy,
    _kernel,
    axis_states,
    beta_for_force,
    isobar_states,
)

SEGMENT_KINDS = ("isothermal", "isochoric", "isobaric", "adiabatic")


@dataclass(frozen=True)
class ProcessSegment:
    """One quasi-static path with its endpoints and conserved quantity.

    held names the conserved quantity ("T", "L", "F" or "S") and held_value
    records its value for drift verification along the realized path.  An
    adiabat's path is fixed by beta L^p alone, so it records no value
    (held_value is None): its entropy is that of its first sample.
    """

    kind: str
    model: SpectrumModel
    beta_start: float
    L_start: float
    beta_end: float
    L_end: float
    held: str
    held_value: float | None

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
    subtracts: d |ln z| / beta0 at each end, summed, on an isotherm, whose
    difference cancels where the entropy saturates (the spin's ln 2 at
    small x); |F0 dL| + |d Delta E_0| on an isobar; and on an adiabat
    d Delta (<g> + x Var(g)), Delta the gap, summed over both ends: each
    end's thermal energy widened by its slope in ln x.  The two ends share
    x only up to rounding, and on a cold adiabat a one-ulp move of x moves
    the thermal energy by x ulps.
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
    return ProcessSegment("isothermal", model, beta, L_start, beta, L_end, "T", 1.0 / beta)


def isochoric_segment(
    model: SpectrumModel, L: float, beta_start: float, beta_end: float
) -> ProcessSegment:
    return ProcessSegment("isochoric", model, beta_start, L, beta_end, L, "L", L)


def isobaric_segment(
    model: SpectrumModel,
    force_held: float,
    L_start: float,
    L_end: float,
) -> ProcessSegment:
    beta_start, beta_end = isobaric_schedule(
        model, force_held, np.array([L_start, L_end])
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
    """The adiabat from (beta_start, L_start) to L_end: beta L^p is constant
    along it.  No state is evaluated here."""
    if L_start <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L_start}")
    beta_end = beta_start * (L_end / L_start) ** model.scaling_power
    return ProcessSegment("adiabatic", model, beta_start, L_start, beta_end, L_end, "S", None)


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


_ISOTHERMAL, _ISOCHORIC, _ISOBARIC, _ADIABATIC = range(4)


@functools.lru_cache(maxsize=16)
def _unit_grid(n: int) -> np.ndarray:
    """np.linspace(0.0, 1.0, n), read-only, built once per n and shared by
    every batch of n samples per segment; n < 2 raises ValueError."""
    if n < 2:
        raise ValueError("samples_per_segment must be at least 2")
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


def _sample_lengths(L_start, L_end, t) -> np.ndarray:
    """L, (k, n), at the n path parameters t along k paths from the arrays
    L_start to L_end, linear in t.  Where the last t is 1, as on the unit
    grid, the last sample is L_end itself, as np.linspace pins its last
    point: L_start + (L_end - L_start) can miss L_end by an ulp."""
    L_start = np.asarray(L_start, dtype=float)[:, None]
    L_end = np.asarray(L_end, dtype=float)
    L = L_start + t * (L_end[:, None] - L_start)
    if t[-1] == 1.0:
        L[:, -1] = L_end
    return L


def _path_points(
    model: SpectrumModel,
    segments: Sequence[ProcessSegment],
    t,
    policy: NumericsPolicy,
    isobar_beta=None,
):
    """(beta, L), each (k, n), at the n path parameters t along the k
    segments, linear in the free variable, each row by its own kind's
    formula: an isochore holds L and is the only kind linear in beta, an
    isotherm holds beta, an adiabat holds beta L^p, and every isobar element
    takes its beta from one unchecked schedule solve, whose residual the
    caller checks on the states it evaluates there.  Where the last t is 1,
    as on the unit grid, each row's last sample is its segment's end: L_end,
    and beta_end off an isobar, whose beta is solved at L_end.  So a segment
    run backwards has the same end states.  isobar_beta, when
    given, holds the isobars' rows in segment order, solved already, and no
    schedule is solved here."""
    p = model.scaling_power
    L = _sample_lengths([s.L_start for s in segments], [s.L_end for s in segments], t)
    pinned = t[-1] == 1.0
    beta = np.empty_like(L)
    isobars = []
    for i, s in enumerate(segments):
        if s.kind == "isothermal":
            beta[i] = s.beta_start
        elif s.kind == "isochoric":
            beta[i] = s.beta_start + t * (s.beta_end - s.beta_start)
        elif s.kind == "adiabatic":
            beta[i] = s.beta_start * (L[i] / s.L_start) ** p
        else:
            isobars.append(i)
            continue
        if pinned:
            beta[i, -1] = s.beta_end
    if isobars:
        if isobar_beta is None:
            held = np.array([segments[i].held_value for i in isobars])[:, None]
            isobar_beta = beta_for_force(model, held, L[isobars], policy, checked=False)
        beta[isobars] = isobar_beta
    return beta, L


@dataclass(eq=False, slots=True)
class _SegmentBatch:
    """The samples of one stacked_heat_work batch as columns, and the
    Q_direct of every segment in it, integrated on the first read of any of
    them and kept.

    columns is the read-only (9, k, n) array of every sample's PathSample
    fields, in SAMPLE_FIELDS order; a segment's PathSample tuple is built
    from its row on the first read of its samples and kept.  For the
    cross-check the batch also holds the segments, whose kinds, held values
    and beta0 it reads, and forms the gap Delta and x = beta Delta at
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
    segments: Sequence[ProcessSegment]
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
        model, segments = self.model, self.segments
        kind = np.array([SEGMENT_KINDS.index(s.kind) for s in segments])
        # read on isobar rows only: an adiabat records no held value
        held = np.array([s.held_value if s.kind == "isobaric" else 0.0 for s in segments])
        beta0 = np.array([s.beta_start for s in segments])
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
            gap = np.where(kind[rows] == _ISOTHERMAL, x / beta0[rows], gap0[rows])
            var = np.empty_like(x)
            isobaric = kind[rows] == _ISOBARIC
            if isobaric.any():
                st = isobar_states(model, held[rows[isobaric]], x[isobaric])
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
    (k, n) arrays, on the n-point unit grid that every batch of n samples
    shares, each row starting and ending exactly at its segment's start and
    end; the solve's 1e-10 residual check reads the isobar rows of that
    call.  Each segment's heat and work rows are written into the
    preallocated (9, k, n) columns by its own kind's formula, and its totals
    are read from the rows' end values.  The results keep the finished
    columns, which no run converts: a segment's PathSamples are built only
    when its samples are read.
    With d axes and g = E - E_0, the cumulative work on the system is
    A(t) - A(0) on an isotherm (A = -ln Z / beta = d (E_0 - ln z / beta)),
    -F0 (L(t) - L0) on an isobar, zero on an isochore and U(t) - U(0) on an
    adiabat.  delta_U = d (Delta E_0 + Delta <g>), so a cold segment keeps
    its relative accuracy.  Q is T Delta S with S = d (ln z + beta <g>) on an
    isotherm and delta_U - W_on on the other kinds (zero on an adiabat).
    W_thermal, the end value of W_on less d Delta E_0, is -d Delta ln z / beta0
    on an isotherm, d Delta(Delta <g>) on an adiabat, zero on an isochore and
    -F0 dL - d Delta E_0 on an isobar; it and W_scale are formed per segment
    from its end values as Python floats, whose operations round as numpy's
    do.

    No quadrature runs here: the results share one _SegmentBatch, which
    holds the columns and integrates every segment's Q_direct on the first
    read of any of them.  Segments of different models raise
    ValueError.
    """
    return _stacked_heat_work(segments, policy, samples_per_segment)


def _stacked_heat_work(
    segments: Sequence[ProcessSegment],
    policy: NumericsPolicy,
    samples_per_segment: int,
    isobar_beta=None,
) -> tuple[SegmentResult, ...]:
    """stacked_heat_work; isobar_beta, when given, holds the beta rows of the
    isobars in segment order, solved already at their _sample_lengths (a
    Brayton's or Diesel's run solves them first and takes its corners from
    their ends), and the batch solves no schedule but checks them."""
    ts = _unit_grid(samples_per_segment)
    if not segments:
        return ()
    segments = tuple(segments)
    model = segments[0].model
    if any(seg.model is not model and seg.model != model for seg in segments[1:]):
        raise ValueError("stacked segments must share one model")
    d, p = model.dimension, model.scaling_power
    k, n = len(segments), samples_per_segment
    beta, L = _path_points(model, segments, ts, policy, isobar_beta)
    st = axis_states(model, beta, L)
    isobars = [i for i, seg in enumerate(segments) if seg.kind == "isobaric"]
    if isobars:
        held = np.array([segments[i].held_value for i in isobars])[:, None]
        _check_schedule(model, held, L[isobars], st.energy[isobars])
    columns = np.empty((len(SAMPLE_FIELDS), k, n))
    columns[0], columns[1], columns[2] = ts, L, beta
    T, F, U, S, Q_cum, W_cum = columns[3:]
    np.divide(1.0, beta, out=T)
    np.multiply(d, st.energy, out=U)
    np.divide(p * U, L, out=F)
    S[:] = _gibbs_entropy(d, st.log_z, st.x, st.mean)
    e0 = d * st.ground
    thermal = st.gap * st.mean  # <E - E_0> per axis
    ground_shift = e0 - e0[:, :1]
    thermal_shift = d * (thermal - thermal[:, :1])
    U_cum = ground_shift + thermal_shift
    # the thermal energy per axis widened by its slope in ln x, at both ends
    ends = np.s_[:, :: n - 1]
    widened = (st.gap[ends] * (st.mean[ends] + st.x[ends] * st.var[ends])).tolist()
    batch = _SegmentBatch(columns, model, segments, policy)
    results = []
    for i, seg in enumerate(segments):
        # the row by its own kind's formula.  Work on the system: A(t) - A(0)
        # on an isotherm, -F0 (L - L0) on an isobar, all of dU on an adiabat
        # (frozen probabilities), none on an isochore; heat T dS on an
        # isotherm and dU - W on the other kinds
        W_row, Q_row = W_cum[i], Q_cum[i]
        if seg.kind == "isothermal":
            # at its bath's beta0: d Delta ln z / beta0, which is T Delta S
            # less thermal_shift and ground_shift less W_cum
            shift = d * (st.log_z[i] - st.log_z[i, 0]) / seg.beta_start
            np.subtract(ground_shift[i], shift, out=W_row)
            np.add(shift, thermal_shift[i], out=Q_row)
        else:
            if seg.kind == "isobaric":
                np.multiply(-seg.held_value, L[i] - L[i, 0], out=W_row)
            elif seg.kind == "adiabatic":
                W_row[:] = U_cum[i]
            else:
                W_row[:] = 0.0
            np.subtract(U_cum[i], W_row, out=Q_row)
        # the totals, from the row's end values as Python floats
        W_on = float(W_row[-1])
        if seg.kind == "isothermal":
            W_thermal = -float(shift[-1])
            log_z0, log_z1 = st.log_z[i, :: n - 1].tolist()
            W_scale = d * (abs(log_z0) + abs(log_z1)) / seg.beta_start
        elif seg.kind == "isobaric":
            ground_end = float(ground_shift[i, -1])
            W_thermal = W_on - ground_end
            W_scale = abs(W_on) + abs(ground_end)
        elif seg.kind == "adiabatic":
            W_thermal = float(thermal_shift[i, -1])
            W_scale = d * (widened[i][0] + widened[i][1])
        else:
            W_thermal = W_scale = 0.0
        Q, delta_U = float(Q_row[-1]), float(U_cum[i, -1])
        results.append(SegmentResult(seg, Q, W_on, W_thermal, W_scale, delta_U, batch, i))
    columns.flags.writeable = False
    return tuple(results)


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
        beta, L = _path_points(model, (segment,), t, policy)
        energy = axis_states(model, beta, L).energy
        if segment.kind == "isobaric":
            _check_schedule(model, segment.held_value, L, energy)
        U = model.dimension * energy
        return -model.scaling_power * U / L * dL

    return integrate_gauss(work_rate, 0.0, 1.0, panels=panels)
