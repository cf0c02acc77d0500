"""Named thermodynamic cycles: composition, execution and closed forms.

Cycle corners are labeled A, B, C, D following the force-displacement
diagrams: Brayton runs isobar(F1) A->B, adiabat B->C, isobar(F0) C->D,
adiabat D->A; Diesel replaces the low-force isobar with an isochore at the
largest coordinate L1.  Note the Diesel ratio convention: L1 is the LARGEST
coordinate and r_C = L_A/L1, r_E = L_B/L1 are both < 1, which is inverse to
the compression-ratio convention of engineering texts.

The isobaric cycle builders require a one-dimensional substance (box1d,
harmonic1d, cavity): only there does the stored adiabatic exponent gamma
equal the exponent p+1 of the L-conjugate adiabat F L^(p+1) = const, so the
corner relations close the loop.  Multi-dimensional kinds enter through
closed_form_efficiency with ratios taken in their volume coordinate L^d.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import DEFAULT_POLICY, NumericsPolicy
from .processes import (
    SAMPLE_FIELDS,
    ProcessSegment,
    SegmentResult,
    _sample_lengths,
    _stacked_heat_work,
    _unit_grid,
    adiabatic_segment,
    isochoric_segment,
    isothermal_segment,
)
from .substances import SpectrumModel, beta_for_force, regime_parameter

CYCLE_KINDS = ("carnot", "otto", "brayton", "diesel")
CORNER_LABELS = ("A", "B", "C", "D")

# relative tolerance on corner coincidence of consecutive segments
CLOSURE_TOL = 1e-10
# largest relative rounding error of W_net, eps times its cancellation
# factor, that a run reports
CANCELLATION_TOL = 1e-9
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# rows of a SegmentResult's columns: the entropy, and a corner's L, beta, T,
# F, U and S in CornerRecord's order
_L, _S = SAMPLE_FIELDS.index("L"), SAMPLE_FIELDS.index("S")
_CORNER = slice(_L, _S + 1)


# cycle kind -> the kind of each of its segments; segment i runs from
# corner i to corner i + 1, and the last from D back to A
CYCLE_SEGMENTS = {
    "carnot": ("isothermal", "adiabatic", "isothermal", "adiabatic"),
    "otto": ("isochoric", "adiabatic", "isochoric", "adiabatic"),
    "brayton": ("isobaric", "adiabatic", "isobaric", "adiabatic"),
    "diesel": ("isobaric", "adiabatic", "isochoric", "adiabatic"),
}


class Corners(NamedTuple):
    """A cycle's corners in A-D order: each corner's L; each corner's beta
    where its builder knows it, all four for a Carnot or Otto and None for a
    Brayton or Diesel, whose run solves them; and the force each isobar
    holds, in segment order."""

    L: tuple[float, float, float, float]
    beta: tuple[float, float, float, float] | None
    force: tuple[float, ...]


@dataclass(frozen=True)
class CycleSpec:
    """A closed four-corner cycle ready to run: its substance, its kind, its
    Corners, joined in turn by the processes CYCLE_SEGMENTS names for its
    kind, and eta_closed, its closed-form efficiency.

    A spec is data: no builder evaluates a state, and run_cycle alone builds
    the segments, which its report's segment_results hold.  So printing,
    comparing, copying or hashing a spec solves nothing, and equal specs
    hash equal.  Every corner L, and every corner beta a builder knows, is
    a positive finite float: a builder refuses any other.
    """

    model: SpectrumModel
    kind: str
    corners: Corners
    eta_closed: float


@dataclass(frozen=True)
class CornerRecord:
    label: str
    L: float
    beta: float
    T: float
    F: float
    U: float
    S: float
    regime: float


@dataclass(frozen=True)
class CycleReport:
    """Integrated cycle output.

    Q_in sums the heat of every heat-absorbing segment, Q_out the magnitude
    rejected; W_net is net work done BY the system.  eta_numeric is
    W_net/Q_in; eta_closed the substance's closed form.  The builders
    refuse a zero-area loop, so both are always the ratio of a cycle with
    area.
    """

    kind: str
    Q_in: float
    Q_out: float
    W_net: float
    eta_numeric: float
    eta_closed: float
    gamma_used: float
    corner_table: tuple[CornerRecord, ...]
    segment_results: tuple[SegmentResult, ...]
    loop_entropy: float
    closure_residual: float
    closure_ok: bool
    first_law_residual: float


def closed_form_efficiency(kind: str, gamma: float, parameters: dict) -> float:
    """Substance-independent efficiency formulas in the cycle's ratios.

    carnot:  1 - T_C/T_H                     (parameters: temperature_ratio)
    otto:    1 - (V0/V1)^(gamma-1)           (parameters: volume_ratio)
    brayton: 1 - (F0/F1)^(1-1/gamma)         (parameters: force_ratio)
    diesel:  1 - (1/gamma)(r_E^g - r_C^g)/(r_E - r_C)   (parameters: r_C, r_E)

    The Diesel form is evaluated as the factored power sum
    (1/gamma) sum_j r_E^j r_C^(gamma-1-j) when gamma is an integer; exact
    equality r_C = r_E is rejected.
    """
    if kind not in CYCLE_KINDS:
        raise ValueError(f"unknown cycle kind {kind!r}")
    if kind == "carnot":
        ratio = parameters["temperature_ratio"]
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"temperature ratio must lie in (0, 1], got {ratio}")
        return 1.0 - ratio
    if gamma <= 1.0:
        raise ValueError(f"adiabatic exponent must exceed 1, got {gamma}")
    if kind == "otto":
        ratio = parameters["volume_ratio"]
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"volume ratio must lie in (0, 1], got {ratio}")
        return 1.0 - ratio ** (gamma - 1.0)
    if kind == "brayton":
        ratio = parameters["force_ratio"]
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"force ratio must lie in (0, 1], got {ratio}")
        return 1.0 - ratio ** (1.0 - 1.0 / gamma)
    r_c, r_e = parameters["r_C"], parameters["r_E"]
    if not (0.0 < r_c < 1.0 and 0.0 < r_e < 1.0):
        raise ValueError(f"diesel ratios must lie in (0, 1), got {r_c}, {r_e}")
    if r_c == r_e:
        raise ValueError("diesel closed form is undefined at r_C = r_E exactly")
    m = round(gamma)
    if abs(gamma - m) < 1e-12:
        total = sum(r_e**j * r_c ** (m - 1 - j) for j in range(m))
        return 1.0 - total / m
    return 1.0 - (r_e**gamma - r_c**gamma) / (gamma * (r_e - r_c))


def _require_1d(model: SpectrumModel, kind: str) -> None:
    if model.dimension != 1:
        raise ValueError(
            f"{kind} cycles need a one-dimensional substance; for "
            f"{model.kind!r} the L-conjugate adiabat exponent differs from "
            "gamma and the loop would not close"
        )


def _spec(model: SpectrumModel, kind: str, corners: Corners, ratios: dict) -> CycleSpec:
    """The spec of a builder's corners, with its closed form evaluated once
    at ratios.

    A corner L, or a corner beta the builder knows, that is not a positive
    finite float, because the builder's arithmetic overflowed or underflowed,
    raises ValueError naming the corner; a ratio that underflowed to 0 is
    refused by closed_form_efficiency's own range check.
    """
    for name, values in (("L", corners.L), ("beta", corners.beta or ())):
        for label, value in zip(CORNER_LABELS, values):
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"corner {label} of the {kind} cycle has {name} = {value}, "
                    "which is not a positive finite float"
                )
    return CycleSpec(model, kind, corners, closed_form_efficiency(kind, model.gamma, ratios))


def build_brayton(
    model: SpectrumModel,
    F1: float,
    F0: float,
    L_A: float,
    L_B: float,
) -> CycleSpec:
    """Two isobars at F1 > F0 joined by adiabats.

    Corners C and D are derived from the adiabatic relation
    F L^gamma = const: L_C = L_B (F1/F0)^(1/gamma), L_D likewise from L_A.
    F1 = F0 or L_A = L_B, a zero-area loop, raises ValueError.  No state
    is evaluated here: the four corners' temperatures are the ends of
    run_cycle's schedule solve of the isobar samples.
    """
    _require_1d(model, "brayton")
    if not 0.0 < F0 < F1:
        raise ValueError(f"need F1 > F0 > 0, got F1={F1}, F0={F0}")
    if not 0.0 < L_A < L_B:
        raise ValueError(f"need L_B > L_A > 0, got L_A={L_A}, L_B={L_B}")
    stretch = (F1 / F0) ** (1.0 / model.gamma)
    L_C, L_D = L_B * stretch, L_A * stretch
    corners = Corners((L_A, L_B, L_C, L_D), None, (F1, F0))
    return _spec(model, "brayton", corners, {"force_ratio": F0 / F1})


def build_diesel(
    model: SpectrumModel,
    F1: float,
    L1: float,
    r_C: float,
    r_E: float,
) -> CycleSpec:
    """Isobar at F1, adiabat, isochore at L1, adiabat.

    L1 is the largest coordinate; the isobar runs from L_A = r_C L1 to
    L_B = r_E L1 with 0 < r_C < r_E < 1; r_C = r_E, a zero-area loop,
    raises ValueError.  The corner forces then satisfy F_C = F1 r_E^gamma
    and F_D = F1 r_C^gamma.  No state is evaluated here: the isobar's ends
    are those of run_cycle's schedule solve of its samples.
    """
    _require_1d(model, "diesel")
    if L1 <= 0.0 or F1 <= 0.0:
        raise ValueError(f"need F1 > 0 and L1 > 0, got F1={F1}, L1={L1}")
    if not 0.0 < r_C < r_E < 1.0:
        raise ValueError(
            f"need 0 < r_C < r_E < 1 (both ratios relative to the largest "
            f"coordinate L1), got r_C={r_C}, r_E={r_E}"
        )
    L_A, L_B = r_C * L1, r_E * L1
    corners = Corners((L_A, L_B, L1, L1), None, (F1,))
    return _spec(model, "diesel", corners, {"r_C": r_C, "r_E": r_E})


def build_otto(
    model: SpectrumModel,
    L0: float,
    L1: float,
    beta_hot: float,
    beta_cold: float,
) -> CycleSpec:
    """Two isochores at L0 < L1 joined by adiabats.

    B = (L0, beta_hot) is the hottest corner, D = (L1, beta_cold) the
    coldest; A and C follow from the adiabats.  Engine operation needs the
    A->B isochore to actually heat, i.e. beta_cold (L0/L1)^p > beta_hot;
    equality, like L0 = L1, is a zero-area loop and raises ValueError.
    Valid for any substance kind; the closed form uses the volume ratio
    (L0/L1)^d.
    """
    if not 0.0 < L0 < L1:
        raise ValueError(f"need L1 > L0 > 0, got L0={L0}, L1={L1}")
    if beta_hot <= 0.0 or beta_cold <= 0.0:
        raise ValueError("need positive beta_hot and beta_cold")
    power = model.scaling_power
    beta_a = beta_cold * (L0 / L1) ** power
    try:
        beta_c = beta_hot * (L1 / L0) ** power
    except OverflowError:
        beta_c = math.inf  # refused by _spec, as a product that is inf
    if beta_a <= beta_hot:
        raise ValueError(
            "not an engine: compression must leave the substance colder than "
            f"the hot corner, need beta_cold (L0/L1)^p > beta_hot, got "
            f"{beta_a} <= {beta_hot}"
        )
    corners = Corners((L0, L0, L1, L1), (beta_a, beta_hot, beta_c, beta_cold), ())
    return _spec(model, "otto", corners, {"volume_ratio": (L0 / L1) ** model.dimension})


def build_carnot(
    model: SpectrumModel,
    T_H: float,
    T_C: float,
    L_A: float,
    L_B: float,
) -> CycleSpec:
    """Two isotherms at T_H > T_C joined by adiabats; any substance kind.

    T_H = T_C or L_A = L_B, a zero-area loop, raises ValueError, as does
    a T_H/T_C that stretches L_C = L_B (T_H/T_C)^(1/p) past the largest float
    or a T_C so small that beta_C = 1/T_C is inf.
    """
    if not 0.0 < T_C < T_H:
        raise ValueError(f"need T_H > T_C > 0, got T_H={T_H}, T_C={T_C}")
    if not 0.0 < L_A < L_B:
        raise ValueError(f"need L_B > L_A > 0, got L_A={L_A}, L_B={L_B}")
    beta_h, beta_c = 1.0 / T_H, 1.0 / T_C
    stretch = (T_H / T_C) ** (1.0 / model.scaling_power)
    L_C, L_D = L_B * stretch, L_A * stretch
    corners = Corners((L_A, L_B, L_C, L_D), (beta_h, beta_h, beta_c, beta_c), ())
    return _spec(model, "carnot", corners, {"temperature_ratio": T_C / T_H})


# cycle kind -> the name of its builder in this module and the builder's
# parameters after model, in the order a config error lists the kinds.  A
# builder is named rather than held, so a call looks it up in this module's
# namespace and passes through whatever is bound there.
CYCLE_BUILDERS = {
    "brayton": ("build_brayton", ("F1", "F0", "L_A", "L_B")),
    "diesel": ("build_diesel", ("F1", "L1", "r_C", "r_E")),
    "otto": ("build_otto", ("L0", "L1", "beta_hot", "beta_cold")),
    "carnot": ("build_carnot", ("T_H", "T_C", "L_A", "L_B")),
}


def _closure_residual(segments: tuple[ProcessSegment, ...]) -> float:
    worst = 0.0
    for i, seg in enumerate(segments):
        nxt = segments[(i + 1) % len(segments)]
        worst = max(
            worst,
            abs(seg.beta_end - nxt.beta_start) / nxt.beta_start,
            abs(seg.L_end - nxt.L_start) / nxt.L_start,
        )
    return worst


def _cycle_segments(
    spec: CycleSpec, policy: NumericsPolicy, samples_per_segment: int
) -> tuple[tuple[ProcessSegment, ...], np.ndarray | None]:
    """The spec's segments in A-D order, and its isobars' beta rows, or None
    for a cycle with no isobar.

    A Carnot's or Otto's corners carry their betas.  A Brayton's or
    Diesel's come from one unchecked beta_for_force call, at policy, on
    every isobar sample at its _sample_lengths: each row starts and ends
    exactly at its corners, so its first and last betas are those corners'.
    A Diesel's C and D then follow along the adiabats from B and from A.  An
    adiabat derives its own end beta, so the closure residual reads how far
    that end lies from the next segment's start.
    """
    model, (L, beta, force) = spec.model, spec.corners
    kinds = CYCLE_SEGMENTS[spec.kind]
    isobars = [i for i, kind in enumerate(kinds) if kind == "isobaric"]
    rows = None
    if isobars:
        lengths = _sample_lengths(
            [L[i] for i in isobars], [L[i + 1] for i in isobars], _unit_grid(samples_per_segment)
        )
        rows = beta_for_force(model, np.array(force)[:, None], lengths, policy, checked=False)
        beta = [0.0] * 4
        for i, (start, end) in zip(isobars, rows[:, [0, -1]].tolist()):
            beta[i], beta[i + 1] = start, end
        if spec.kind == "diesel":
            p = model.scaling_power
            beta[2] = beta[1] * (L[2] / L[1]) ** p
            beta[3] = beta[0] * (L[3] / L[0]) ** p
    held = iter(force)
    segments = []
    for i, kind in enumerate(kinds):
        j = (i + 1) % 4
        if kind == "adiabatic":
            segments.append(adiabatic_segment(model, beta[i], L[i], L[j]))
        elif kind == "isothermal":
            segments.append(isothermal_segment(model, beta[i], L[i], L[j]))
        elif kind == "isochoric":
            segments.append(isochoric_segment(model, L[i], beta[i], beta[j]))
        else:
            segments.append(ProcessSegment(kind, model, beta[i], L[i], beta[j], L[j], "F", next(held)))
    return tuple(segments), rows


def run_cycle(
    spec: CycleSpec,
    policy: NumericsPolicy = DEFAULT_POLICY,
    samples_per_segment: int = 64,
) -> CycleReport:
    """Integrate the segments, as one stacked_heat_work batch, and assemble
    the cycle report.

    Segments are classified into Q_in and Q_out by the sign of their heat.
    W_net is minus the sum of the segments' W_thermal: the ground-energy
    parts d Delta E_0 of their W_on sum to exactly zero around the loop, so
    they are dropped rather than summed, and a cold loop, whose work is far
    below E_0, keeps its relative accuracy.  A cycle whose Q_in is 0
    raises DomainError.  Otherwise one whose W_net cancels raises
    ConvergenceError: that is when eps times the cancellation factor, the
    sum of the segments' W_scale over |W_net|, exceeds CANCELLATION_TOL.
    A cycle that does not cancel but whose Q_in or |W_net| lies below the
    smallest normal float raises DomainError: a subnormal keeps only an
    absolute accuracy of 2^-1074, so its ratio would be no efficiency.
    A cycle that passes those tests but whose Q_in or W_net is inf or nan,
    an overflow in some segment's sums, raises DomainError too.
    eta_closed is the spec's, which its builder evaluated.  The corners are the segments' first samples and loop_entropy sums each
    segment's S change, both read from the batch's columns in one pass, so
    a run builds no PathSample.

    Every kind takes one route: the segments are built from the spec's
    corners by _cycle_segments.  A Brayton or Diesel first solves every
    isobar sample in one schedule solve, at policy, whose rows end at the
    isobar corners; the batch takes those rows and checks their residual,
    corners included.  A Carnot or Otto, whose corners carry their betas,
    makes the batch's kernel call alone.
    """
    segments, isobar_beta = _cycle_segments(spec, policy, samples_per_segment)
    results = _stacked_heat_work(segments, policy, samples_per_segment, isobar_beta)
    # float starts, so that a cycle with no heat of one sign writes 0.0, and
    # 0.0 - sum rather than -sum, so that Q_out is never -0.0
    q_in = sum((r.Q for r in results if r.Q > 0.0), 0.0)
    q_out = 0.0 - sum((r.Q for r in results if r.Q < 0.0), 0.0)
    w_net = -sum(r.W_thermal for r in results)
    # the results share one batch: its (9, k, n) block is read once for the
    # corners, each segment's first sample, and for every segment's S change
    block = results[0]._batch.columns
    table = block[_CORNER, :, 0].T.tolist()
    loop_entropy = sum(S_end - c[-1] for S_end, c in zip(block[_S, :, -1].tolist(), table))
    closure = _closure_residual(segments)
    first_law = abs(w_net - (q_in - q_out))
    corner_table = tuple(
        CornerRecord(label, *c, regime_parameter(spec.model, c[1], c[0]))
        for label, c in zip(CORNER_LABELS, table)
    )
    scale = sum(r.W_scale for r in results)
    cancels = _EPS * scale > CANCELLATION_TOL * abs(w_net)
    # only a Q_in of 0 is refused before the cancellation test, so a W_net
    # that cancels to 0 or to a subnormal raises ConvergenceError
    if q_in == 0.0 or not cancels and (q_in < _TINY or abs(w_net) < _TINY):
        x = max(c.regime for c in corner_table)
        part = f"Q_in = {q_in:.6g}" if q_in < _TINY else f"W_net = {w_net:.6g}"
        raise DomainError(
            f"{part} of the {spec.kind} cycle underflows below the smallest "
            f"normal float {_TINY:.6g}; its largest corner regime parameter "
            f"is x = {x:.6g}"
        )
    if cancels:
        factor = scale / abs(w_net) if w_net else math.inf
        raise ConvergenceError(
            f"W_net = {w_net:.6g} of the {spec.kind} cycle cancels: its "
            f"cancellation factor is {factor:.6g}, so eps times it "
            f"exceeds {CANCELLATION_TOL:g}"
        )
    if not (math.isfinite(q_in) and math.isfinite(w_net)):
        raise DomainError(
            f"Q_in = {q_in:.6g} and W_net = {w_net:.6g} of the {spec.kind} "
            "cycle are not both finite: its segments' heat or work overflows"
        )
    return CycleReport(
        kind=spec.kind,
        Q_in=q_in,
        Q_out=q_out,
        W_net=w_net,
        eta_numeric=w_net / q_in,
        eta_closed=spec.eta_closed,
        gamma_used=spec.model.gamma,
        corner_table=corner_table,
        segment_results=results,
        loop_entropy=loop_entropy,
        closure_residual=closure,
        closure_ok=closure <= CLOSURE_TOL,
        first_law_residual=first_law,
    )
