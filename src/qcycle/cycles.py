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

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import DEFAULT_POLICY, NumericsPolicy
from .processes import (
    SAMPLE_FIELDS,
    ProcessSegment,
    SegmentResult,
    _adiabatic_pair,
    isobaric_schedule,
    isobaric_segment,
    isochoric_segment,
    isothermal_segment,
    stacked_heat_work,
)
from .substances import SpectrumModel, regime_parameter

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
_S = SAMPLE_FIELDS.index("S")
_CORNER = slice(SAMPLE_FIELDS.index("L"), _S + 1)


@dataclass(frozen=True)
class CycleSpec:
    """A closed four-segment cycle ready to run."""

    model: SpectrumModel
    kind: str
    segments: tuple[ProcessSegment, ...]
    parameters: dict[str, float]


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


def build_brayton(
    model: SpectrumModel,
    F1: float,
    F0: float,
    L_A: float,
    L_B: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> CycleSpec:
    """Two isobars at F1 > F0 joined by adiabats.

    Corners C and D are derived from the adiabatic relation
    F L^gamma = const: L_C = L_B (F1/F0)^(1/gamma), L_D likewise from L_A.
    F1 = F0 or L_A = L_B, a zero-area loop, raises ValueError.  The four
    corners' temperatures come from one isobaric schedule solve.
    """
    _require_1d(model, "brayton")
    if not 0.0 < F0 < F1:
        raise ValueError(f"need F1 > F0 > 0, got F1={F1}, F0={F0}")
    if not 0.0 < L_A < L_B:
        raise ValueError(f"need L_B > L_A > 0, got L_A={L_A}, L_B={L_B}")
    stretch = (F1 / F0) ** (1.0 / model.gamma)
    L_C, L_D = L_B * stretch, L_A * stretch
    beta_a, beta_b, beta_c, beta_d = isobaric_schedule(
        model, np.array([F1, F1, F0, F0]), np.array([L_A, L_B, L_C, L_D]), policy
    ).tolist()
    seg_ab = ProcessSegment("isobaric", model, beta_a, L_A, beta_b, L_B, "F", F1)
    seg_bc, seg_da = _adiabatic_pair(model, (beta_b, beta_d), (L_B, L_D), (L_C, L_A))
    seg_cd = ProcessSegment("isobaric", model, beta_c, L_C, beta_d, L_D, "F", F0)
    return CycleSpec(
        model=model,
        kind="brayton",
        segments=(seg_ab, seg_bc, seg_cd, seg_da),
        parameters={
            "F1": F1,
            "F0": F0,
            "L_A": L_A,
            "L_B": L_B,
            "force_ratio": F0 / F1,
        },
    )


def build_diesel(
    model: SpectrumModel,
    F1: float,
    L1: float,
    r_C: float,
    r_E: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> CycleSpec:
    """Isobar at F1, adiabat, isochore at L1, adiabat.

    L1 is the largest coordinate; the isobar runs from L_A = r_C L1 to
    L_B = r_E L1 with 0 < r_C < r_E < 1; r_C = r_E, a zero-area loop,
    raises ValueError.  The corner forces then satisfy F_C = F1 r_E^gamma
    and F_D = F1 r_C^gamma.
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
    power = model.scaling_power
    seg_ab = isobaric_segment(model, F1, L_A, L_B, policy)
    beta_d = seg_ab.beta_start * (L1 / L_A) ** power
    seg_bc, seg_da = _adiabatic_pair(
        model, (seg_ab.beta_end, beta_d), (L_B, L1), (L1, L_A)
    )
    seg_cd = isochoric_segment(model, L1, seg_bc.beta_end, beta_d)
    return CycleSpec(
        model=model,
        kind="diesel",
        segments=(seg_ab, seg_bc, seg_cd, seg_da),
        parameters={"F1": F1, "L1": L1, "r_C": r_C, "r_E": r_E},
    )


def build_otto(
    model: SpectrumModel,
    L0: float,
    L1: float,
    beta_hot: float,
    beta_cold: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> CycleSpec:
    """Two isochores at L0 < L1 joined by adiabats.

    B = (L0, beta_hot) is the hottest corner, D = (L1, beta_cold) the
    coldest; A and C follow from the adiabats.  Engine operation needs the
    A->B isochore to actually heat, i.e. beta_cold (L0/L1)^p > beta_hot;
    equality, like L0 = L1, is a zero-area loop and raises ValueError.
    Valid for any substance kind; the closed form uses the volume ratio
    (L0/L1)^d.  No isobar is solved, so policy goes unread; it keeps the
    four builders' signatures alike.
    """
    if not 0.0 < L0 < L1:
        raise ValueError(f"need L1 > L0 > 0, got L0={L0}, L1={L1}")
    if beta_hot <= 0.0 or beta_cold <= 0.0:
        raise ValueError("need positive beta_hot and beta_cold")
    power = model.scaling_power
    beta_a = beta_cold * (L0 / L1) ** power
    beta_c = beta_hot * (L1 / L0) ** power
    if beta_a <= beta_hot:
        raise ValueError(
            "not an engine: compression must leave the substance colder than "
            f"the hot corner, need beta_cold (L0/L1)^p > beta_hot, got "
            f"{beta_a} <= {beta_hot}"
        )
    seg_ab = isochoric_segment(model, L0, beta_a, beta_hot)
    seg_bc, seg_da = _adiabatic_pair(model, (beta_hot, beta_cold), (L0, L1), (L1, L0))
    seg_cd = isochoric_segment(model, L1, beta_c, beta_cold)
    return CycleSpec(
        model=model,
        kind="otto",
        segments=(seg_ab, seg_bc, seg_cd, seg_da),
        parameters={
            "L0": L0,
            "L1": L1,
            "beta_hot": beta_hot,
            "beta_cold": beta_cold,
            "volume_ratio": (L0 / L1) ** model.dimension,
        },
    )


def build_carnot(
    model: SpectrumModel,
    T_H: float,
    T_C: float,
    L_A: float,
    L_B: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> CycleSpec:
    """Two isotherms at T_H > T_C joined by adiabats; any substance kind.

    T_H = T_C or L_A = L_B, a zero-area loop, raises ValueError.  No
    isobar is solved, so policy goes unread; it keeps the four builders'
    signatures alike.
    """
    if not 0.0 < T_C < T_H:
        raise ValueError(f"need T_H > T_C > 0, got T_H={T_H}, T_C={T_C}")
    if not 0.0 < L_A < L_B:
        raise ValueError(f"need L_B > L_A > 0, got L_A={L_A}, L_B={L_B}")
    beta_h, beta_c = 1.0 / T_H, 1.0 / T_C
    stretch = (T_H / T_C) ** (1.0 / model.scaling_power)
    L_C, L_D = L_B * stretch, L_A * stretch
    seg_ab = isothermal_segment(model, beta_h, L_A, L_B)
    seg_bc, seg_da = _adiabatic_pair(model, (beta_h, beta_c), (L_B, L_D), (L_C, L_A))
    seg_cd = isothermal_segment(model, beta_c, L_C, L_D)
    return CycleSpec(
        model=model,
        kind="carnot",
        segments=(seg_ab, seg_bc, seg_cd, seg_da),
        parameters={
            "T_H": T_H,
            "T_C": T_C,
            "L_A": L_A,
            "L_B": L_B,
            "temperature_ratio": T_C / T_H,
        },
    )


# cycle kind -> the name of its builder in this module and the builder's
# parameters between model and policy, in the order a config error lists the
# kinds.  A builder is named rather than held, so a call looks it up in this
# module's namespace and passes through whatever is bound there.
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
    The corners are the segments' first samples and loop_entropy sums each
    segment's S change, both read from the batch's columns, so a run builds
    no PathSample.
    """
    results = stacked_heat_work(spec.segments, policy, samples_per_segment)
    # float starts, so that a cycle with no heat of one sign writes 0.0, and
    # 0.0 - sum rather than -sum, so that Q_out is never -0.0
    q_in = sum((r.Q for r in results if r.Q > 0.0), 0.0)
    q_out = 0.0 - sum((r.Q for r in results if r.Q < 0.0), 0.0)
    w_net = -sum(r.W_thermal for r in results)
    loop_entropy = sum((r.columns[_S, -1] - r.columns[_S, 0]).item() for r in results)
    closure = _closure_residual(spec.segments)
    first_law = abs(w_net - (q_in - q_out))
    corner_table = tuple(
        CornerRecord(label, *c, regime_parameter(spec.model, c[1], c[0]))
        for label, c in zip(CORNER_LABELS, (r.columns[_CORNER, 0].tolist() for r in results))
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
    return CycleReport(
        kind=spec.kind,
        Q_in=q_in,
        Q_out=q_out,
        W_net=w_net,
        eta_numeric=w_net / q_in,
        eta_closed=closed_form_efficiency(
            spec.kind, spec.model.gamma, spec.parameters
        ),
        gamma_used=spec.model.gamma,
        corner_table=corner_table,
        segment_results=results,
        loop_entropy=loop_entropy,
        closure_residual=closure,
        closure_ok=closure <= CLOSURE_TOL,
        first_law_residual=first_law,
    )
