"""Built-in invariant suites behind the `check` CLI command.

Each check measures a worst-case deviation over a fixed deterministic grid
and compares it against the property's tolerance.  Scopes mirror the
library layers: substance-level state functions, process-level segment
integration, cycle-level loop identities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import reference
from .cycles import build_brayton, build_carnot, build_diesel, build_otto, run_cycle
from .numerics import DEFAULT_POLICY, NumericsPolicy, derivative_centered
from .processes import (
    SAMPLE_FIELDS,
    adiabatic_advance,
    adiabatic_segment,
    isobaric_schedule,
    isobaric_segment,
    isochoric_segment,
    isothermal_segment,
    reverse_segment,
    segment_heat_work,
    work_gauss_reference,
)
from .substances import (
    box,
    cavity_mode,
    entropy,
    equilibrium_force,
    force,
    free_energy,
    gibbs_state,
    harmonic,
    internal_energy,
    spin_half,
)

SCOPES = ("substance", "process", "cycle")

_TINY = 1e-300


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _grid_states():
    """Deterministic (model, beta, L) grid spanning every substance family."""
    models = (
        box(1),
        box(2),
        harmonic(1),
        harmonic(3),
        cavity_mode(),
        spin_half(),
    )
    for model in models:
        for beta in (0.5, 1.3):
            for L in (0.8, 1.7):
                yield model, beta, L


def _check_force_gradient() -> float:
    worst = 0.0
    for model, beta, L in _grid_states():
        summed = equilibrium_force(model, beta, L)
        gradient = -derivative_centered(lambda x: free_energy(model, beta, x), L)
        worst = max(worst, abs(summed - gradient) / max(abs(summed), _TINY))
    return worst


def _check_normalization() -> float:
    """ln z of one axis from its summed Boltzmann factors against the kernel's."""
    worst = 0.0
    for model, beta, L in _grid_states():
        summed = reference.gibbs_sums(model, beta, L).log_z
        worst = max(worst, abs(summed - gibbs_state(model, beta, L).moments[0]))
    return worst


_EOS_GRID = (1e-4, 1e-6, 1e-8)


def _box_eos_excess() -> list[float]:
    """F L beta - 1 for box1d at beta E_1 in the classical-limit grid."""
    model = box(1)
    L = 1.0
    e1 = model.ground_energy(L)
    return [
        equilibrium_force(model, c / e1, L) * L * (c / e1) - 1.0
        for c in _EOS_GRID
    ]


def _check_eos_limit() -> float:
    """F L beta - 1 against s / (1 - s), s = sqrt(beta E_1 / pi), relative:
    the theta inversion's F L beta = 1 / (1 - s), up to O(e^{-pi^2/(beta E_1)})."""
    worst = 0.0
    for excess, c in zip(_box_eos_excess(), _EOS_GRID):
        s = math.sqrt(c / math.pi)
        worst = max(worst, abs(excess - s / (1.0 - s)) / (s / (1.0 - s)))
    return worst


def _check_eos_monotone() -> float:
    devs = [abs(excess) for excess in _box_eos_excess()]
    return 0.0 if devs[0] > devs[1] > devs[2] else 1.0


def _check_cavity_exactness() -> float:
    worst = 0.0
    for model in (cavity_mode(), cavity_mode(mode_constant=2.3)):
        for beta in (0.3, 0.9, 2.2):
            for L in (0.6, 1.4):
                summed = equilibrium_force(model, beta, L)
                closed = reference.force_equilibrium_closed(model, beta, L)
                worst = max(worst, abs(summed - closed) / abs(closed))
    return worst


def _check_entropy_identity() -> float:
    """Shannon entropy of the summed level vector against ln Z + beta U from
    the kernel: the truncated sum is the independent route."""
    worst = 0.0
    for model, beta, L in _grid_states():
        state = gibbs_state(model, beta, L)
        shannon = reference.gibbs_sums(model, beta, L).entropy
        identity = state.log_partition + beta * internal_energy(state, model)
        worst = max(worst, abs(shannon - identity) / max(abs(shannon), 1e-3))
    return worst


def _check_monotonicity() -> float:
    """Z strictly increasing and U non-decreasing with T, at fixed L.

    Positive-spectrum kinds only: the spin's Z = 2 cosh(beta/(2L)) decreases
    with T because its ground level is negative.
    """
    temperatures = np.linspace(0.4, 3.0, 6)
    for model in (box(1), box(2), harmonic(1), harmonic(3), cavity_mode()):
        z_prev = u_prev = -math.inf
        for T in temperatures:
            beta = 1.0 / float(T)
            state = gibbs_state(model, beta, 1.1)
            z, u = math.exp(state.log_partition), internal_energy(state, model)
            if z <= z_prev or u < u_prev:
                return 1.0
            z_prev, u_prev = z, u
    return 0.0


def _substance_checks(policy: NumericsPolicy) -> list[tuple[str, float, float]]:
    # no substance check solves an isobar or integrates, so policy goes unread
    return [
        ("force_matches_free_energy_gradient", _check_force_gradient(), 1e-11),
        ("gibbs_normalization", _check_normalization(), 1e-12),
        ("box1d_equation_of_state_limit", _check_eos_limit(), 1e-10),
        ("box1d_equation_of_state_monotone", _check_eos_monotone(), 0.5),
        ("cavity_force_exactness", _check_cavity_exactness(), 1e-12),
        ("entropy_identity", _check_entropy_identity(), 1e-10),
        ("monotonicity_Z_U_in_T", _check_monotonicity(), 0.5),
    ]


def _segment_set(policy: NumericsPolicy):
    """Representative segments of every kind over several substances."""
    b1, cav, sp, h1 = box(1), cavity_mode(), spin_half(), harmonic(1)
    return (
        isothermal_segment(b1, 0.8, 1.0, 2.0),
        isothermal_segment(sp, 1.2, 0.7, 1.9),
        isothermal_segment(h1, 0.6, 1.1, 1.8),
        isochoric_segment(b1, 1.2, 0.6, 1.8),
        isochoric_segment(sp, 1.0, 0.5, 2.5),
        # box1d zero-temperature force at L=1 is pi^2; stay above it
        isobaric_segment(b1, 20.0, 1.0, 2.0, policy),
        isobaric_segment(cav, 1.0, 1.0, 1.6, policy),
        adiabatic_segment(b1, 0.7, 1.0, 1.9),
        adiabatic_segment(cav, 0.9, 1.0, 2.3),
    )


def _scale(result) -> float:
    return max(abs(result.Q), abs(result.W_on), abs(result.delta_U), _TINY)


def _check_first_law(results) -> float:
    return max(
        abs(r.delta_U - r.Q_direct - r.W_on) / _scale(r) for r in results
    )


def _check_adiabat_entropy() -> float:
    worst = 0.0
    for model, beta, L, L_to in (
        (box(1), 0.7, 1.0, 1.9),
        (cavity_mode(), 0.9, 1.0, 2.3),
        (spin_half(), 1.4, 0.8, 2.0),
        (harmonic(3), 0.8, 1.0, 1.5),
    ):
        start = gibbs_state(model, beta, L)
        moved = adiabatic_advance(model, start, L_to)
        if moved.x != start.x or moved.moments != start.moments:
            return math.inf
        fresh = gibbs_state(model, moved.beta, moved.length)
        worst = max(worst, abs(entropy(fresh) - entropy(start)))
    return worst


def _held_drift(result) -> float:
    # held is "T", "L", "F" or "S", each a row of the result's columns
    seg = result.segment
    values = result.columns[SAMPLE_FIELDS.index(seg.held)]
    return float(np.abs(values - seg.held_value).max()) / max(abs(seg.held_value), _TINY)


def _check_reversal(results, policy: NumericsPolicy) -> float:
    worst = 0.0
    for r in results:
        back = segment_heat_work(reverse_segment(r.segment), policy, 16)
        worst = max(
            worst,
            abs(r.Q + back.Q) / _scale(r),
            abs(r.W_on + back.W_on) / _scale(r),
        )
    return worst


def _check_schedule_residual(policy: NumericsPolicy) -> float:
    """50 cavity (force, L) pairs across the valid domain 2 F L^2 > kappa."""
    rng = random.Random(20130527)
    model = cavity_mode()
    worst = 0.0
    for _ in range(50):
        L = rng.uniform(0.5, 3.0)
        vacuum = 0.5 * model.mode_constant / (L * L)
        target = vacuum * (1.0 + rng.uniform(0.05, 5.0))
        beta = isobaric_schedule(model, target, L, policy)
        realized = equilibrium_force(model, beta, L)
        worst = max(worst, abs(realized - target) / target)
    return worst


def _process_checks(policy: NumericsPolicy) -> list[tuple[str, float, float]]:
    results = [segment_heat_work(seg, policy, 16) for seg in _segment_set(policy)]
    duality = max(
        abs(r.W_on - work_gauss_reference(r.segment, policy)) / _scale(r)
        for r in results
        if r.segment.kind != "isochoric"
    )
    return [
        ("first_law_closure", _check_first_law(results), 1e-12),
        ("adiabat_entropy_invariance", _check_adiabat_entropy(), 1e-12),
        ("held_value_drift", max(_held_drift(r) for r in results), 1e-8),
        ("work_force_duality", duality, 1e-10),
        ("segment_reversal_antisymmetry", _check_reversal(results, policy), 1e-8),
        ("isobaric_schedule_residual", _check_schedule_residual(policy), 1e-10),
    ]


def _cycle_suite(policy: NumericsPolicy):
    samples = 16  # diagram density does not matter for loop identities
    reports = [
        run_cycle(build_brayton(cavity_mode(), 2.0, 0.5, 1.5, 2.5, policy), policy, samples),
        run_cycle(build_diesel(cavity_mode(), 1.0, 4.0, 0.5, 0.8, policy), policy, samples),
        run_cycle(build_otto(box(1), 1.0, 2.0, 0.3, 2.0, policy), policy, samples),
        run_cycle(build_otto(cavity_mode(), 1.0, 2.0, 0.3, 1.5, policy), policy, samples),
        run_cycle(build_carnot(spin_half(), 2.0, 1.0, 1.0, 3.0, policy), policy, samples),
    ]
    return reports


def _check_carnot_universality(policy: NumericsPolicy, loops) -> float:
    """Worst |eta_numeric - 0.5| over Carnot loops (model, T_H, L_A) at
    T_C = T_H/2 and L_B = 2 L_A."""
    worst = 0.0
    for model, t_h, l_a in loops:
        spec = build_carnot(model, t_h, 0.5 * t_h, l_a, 2.0 * l_a, policy)
        worst = max(worst, abs(run_cycle(spec, policy, 8).eta_numeric - 0.5))
    return worst


def _cycle_checks(policy: NumericsPolicy) -> list[tuple[str, float, float]]:
    reports = _cycle_suite(policy)
    closure = max(r.closure_residual for r in reports)
    loop_s = max(abs(r.loop_entropy) for r in reports)
    exact_agreement = max(abs(r.eta_numeric - r.eta_closed) for r in reports)
    box_brayton = run_cycle(
        build_brayton(box(1), 10.0, 1.25, 100.0, 200.0, policy), policy, 8
    )
    box_diesel = run_cycle(
        build_diesel(box(1), 10.0, 200.0, 0.5, 0.8, policy), policy, 8
    )
    classical_agreement = max(
        abs(box_brayton.eta_numeric - box_brayton.eta_closed),
        abs(box_diesel.eta_numeric - box_diesel.eta_closed),
    )
    loop_s = max(
        loop_s, abs(box_brayton.loop_entropy), abs(box_diesel.loop_entropy)
    )
    closure = max(
        closure, box_brayton.closure_residual, box_diesel.closure_residual
    )
    exact = [(model, 2.0, 1.0) for model in (cavity_mode(), harmonic(1), spin_half())]
    # beta E_1 ~ 5e-7 at the corners
    classical = [(box(1), 10.0, 1000.0)]
    # corner x of 49.3 and 50: the work is far below the ground energy
    cold = [(box(1), 0.1, 1.0), (cavity_mode(), 0.02, 1.0)]
    return [
        ("loop_closure", closure, 1e-10),
        ("loop_entropy_zero", loop_s, 1e-9),
        ("carnot_universality_exact", _check_carnot_universality(policy, exact), 1e-12),
        (
            "carnot_universality_box_classical",
            _check_carnot_universality(policy, classical),
            1e-12,
        ),
        ("carnot_universality_cold", _check_carnot_universality(policy, cold), 1e-12),
        ("efficiency_agreement_exact", exact_agreement, 1e-12),
        ("efficiency_agreement_box_classical", classical_agreement, 1e-12),
    ]


def run_checks(
    scope: str = "all",
    policy: NumericsPolicy = DEFAULT_POLICY,
    tolerance_scale: float = 1.0,
) -> list[CheckResult]:
    """Run the invariant suites of one scope (or all of them).

    tolerance_scale multiplies every tolerance; it exists so harnesses can
    deliberately make the suite unsatisfiable and exercise failure paths.
    """
    if scope not in SCOPES + ("all",):
        raise ValueError(f"scope must be one of {SCOPES + ('all',)}, got {scope!r}")
    suites = {
        "substance": _substance_checks,
        "process": _process_checks,
        "cycle": _cycle_checks,
    }
    wanted = SCOPES if scope == "all" else (scope,)
    out: list[CheckResult] = []
    for name in wanted:
        for check_name, deviation, tolerance in suites[name](policy):
            out.append(
                CheckResult(
                    name=check_name,
                    scope=name,
                    deviation=float(deviation),
                    tolerance=tolerance * tolerance_scale,
                )
            )
    return out
