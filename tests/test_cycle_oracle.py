"""Carnot and Otto cycles against the 50-digit corner oracle.

A run must give Q_in, W_net and eta_numeric within 1e-9 of the oracle, or
refuse with ConvergenceError or DomainError.  The corners span x = beta Delta
from 1e-6 to about 300 on every kind.
"""

import pytest

import mp_oracle
from qcycle.cycles import build_carnot, build_otto, run_cycle
from qcycle.errors import ConvergenceError, DomainError
from qcycle.substances import KINDS, SpectrumModel

# the smallest corner x of a case; a Carnot's largest is 2^p times it, an
# Otto's twice it
SMALLEST_X = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 150.0)
# spin Carnots whose isotherm entropy change, of order x^2, cancels against
# S ~ ln 2, which an isotherm's W_scale does not count: Q_in and W_net are
# off by 2.2e-6 at x = 1e-5 and by 2.5e-9 at 1e-4, and the run exits 0
_SPIN_CARNOT_UNGUARDED = {1e-5, 1e-4}


def _case(kind, cycle, x):
    model = SpectrumModel(kind)
    gap_1, gap_2 = (float(mp_oracle.gap(model, L)) for L in (1.0, 2.0))
    if cycle == "carnot":
        # B = (T_H, L 2) holds the smallest x
        T_H = gap_2 / x
        return model, build_carnot, mp_oracle.carnot, (T_H, 0.5 * T_H, 1.0, 2.0)
    # B = (beta_hot, L0) holds the smallest x, A and D twice it
    args = (1.0, 2.0, x / gap_1, 2.0 * x / gap_2)
    return model, build_otto, mp_oracle.otto, args


def _run_against_oracle(model, build, oracle, args) -> str:
    """'reports' if the run matches the oracle to 1e-9, 'refuses' if it
    raises ConvergenceError or DomainError; a mismatch fails."""
    try:
        report = run_cycle(build(model, *args), samples_per_segment=8)
    except (ConvergenceError, DomainError):
        return "refuses"
    reference = oracle(model, *args)
    for name, got, want in (
        ("Q_in", report.Q_in, reference.Q_in),
        ("W_net", report.W_net, reference.W_net),
        ("eta", report.eta_numeric, reference.eta),
    ):
        assert abs(got - want) <= 1e-9 * abs(want), (name, got, want)
    return "reports"


def _params():
    for kind in KINDS:
        for cycle in ("carnot", "otto"):
            for x in SMALLEST_X:
                marks = ()
                if kind == "spin_half" and cycle == "carnot" and x in _SPIN_CARNOT_UNGUARDED:
                    marks = pytest.mark.xfail(
                        strict=True, reason="spin Carnot: unguarded entropy cancellation"
                    )
                yield pytest.param(kind, cycle, x, id=f"{kind}-{cycle}-{x:g}", marks=marks)


@pytest.mark.parametrize("kind, cycle, x", _params())
def test_cycle_matches_the_oracle_or_refuses(kind, cycle, x):
    outcome = _run_against_oracle(*_case(kind, cycle, x))
    # every case off the spin reports today
    if kind != "spin_half":
        assert outcome == "reports"
