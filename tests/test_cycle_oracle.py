"""Every cycle kind against the 50-digit corner oracle.

A run must give Q_in, W_net and eta_numeric within 1e-9 of the oracle, or
refuse with ConvergenceError or DomainError.  The Carnot and Otto corners
span x = beta Delta from 1e-6 to about 300 on every kind, the Brayton and
Diesel corners from 1e-6 to 10 on the one-dimensional kinds that have an
isobar.
"""

import mpmath as mp
import pytest

import mp_oracle
from qcycle.cycles import build_brayton, build_carnot, build_diesel, build_otto, run_cycle
from qcycle.errors import ConvergenceError, DomainError
from qcycle.substances import KINDS, SpectrumModel

# the smallest corner x of a case; a Carnot's largest is 2^p times it, an
# Otto's twice it
SMALLEST_X = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 150.0)


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
                yield pytest.param(kind, cycle, x, id=f"{kind}-{cycle}-{x:g}")


@pytest.mark.parametrize("kind, cycle, x", _params())
def test_cycle_matches_the_oracle_or_refuses(kind, cycle, x):
    outcome = _run_against_oracle(*_case(kind, cycle, x))
    # every case off the spin reports today.  A spin Carnot's isotherm
    # entropy change, of order x^2, is the difference of two S ~ ln 2, which
    # its W_scale counts, so at x <= 1e-3 it refuses
    if kind != "spin_half":
        assert outcome == "reports"
    elif cycle == "carnot" and x <= 1e-3:
        assert outcome == "refuses"


# The Brayton and Diesel cases.  An isobar's two ends share F, and in the
# cold the force is the vacuum force p d E_0 / L times 1 + O(e^-x) (the
# oscillators) or 1 + O(e^-3x) (the box), so the smallest corner x fixes
# L_B / L_A - 1 at about that thermal fraction: at x = 30 no float L_A lies
# between L_B and the vacuum-force length, and the box Brayton at x = 10
# rounds its L_A to one where F1 is below the vacuum force (the oracle finds
# no root there either), so neither is a case.
ISOBAR_KINDS = ("box1d", "harmonic1d", "cavity")
ISOBAR_SMALLEST_X = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.3, 1.0, 3.0, 10.0)
# the cold box Diesel, whose isobar spans L_B / L_A - 1 = 9.4e-14: the
# schedule's target <g> = F L / (2 E_1) - 1 is about 3e-13 there, so the
# rounding of F L / (2 E_1) costs it 1e-3 of its value, and the run exits 0
# with W_net off by 8.8e-4, which the cancellation guard does not count
_UNGUARDED_SCHEDULE = {("box1d", "diesel", 10.0)}


def _isobar_case(kind, cycle, x):
    model = SpectrumModel(kind)
    # B holds the smallest x, at L_B = 2 (Brayton) or 1.6 = 0.8 L1 (Diesel);
    # A, on the same isobar at F1, holds twice it
    L_B = 2.0 if cycle == "brayton" else 1.6
    F1 = mp_oracle.isobar_force(model, x, L_B)
    L_A = mp_oracle.isobar_length(model, 2.0 * x, F1)
    if cycle == "brayton":
        return model, build_brayton, mp_oracle.brayton, (F1, 0.5 * F1, L_A, L_B)
    return model, build_diesel, mp_oracle.diesel, (F1, 2.0, 0.5 * L_A, 0.8)


def _isobar_params():
    for kind in ISOBAR_KINDS:
        for cycle in ("brayton", "diesel"):
            for x in ISOBAR_SMALLEST_X:
                if (kind, cycle, x) == ("box1d", "brayton", 10.0):
                    continue
                marks = ()
                if (kind, cycle, x) in _UNGUARDED_SCHEDULE:
                    marks = pytest.mark.xfail(
                        strict=True, reason="cold box Diesel: schedule target cancels unguarded"
                    )
                yield pytest.param(kind, cycle, x, id=f"{kind}-{cycle}-{x:g}", marks=marks)


@pytest.mark.parametrize("kind, cycle, x", _isobar_params())
def test_isobaric_cycle_matches_the_oracle(kind, cycle, x):
    assert _run_against_oracle(*_isobar_case(kind, cycle, x)) == "reports"


# Two thin harmonic1d Diesels, with corner x about 3.5 and 4.5, that a
# random fuzz of 10,000 cycles found: each exits 0 with W_net off by 1.4e-9
# and 1.2e-9 and Q_in by 1.3e-9, where eps times the cancellation factor
# reads 8.9e-10 and 5.6e-10.  That factor is an estimate, not a bound, and
# no guard reads Q_in, whose Delta U cancels on a thin isobar.
THIN_DIESEL_MISSES = [
    (0.1773347832587287, 3.738844404674259, 0.46279439290210106, 0.46279447756049713),
    (11.670619812580881, 0.5756478163030726, 0.36341282281446957, 0.3634128592174086),
]


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="thin Diesel: the cancellation guard is no bound"
)
@pytest.mark.parametrize("args", THIN_DIESEL_MISSES, ids=["x-3.5", "x-4.5"])
def test_thin_harmonic_diesel_matches_the_oracle(args):
    model = SpectrumModel("harmonic1d")
    assert _run_against_oracle(model, build_diesel, mp_oracle.diesel, args) == "reports"


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.3, 0.49])
def test_oracle_box_inversion_is_the_level_sum(x):
    # the oracle's theta route for the box's <g> against its direct sum
    with mp.workdps(mp_oracle.DIGITS):
        x = mp.mpf(x)
        inverted = mp_oracle.mean("box", x)
        summed = mp_oracle.axis_moments("box", x)[1]
        assert abs(inverted - summed) <= mp.mpf("1e-45") * summed
