"""The benchmark's own checks accept right values and reject wrong ones.

    python3 -m pytest perfbench/test_oracles.py      (or: python3 perfbench/test_oracles.py)

Each test builds a correct outcome from the oracles' own formulas, shows
that it passes, then breaks one value slightly and shows that the matching
check rejects it.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

SAMPLES = 3


def _corner(label, substance, beta, L):
    f, u = oracles.corner_force_energy(substance, beta, L)
    regime = beta * math.pi**2 / (2.0 * substance.get("mass", 1.0) * L * L)
    return {"label": label, "L": L, "beta": beta, "F": f, "U": u, "regime": regime}


def brayton(kind="box1d", beta=0.3, **substance):
    """A consistent Brayton outcome: closed-form eta, oracle corners, a
    closed loop and flat isobars."""
    substance = {"kind": kind, **substance}
    params = {"kind": "brayton", "F1": 20.0, "F0": 8.0, "L_A": 1.0, "L_B": 1.2}
    eta = oracles.closed_efficiency("brayton", kind, params)
    return {
        "kind": "brayton",
        "substance": substance,
        "params": params,
        "eta": eta,
        "Q_in": 2.0,
        "Q_out": 2.0 * (1.0 - eta),
        "W_net": 2.0 * eta,
        "corners": [
            _corner(label, substance, beta * (1 + i), 1.0 + 0.1 * i) for i, label in enumerate("ABCD")
        ],
        "segments": [
            {"F": [20.0] * SAMPLES, "S": [0.0, 0.5, 1.0]},
            {"F": [15.0, 12.0, 8.0], "S": [1.0, 1.0, 1.0]},
            {"F": [8.0] * SAMPLES, "S": [1.0, 0.5, 0.0]},
            {"F": [8.0, 12.0, 20.0], "S": [0.0, 0.0, 0.0]},
        ],
    }


def test_correct_outcomes_pass():
    assert oracles.check_cycle(brayton(), SAMPLES) == []
    assert oracles.check_cycle(brayton("cavity", mode_constant=1.2), SAMPLES) == []
    assert oracles.check_cycle(brayton("harmonic3d"), SAMPLES) == []
    assert oracles.check_cycle(brayton("box2d"), SAMPLES) == []
    assert oracles.check_cycle(brayton(beta=1e-8), SAMPLES, classical=True) == []


def test_efficiency_off_by_1e6_is_rejected():
    outcome = brayton()
    outcome["eta"] += 1e-6
    assert oracles.check_efficiency(outcome)


def test_each_closed_form_is_the_textbook_one():
    assert oracles.closed_efficiency("carnot", "spin_half", {"T_H": 2.0, "T_C": 1.0}) == 0.5
    assert oracles.closed_efficiency("otto", "box1d", {"L0": 1.0, "L1": 2.0}) == 0.75
    ratios = {"r_C": 0.5, "r_E": 0.8}
    assert abs(oracles.closed_efficiency("brayton", "box1d", {"F0": 1.25, "F1": 10.0}) - 0.75) < 1e-15
    assert abs(oracles.closed_efficiency("diesel", "box1d", ratios) - 0.57) < 1e-15
    assert abs(oracles.closed_efficiency("diesel", "cavity", ratios) - 0.35) < 1e-15


def test_corner_force_from_the_wrong_spectrum_is_rejected():
    outcome = brayton()
    c = outcome["corners"][1]
    c["F"], _ = oracles.corner_force_energy({"kind": "cavity"}, c["beta"], c["L"])
    assert oracles.check_corners(outcome)
    # a separable kind must be d times the 1D value, not the 1D value itself
    outcome = brayton("harmonic3d")
    c = outcome["corners"][0]
    c["U"] /= 3.0
    assert oracles.check_corners(outcome)


def test_corner_energy_off_by_1e8_is_rejected():
    outcome = brayton("box3d")
    outcome["corners"][2]["U"] *= 1.0 + 1e-8
    assert oracles.check_corners(outcome)


def test_box_sum_matches_the_classical_limit():
    # beta F L -> 1/(1 - sqrt(x/pi)) as x = beta E_1 -> 0
    x = 1e-6
    beta = x / (math.pi**2 / 2.0)
    f, _ = oracles.corner_force_energy({"kind": "box1d"}, beta, 1.0)
    assert abs(beta * f - 1.0 / (1.0 - math.sqrt(x / math.pi))) < 1e-9


def test_first_law_mismatch_is_rejected():
    outcome = brayton()
    outcome["W_net"] *= 1.0 + 1e-6
    assert oracles.check_loop(outcome)


def test_loop_entropy_is_rejected():
    outcome = brayton()
    outcome["segments"][3]["S"][-1] = 1e-8
    assert oracles.check_loop(outcome)


def test_isobar_drift_is_rejected():
    outcome = brayton()
    outcome["segments"][2]["F"][1] *= 1.0 + 1e-8
    assert oracles.check_held_force(outcome)


def test_warm_corner_is_not_classical():
    outcome = brayton(beta=2e-6 / (math.pi**2 / 2.0))
    assert oracles.check_classical(outcome)
    outcome = brayton(beta=1e-8)
    assert oracles.check_classical(outcome) == []
    outcome["corners"][0]["regime"] *= 2.0
    assert oracles.check_classical(outcome)


def test_short_diagram_is_rejected():
    outcome = brayton()
    outcome["segments"][1]["F"].pop()
    assert oracles.check_samples(outcome, SAMPLES)


SWEEP = {
    "config": {"substance": {"kind": "cavity"}, "cycle": {"kind": "brayton", "F1": 2.0, "F0": 0.5}},
    "param": "F0",
    "from": 0.5,
    "to": 1.5,
    "steps": 3,
}


def _sweep_csv(etas=None, codes=("0", "0", "0")):
    lines = ["parameter,value,eta_numeric,eta_closed,exit_code"]
    for i, code in enumerate(codes):
        value = 0.5 + i * 0.5
        eta = 1.0 - (value / 2.0) ** 0.5
        got = eta if etas is None else etas[i]
        lines.append(f"F0,{value!r},{got!r},{eta!r},{code}")
    return "\n".join(lines) + "\n"


def test_sweep_rows():
    assert oracles.check_sweep(_sweep_csv(), SWEEP) == []
    assert oracles.check_sweep(_sweep_csv(codes=("0", "4", "0")), SWEEP)
    etas = [1.0 - (v / 2.0) ** 0.5 for v in (0.5, 1.0, 1.5)]
    etas[2] += 1e-6
    assert oracles.check_sweep(_sweep_csv(etas), SWEEP)
    assert oracles.check_sweep(_sweep_csv().rsplit("\n", 2)[0] + "\n", SWEEP)


CHECK_OUT = (
    "[substance] gibbs_normalization deviation= 1.110e-16 tolerance= 1.0e-12 PASS\n"
    "[process  ] first_law_closure   deviation= 2.000e-10 tolerance= 1.0e-08 PASS\n"
    "2/2 checks passed\n"
)


def test_check_output():
    assert oracles.check_check(0, CHECK_OUT) == []
    assert oracles.check_check(1, CHECK_OUT)
    assert oracles.check_check(0, CHECK_OUT.replace("08 PASS", "08 FAIL"))
    assert oracles.check_check(0, CHECK_OUT.replace("2/2", "1/2"))
    assert oracles.check_check(0, "")


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} oracle self-tests passed")
