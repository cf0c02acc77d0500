"""Correctness oracles, computed apart from the program under test.

Nothing here imports qcycle.  Every supported spectrum is E_n = c_n / L^p,
so along any cycle built from it the closed-form efficiencies hold exactly
in every regime, and F = p U / L.  Corner states are recomputed from their
(beta, L) by direct level sums (box), exact Bose or tanh forms (oscillator,
cavity, spin), and d times the one-dimensional value for the separable
multi-dimensional kinds.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# kind -> (dimension d, scaling power p)
SPECTRA = {
    "box1d": (1, 2),
    "box2d": (2, 2),
    "box3d": (3, 2),
    "harmonic1d": (1, 1),
    "harmonic2d": (2, 1),
    "harmonic3d": (3, 1),
    "cavity": (1, 1),
    "spin_half": (1, 1),
}

ETA_TOL = 1e-8  # absolute, on efficiencies
CORNER_TOL = 1e-9  # relative, on corner F and U
LOOP_TOL = 1e-9  # W_net = Q_in - Q_out (relative to Q_in); loop entropy (absolute)
HELD_TOL = 1e-9  # relative drift of the held force along an isobar
CLASSICAL_REGIME = 1e-6  # beta E_1 at the classical corners


def gamma(kind: str) -> float:
    d, p = SPECTRA[kind]
    return 1.0 + p / d


def closed_efficiency(kind: str, substance: str, params: dict) -> float:
    """Brayton 1-(F0/F1)^(1-1/g), Diesel 1-(r_E^g-r_C^g)/(g(r_E-r_C)),
    Otto 1-(L0/L1)^p, Carnot 1-T_C/T_H."""
    g = gamma(substance)
    if kind == "brayton":
        return 1.0 - (params["F0"] / params["F1"]) ** (1.0 - 1.0 / g)
    if kind == "diesel":
        r_c, r_e = params["r_C"], params["r_E"]
        return 1.0 - (r_e**g - r_c**g) / (g * (r_e - r_c))
    if kind == "otto":
        return 1.0 - (params["L0"] / params["L1"]) ** SPECTRA[substance][1]
    if kind == "carnot":
        return 1.0 - params["T_C"] / params["T_H"]
    raise ValueError(f"unknown cycle kind {kind!r}")


def box_energy_1d(beta: float, L: float, mass: float = 1.0) -> float:
    """U of one box axis by a direct Gibbs sum with a Gaussian cut-off."""
    e1 = math.pi**2 / (2.0 * mass * L * L)
    c = beta * e1
    count = int(12.0 / math.sqrt(c)) + 10
    n = np.arange(1.0, count + 1.0)
    w = np.exp(-c * (n * n - 1.0))
    return e1 * float((w * n * n).sum() / w.sum())


def corner_force_energy(substance: dict, beta: float, L: float) -> tuple[float, float]:
    """Equilibrium (F, U) at (beta, L), independent of the program's sums."""
    kind = substance["kind"]
    d, p = SPECTRA[kind]
    if kind.startswith("box"):
        u = d * box_energy_1d(beta, L, substance.get("mass", 1.0))
    elif kind == "spin_half":
        u = -0.5 * math.tanh(0.5 * beta / L) / L
    else:
        omega = substance.get("mode_constant", 1.0) / L
        u = d * omega * (1.0 / math.expm1(beta * omega) + 0.5)
    return p * u / L, u


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_efficiency(outcome: dict) -> list[str]:
    want = closed_efficiency(outcome["kind"], outcome["substance"]["kind"], outcome["params"])
    dev = abs(outcome["eta"] - want)
    if not dev <= ETA_TOL:
        return [f"eta {outcome['eta']!r} vs closed form {want!r}: |dev| {dev:.2e} > {ETA_TOL:.0e}"]
    return []


def check_corners(outcome: dict) -> list[str]:
    out = []
    for c in outcome["corners"]:
        f, u = corner_force_energy(outcome["substance"], c["beta"], c["L"])
        for name, got, want in (("F", c["F"], f), ("U", c["U"], u)):
            if not _rel(got, want) <= CORNER_TOL:
                out.append(
                    f"corner {c['label']} {name} {got!r} vs oracle {want!r}: "
                    f"rel dev {_rel(got, want):.2e} > {CORNER_TOL:.0e}"
                )
    return out


def check_loop(outcome: dict) -> list[str]:
    out = []
    q_in, q_out, w_net = outcome["Q_in"], outcome["Q_out"], outcome["W_net"]
    if not abs(w_net - (q_in - q_out)) <= LOOP_TOL * abs(q_in):
        out.append(f"W_net {w_net!r} != Q_in - Q_out {q_in - q_out!r}")
    loop_s = sum(seg["S"][-1] - seg["S"][0] for seg in outcome["segments"])
    if not abs(loop_s) <= LOOP_TOL:
        out.append(f"loop entropy {loop_s:.3e} exceeds {LOOP_TOL:.0e}")
    return out


def _isobars(outcome: dict) -> list[tuple[int, float]]:
    params = outcome["params"]
    if outcome["kind"] == "brayton":
        return [(0, params["F1"]), (2, params["F0"])]
    if outcome["kind"] == "diesel":
        return [(0, params["F1"])]
    return []


def check_held_force(outcome: dict) -> list[str]:
    out = []
    for index, held in _isobars(outcome):
        worst = max(_rel(f, held) for f in outcome["segments"][index]["F"])
        if not worst <= HELD_TOL:
            out.append(f"isobar {index} drifts from F={held!r} by {worst:.2e} > {HELD_TOL:.0e}")
    return out


def check_classical(outcome: dict) -> list[str]:
    """beta E_1 <= 1e-6 at every corner, recomputed from (beta, L)."""
    out = []
    mass = outcome["substance"].get("mass", 1.0)
    for c in outcome["corners"]:
        regime = c["beta"] * math.pi**2 / (2.0 * mass * c["L"] ** 2)
        if not regime <= CLASSICAL_REGIME:
            out.append(f"corner {c['label']} beta E_1 = {regime:.2e} > {CLASSICAL_REGIME:.0e}")
        if not _rel(c["regime"], regime) <= 1e-12:
            out.append(f"corner {c['label']} regime {c['regime']!r} vs beta E_1 {regime!r}")
    return out


def check_samples(outcome: dict, samples: int) -> list[str]:
    counts = [len(seg["F"]) for seg in outcome["segments"]]
    if counts != [samples] * 4:
        return [f"diagram has {counts} rows per segment, expected 4 x {samples}"]
    return []


def check_cycle(outcome: dict, samples: int, classical: bool = False) -> list[str]:
    """Every oracle that applies to one cycle outcome."""
    out = (
        check_samples(outcome, samples)
        + check_efficiency(outcome)
        + check_corners(outcome)
        + check_loop(outcome)
        + check_held_force(outcome)
    )
    if classical:
        out += check_classical(outcome)
    return out


def check_sweep(csv_text: str, op: dict) -> list[str]:
    """Every row ran (exit code 0) and matches the Brayton closed form."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "parameter,value,eta_numeric,eta_closed,exit_code":
        return [f"unexpected sweep header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != op["steps"]:
        return [f"sweep wrote {len(rows)} rows, expected {op['steps']}"]
    out = []
    config = op["config"]
    step = (op["to"] - op["from"]) / (op["steps"] - 1)
    for i, (name, value, eta_n, eta_c, code) in enumerate(rows):
        if name != op["param"] or code != "0":
            out.append(f"sweep row {i}: parameter {name!r}, exit code {code}")
            continue
        value = float(value)
        if not abs(value - (op["from"] + i * step)) <= 1e-12 * abs(value):
            out.append(f"sweep row {i}: value {value!r} off the requested grid")
        params = {**config["cycle"], op["param"]: value}
        want = closed_efficiency("brayton", config["substance"]["kind"], params)
        for label, got in (("eta_numeric", eta_n), ("eta_closed", eta_c)):
            if not abs(float(got) - want) <= ETA_TOL:
                out.append(f"sweep row {i}: {label} {got} vs closed form {want!r}")
    return out


def check_check(code: int, stdout: str) -> list[str]:
    """`qcycle check` exits 0 with every check passed."""
    lines = stdout.strip().splitlines()
    if code != 0:
        return [f"check exited {code}"]
    if not lines:
        return ["check printed nothing"]
    results = lines[:-1]
    failed = [line for line in results if not line.rstrip().endswith(" PASS")]
    want = f"{len(results)}/{len(results)} checks passed"
    out = [f"check line not passed: {line.strip()}" for line in failed]
    if not results or lines[-1].strip() != want:
        out.append(f"check summary {lines[-1]!r}, expected {want!r}")
    return out
