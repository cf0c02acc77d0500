"""Workload inputs, generated from the seed alone.

A workload is a list of operations.  Every operation of a pass is the same
in every pass of a run, so a run attempts whole rounds of identical work.
Parameter draws are narrow enough that the cost of a pass barely depends on
the seed; the operations that dominate each pass use fixed parameters.

Operation kinds:
    cycle  build_* + run_cycle through the library (route "library"), or
           ``qcycle run`` through ``qcycle.cli.main`` (route "cli")
    sweep  ``qcycle sweep`` over F0 of a Brayton config
    check  ``qcycle check --scope <scope>``

An operation with ``expect`` set is kept as a known failure: it must fail
with that error kind on every pass until the fault behind it is mended.
"""

from __future__ import annotations

import random

WORKLOADS = ("box_isobaric", "exact_cli", "multid", "sweep_check")

SAMPLES = 64  # samples per segment, the default users get

# Cold box1d Brayton whose isobar starts within about 1e-5 of the
# zero-temperature force pi^2/L_A^3.  F1 is
# equilibrium_force(box(1), 1.6718891195479735, 1.3642008072044707),
# evaluated once and fixed here so that the input does not depend on the
# program under test.
COLD_L_A = 1.3642008072044707
COLD_L_B = 2.267072997342462
COLD_F1 = 3.887469737190386


def _config(kind: str, cycle: dict, **substance) -> dict:
    return {
        "substance": {"kind": kind, **substance},
        "cycle": cycle,
        "output": {"samples_per_segment": SAMPLES},
    }


def _cycle_op(name, kind, cycle, route="library", expect=None, classical=False, **substance):
    return {
        "op": "cycle",
        "name": name,
        "route": route,
        "config": _config(kind, cycle, **substance),
        "expect": expect,
        "classical": classical,
    }


def _box_isobaric(rng: random.Random) -> list[dict]:
    ops = [
        # criterion-1 and criterion-3a parameter sets: beta E_1 <= 1e-6
        _cycle_op(
            "brayton_box1d_classical",
            "box1d",
            {"kind": "brayton", "F1": 10.0, "F0": 1.25, "L_A": 100.0, "L_B": 200.0},
            classical=True,
        ),
        _cycle_op(
            "diesel_box1d_classical",
            "box1d",
            {"kind": "diesel", "F1": 10.0, "L1": 200.0, "r_C": 0.5, "r_E": 0.8},
            classical=True,
        ),
    ]
    # quantum regime, beta E_1 between about 0.04 and 0.4
    for i in range(3):
        cycle = {"kind": "brayton", "F1": 20.0, "F0": rng.uniform(4.0, 18.0), "L_A": 1.0, "L_B": 1.2}
        ops.append(_cycle_op(f"brayton_box1d_quantum_{i}", "box1d", cycle))
    for i in range(2):
        cycle = {
            "kind": "diesel",
            "F1": 20.0,
            "L1": 2.0,
            "r_C": rng.uniform(0.5, 0.6),
            "r_E": rng.uniform(0.75, 0.85),
        }
        ops.append(_cycle_op(f"diesel_box1d_quantum_{i}", "box1d", cycle))
    ops.append(
        _cycle_op(
            "brayton_box1d_cold",
            "box1d",
            {"kind": "brayton", "F1": COLD_F1, "F0": COLD_F1 / 2.0, "L_A": COLD_L_A, "L_B": COLD_L_B},
            expect="DomainError",
        )
    )
    ops.append({"op": "check", "name": "check_substance", "scope": "substance"})
    return ops


def _linear_cycles(rng: random.Random, kind: str, kappa: float) -> list[dict]:
    f1 = rng.uniform(1.5, 2.5)
    l_a = rng.uniform(1.3, 1.7)
    l0 = rng.uniform(0.9, 1.1)
    t_h = rng.uniform(1.8, 2.2)
    u = rng.uniform
    cycles = [
        {"kind": "brayton", "F1": f1, "F0": f1 * u(0.2, 0.4), "L_A": l_a, "L_B": l_a + u(0.8, 1.2)},
        {"kind": "diesel", "F1": u(0.8, 1.2), "L1": u(3.5, 4.5), "r_C": u(0.45, 0.55), "r_E": u(0.75, 0.85)},
        {"kind": "otto", "L0": l0, "L1": l0 * u(1.8, 2.2), "beta_hot": u(0.25, 0.35), "beta_cold": u(1.5, 2.5)},
        {"kind": "carnot", "T_H": t_h, "T_C": t_h * u(0.4, 0.6), "L_A": l0, "L_B": l0 * u(1.8, 2.2)},
    ]
    return [
        _cycle_op(f"{c['kind']}_{kind}", kind, c, route="cli", mode_constant=kappa)
        for c in cycles
    ]


def _exact_cli(rng: random.Random) -> list[dict]:
    ops = []
    for draw in range(3):
        for kind in ("cavity", "harmonic1d"):
            ops += _linear_cycles(rng, kind, rng.uniform(0.8, 1.25))
        u = rng.uniform
        l0 = u(0.9, 1.1)
        t_h = u(1.8, 2.2)
        spin = [
            {"kind": "otto", "L0": l0, "L1": l0 * u(2.5, 3.5), "beta_hot": u(0.3, 0.5), "beta_cold": u(2.0, 3.0)},
            {"kind": "carnot", "T_H": t_h, "T_C": t_h * u(0.4, 0.6), "L_A": l0, "L_B": l0 * u(2.5, 3.5)},
        ]
        ops += [_cycle_op(f"{c['kind']}_spin_half", "spin_half", c, route="cli") for c in spin]
    for i, op in enumerate(ops):
        op["name"] = f"{op['name']}_{i}"
    ops.append({"op": "check", "name": "check_substance", "scope": "substance"})
    return ops


def _multid(rng: random.Random) -> list[dict]:
    def carnot(t_h, ratio, l_a, stretch):
        return {"kind": "carnot", "T_H": t_h, "T_C": t_h * ratio, "L_A": l_a, "L_B": l_a * stretch}

    def otto(l0, stretch, beta_hot, beta_cold):
        return {"kind": "otto", "L0": l0, "L1": l0 * stretch, "beta_hot": beta_hot, "beta_cold": beta_cold}

    u = rng.uniform
    ops = [
        # the ROADMAP baseline: harmonic3d Carnot, T 2 -> 1, L 1 -> 2
        _cycle_op("carnot_harmonic3d_baseline", "harmonic3d", carnot(2.0, 0.5, 1.0, 2.0)),
        _cycle_op("carnot_box2d", "box2d", carnot(u(9.0, 11.0), u(0.45, 0.55), u(9.0, 11.0), 2.0)),
        _cycle_op("otto_box2d", "box2d", otto(u(9.0, 11.0), 2.0, u(0.09, 0.11), u(0.9, 1.1))),
        _cycle_op("carnot_box3d", "box3d", carnot(u(1.8, 2.2), u(0.45, 0.55), u(1.8, 2.2), 1.5)),
        _cycle_op("otto_box3d", "box3d", otto(u(1.8, 2.2), 1.5, u(0.45, 0.55), u(1.8, 2.2))),
        _cycle_op("carnot_harmonic2d", "harmonic2d", carnot(u(1.8, 2.2), u(0.45, 0.55), u(0.9, 1.1), 2.0)),
        _cycle_op("otto_harmonic2d", "harmonic2d", otto(u(0.9, 1.1), 2.0, u(0.45, 0.55), u(1.8, 2.2))),
        _cycle_op("otto_harmonic3d", "harmonic3d", otto(u(0.9, 1.1), u(1.8, 2.2), u(0.7, 0.9), u(2.5, 3.5))),
        # level-cap faults: beta*omega = 0.05 and beta*E_1 <= 1e-6
        _cycle_op(
            "carnot_harmonic3d_hot", "harmonic3d", carnot(20.0, 0.5, 1.0, 2.0), expect="ConvergenceError"
        ),
        _cycle_op(
            "carnot_box2d_classical", "box2d", carnot(10.0, 0.5, 1000.0, 2.0), expect="ConvergenceError"
        ),
        {"op": "check", "name": "check_substance", "scope": "substance"},
    ]
    return ops


def _sweep_check(rng: random.Random) -> list[dict]:
    box_brayton = _config("box1d", {"kind": "brayton", "F1": 20.0, "F0": 10.0, "L_A": 1.0, "L_B": 1.2})
    cavity_brayton = _config("cavity", {"kind": "brayton", "F1": 2.0, "F0": 0.5, "L_A": 1.5, "L_B": 2.5})
    return [
        {
            "op": "sweep",
            "name": "sweep_box1d_brayton",
            "config": box_brayton,
            "param": "F0",
            "from": rng.uniform(4.0, 5.0),
            "to": rng.uniform(17.0, 18.0),
            "steps": 8,
        },
        {
            "op": "sweep",
            "name": "sweep_cavity_brayton",
            "config": cavity_brayton,
            "param": "F0",
            "from": rng.uniform(0.1, 0.15),
            "to": rng.uniform(1.6, 1.8),
            "steps": 16,
        },
        {"op": "check", "name": "check_all", "scope": "all"},
    ]


_GENERATORS = {
    "box_isobaric": _box_isobaric,
    "exact_cli": _exact_cli,
    "multid": _multid,
    "sweep_check": _sweep_check,
}

SWEEP_THREADS = 2


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one pass; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
