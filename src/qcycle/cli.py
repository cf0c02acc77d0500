"""Command-line interface.

Subcommands: run a cycle from a JSON config (report JSON + diagram CSV),
emit the closed-form efficiency table, run the invariant check suites, or
sweep one cycle parameter.  Exit codes: 0 ok, 1 check failure, 2 config
error, 3 numeric non-convergence, 4 physical-domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .checks import SCOPES, run_checks
from .config import RunConfig, parse_config, substance_document
from .cycles import CYCLE_KINDS, CycleReport, closed_form_efficiency, run_cycle
from .errors import ConfigError, ConvergenceError, DomainError
from .processes import SAMPLE_FIELDS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DOMAIN = 4

# error type -> exit code and the label main prints before its message
ERRORS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    ConvergenceError: (EXIT_NUMERIC, "numeric error"),
    DomainError: (EXIT_DOMAIN, "domain error"),
}

UNITS_NOTE = "hbar=m=k=1"

# Substance rows of the efficiency table: classical reference gases first,
# then the quantum working substances, each with its adiabatic exponent.
TABLE_SUBSTANCES = (
    ("classical_monoatomic_gas", 5.0 / 3.0),
    ("classical_diatomic_gas", 7.0 / 5.0),
    ("classical_polyatomic_gas", 4.0 / 3.0),
    ("box1d", 3.0),
    ("box2d", 2.0),
    ("box3d", 5.0 / 3.0),
    ("photon_single_mode_1d", 2.0),
    ("blackbody_3d", 4.0 / 3.0),
    ("harmonic1d", 2.0),
    ("harmonic2d", 1.5),
    ("harmonic3d", 4.0 / 3.0),
    ("spin_half", 2.0),
)

# canonical sample ratios evaluated in every table cell
TABLE_PARAMETERS = {
    "temperature_ratio": 0.5,
    "volume_ratio": 0.5,
    "force_ratio": 0.25,
    "r_C": 0.5,
    "r_E": 0.8,
}

_FORMULA_IDS = {
    "carnot": "1-T_C/T_H",
    "otto": "1-(V0/V1)^(gamma-1)",
    "brayton": "1-(F0/F1)^(1-1/gamma)",
    "diesel": "1-(1/gamma)*(r_E^gamma-r_C^gamma)/(r_E-r_C)",
}


# every float of the CSV outputs, to 17 significant digits
_FLOAT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT % float(value)


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)


def _report_document(config: RunConfig, report: CycleReport) -> dict:
    return {
        "units": UNITS_NOTE,
        "substance": substance_document(config),
        "cycle": {"kind": config.cycle_kind, **config.cycle_params},
        "gamma": report.gamma_used,
        "eta_numeric": report.eta_numeric,
        "eta_closed": report.eta_closed,
        "Q_in": report.Q_in,
        "Q_out": report.Q_out,
        "W_net": report.W_net,
        "closure_ok": report.closure_ok,
        "closure_residual": report.closure_residual,
        "loop_entropy": report.loop_entropy,
        "first_law_residual": report.first_law_residual,
        "corners": [dataclasses.asdict(c) for c in report.corner_table],
    }


def _diagram_csv(report: CycleReport) -> str:
    # one row per sample, read from the segment's columns, whose rows are
    # SAMPLE_FIELDS
    row = ",".join([_FLOAT] * len(SAMPLE_FIELDS))
    lines = [",".join(("segment_index",) + SAMPLE_FIELDS)]
    for index, result in enumerate(report.segment_results):
        indexed = f"{index}," + row
        lines.extend(indexed % tuple(values) for values in result.columns.T.tolist())
    return "\n".join(lines) + "\n"


def table_csv() -> str:
    """Machine-readable efficiency table at the canonical sample ratios."""
    lines = ["substance,gamma,cycle,formula,eta"]
    for name, gamma in TABLE_SUBSTANCES:
        for cycle in CYCLE_KINDS:
            eta = closed_form_efficiency(cycle, gamma, TABLE_PARAMETERS)
            lines.append(
                f"{name},{_fmt(gamma)},{cycle},{_FORMULA_IDS[cycle]},{_fmt(eta)}"
            )
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = config.build_cycle()
    report = run_cycle(spec, config.policy, config.output.samples_per_segment)
    report_path = args.report or config.output.report_path
    diagram_path = args.diagram or config.output.diagram_path
    document = json.dumps(_report_document(config, report), indent=2) + "\n"
    _write_atomic(report_path, document)
    _write_atomic(diagram_path, _diagram_csv(report))
    print(
        f"{config.cycle_kind}/{config.substance_kind}: "
        f"eta_numeric={report.eta_numeric:.10g} eta_closed={report.eta_closed:.10g} "
        f"W_net={report.W_net:.10g} ({report_path}, {diagram_path})"
    )
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    text = table_csv()
    if args.out:
        _write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    results = run_checks(args.scope, tolerance_scale=args.tolerance_scale)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(
            f"[{r.scope:9s}] {r.name:<{width}s} "
            f"deviation={r.deviation:10.3e} tolerance={r.tolerance:8.1e} {status}"
        )
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _sweep_point(config: RunConfig, name: str, value: float):
    params = {**config.cycle_params, name: value}
    point = dataclasses.replace(config, cycle_params=params)
    try:
        spec = point.build_cycle()
        report = run_cycle(spec, point.policy, point.output.samples_per_segment)
        return value, report.eta_numeric, report.eta_closed, EXIT_OK
    except tuple(ERRORS) as err:
        return value, None, None, ERRORS[type(err)][0]
    except ValueError:
        return value, None, None, EXIT_CONFIG


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    name = args.param
    if name not in config.cycle_params:
        raise ConfigError(
            f"--param {name!r} is not a parameter of the "
            f"{config.cycle_kind} cycle; choose from "
            f"{', '.join(config.cycle_params)}"
        )
    if args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    if args.start <= 0.0 or args.stop <= 0.0:
        raise ConfigError("sweep endpoints must be positive")
    if args.steps == 1:
        values = [args.start]
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        values = [args.start + i * step for i in range(args.steps)]

    # The points run one after another: the cycles are Python-bound, so a
    # thread pool only adds contention.  QCYCLE_NUM_THREADS is still read
    # and validated, as the accepted contract of earlier versions.
    env_cap = os.environ.get("QCYCLE_NUM_THREADS")
    if env_cap:
        try:
            int(env_cap)
        except ValueError as err:
            raise ConfigError(f"QCYCLE_NUM_THREADS must be an integer: {err}") from err

    rows = [_sweep_point(config, name, v) for v in values]

    lines = ["parameter,value,eta_numeric,eta_closed,exit_code"]
    for value, eta_n, eta_c, code in rows:
        eta_n_s = "" if eta_n is None else _fmt(eta_n)
        eta_c_s = "" if eta_c is None else _fmt(eta_c)
        lines.append(f"{name},{_fmt(value)},{eta_n_s},{eta_c_s},{code}")
    out = args.out or "sweep.csv"
    _write_atomic(out, "\n".join(lines) + "\n")
    good = sum(1 for row in rows if row[3] == EXIT_OK)
    print(f"swept {name} over {len(values)} points ({good} ok) -> {out}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main reuses it, as
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="qcycle",
        description=(
            "Quasi-static quantum thermodynamic cycles for exactly solvable "
            f"working substances (natural units, {UNITS_NOTE})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one cycle from a JSON config")
    p_run.add_argument("config", help="path to the JSON run config")
    p_run.add_argument("--report", help="override output.report_path")
    p_run.add_argument("--diagram", help="override output.diagram_path")

    p_table = sub.add_parser(
        "table", help="emit the closed-form efficiency table as CSV"
    )
    p_table.add_argument("--out", help="write to a file instead of stdout")

    p_check = sub.add_parser("check", help="run the built-in invariant suites")
    p_check.add_argument(
        "--scope", choices=SCOPES + ("all",), default="all", help="suite to run"
    )
    p_check.add_argument(
        "--tolerance-scale",
        dest="tolerance_scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (harness hook for exercising failures)",
    )

    p_sweep = sub.add_parser("sweep", help="sweep one cycle parameter")
    p_sweep.add_argument("config", help="path to the JSON run config")
    p_sweep.add_argument("--param", required=True, help="cycle parameter to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", help="output CSV path (default sweep.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "table": cmd_table,
        "check": cmd_check,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except tuple(ERRORS) as err:
        code, label = ERRORS[type(err)]
        print(f"{label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
