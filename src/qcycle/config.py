"""Run configuration: JSON parsing, strict validation, serialization.

A run config names one substance, one cycle with its parameters, optional
numerics overrides and optional output settings.  Unknown fields anywhere
are rejected with the offending field path, and every cycle parameter must
be a positive finite number.  How the parameters relate to one another
(F1 > F0, r_C < r_E, ...) is for the cycle builders alone to judge:
RunConfig.build_cycle turns their ValueError into a ConfigError, so run,
sweep and the library refuse the same cycles, a zero-area loop such as
F1 = F0 among them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import cycles
from .cycles import CYCLE_BUILDERS, CycleSpec
from .errors import ConfigError
from .numerics import DEFAULT_POLICY, NumericsPolicy
from .substances import KIND_PARAMETERS, KINDS, SpectrumModel

# NumericsPolicy fields and their types: a float must lie in (0, 1), an int
# must be positive
_POLICY_FIELDS = {"quad_tol": float, "quad_max_depth": int, "root_max_iter": int}
# Fields of earlier versions that nothing reads any more: still type- and
# range-checked, so every config that parsed before parses the same, then
# ignored.
_RETIRED_FIELDS = {
    "series_tol": float,
    "level_cap": int,
    "root_tol": float,
    "fd_step_rel": float,
}


@dataclass(frozen=True)
class OutputConfig:
    report_path: str = "report.json"
    diagram_path: str = "diagram.csv"
    samples_per_segment: int = 64


@dataclass(frozen=True)
class RunConfig:
    substance_kind: str
    cycle_kind: str
    cycle_params: dict[str, float]
    mass: float = 1.0
    mode_constant: float = 1.0
    policy: NumericsPolicy = DEFAULT_POLICY
    output: OutputConfig = field(default_factory=OutputConfig)

    def model(self) -> SpectrumModel:
        return SpectrumModel(
            kind=self.substance_kind, mass=self.mass, mode_constant=self.mode_constant
        )

    def build_cycle(self) -> CycleSpec:
        builder = getattr(cycles, CYCLE_BUILDERS[self.cycle_kind][0])
        # the builder is the one judge of how the parameters relate: it
        # refuses a wrong ordering, a zero-area loop, an Otto that is no
        # engine or a Brayton on a 2D substance
        try:
            return builder(self.model(), policy=self.policy, **self.cycle_params)
        except ValueError as err:
            raise ConfigError(f"cycle: {err}") from err


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    return node


def _positive_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    value = float(node)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"{path}: must be a positive finite number, got {node}")
    return value


def _reject_unknown(node: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _validate_substance(node: dict) -> tuple[str, float, float]:
    node = _require_mapping(node, "substance")
    if "kind" not in node:
        raise ConfigError("substance.kind: required")
    kind = node["kind"]
    if kind not in KINDS:
        raise ConfigError(
            f"substance.kind: unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    _reject_unknown(node, ("kind",) + KIND_PARAMETERS[kind], "substance")
    mass = _positive_number(node.get("mass", 1.0), "substance.mass")
    mode = _positive_number(node.get("mode_constant", 1.0), "substance.mode_constant")
    return kind, mass, mode


def _validate_cycle(node: dict) -> tuple[str, dict[str, float]]:
    node = _require_mapping(node, "cycle")
    if "kind" not in node:
        raise ConfigError("cycle.kind: required")
    kind = node["kind"]
    if kind not in CYCLE_BUILDERS:
        raise ConfigError(
            f"cycle.kind: unknown kind {kind!r}; expected one of "
            f"{', '.join(CYCLE_BUILDERS)}"
        )
    fields = CYCLE_BUILDERS[kind][1]
    _reject_unknown(node, ("kind",) + fields, "cycle")
    params = {}
    for name in fields:
        if name not in node:
            raise ConfigError(f"cycle.{name}: required for {kind}")
        params[name] = _positive_number(node[name], f"cycle.{name}")
    return kind, params


def _validate_numerics(node) -> NumericsPolicy:
    node = _require_mapping(node, "numerics")
    fields = {**_POLICY_FIELDS, **_RETIRED_FIELDS}
    _reject_unknown(node, tuple(fields), "numerics")
    for name, value in node.items():
        if isinstance(value, bool) or not isinstance(value, (fields[name], int)):
            expected = "an integer" if fields[name] is int else "a number"
            raise ConfigError(f"numerics.{name}: expected {expected}")
        if fields[name] is float and not 0.0 < value < 1.0:
            raise ConfigError(f"numerics: {name} must lie in (0, 1), got {value}")
        if fields[name] is int and value <= 0:
            raise ConfigError(f"numerics: {name} must be positive, got {value}")
    return NumericsPolicy(**{k: v for k, v in node.items() if k in _POLICY_FIELDS})


def _validate_output(node) -> OutputConfig:
    node = _require_mapping(node, "output")
    values = asdict(OutputConfig())
    _reject_unknown(node, tuple(values), "output")
    values.update(node)
    for name in ("report_path", "diagram_path"):
        if not isinstance(values[name], str) or not values[name]:
            raise ConfigError(f"output.{name}: expected a non-empty string")
    samples = values["samples_per_segment"]
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ConfigError("output.samples_per_segment: expected an integer >= 2")
    return OutputConfig(**values)


def validate_config(document) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    document = _require_mapping(document, "config")
    _reject_unknown(document, ("substance", "cycle", "numerics", "output"), "config")
    for section in ("substance", "cycle"):
        if section not in document:
            raise ConfigError(f"{section}: required section")
    kind, mass, mode = _validate_substance(document["substance"])
    cycle_kind, params = _validate_cycle(document["cycle"])
    policy = _validate_numerics(document.get("numerics", {}))
    output = _validate_output(document.get("output", {}))
    return RunConfig(
        substance_kind=kind,
        cycle_kind=cycle_kind,
        cycle_params=params,
        mass=mass,
        mode_constant=mode,
        policy=policy,
        output=output,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return validate_config(document)


def substance_document(config: RunConfig) -> dict:
    """The config's substance section: its kind and the parameter it uses."""
    kind = config.substance_kind
    return {"kind": kind, **{name: getattr(config, name) for name in KIND_PARAMETERS[kind]}}


def serialize_config(config: RunConfig) -> str:
    """JSON document that parses back into an equivalent RunConfig."""
    document = {
        "substance": substance_document(config),
        "cycle": {"kind": config.cycle_kind, **config.cycle_params},
        "numerics": asdict(config.policy),
        "output": asdict(config.output),
    }
    return json.dumps(document, indent=2)
