"""Config parsing, validation and round-trip serialization."""

import json

import pytest

from qcycle.config import (
    OutputConfig,
    parse_config,
    serialize_config,
    substance_document,
    validate_config,
)
from qcycle.cycles import CYCLE_BUILDERS, run_cycle
from qcycle.errors import ConfigError
from qcycle.numerics import DEFAULT_POLICY, NumericsPolicy
from qcycle.substances import (
    BOX_KINDS,
    KIND_PARAMETERS,
    KINDS,
    OSCILLATOR_KINDS,
    SpectrumModel,
    box,
    cavity_mode,
    harmonic,
    spin_half,
)

MINIMAL_BRAYTON = {
    "substance": {"kind": "box1d"},
    "cycle": {"kind": "brayton", "F1": 8.0, "F0": 1.0, "L_A": 1.0, "L_B": 2.0},
}


def test_minimal_brayton_config():
    config = validate_config(MINIMAL_BRAYTON)
    assert config.substance_kind == "box1d"
    assert config.cycle_kind == "brayton"
    assert config.cycle_params == {"F1": 8.0, "F0": 1.0, "L_A": 1.0, "L_B": 2.0}
    assert config.output.samples_per_segment == 64
    assert config.policy == DEFAULT_POLICY


def test_unknown_field_rejected_by_name():
    doc = {
        "substance": {"kind": "box1d", "pressure_units": "atm"},
        "cycle": MINIMAL_BRAYTON["cycle"],
    }
    with pytest.raises(ConfigError, match="pressure_units"):
        validate_config(doc)


def test_diesel_ordering_rule():
    doc = {
        "substance": {"kind": "cavity"},
        "cycle": {"kind": "diesel", "F1": 1.0, "L1": 4.0, "r_C": 0.8, "r_E": 0.5},
    }
    with pytest.raises(ConfigError, match="r_C < r_E"):
        validate_config(doc).build_cycle()
    doc["cycle"]["r_C"] = doc["cycle"]["r_E"] = 0.6
    with pytest.raises(ConfigError, match="r_C < r_E"):
        validate_config(doc).build_cycle()


def test_substance_parameter_scoping():
    with pytest.raises(ConfigError, match="mass"):
        validate_config(
            {
                "substance": {"kind": "cavity", "mass": 2.0},
                "cycle": MINIMAL_BRAYTON["cycle"],
            }
        )
    with pytest.raises(ConfigError, match="mode_constant"):
        validate_config(
            {
                "substance": {"kind": "spin_half", "mode_constant": 2.0},
                "cycle": MINIMAL_BRAYTON["cycle"],
            }
        )


def test_unknown_kinds():
    with pytest.raises(ConfigError, match="substance.kind"):
        validate_config({"substance": {"kind": "rotor"}, "cycle": MINIMAL_BRAYTON["cycle"]})
    with pytest.raises(ConfigError, match="cycle.kind"):
        validate_config({"substance": {"kind": "box1d"}, "cycle": {"kind": "stirling"}})


def test_missing_required_parameter():
    doc = {
        "substance": {"kind": "box1d"},
        "cycle": {"kind": "brayton", "F1": 8.0, "F0": 1.0, "L_A": 1.0},
    }
    with pytest.raises(ConfigError, match="cycle.L_B"):
        validate_config(doc)


def test_nonpositive_value_rejected():
    doc = {
        "substance": {"kind": "box1d"},
        "cycle": {"kind": "brayton", "F1": 8.0, "F0": -1.0, "L_A": 1.0, "L_B": 2.0},
    }
    with pytest.raises(ConfigError, match="cycle.F0"):
        validate_config(doc)


def test_numerics_overrides():
    doc = dict(MINIMAL_BRAYTON, numerics={"quad_tol": 1e-9, "root_max_iter": 50})
    config = validate_config(doc)
    assert config.policy.quad_tol == 1e-9
    assert config.policy.root_max_iter == 50
    assert config.policy.quad_max_depth == 40  # untouched default
    with pytest.raises(ConfigError, match="numerics: quad_tol"):
        validate_config(dict(MINIMAL_BRAYTON, numerics={"quad_tol": 2.0}))
    with pytest.raises(ConfigError, match="numerics.banana"):
        validate_config(dict(MINIMAL_BRAYTON, numerics={"banana": 1}))


@pytest.mark.parametrize("name", ["series_tol", "level_cap", "root_tol", "fd_step_rel"])
def test_retired_numerics_names_are_unknown_fields(name):
    with pytest.raises(ConfigError, match=f"^numerics.{name}: unknown field$"):
        validate_config(dict(MINIMAL_BRAYTON, numerics={name: 40}))


@pytest.mark.parametrize(
    "numerics, message",
    [
        ({"quad_tol": 2.0}, "quad_tol must lie in (0, 1), got 2.0"),
        ({"quad_tol": 0}, "quad_tol must lie in (0, 1), got 0"),
        ({"quad_max_depth": 0}, "quad_max_depth must be positive, got 0"),
        ({"root_max_iter": -3}, "root_max_iter must be positive, got -3"),
    ],
)
def test_numerics_range_is_judged_by_the_policy(numerics, message):
    with pytest.raises(ValueError) as policy_err:
        NumericsPolicy(**numerics)
    assert str(policy_err.value) == message
    with pytest.raises(ConfigError) as config_err:
        validate_config(dict(MINIMAL_BRAYTON, numerics=numerics))
    assert str(config_err.value) == f"numerics: {message}"


@pytest.mark.parametrize(
    "numerics, message",
    [
        ({"quad_tol": "small"}, "numerics.quad_tol: expected a number"),
        ({"quad_max_depth": 40.5}, "numerics.quad_max_depth: expected an integer"),
        ({"root_max_iter": True}, "numerics.root_max_iter: expected an integer"),
    ],
)
def test_numerics_types_follow_the_policy_defaults(numerics, message):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL_BRAYTON, numerics=numerics))
    assert str(err.value) == message


def test_output_validation():
    doc = dict(MINIMAL_BRAYTON, output={"samples_per_segment": 1})
    with pytest.raises(ConfigError, match="samples_per_segment"):
        validate_config(doc)
    doc = dict(MINIMAL_BRAYTON, output={"report_path": ""})
    with pytest.raises(ConfigError, match="report_path"):
        validate_config(doc)


def test_malformed_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{substance: box1d}")


def test_round_trip():
    doc = {
        "substance": {"kind": "cavity", "mode_constant": 2.5},
        "cycle": {"kind": "diesel", "F1": 1.0, "L1": 4.0, "r_C": 0.5, "r_E": 0.8},
        "numerics": {"quad_tol": 1e-9},
        "output": {"report_path": "out.json", "samples_per_segment": 16},
    }
    config = validate_config(doc)
    again = parse_config(serialize_config(config))
    assert again == config


def test_round_trip_defaults():
    config = validate_config(MINIMAL_BRAYTON)
    assert parse_config(serialize_config(config)) == config


def test_otto_and_carnot_orderings():
    with pytest.raises(ConfigError, match="beta_cold"):
        validate_config(
            {
                "substance": {"kind": "box1d"},
                "cycle": {"kind": "otto", "L0": 1.0, "L1": 2.0,
                          "beta_hot": 2.0, "beta_cold": 1.0},
            }
        ).build_cycle()
    with pytest.raises(ConfigError, match="T_H"):
        validate_config(
            {
                "substance": {"kind": "box1d"},
                "cycle": {"kind": "carnot", "T_H": 1.0, "T_C": 2.0,
                          "L_A": 1.0, "L_B": 2.0},
            }
        ).build_cycle()


def test_config_builds_runnable_cycle():
    doc = {
        "substance": {"kind": "cavity"},
        "cycle": {"kind": "brayton", "F1": 2.0, "F0": 0.5, "L_A": 1.5, "L_B": 2.5},
    }
    config = validate_config(doc)
    spec = config.build_cycle()
    assert spec.kind == "brayton"
    # a Brayton's segments are built by its run
    assert spec.segments is None
    report = run_cycle(spec, config.policy, config.output.samples_per_segment)
    assert len(report.segment_results) == 4


def test_json_text_entry_point():
    config = parse_config(json.dumps(MINIMAL_BRAYTON))
    assert config.cycle_kind == "brayton"


# every parameter a substance section could name: the union of the table's
SUBSTANCE_FIELDS = sorted({name for names in KIND_PARAMETERS.values() for name in names})


@pytest.mark.parametrize("kind", KINDS)
def test_substance_fields_are_the_kind_table(kind):
    # mass for the box kinds, mode_constant for the oscillators and the
    # cavity, none for the spin; any other field is an unknown field
    allowed = KIND_PARAMETERS[kind]
    assert allowed == (
        ("mass",) if kind in BOX_KINDS else ("mode_constant",) if kind in OSCILLATOR_KINDS else ()
    )
    cycle = {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 2.0}
    given = {name: 2.5 for name in allowed}
    config = validate_config({"substance": {"kind": kind, **given}, "cycle": cycle})
    assert substance_document(config) == {"kind": kind, **given}
    for name in SUBSTANCE_FIELDS + ["pressure_units"]:
        if name not in allowed:
            with pytest.raises(ConfigError, match=rf"^substance\.{name}: unknown field$"):
                validate_config({"substance": {"kind": kind, name: 2.5}, "cycle": cycle})


@pytest.mark.parametrize("kind", list(CYCLE_BUILDERS))
def test_cycle_fields_are_the_builders_table(kind):
    # exactly the builder's parameters, each required, in the table's order
    fields = CYCLE_BUILDERS[kind][1]
    params = {name: 1.0 for name in fields}
    config = validate_config({"substance": {"kind": "box1d"}, "cycle": {"kind": kind, **params}})
    assert list(config.cycle_params.items()) == list(params.items())
    for name in fields:
        cycle = {"kind": kind, **{k: v for k, v in params.items() if k != name}}
        with pytest.raises(ConfigError, match=rf"^cycle\.{name}: required for {kind}$"):
            validate_config({"substance": {"kind": "box1d"}, "cycle": cycle})
    with pytest.raises(ConfigError, match=r"^cycle\.Q: unknown field$"):
        cycle = {"kind": kind, **params, "Q": 1.0}
        validate_config({"substance": {"kind": "box1d"}, "cycle": cycle})


def test_unknown_cycle_kind_lists_the_table_in_its_order():
    with pytest.raises(ConfigError) as err:
        validate_config({"substance": {"kind": "box1d"}, "cycle": {"kind": "stirling"}})
    assert str(err.value).endswith("expected one of brayton, diesel, otto, carnot")


def test_output_defaults_are_output_configs():
    assert validate_config(dict(MINIMAL_BRAYTON, output={})).output == OutputConfig()
    assert validate_config(MINIMAL_BRAYTON).output == OutputConfig()


# each kind's model as its constructor builds it with no parameter given
CONSTRUCTED = {
    **{f"box{d}d": box(d) for d in (1, 2, 3)},
    **{f"harmonic{d}d": harmonic(d) for d in (1, 2, 3)},
    "cavity": cavity_mode(),
    "spin_half": spin_half(),
}


@pytest.mark.parametrize("kind", KINDS)
def test_omitted_substance_parameter_is_the_models_default(kind):
    # SpectrumModel's field defaults are the only ones: a config that names
    # only the kind, and a constructor called without its parameter, build
    # the same model as SpectrumModel(kind)
    cycle = {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 2.0}
    config = validate_config({"substance": {"kind": kind}, "cycle": cycle})
    assert config.model() == SpectrumModel(kind)
    assert CONSTRUCTED[kind] == SpectrumModel(kind)
