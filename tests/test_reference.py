"""The brute-force reference stands apart from the kernel it checks."""

import ast
import inspect
import json
import pathlib
import sys

import pytest

from qcycle import reference
from qcycle.cli import main

SOURCE = pathlib.Path(reference.__file__)


def test_imports_nothing_from_qcycle_but_errors():
    tree = ast.parse(SOURCE.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                assert node.module == "errors", ast.unparse(node)
            else:
                assert not (node.module or "").startswith("qcycle") or node.module == "qcycle.errors", (
                    ast.unparse(node)
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("qcycle") or alias.name == "qcycle.errors", (
                    ast.unparse(node)
                )


# one cycle per substance kind, every cycle kind among them
CYCLES = [
    ("box1d", {"kind": "brayton", "F1": 10.0, "F0": 1.25, "L_A": 100.0, "L_B": 200.0}),
    ("box2d", {"kind": "carnot", "T_H": 10.0, "T_C": 5.0, "L_A": 100.0, "L_B": 200.0}),
    ("box3d", {"kind": "otto", "L0": 1.0, "L1": 2.0, "beta_hot": 0.3, "beta_cold": 2.0}),
    ("harmonic1d", {"kind": "diesel", "F1": 1.0, "L1": 4.0, "r_C": 0.5, "r_E": 0.8}),
    ("harmonic2d", {"kind": "otto", "L0": 1.0, "L1": 2.0, "beta_hot": 0.3, "beta_cold": 1.5}),
    ("harmonic3d", {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 2.0}),
    ("cavity", {"kind": "brayton", "F1": 2.0, "F0": 0.5, "L_A": 1.5, "L_B": 2.5}),
    ("spin_half", {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 3.0}),
]


def test_no_run_or_sweep_path_calls_the_reference(tmp_path, monkeypatch):
    originals = {
        name: value
        for name, value in vars(reference).items()
        if inspect.isfunction(value)
        and value.__module__ == reference.__name__
        and not name.startswith("_")
    }
    assert set(originals) == {
        "level_energies", "energy_level", "internal_energy", "force", "entropy",
        "gibbs_sums", "force_equilibrium_closed", "internal_energy_closed",
        "entropy_closed",
    }
    originals = set(originals.values())

    def refuse(*args, **kwargs):
        raise AssertionError("a run path called into qcycle.reference")

    # every name bound to a reference function, in every qcycle module
    for module in [m for n, m in sys.modules.items() if n == "qcycle" or n.startswith("qcycle.")]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in originals:
                monkeypatch.setattr(module, attr, refuse)

    for kind, cycle in CYCLES:
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps({
            "substance": {"kind": kind},
            "cycle": cycle,
            "output": {
                "samples_per_segment": 8,
                "report_path": str(tmp_path / f"{kind}.report.json"),
                "diagram_path": str(tmp_path / f"{kind}.diagram.csv"),
            },
        }))
        assert main(["run", str(config)]) == 0, kind
        report = json.loads((tmp_path / f"{kind}.report.json").read_text())
        assert abs(report["eta_numeric"] - report["eta_closed"]) <= 1e-8, kind
        if kind in ("box1d", "cavity"):
            out = tmp_path / f"{kind}.sweep.csv"
            F0 = cycle["F0"]
            assert main(["sweep", str(config), "--param", "F0", "--from", str(0.8 * F0),
                         "--to", str(F0), "--steps", "3", "--out", str(out)]) == 0
            assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["0"] * 3
    # the check suites do read the reference, so the patch is not vacuous
    with pytest.raises(AssertionError, match="qcycle.reference"):
        main(["check", "--scope", "substance"])
