"""End-to-end CLI behaviour: exit codes, files, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcycle import checks, cli, processes
from qcycle.cli import ERRORS, _parser, main
from qcycle.config import parse_config
from qcycle.cycles import CornerRecord, run_cycle
from qcycle.errors import ConfigError, ConvergenceError, DomainError
from qcycle.substances import box, equilibrium_force

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "table2.csv"
README = pathlib.Path(__file__).parent.parent / "README.md"

CAVITY_BRAYTON = {
    "substance": {"kind": "cavity"},
    "cycle": {"kind": "brayton", "F1": 2.0, "F0": 0.5, "L_A": 1.5, "L_B": 2.5},
    "output": {"samples_per_segment": 8},
}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def patch_outputs(document, tmp_path):
    out = dict(document)
    out["output"] = {
        **document.get("output", {}),
        "report_path": str(tmp_path / "report.json"),
        "diagram_path": str(tmp_path / "diagram.csv"),
    }
    return out


class TestParser:
    def test_subcommands_in_turn_in_one_process(self, tmp_path, capsys):
        # main reuses one parser; each call must see its own arguments and
        # the defaults, never those of the call before
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        config = str(write_config(tmp_path, doc))
        report = tmp_path / "again.json"
        sweep = tmp_path / "sweep.csv"
        assert main(["run", config, "--report", str(report)]) == 0
        assert main(["check", "--scope", "substance"]) == 0
        assert main(["sweep", config, "--param", "F0", "--from", "0.3",
                     "--to", "0.6", "--steps", "2", "--out", str(sweep)]) == 0
        assert main(["run", config]) == 0
        assert report.is_file() and (tmp_path / "report.json").is_file()
        assert len(sweep.read_text().splitlines()) == 3
        assert "7/7 checks passed" in capsys.readouterr().out
        assert _parser() is _parser()
        assert vars(_parser().parse_args(["check"])) == {
            "command": "check", "scope": "all"
        }
        assert vars(_parser().parse_args(["run", config])) == {
            "command": "run", "config": config, "report": None, "diagram": None
        }


class TestRun:
    def test_cavity_brayton_report(self, tmp_path, capsys):
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        code = main(["run", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["units"] == "hbar=m=k=1"
        assert report["eta_closed"] == pytest.approx(0.5)
        assert report["eta_numeric"] == pytest.approx(0.5, abs=1e-8)
        assert report["closure_ok"] is True
        for key in ("Q_in", "Q_out", "W_net", "gamma", "loop_entropy"):
            assert math.isfinite(report[key])
        assert [c["label"] for c in report["corners"]] == ["A", "B", "C", "D"]
        for corner in report["corners"]:
            assert all(math.isfinite(corner[k]) for k in ("L", "beta", "T", "F", "U", "S", "regime"))
        assert "eta_numeric=0.5" in capsys.readouterr().out

    def test_diagram_csv_shape(self, tmp_path):
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        main(["run", str(write_config(tmp_path, doc))])
        lines = (tmp_path / "diagram.csv").read_text().splitlines()
        assert lines[0] == "segment_index,t,L,beta,T,F,U,S,Q_cum,W_cum"
        assert len(lines) == 1 + 4 * 8
        previous_t = {}
        for line in lines[1:]:
            cells = line.split(",")
            seg = int(cells[0])
            t = float(cells[1])
            assert seg in (0, 1, 2, 3)
            if seg in previous_t:
                assert t > previous_t[seg]
            previous_t[seg] = t
            assert all(math.isfinite(float(cell)) for cell in cells[1:])

    def test_diagram_cells_are_17_digit_samples(self, tmp_path):
        # every cell is format(value, ".17g") of the report's samples; the
        # spin Carnot cycle gives negative forces and energies
        doc = patch_outputs({
            "substance": {"kind": "spin_half"},
            "cycle": {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 3.0},
            "output": {"samples_per_segment": 16},
        }, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 0
        config = parse_config(json.dumps(doc))
        report = run_cycle(config.build_cycle(), config.policy, 16)
        rows = [
            [str(index)] + [format(v, ".17g") for v in dataclasses.astuple(sample)]
            for index, result in enumerate(report.segment_results)
            for sample in result.samples
        ]
        lines = (tmp_path / "diagram.csv").read_text().splitlines()
        assert [line.split(",") for line in lines[1:]] == rows

    def test_csv_byte_determinism(self, tmp_path):
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        config = write_config(tmp_path, doc)
        main(["run", str(config)])
        first = (tmp_path / "diagram.csv").read_bytes()
        report_first = (tmp_path / "report.json").read_bytes()
        main(["run", str(config)])
        assert (tmp_path / "diagram.csv").read_bytes() == first
        assert (tmp_path / "report.json").read_bytes() == report_first

    def test_box_regime_diagnostics(self, tmp_path):
        doc = {
            "substance": {"kind": "box1d"},
            "cycle": {"kind": "otto", "L0": 1.0, "L1": 2.0,
                      "beta_hot": 0.3, "beta_cold": 2.0},
            "output": {"samples_per_segment": 8},
        }
        doc = patch_outputs(doc, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for corner in report["corners"]:
            # beta * E_1 at the corner
            expected = corner["beta"] * math.pi**2 / (2.0 * corner["L"] ** 2)
            assert corner["regime"] == pytest.approx(expected, rel=1e-12)

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["run", str(path)]) == 2

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # cavity isobar below the vacuum force at corner A: 2 F1 L_A^2 < kappa
        doc = {
            "substance": {"kind": "cavity"},
            "cycle": {"kind": "brayton", "F1": 0.13, "F0": 0.12, "L_A": 1.0, "L_B": 2.0},
        }
        doc = patch_outputs(doc, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 4
        assert "vacuum force" in capsys.readouterr().err

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # corner A sits at x = beta E_1 = 1, where the Newton seed of a box1d
        # isobar's schedule is off by 0.6 %: one iteration cannot solve it
        F1 = equilibrium_force(box(1), 2.0 / math.pi**2, 1.0)
        doc = {
            "substance": {"kind": "box1d"},
            "cycle": {"kind": "brayton", "F1": F1, "F0": 0.8 * F1, "L_A": 1.0, "L_B": 1.2},
            "output": {"samples_per_segment": 8},
        }
        doc = patch_outputs(doc, tmp_path)
        config = write_config(tmp_path, dict(doc, numerics={"root_max_iter": 1}))
        assert main(["run", str(config)]) == 3
        assert "numeric error" in capsys.readouterr().err
        # the same cycle solves at the default cap
        assert main(["run", str(write_config(tmp_path, doc))]) == 0

    @pytest.mark.parametrize(
        "cycle, code, message",
        [
            # x = 4935 at corner A: every segment's heat underflows to 0
            (
                {"kind": "carnot", "T_H": 1e-3, "T_C": 5e-4, "L_A": 1.0, "L_B": 2.0},
                4,
                "x = 4934.8",
            ),
            # F0 = F1 (1 - 1e-7): W_net = 4e-7 is the difference of isobar
            # works of about 4, a cancellation factor of 2.8e7
            (
                {"kind": "brayton", "F1": 20.0, "F0": 20.0 * (1.0 - 1e-7), "L_A": 1.0, "L_B": 1.2},
                3,
                "cancellation factor",
            ),
        ],
        ids=["underflow", "cancellation"],
    )
    def test_cold_box_carnot_fails_with_its_exit_code(self, tmp_path, capsys, cycle, code, message):
        doc = {
            "substance": {"kind": "box1d"},
            "cycle": cycle,
            "output": {"samples_per_segment": 8},
        }
        doc = patch_outputs(doc, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("T_H", [5000.0, 50000.0], ids=["x=1e-4", "x=1e-5"])
    def test_spin_carnot_whose_entropy_change_cancels_exits_3(self, tmp_path, capsys, T_H):
        # corner B at x = 1e-4 or 1e-5: each isotherm's entropy change, of
        # order x^2, is the difference of two S ~ ln 2.  Such runs exited 0
        # with W_net off by 2.5e-9 and 2.2e-6 before W_scale counted ln z.
        doc = patch_outputs({
            "substance": {"kind": "spin_half"},
            "cycle": {"kind": "carnot", "T_H": T_H, "T_C": T_H / 2.0, "L_A": 1.0, "L_B": 2.0},
        }, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 3
        assert "cancellation factor" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "substance, cycle, message",
        [
            # the ordering rules hold, but compression leaves it too hot
            ("box1d", {"kind": "otto", "L0": 1.0, "L1": 2.0,
                       "beta_hot": 0.5, "beta_cold": 0.6}, "not an engine"),
            ("box2d", {"kind": "brayton", "F1": 10.0, "F0": 1.25,
                       "L_A": 100.0, "L_B": 200.0}, "one-dimensional"),
        ],
    )
    def test_builder_rejection_exit_code(self, tmp_path, capsys, substance, cycle, message):
        doc = patch_outputs({"substance": {"kind": substance}, "cycle": cycle}, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "diagram.csv").exists()

    def test_readme_example_config_runs(self, tmp_path, monkeypatch):
        text = README.read_text(encoding="utf-8")
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)  # the example writes to relative paths
        assert main(["run", str(write_config(tmp_path, json.loads(example)))]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["eta_numeric"] == pytest.approx(report["eta_closed"], abs=1e-12)
        assert (tmp_path / "diagram.csv").exists()

    def test_readme_library_example_runs(self):
        # the Library section reads only names of the top-level qcycle
        text = README.read_text(encoding="utf-8")
        example = text.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(example, "README.md", "exec"), namespace)
        report, sums, state = namespace["report"], namespace["sums"], namespace["state"]
        assert report.eta_numeric == pytest.approx(0.5, rel=1e-12)
        assert report.eta_closed == pytest.approx(0.5, rel=1e-12)
        assert abs(sums.log_partition - state.log_partition) <= 1e-14


# one cycle per integrated segment kind: isobars, isochores, isotherms
CROSS_CHECKED = {
    "brayton-box1d": {
        "substance": {"kind": "box1d"},
        "cycle": {"kind": "brayton", "F1": 20.0, "F0": 8.0, "L_A": 1.0, "L_B": 1.2},
        "output": {"samples_per_segment": 8},
    },
    "otto-cavity": {
        "substance": {"kind": "cavity"},
        "cycle": {"kind": "otto", "L0": 1.0, "L1": 2.0, "beta_hot": 0.3, "beta_cold": 1.5},
        "output": {"samples_per_segment": 8},
    },
    "carnot-spin_half": {
        "substance": {"kind": "spin_half"},
        "cycle": {"kind": "carnot", "T_H": 2.0, "T_C": 1.0, "L_A": 1.0, "L_B": 3.0},
        "output": {"samples_per_segment": 8},
    },
}


class TestFilePaths:
    """A config that cannot be read, an output that cannot be written, or
    one file for both outputs exits 2 and leaves no output behind."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        sweep = ["--param", "F0", "--from", "0.3", "--to", "0.6", "--steps", "2"]
        assert main([command, str(path)] + (sweep if command == "sweep" else [])) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("diagram", ["missing/d.csv", "folder"])
    def test_run_that_cannot_write_its_diagram_writes_no_report(self, tmp_path, capsys, diagram):
        # the diagram's directory is missing, or the diagram path is a
        # directory, which fails only on the last move
        (tmp_path / "folder").mkdir()
        config = write_config(tmp_path, CAVITY_BRAYTON)
        target = tmp_path / diagram
        assert main(["run", str(config), "--report", str(tmp_path / "r.json"),
                     "--diagram", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "folder"]

    @pytest.mark.parametrize("command", ["sweep", "table"])
    def test_out_into_a_missing_directory(self, tmp_path, capsys, command):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "missing" / "out.csv"
        argv = {
            "sweep": ["sweep", str(config), "--param", "F0", "--from", "0.3",
                      "--to", "0.6", "--steps", "2"],
            "table": ["table"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_one_file_for_report_and_diagram(self, tmp_path, capsys, monkeypatch, via):
        # the two names differ, but resolve to one file
        monkeypatch.chdir(tmp_path)
        if via == "flags":
            config = write_config(tmp_path, CAVITY_BRAYTON)
            argv = ["--report", "same.out", "--diagram", str(tmp_path / "same.out")]
        else:
            doc = dict(CAVITY_BRAYTON, output={"report_path": "same.out",
                                               "diagram_path": "./same.out"})
            config, argv = write_config(tmp_path, doc), []
        assert main(["run", str(config)] + argv) == 2
        assert capsys.readouterr().err.startswith("config error: report same.out and diagram ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestContractsReadFromTheirOwners:
    def test_diagram_header_and_corner_keys(self, tmp_path):
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 0
        header = (tmp_path / "diagram.csv").read_text().splitlines()[0]
        assert header.split(",") == ["segment_index", *processes.SAMPLE_FIELDS]
        report = json.loads((tmp_path / "report.json").read_text())
        names = [field.name for field in dataclasses.fields(CornerRecord)]
        assert [list(corner) for corner in report["corners"]] == [names] * 4

    @pytest.mark.parametrize(
        "error, code, doc, param",
        [
            # T_C > T_H, refused by the builder
            (ConfigError, 2,
             {"substance": {"kind": "box1d"},
              "cycle": {"kind": "carnot", "T_H": 1.0, "T_C": 2.0, "L_A": 1.0, "L_B": 2.0}},
             "T_H"),
            # W_net cancels by a factor of 2.8e7
            (ConvergenceError, 3,
             {"substance": {"kind": "box1d"},
              "cycle": {"kind": "brayton", "F1": 20.0, "F0": 20.0 * (1.0 - 1e-7),
                        "L_A": 1.0, "L_B": 1.2}},
             "F0"),
            # the isobar lies below the vacuum force
            (DomainError, 4,
             {"substance": {"kind": "cavity"},
              "cycle": {"kind": "brayton", "F1": 0.13, "F0": 0.12, "L_A": 1.0, "L_B": 2.0}},
             "F0"),
        ],
        ids=["config", "convergence", "domain"],
    )
    def test_run_and_sweep_exit_by_the_error_table(self, tmp_path, capsys, error, code, doc, param):
        assert ERRORS[error][0] == code
        label = ERRORS[error][1]
        doc = patch_outputs(dict(doc, output={"samples_per_segment": 8}), tmp_path)
        config = write_config(tmp_path, doc)
        assert main(["run", str(config)]) == code
        assert capsys.readouterr().err.startswith(f"{label}: ")
        assert not (tmp_path / "report.json").exists()
        # the sweep writes the same code for the same point, and prints no error
        value = repr(doc["cycle"][param])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config), "--param", param, "--from", value, "--to", value,
                     "--steps", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1].split(",")[4] == str(code)


class TestCrossCheckOffTheRunPath:
    @staticmethod
    def outputs(tmp_path):
        """The bytes of a run of every CROSS_CHECKED cycle and of a sweep."""
        tmp_path.mkdir()
        files = {}
        for cycle, doc in CROSS_CHECKED.items():
            config = write_config(tmp_path, doc, f"{cycle}.json")
            report, diagram = tmp_path / f"{cycle}.report.json", tmp_path / f"{cycle}.csv"
            assert main(["run", str(config), "--report", str(report),
                         "--diagram", str(diagram)]) == 0
            files[cycle] = (report.read_bytes(), diagram.read_bytes())
        out = tmp_path / "sweep.csv"
        config = tmp_path / "brayton-box1d.json"
        assert main(["sweep", str(config), "--param", "F0", "--from", "4", "--to", "12",
                     "--steps", "3", "--out", str(out)]) == 0
        files["sweep"] = out.read_bytes()
        return files

    def test_run_and_sweep_integrate_no_cross_check(self, tmp_path, monkeypatch):
        expected = self.outputs(tmp_path / "plain")

        def refuse(*_args, **_kwargs):
            raise AssertionError("the heat cross-check was integrated")

        monkeypatch.setattr(processes, "integrate_adaptive_batch", refuse)
        assert self.outputs(tmp_path / "refused") == expected


def _refuse_path_sample(*_args, **_kwargs):
    raise AssertionError("a PathSample was built")


class TestSamplesOffTheRunPath:
    def test_run_and_sweep_build_no_path_sample(self, tmp_path, monkeypatch):
        expected = TestCrossCheckOffTheRunPath.outputs(tmp_path / "plain")
        monkeypatch.setattr(processes, "PathSample", _refuse_path_sample)
        assert TestCrossCheckOffTheRunPath.outputs(tmp_path / "refused") == expected

    @pytest.mark.parametrize(
        "value",
        [0.1, -1.0 / 3.0, 2.0**-1074, 2.2250738585072014e-308, 1e300, -0.0, 0.0,
         6.02214076e23, math.pi],
    )
    def test_17_digit_text_of_numpy_and_python_floats_agree(self, value):
        # the diagram formats the floats of tolist(); a numpy float64 of the
        # same value writes the same text
        element = np.array([value])[0]
        assert type(element) is np.float64
        assert "%.17g" % element == "%.17g" % np.array([value]).tolist()[0] == "%.17g" % value

    def test_17_digit_text_of_a_run_agrees(self):
        config = parse_config(json.dumps(CROSS_CHECKED["brayton-box1d"]))
        report = run_cycle(config.build_cycle(), config.policy, 8)
        for result in report.segment_results:
            columns = result.columns
            for element, value in zip(columns.ravel(), columns.ravel().tolist()):
                assert "%.17g" % element == "%.17g" % value


# Carnot loops whose heat is subnormal: they exited 0 with a wrong eta
# (eta_numeric = 1.0 against 0.5 for the first) before DomainError refused
# them
SUBNORMAL_CARNOTS = {
    "cavity-1488": ("cavity", 1.0 / 1488.0),
    "cavity-1460": ("cavity", 1.0 / 1460.0),
    "box1d-0.004976": ("box1d", 0.004976),
}


class TestSubnormalHeat:
    @pytest.mark.parametrize("name", SUBNORMAL_CARNOTS)
    def test_run_exits_4_and_writes_no_report(self, tmp_path, capsys, name):
        kind, T_H = SUBNORMAL_CARNOTS[name]
        doc = patch_outputs({
            "substance": {"kind": kind},
            "cycle": {"kind": "carnot", "T_H": T_H, "T_C": T_H / 2.0, "L_A": 1.0, "L_B": 2.0},
        }, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("domain error: Q_in = ")
        assert "smallest normal float" in err and "x = " in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "diagram.csv").exists()


# cycles with a corner that no float holds, each refused by its builder:
# a cavity Carnot whose L_C alone overflows, a box1d Otto whose
# (L1/L0)^2 raises OverflowError, and a cavity Brayton whose F1/F0 is inf
UNREPRESENTABLE = {
    "carnot-cavity": ("cavity", {"kind": "carnot", "T_H": 1e150, "T_C": 1e-150, "L_A": 1e-10, "L_B": 1e10}),
    "otto-box1d": ("box1d", {"kind": "otto", "L0": 1.0, "L1": 1e160, "beta_hot": 1e-300, "beta_cold": 1e300}),
    "brayton-cavity": ("cavity", {"kind": "brayton", "F1": 1e200, "F0": 1e-200, "L_A": 1.0, "L_B": 2.0}),
}


class TestUnrepresentable:
    @pytest.mark.parametrize("name", UNREPRESENTABLE)
    def test_corner_no_float_holds_exits_2_and_writes_no_report(self, tmp_path, capsys, name):
        kind, cycle = UNREPRESENTABLE[name]
        doc = patch_outputs({"substance": {"kind": kind}, "cycle": cycle}, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cycle: corner C of the {cycle['kind']} cycle has ")
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "diagram.csv").exists()

    @pytest.mark.parametrize(
        "T_H, T_C, L_A, L_B",
        [(1e100, 1e-100, 1.0, 1e60), (1e150, 1e-150, 1e-10, 1e10)],
        ids=["T_H-1e100", "T_H-1e150"],
    )
    def test_totals_that_are_not_finite_exit_4_and_write_no_report(
        self, tmp_path, capsys, T_H, T_C, L_A, L_B
    ):
        # box1d corner C at L = 1e160 is finite, but its L^2 overflows in the
        # run, so W_net is nan.  Tier-1 turns the overflow's RuntimeWarning
        # into an error; it is ignored here, as a run outside tier-1 does
        doc = patch_outputs({
            "substance": {"kind": "box1d"},
            "cycle": {"kind": "carnot", "T_H": T_H, "T_C": T_C, "L_A": L_A, "L_B": L_B},
        }, tmp_path)
        with np.errstate(all="ignore"):
            assert main(["run", str(write_config(tmp_path, doc))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("domain error: Q_in = ")
        assert "and W_net = nan of the carnot cycle are not both finite" in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "diagram.csv").exists()


# the runs whose report and diagram are kept byte for byte: every config
# <name>.json in tests/goldens beside its <name>.report.json and
# <name>.diagram.csv.  They are a warm and a cold box1d Brayton (the cold
# one's corner A, at x = 4.4, takes the kernel's direct series), two box1d
# Diesels (the long one's L_A + (L_B - L_A) is 1.8000000000000003, an ulp
# off its corner B at 1.8, where its isobar's last sample lies all the
# same), a box3d Carnot, a harmonic2d Otto and a spin Carnot.
GOLDEN_RUNS = tuple(
    sorted(p.stem for p in GOLDEN.parent.glob("*.json") if not p.name.endswith(".report.json"))
)


class TestGoldenRuns:
    def test_every_golden_file_belongs_to_a_run(self):
        outputs = {
            f"{name}{suffix}"
            for name in GOLDEN_RUNS
            for suffix in (".json", ".report.json", ".diagram.csv")
        }
        assert {p.name for p in GOLDEN.parent.iterdir()} == outputs | {GOLDEN.name}
        assert len(GOLDEN_RUNS) >= 7

    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_run_outputs_byte_identical(self, name, tmp_path):
        report, diagram = tmp_path / "report.json", tmp_path / "diagram.csv"
        config = GOLDEN.parent / f"{name}.json"
        argv = ["run", str(config), "--report", str(report), "--diagram", str(diagram)]
        assert main(argv) == 0
        assert report.read_bytes() == (GOLDEN.parent / f"{name}.report.json").read_bytes()
        assert diagram.read_bytes() == (GOLDEN.parent / f"{name}.diagram.csv").read_bytes()


class TestTable:
    def test_golden_file_byte_identical(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_stdout_spot_cells(self, capsys):
        assert main(["table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = {}
        for line in lines[1:]:
            name, gamma, cycle, _formula, eta = line.split(",")
            cells[name, cycle] = (float(gamma), float(eta))
        substances = {k[0] for k in cells}
        assert len(substances) == 12
        for name in substances:
            assert cells[name, "carnot"][1] == 0.5
        assert cells["box1d", "otto"][1] == 0.75
        assert cells["box1d", "diesel"][1] == pytest.approx(0.57, abs=1e-15)
        assert cells["harmonic3d", "brayton"][1] == pytest.approx(
            1.0 - 0.25**0.25, rel=1e-15
        )
        assert cells["spin_half", "brayton"][1] == 0.5


class TestCheck:
    def test_substance_scope_passes(self, capsys):
        assert main(["check", "--scope", "substance"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_cycle_scope_runs_the_cold_carnot(self, capsys):
        assert main(["check", "--scope", "cycle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cold = [line for line in lines if "carnot_universality_cold" in line]
        assert len(cold) == 1 and cold[0].endswith("PASS")
        assert lines[-1] == "7/7 checks passed"

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_substance_checks", lambda: [("forced", 1.0, 0.5)])
        assert main(["check", "--scope", "substance"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("FAIL") and lines[-1] == "0/1 checks passed"

    def test_tolerance_scale_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--tolerance-scale", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance-scale" in capsys.readouterr().err


class TestSweep:
    @pytest.mark.parametrize("option", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_endpoint_is_a_config_error(self, tmp_path, capsys, option, value):
        # refused as `run` refuses the same parameter value, before any point
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        ends = {"--from": "0.3", "--to": "0.6", option: value}
        assert main(["sweep", str(config), "--param", "F0", "--from", ends["--from"],
                     "--to", ends["--to"], "--steps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {option}: must be a positive finite number, got {value}\n"
        assert not out.exists()

    def test_cavity_force_ratio_sweep(self, tmp_path):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(config), "--param", "F0",
            "--from", "0.2", "--to", "1.0", "--steps", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "parameter,value,eta_numeric,eta_closed,exit_code"
        assert len(lines) == 6
        for line in lines[1:]:
            name, _value, eta_n, eta_c, status = line.split(",")
            assert name == "F0"
            assert status == "0"
            assert abs(float(eta_n) - float(eta_c)) <= 1e-8

    def test_sweep_crossing_vacuum_boundary(self, tmp_path):
        # at F1 <= kappa/(2 L_A^2) = 0.5 the high-force isobar leaves the
        # schedule's domain; those rows must carry the domain exit code
        doc = {
            "substance": {"kind": "cavity"},
            "cycle": {"kind": "brayton", "F1": 1.0, "F0": 0.05, "L_A": 1.0, "L_B": 2.0},
            "output": {"samples_per_segment": 8},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", str(config), "--param", "F1",
            "--from", "0.1", "--to", "1.0", "--steps", "10", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        codes = [row[4] for row in rows]
        assert "4" in codes and "0" in codes
        for row in rows:
            if row[4] == "4":
                assert row[2] == "" and row[3] == ""
            else:
                assert float(row[1]) > 0.5

    def test_single_point_sweep_matches_run(self, tmp_path):
        doc = patch_outputs(CAVITY_BRAYTON, tmp_path)
        config = write_config(tmp_path, doc)
        main(["run", str(config)])
        report = json.loads((tmp_path / "report.json").read_text())
        out = tmp_path / "one.csv"
        main(["sweep", str(config), "--param", "F0",
              "--from", "0.5", "--to", "0.5", "--steps", "1", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(report["eta_numeric"], rel=1e-14)

    @pytest.mark.parametrize(
        "start, stop, steps",
        [(0.1, 0.45, 8), (0.3, 0.6, 3), (0.2, 1.0, 5), (1.9, 0.35, 11), (0.5, 0.5, 4)],
    )
    def test_grid_ends_exactly_at_to(self, tmp_path, start, stop, steps):
        # the README's example, 0.1 + 7 * (0.35 / 7), is 0.44999999999999996;
        # the last point is --to itself and the interior is start + i * step
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config), "--param", "F0", "--from", repr(start),
                     "--to", repr(stop), "--steps", str(steps), "--out", str(out)]) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        step = (stop - start) / (steps - 1)
        assert values == [start + i * step for i in range(steps - 1)] + [stop]
        assert values[-1] == stop and values[0] == start

    def test_random_grids_end_at_to(self, tmp_path, monkeypatch):
        points = []
        monkeypatch.setattr(cli, "_sweep_point", lambda _config, _name, v: points.append(v) or (v, 1.0, 1.0, 0))
        config = write_config(tmp_path, CAVITY_BRAYTON)
        rng = np.random.default_rng(2411)
        for _ in range(200):
            start, stop = (float(v) for v in rng.uniform(0.05, 1.9, 2))
            steps = int(rng.integers(2, 40))
            points.clear()
            assert main(["sweep", str(config), "--param", "F0", "--from", repr(start), "--to",
                         repr(stop), "--steps", str(steps), "--out", str(tmp_path / "s.csv")]) == 0
            assert points[0] == start and points[-1] == stop and len(points) == steps

    def test_unknown_parameter(self, tmp_path, capsys):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        assert main(["sweep", str(config), "--param", "r_C",
                     "--from", "0.1", "--to", "0.5", "--steps", "3"]) == 2
        assert "r_C" in capsys.readouterr().err

    def test_ordering_violations_marked_config_error(self, tmp_path):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        # sweeping F0 to F1 = 2.0 and past it makes those points a zero-area
        # loop and an invalid ordering
        assert main(["sweep", str(config), "--param", "F0",
                     "--from", "1.5", "--to", "2.5", "--steps", "3",
                     "--out", str(out)]) == 0
        codes = [line.split(",")[4] for line in out.read_text().splitlines()[1:]]
        assert codes == ["0", "2", "2"]

    @pytest.mark.parametrize(
        "doc, param, start, stop",
        [
            (CAVITY_BRAYTON, "F0", 1.0, 2.0),
            (
                {
                    "substance": {"kind": "cavity"},
                    "cycle": {"kind": "diesel", "F1": 1.0, "L1": 4.0, "r_C": 0.5, "r_E": 0.8},
                    "output": {"samples_per_segment": 8},
                },
                "r_C", 0.7, 0.8,
            ),
        ],
        ids=["brayton-F0-to-F1", "diesel-r_C-to-r_E"],
    )
    def test_rows_exit_as_run_does(self, tmp_path, doc, param, start, stop):
        # the last point is the zero-area loop F0 = F1 or r_C = r_E exactly
        config = write_config(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config), "--param", param, "--from", str(start),
                     "--to", str(stop), "--steps", "5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(rows[-1][1]) == doc["cycle"]["F1" if param == "F0" else "r_E"]
        for _name, value, _eta_n, _eta_c, code in rows:
            point = dict(doc, cycle={**doc["cycle"], param: float(value)})
            point = write_config(tmp_path, patch_outputs(point, tmp_path), "point.json")
            assert main(["run", str(point)]) == int(code)
        assert [row[4] for row in rows] == ["0", "0", "0", "0", "2"]


# scaling power p of E_n = c_n / L^p for the fuzzed substances
_POWER = {"box1d": 2, "box2d": 2, "cavity": 1, "spin_half": 1, "harmonic3d": 1}
# zero-temperature force at L of the 1D substances, below which no isobar
# exists (the spin's force is negative: its isobars all exit 4)
_FORCE_FLOOR = {
    "box1d": lambda L: math.pi**2 / L**3,
    "cavity": lambda L: 0.5 / L**2,
    "spin_half": lambda L: 0.0,
}
# relative gaps of a near-degenerate pair; 0 is the zero-area loop itself
_DELTAS = (0.0, 1e-16, 1e-13, 1e-10, 1e-7, 1e-5)


@st.composite
def fuzzed_cycles(draw):
    """A run config with log-uniform parameters, one pair of which may be
    near-degenerate: (substance, cycle, delta), delta None for a wide pair."""

    def log_uniform(lo, hi):
        return math.exp(draw(st.floats(math.log(lo), math.log(hi))))

    substance = draw(st.sampled_from(sorted(_POWER)))
    kinds = ("carnot", "otto") + (("brayton", "diesel") if substance in _FORCE_FLOOR else ())
    kind = draw(st.sampled_from(kinds))
    delta = draw(st.sampled_from(_DELTAS)) if draw(st.booleans()) else None
    ratio = log_uniform(0.05, 0.9) if delta is None else 1.0 - delta
    L_A = log_uniform(0.5, 3.0)
    L_B = L_A * log_uniform(1.1, 3.0)
    if kind == "brayton":
        F1 = _FORCE_FLOOR[substance](L_A) + log_uniform(0.5, 50.0)
        cycle = {"F1": F1, "F0": F1 * ratio, "L_A": L_A, "L_B": L_B}
    elif kind == "diesel":
        r_E = log_uniform(0.3, 0.95)
        L1 = log_uniform(1.0, 5.0)
        F1 = _FORCE_FLOOR[substance](r_E * ratio * L1) + log_uniform(0.5, 50.0)
        cycle = {"F1": F1, "L1": L1, "r_C": r_E * ratio, "r_E": r_E}
    elif kind == "carnot":
        # down to corners at x = beta Delta of about 2,000 (cavity) and
        # 20,000 (box1d), where Q_in is subnormal or 0: those exit 4
        T_H = log_uniform(1e-3, 20.0)
        cycle = {"T_H": T_H, "T_C": T_H * ratio, "L_A": L_A, "L_B": L_B}
    else:
        # the near-degenerate pair is L1/L0, or beta_hot against
        # beta_cold (L0/L1)^p, which the builder computes as written here
        beta_cold = log_uniform(0.5, 1500.0)
        if draw(st.booleans()):
            L0 = L_B * ratio
            beta_hot = beta_cold * (L0 / L_B) ** _POWER[substance] * log_uniform(0.05, 0.9)
        else:
            L0 = L_A
            beta_hot = beta_cold * (L0 / L_B) ** _POWER[substance] * ratio
        cycle = {"L0": L0, "L1": L_B, "beta_hot": beta_hot, "beta_cold": beta_cold}
    return substance, {"kind": kind, **cycle}, delta


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(draw=fuzzed_cycles())
    def test_every_run_exits_with_a_documented_code(self, draw):
        substance, cycle, delta = draw
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            doc = {"substance": {"kind": substance}, "cycle": cycle,
                   "output": {"samples_per_segment": 8}}
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", str(write_config(tmp, patch_outputs(doc, tmp)))])
            assert code in (0, 2, 3, 4)
            if delta == 0.0:
                assert code == 2 and err.getvalue().startswith("config error:")
            if code != 0:
                assert not (tmp / "report.json").exists()
                return
            report = json.loads((tmp / "report.json").read_text())
        assert abs(report["eta_numeric"] - report["eta_closed"]) <= 1e-9
        first_law = report["W_net"] - (report["Q_in"] - report["Q_out"])
        assert abs(first_law) <= 1e-9 * report["Q_in"]
