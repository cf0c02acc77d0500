"""End-to-end CLI behaviour: exit codes, files, determinism."""

import dataclasses
import json
import math
import pathlib

import pytest

from qcycle.cli import main
from qcycle.config import parse_config
from qcycle.cycles import run_cycle

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "table2.csv"

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
        # one Newton iteration cannot solve a box1d isobar's schedule
        doc = {
            "substance": {"kind": "box1d"},
            "cycle": {"kind": "brayton", "F1": 20.0, "F0": 10.0, "L_A": 1.0, "L_B": 1.2},
            "numerics": {"root_max_iter": 1},
            "output": {"samples_per_segment": 8},
        }
        doc = patch_outputs(doc, tmp_path)
        assert main(["run", str(write_config(tmp_path, doc))]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_level_cap_does_not_bind_on_a_run(self, tmp_path):
        # no run path builds a probability vector, so a level cap far below
        # the truncation point changes nothing
        reports = []
        for numerics in ({}, {"level_cap": 40}):
            doc = dict(patch_outputs(CAVITY_BRAYTON, tmp_path), numerics=numerics)
            assert main(["run", str(write_config(tmp_path, doc))]) == 0
            reports.append(json.loads((tmp_path / "report.json").read_text()))
        for key in ("eta_numeric", "Q_in", "Q_out"):
            assert reports[1][key] == reports[0][key]


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

    def test_corrupted_tolerances_fail(self, capsys):
        assert main(["check", "--scope", "substance", "--tolerance-scale", "1e-9"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSweep:
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

    def test_thread_cap_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCYCLE_NUM_THREADS", "1")
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config), "--param", "F0",
                     "--from", "0.3", "--to", "0.6", "--steps", "3",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        monkeypatch.setenv("QCYCLE_NUM_THREADS", "not-a-number")
        assert main(["sweep", str(config), "--param", "F0",
                     "--from", "0.3", "--to", "0.6", "--steps", "3",
                     "--out", str(out)]) == 2

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

    def test_unknown_parameter(self, tmp_path, capsys):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        assert main(["sweep", str(config), "--param", "r_C",
                     "--from", "0.1", "--to", "0.5", "--steps", "3"]) == 2
        assert "r_C" in capsys.readouterr().err

    def test_ordering_violations_marked_config_error(self, tmp_path):
        config = write_config(tmp_path, CAVITY_BRAYTON)
        out = tmp_path / "sweep.csv"
        # sweeping F0 past F1 = 2.0 makes those points invalid orderings
        assert main(["sweep", str(config), "--param", "F0",
                     "--from", "1.5", "--to", "2.5", "--steps", "3",
                     "--out", str(out)]) == 0
        codes = [line.split(",")[4] for line in out.read_text().splitlines()[1:]]
        assert codes == ["0", "0", "2"]
