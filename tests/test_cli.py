import json
import math
import os

import numpy as np
import pytest

from spencerflow import cli

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestLie:
    def test_verify_abelian(self, capsys):
        rc, out, _ = run_cli(capsys, ["lie", "verify", "--algebra", "abelian2"])
        assert rc == 0
        assert "jacobi residual: 0" in out

    def test_verify_su2_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["--json", "lie", "verify", "--algebra", "su2"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["jacobi_residual"] == "0"
        assert doc["bracket_table"]["[e1,e2]"] == ["0", "0", "1"]

    def test_cohomology_su2(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["--json", "lie", "cohomology", "--algebra", "su2"]
        )
        assert rc == 0
        assert json.loads(out)["dims"] == [1, 0, 0, 1]

    def test_betti_torus_su2(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["lie", "betti", "--algebra", "su2", "--base", "1,2,1"]
        )
        assert rc == 0
        assert out.strip() == "1,5,13"

    def test_betti_sphere_abelian(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["lie", "betti", "--algebra", "abelian2", "--base", "1,0,1"]
        )
        assert rc == 0
        assert out.strip() == "1,2,4"

    def test_delta_structural_sl2(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["--json", "lie", "delta", "--algebra", "sl2",
             "--tensor", "[[[0], 1, 1]]"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["terms"] == {"1,1": "-2", "2,2": "2"}

    def test_unknown_algebra_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, ["lie", "verify", "--algebra", "g2"])
        assert rc == 1
        assert "config error" in err


class TestCartan:
    @staticmethod
    def write_config(path, **overrides):
        doc = {
            "algebra": "su2",
            "connection": {"preset": "constant", "params": {"a": [0.0, 0.0, 1.0]}},
            "lambda0": [1.0, 0.0, 0.0],
            "ds": 1e-3,
            "s_end": 2 * math.pi,
            "scheme": "rk4",
        }
        doc.update(overrides)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_full_rotation_rk4(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json")
        rc, out, _ = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(out)
        final = np.array(doc["final_lambda"])
        assert np.max(np.abs(final - np.array([1.0, 0.0, 0.0]))) <= 1e-8
        assert doc["oracle_deviation"] <= 1e-8
        assert doc["norm_drift"] <= 1e-10

    def test_abelian_constant_trajectory(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path / "c.json",
            algebra="abelian2",
            connection={"preset": "abelian_zero"},
            lambda0=[3.0, -1.0],
            s_end=1.0,
            scheme="euler_paper",
        )
        outdir = tmp_path / "out"
        rc, out, _ = run_cli(
            capsys,
            ["--json", "--out", str(outdir), "cartan", "--config", str(cfg)],
        )
        assert rc == 0
        assert json.loads(out)["final_lambda"] == [3.0, -1.0]
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "s,lambda_0,lambda_1,norm,residual_estimate"
        assert len(lines) == 1002

    def test_cfl_gate_exit_code(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", ds=2.0, scheme="euler_paper")
        rc, _, err = run_cli(capsys, ["cartan", "--config", str(cfg)])
        assert rc == 2
        assert "CFL gate" in err

    def test_auto_ds_recovers(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path / "c.json", ds=2.0, s_end=0.5, scheme="rk4"
        )
        rc, _, _ = run_cli(capsys, ["cartan", "--config", str(cfg), "--auto-ds"])
        assert rc == 0

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, ["cartan", "--config", str(tmp_path / "absent.json")]
        )
        assert rc == 3
        assert "io error" in err

    def test_malformed_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run_cli(capsys, ["cartan", "--config", str(path)])
        assert rc == 1
        assert "config error" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", typo_key=1)
        rc, _, err = run_cli(capsys, ["cartan", "--config", str(cfg)])
        assert rc == 1
        assert "unknown keys" in err


class TestEuler:
    @staticmethod
    def write_config(path, **overrides):
        doc = {
            "grid": {"N": 32},
            "dt": "auto",
            "t_end": 0.2,
            "vortices": [],
            "curves": [{"cx": math.pi, "cy": math.pi, "radius": 1.0, "M": 16}],
            "output_every": 5,
        }
        doc.update(overrides)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_zero_vortices_all_invariants_zero(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json")
        rc, out, _ = run_cli(
            capsys, ["--json", "euler", "run", "--config", str(cfg)]
        )
        assert rc == 0
        rep = {k: float(v) for k, v in json.loads(out).items()}
        assert rep == {"I0": 0.0, "I2": 0.0, "I1_0": 0.0}

    def test_run_writes_outputs(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path / "c.json",
            vortices=[{"x": math.pi, "y": math.pi, "alpha": 2.0, "sigma": 0.7}],
        )
        outdir = tmp_path / "out"
        rc, _, _ = run_cli(
            capsys,
            ["--out", str(outdir), "euler", "run", "--config", str(cfg)],
        )
        assert rc == 0
        assert (outdir / "invariants.csv").exists()
        assert (outdir / "zeta_000000").exists()
        assert (outdir / "zeta_000000.json").exists()

    def test_determinism_byte_identical(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path / "c.json",
            vortices=[{"x": 2.0, "y": 4.0, "alpha": 3.0, "sigma": 0.5}],
        )
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            rc, _, _ = run_cli(
                capsys,
                ["--out", str(outdir), "euler", "run", "--config", str(cfg)],
            )
            assert rc == 0
            outputs.append((outdir / "invariants.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_dealias_false_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", dealias=False)
        rc, _, err = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 1
        assert "dealias" in err

    def test_fixed_dt_above_cfl_is_gate_exit(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path / "c.json",
            dt=1.0,
            vortices=[{"x": math.pi, "y": math.pi, "alpha": 4.0, "sigma": 0.6}],
        )
        rc, _, err = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 2
        assert "numerical gate" in err

    def test_negative_dt_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", dt=-0.1)
        rc, _, _ = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 1

    def test_gaussian_preset_short(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["--json", "euler", "gaussian", "--N", "64", "--t-end", "0.1"],
        )
        assert rc == 0
        rep = {k: float(v) for k, v in json.loads(out).items()}
        assert rep["I0"] <= 1e-12
        assert rep["I2"] <= 1e-6


class TestReport:
    def test_constant_series_all_zero(self, capsys, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text(
            "t,I0,I2,div_max,circ_v0\n"
            "0,1.5,2.5,0,0.75\n"
            "1,1.5,2.5,0,0.75\n"
        )
        rc, out, _ = run_cli(capsys, ["--json", "report", "--csv", str(path)])
        assert rc == 0
        rep = {k: float(v) for k, v in json.loads(out).items()}
        assert rep == {"I0": 0.0, "I2": 0.0, "I1_0": 0.0}

    def test_golden_report_bit_for_bit(self, capsys):
        golden = open(os.path.join(DATA, "golden_report.txt")).read()
        rc, out, _ = run_cli(
            capsys,
            ["report", "--csv", os.path.join(DATA, "golden_invariants.csv")],
        )
        assert rc == 0
        assert out == golden

    def test_golden_run_reproduces_csv(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        rc, _, _ = run_cli(
            capsys,
            ["--out", str(outdir), "euler", "run", "--config",
             os.path.join(DATA, "golden_config.json")],
        )
        assert rc == 0
        golden = open(os.path.join(DATA, "golden_invariants.csv"), "rb").read()
        assert (outdir / "invariants.csv").read_bytes() == golden

    def test_truncated_csv_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("t,I0,I2,div_max\n0,1,1,0\n")
        rc, _, err = run_cli(capsys, ["report", "--csv", str(path)])
        assert rc == 1
        assert "fewer than two records" in err

    def test_bad_header_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("time,a,b\n0,1,1\n1,1,1\n")
        rc, _, _ = run_cli(capsys, ["report", "--csv", str(path)])
        assert rc == 1

