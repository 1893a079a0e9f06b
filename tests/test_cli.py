import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spencerflow import cartan, cli, liealg
from spencerflow import euler2d as eu
from spencerflow import invariants as inv

DATA = Path(__file__).parent / "data"
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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

    def test_cohomology_out_writes_the_json_payload(self, capsys, tmp_path):
        argv = ["lie", "cohomology", "--algebra", "su2", "--p", "2"]
        rc, out, _ = run_cli(capsys, ["--json", *argv])
        assert rc == 0
        rc, _, _ = run_cli(capsys, ["--out", str(tmp_path), *argv])
        assert rc == 0
        written = json.loads((tmp_path / "lie_report.json").read_text())
        assert written == json.loads(out)
        assert written["dims"] == [1, 0, 0, 1]

    def test_betti_torus_su2_whitehead(self, capsys):
        # f = dim (Sym^p su2)^su2 = 1, 0, 1: the Killing form is the one quadratic invariant
        rc, out, _ = run_cli(
            capsys, ["lie", "betti", "--algebra", "su2", "--base", "1,2,1", "--factor", "whitehead"]
        )
        assert rc == 0
        assert out == "1,2,2\n"

    def test_betti_negative_base_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, ["lie", "betti", "--algebra", "su2", "--base=-1,2,-3"])
        assert (rc, out) == (1, "")
        assert err == "config error: base Betti numbers must be non-negative, not '-1,2,-3'\n"

    def test_delta_curvature_su2(self, capsys):
        # Omega = e3 acts on e1 by [e3, e1] = e2
        rc, out, _ = run_cli(
            capsys,
            ["--json", "lie", "delta", "--algebra", "su2", "--kind", "curvature",
             "--omega", "0,0,1", "--tensor", "[[[0], 1, 1]]"],
        )
        assert rc == 0
        assert json.loads(out)["terms"] == {"1": "1"}

    def test_delta_structural_sl2(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["--json", "lie", "delta", "--algebra", "sl2",
             "--tensor", "[[[0], 1, 1]]"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["terms"] == {"1,1": "-2", "2,2": "2"}

    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--tensor", "5"], "--tensor"),
            (["--tensor", "[]"], "--tensor"),
            (["--tensor", "[[[9], 1, 1]]"], "--tensor"),
            (["--tensor", "[[[0], 1, 0]]"], "--tensor"),
            (["--tensor", "[[[0], 1.5, 1]]"], "--tensor"),
            (["--tensor", "{not json"], "--tensor"),
            (["--tensor", "[[[0], 1, 1], [[0, 1], 1, 1]]"], "--tensor"),
            (["--tensor", "[[[0], 1, 1]]", "--kind", "curvature", "--omega", "1,2"], "--omega"),
            (["--tensor", "[[[0], 1, 1]]", "--kind", "curvature", "--omega", "1,x,2"], "--omega"),
            (["--tensor", "[[[0], 1, 1]]", "--kind", "curvature"], "needs --omega"),
        ],
        ids=["scalar", "empty", "index-past-dim", "zero-denominator", "float-numerator",
             "not-json", "mixed-degree", "short-omega", "bad-omega", "no-omega"],
    )
    def test_bad_delta_input_is_config_error(self, capsys, extra, field):
        rc, out, err = run_cli(capsys, ["lie", "delta", "--algebra", "su2", *extra])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: ")
        assert field in err

    def test_unknown_algebra_is_config_error(self, capsys):
        rc, _, err = run_cli(capsys, ["lie", "verify", "--algebra", "g2"])
        assert rc == 1
        assert "config error" in err

    def test_negative_max_q_is_config_error(self, capsys):
        rc, out, err = run_cli(
            capsys, ["lie", "cohomology", "--algebra", "su2", "--max-q", "-1"]
        )
        assert rc == 1
        assert out == ""
        assert "config error" in err and "max_q=-1" in err

    @pytest.mark.parametrize(
        "constant, message",
        [
            ([0, 1, 3, 1, 1], "indices must be ints in 0..2"),
            ([-1, 0, 1, 1, 1], "indices must be ints in 0..2"),
            ([0, 1, 2, 1, 0], "zero denominator"),
            ([0, 1, 2, 1.5, 1], "must be ints"),
        ],
        ids=["index-past-dim", "negative-index", "zero-denominator", "float-numerator"],
    )
    def test_bad_algebra_document_is_config_error(self, capsys, tmp_path, constant, message):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(
            {"dim": 3, "labels": ["a", "b", "c"], "constants": [constant]}
        ))
        rc, out, err = run_cli(capsys, ["lie", "verify", "--algebra", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: constant")
        assert message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([[1]], "must be a JSON object"),
            ({"dim": 3, "labels": ["a", "b", "c"]}, "missing keys"),
            ({"dim": 3, "labels": 3, "constants": []}, "must be lists"),
            ({"dim": 3, "labels": ["a", "b", "c"], "constants": 5}, "must be lists"),
            ({"dim": 3, "labels": ["a", "b", "c"], "constants": [[0, 1, 2, 1]]},
             "expected [a, b, c, numerator, denominator]"),
            ({"dim": "3", "labels": ["a", "b", "c"], "constants": []}, "positive int"),
        ],
        ids=["not-object", "missing-key", "labels-not-list", "constants-not-list",
             "short-constant", "string-dim"],
    )
    def test_malformed_algebra_document_is_config_error(self, capsys, tmp_path, doc, message):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(capsys, ["lie", "verify", "--algebra", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error:")
        assert message in err

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_cohomology_of_a_bracket_breaking_jacobi_is_config_error(self, capsys, tmp_path, p):
        # su2 with [e1, e2] = e1 + e3: d^2 != 0, and p = 1 used to print 0,-2,-2,0
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({
            "dim": 3, "labels": ["e1", "e2", "e3"],
            "constants": [[0, 1, 2, 1, 1], [1, 2, 0, 1, 1], [2, 0, 1, 1, 1], [0, 1, 0, 1, 1]],
        }))
        argv = ["lie", "cohomology", "--algebra", str(path), "--p", str(p)]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: the bracket of ")
        assert "breaks the Jacobi identity (jacobi residual 1)" in err
        assert f"spencerflow lie verify --algebra {path}" in err
        rc, out, _ = run_cli(capsys, ["lie", "verify", "--algebra", str(path)])
        assert rc == 0 and "jacobi residual: 1" in out

    def test_conflicting_mirror_constants_are_config_error(self, capsys, tmp_path):
        # [x, y] = x and [y, x] = x: the second entry used to overwrite the first
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(
            {"dim": 2, "labels": ["x", "y"], "constants": [[0, 1, 0, 1, 1], [1, 0, 0, 1, 1]]}
        ))
        rc, out, err = run_cli(capsys, ["lie", "verify", "--algebra", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: constant (0, 1, 0) = 1 and constant (1, 0, 0) = 1")


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
        assert err.startswith("numerical gate: step size 2.0 >= stability bound 1.0")
        assert "--auto-ds" in err
        # the rerun the message suggests: ds becomes half the bound
        rc, out, err = run_cli(capsys, ["cartan", "--config", str(cfg), "--auto-ds"])
        assert (rc, err) == (0, "")
        assert out.startswith("final lambda: ")

    @pytest.mark.parametrize("scheme", cartan.SCHEMES)
    def test_a_late_violation_after_lambda_leaves_float64_is_gate_exit(
        self, capsys, monkeypatch, tmp_path, scheme
    ):
        # On sl2 with A.v = (c, 0, 0), lambda_f = 1e306 grows as e^(2cs) and
        # leaves float64 in the first chunk at c = 1; from the state
        # 2 CHUNK + 40 on, c = 100 x, so the first step past its bound lies in
        # the third chunk. That step's gate is the exit, as when every step
        # was gated before any lambda work.
        ds = 1 / 128
        x_b = (2 * cartan.CHUNK + 40) * ds
        varying = cartan.ConnectionSampler(
            3, lambda x, mu: np.where(x[:, :1] >= x_b, 100 * x[:, :1], 1.0) * np.array([1.0, 0, 0])
        )
        monkeypatch.setattr(cartan.ConnectionSampler, "constant", lambda a: varying)
        cfg = self.write_config(
            tmp_path / "c.json", algebra="sl2", lambda0=[0.0, 0.0, 1e306], ds=ds,
            s_end=3 * cartan.CHUNK * ds, scheme=scheme,
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert err == (
            f"numerical gate: step size {ds} >= stability bound {1 / (200 * x_b)} "
            "(ds * ||M||_inf must stay below 1); rerun with --auto-ds or a smaller ds\n"
        )
        cfg = self.write_config(
            tmp_path / "c.json", algebra="sl2", lambda0=[0.0, 0.0, 1e306], ds=ds,
            s_end=cartan.CHUNK * ds, scheme=scheme,
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert err.startswith("numerical gate: non-finite state after the step to s=")

    def test_the_trajectory_csv_is_the_whole_array_formatted(self, capsys, tmp_path):
        # the CSV is written CHUNK rows at a time; over three chunks, ending
        # on a shortened step, its bytes are those of formatting the whole
        # (s, lambda, norm, residual) array at once
        cfg = self.write_config(tmp_path / "c.json", s_end=(2 * cartan.CHUNK + 100.5) * 1e-3)
        outdir = tmp_path / "out"
        rc, _, _ = run_cli(capsys, ["--out", str(outdir), "cartan", "--config", str(cfg)])
        assert rc == 0
        g, A, lam0, v, *run = cli.load_cartan_config(json.loads(cfg.read_text()))
        s, x, lam = cartan.integrate(g, lam0, A, v, *run)
        resid = cartan.residual_profile(g, A, v, s, x, lam)
        rows = np.column_stack([s, lam, np.linalg.norm(lam, axis=1), resid]).tolist()
        assert len(rows) == 2 * cartan.CHUNK + 102
        want = "s,lambda_0,lambda_1,lambda_2,norm,residual_estimate\n" + "".join(
            ",".join(map(cli._fmt, row)) + "\n" for row in rows
        )
        assert (outdir / "trajectory.csv").read_bytes() == want.encode()

    def test_a_step_shortened_below_the_bound_passes(self, capsys, tmp_path):
        # ds = 2.0 is above the bound 1.0, but s_end = 0.5 makes the one step
        # taken 0.5, the same step that --auto-ds (ds = 0.5) takes
        cfg = self.write_config(tmp_path / "c.json", ds=2.0, s_end=0.5)
        rc, out, _ = run_cli(capsys, ["cartan", "--config", str(cfg)])
        rc_auto, out_auto, _ = run_cli(capsys, ["cartan", "--config", str(cfg), "--auto-ds"])
        assert rc == rc_auto == 0
        assert out == out_auto

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ds", 0),
            ("ds", -1e-3),
            ("ds", math.nan),
            ("ds", math.inf),
            ("s_end", -1.0),
            ("s_end", math.nan),
            ("s_end", math.inf),
            ("v", []),
            ("v", [math.nan]),
            ("v", [1.0, -math.inf]),
        ],
    )
    def test_bad_step_or_direction_is_config_error(self, capsys, tmp_path, field, value):
        cfg = self.write_config(tmp_path / "c.json", **{field: value})
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"config error: {field} must be")

    def test_renormalize_must_be_boolean(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", renormalize="false")
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: renormalize must be true or false")

    @pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
    def test_renormalize_holds_a_lambda_whose_square_overflows(self, capsys, tmp_path, scheme):
        # |lambda| = 1e200 is far inside float64, but its square is not
        cfg = self.write_config(
            tmp_path / "c.json", lambda0=[1e200, 0.0, 0.0], ds=0.1, s_end=1.0,
            scheme=scheme, renormalize=True,
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert math.isfinite(doc["norm_drift"])
        assert doc["norm_drift"] <= 4 * np.finfo(float).eps * 1e200

    @pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
    def test_renormalize_on_a_basis_with_a_non_skew_ad_is_config_error(
        self, capsys, tmp_path, scheme
    ):
        # on sl2 the flow does not keep |lambda|, so rescaling to |lambda0|
        # gave norm drift 0 and an oracle deviation of 0.539
        cfg = self.write_config(
            tmp_path / "c.json", algebra="sl2", lambda0=[1.0, 2.0, -0.5], scheme=scheme,
            connection={"preset": "constant", "params": {"a": [0.3, -0.5, 0.8]}},
            renormalize=True,
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert (rc, out) == (1, "")
        assert err == (
            "config error: renormalize rescales lambda to |lambda0|, which the flow keeps only "
            "when every ad(e_b) is skew, and ad(h) of sl2 is not: the e component of [h, e] "
            "is 2, so that of e in [h, e] would be -2, not 2\n"
        )

    def test_the_skew_check_reads_every_ad(self):
        # su2 is skew in its basis; in the basis 2 e1, e2, e3 it is not:
        # [e2, 2 e1] = -2 e3 while [e2, e3] = (2 e1) / 2, so ad(e2) is not skew
        assert cli._not_skew(liealg.preset("su2")) is None
        scaled = liealg.from_json({"dim": 3, "labels": ["f1", "f2", "f3"], "constants": [
            [0, 1, 2, 2, 1], [1, 2, 0, 1, 2], [2, 0, 1, 2, 1]]})
        assert liealg.jacobi_residual(scaled) == 0
        assert cli._not_skew(scaled) == (0, 1, 2)
        assert cli._not_skew(liealg.preset("abelian2")) is None

    def write_decaying_axis_config(self, tmp_path, **overrides):
        """[x_i, y] = y for i = 1..10 and A.v = 9.9 sum x_i, so M_yy = -99 and
        y decays as e^(-99 s). At ds = 0.1, ds times the largest term
        |C^c_ba (A.v)^b| = 9.9 is 0.99, but ds ||M||_inf is 9.9, where rk4
        would multiply y by 279 a step."""
        algebra = tmp_path / "g.json"
        algebra.write_text(json.dumps({
            "dim": 11, "labels": [f"x{i}" for i in range(1, 11)] + ["y"],
            "constants": [[i, 10, 10, 1, 1] for i in range(10)],
        }))
        return self.write_config(
            tmp_path / "c.json", algebra=str(algebra), ds=0.1, s_end=30.0,
            connection={"preset": "constant", "params": {"a": [9.9] * 10 + [0.0]}}, **overrides,
        )

    @pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
    @pytest.mark.parametrize("lambda0, renormalize", [([1.0] + [0.0] * 10, False),
                                                      ([1.0] + [0.0] * 9 + [1.0], True)])
    def test_a_file_algebra_whose_step_products_pass_float64_runs(
        self, capsys, tmp_path, scheme, lambda0, renormalize
    ):
        # the step gate reads ||M||_inf, so the steps whose CHUNK-step products
        # passed float64 no longer run; ad(x_i) is not skew, so renormalize is
        # refused before any step (test_cartan.py gates the renormalized run)
        cfg = self.write_decaying_axis_config(
            tmp_path, lambda0=lambda0, scheme=scheme, renormalize=renormalize
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        if renormalize:
            assert (rc, out) == (1, "")
            assert err.startswith("config error: renormalize rescales lambda to |lambda0|")
            return
        assert (rc, out) == (2, "")
        assert err == (
            "numerical gate: step size 0.1 >= stability bound 0.0101010101010101 "
            "(ds * ||M||_inf must stay below 1); rerun with --auto-ds or a smaller ds\n"
        )

    @pytest.mark.parametrize("scheme", ["euler_paper", "rk4"])
    def test_auto_ds_takes_a_decaying_axis_to_the_exact_lambda(self, capsys, tmp_path, scheme):
        # ds = 1 / 198: each step multiplies y by 0.5 (euler_paper) or 0.607
        # (rk4), which rounds to 0 long before s_end, as e^(-2970) does
        cfg = self.write_decaying_axis_config(
            tmp_path, lambda0=[1.0] + [0.0] * 9 + [1.0], scheme=scheme
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg), "--auto-ds"])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["final_lambda"] == [1.0] + [0.0] * 10
        assert doc["oracle_deviation"] <= 1e-12

    def test_step_count_past_an_index_is_config_error(self, capsys, tmp_path):
        # ds = 1e-30 (a typo for 1e-3) asks for 1e30 steps
        cfg = self.write_config(tmp_path / "c.json", ds=1e-30, s_end=1.0)
        rc, out, err = run_cli(capsys, ["cartan", "--config", str(cfg)])
        assert (rc, out) == (1, "")
        assert err == (
            "config error: ds=1e-30 and s_end=1.0 need 1e+30 steps, more than an index can count\n"
        )

    def test_auto_ds_step_count_past_an_index_is_gate_exit(self, capsys, tmp_path):
        # |A.v| = 1e308 puts the bound near 1e-308, and half of it takes inf steps to s_end
        cfg = self.write_config(
            tmp_path / "c.json",
            connection={"preset": "constant", "params": {"a": [0.0, 0.0, 1e308]}},
            s_end=1.0,
        )
        rc, out, err = run_cli(capsys, ["cartan", "--config", str(cfg), "--auto-ds"])
        assert (rc, out) == (2, "")
        assert err == (
            "numerical gate: step size 5e-309 needs inf steps to s_end=1.0, "
            "more than an index can count\n"
        )

    @pytest.mark.parametrize("algebra, a", [("su2", [1e308] * 3), ("sl2", [1e308, 0.0, 0.0])])
    def test_auto_ds_on_a_generator_norm_past_float64_is_gate_exit(
        self, capsys, tmp_path, algebra, a
    ):
        # a row sum of |M| passes float64 (on su2 every entry is finite), so
        # the bound is 0: --auto-ds keeps the configured ds, and the origin
        # gate refuses it with its own message
        cfg = self.write_config(
            tmp_path / "c.json", algebra=algebra, s_end=1.0,
            connection={"preset": "constant", "params": {"a": a}},
        )
        rc, out, err = run_cli(capsys, ["cartan", "--config", str(cfg), "--auto-ds"])
        assert (rc, out) == (2, "")
        assert err == (
            "numerical gate: step size 0.001 >= stability bound 0.0 "
            "(ds * ||M||_inf must stay below 1); rerun with --auto-ds or a smaller ds\n"
        )

    @pytest.mark.parametrize("auto_ds", [[], ["--auto-ds"]])
    def test_a_run_to_zero_takes_no_step_at_a_zero_bound(self, capsys, tmp_path, auto_ds):
        # s_end = 0 takes no step, so a bound of 0 gates nothing, with or
        # without --auto-ds (which once turned it into ds = 0 and exit 2)
        cfg = self.write_config(
            tmp_path / "c.json", s_end=0.0,
            connection={"preset": "constant", "params": {"a": [1e308] * 3}},
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg), *auto_ds])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["final_lambda"] == [1.0, 0.0, 0.0]
        assert doc["norm_drift"] == 0.0 and doc["oracle_deviation"] == 0.0

    @pytest.mark.parametrize("auto_ds", [[], ["--auto-ds"]])
    def test_a_run_to_zero_reads_lambda0_as_the_oracle_of_an_infinite_generator(
        self, capsys, tmp_path, auto_ds
    ):
        # on sl2, a = (1e308, 0, 0) puts +-inf on the diagonal of M; the
        # oracle at s = 0 is lambda0 itself, not exp(0 * M) with 0 * inf = nan
        cfg = self.write_config(
            tmp_path / "c.json", algebra="sl2", s_end=0.0, lambda0=[1.0, 2.0, 3.0],
            connection={"preset": "constant", "params": {"a": [1e308, 0.0, 0.0]}},
        )
        rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg), *auto_ds])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["final_lambda"] == [1.0, 2.0, 3.0]
        assert doc["oracle_deviation"] == 0.0

    def test_overflow_is_gate_exit(self, capsys, tmp_path):
        # lambda grows as e^(2s) on sl2 and leaves float64 near s = 389
        cfg = self.write_config(
            tmp_path / "c.json",
            algebra="sl2",
            connection={"preset": "constant", "params": {"a": [1.0, 0.0, 0.0]}},
            lambda0=[1.0, 1.0, 1.0],
            ds=0.1,
            s_end=400.0,
            scheme="euler_paper",
        )
        with np.errstate(over="ignore"):
            rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert err.startswith("numerical gate: non-finite state after the step to s=389.")


BASE_CARTAN = {
    "algebra": "su2",
    "connection": {"preset": "constant", "params": {"a": [0.0, 0.0, 1.0]}},
    "lambda0": [1.0, 0.0, 0.0],
    "ds": 0.05,
    "s_end": 0.5,
    "scheme": "rk4",
}
BASE_MONOPOLE = {
    "algebra": "abelian1",
    "connection": {"preset": "wu_yang_monopole", "params": {"q": 0.5}},
    "lambda0": [1.0],
    "v": [0.0, 1.0, 0.3],
    "ds": 0.05,
    "s_end": 0.5,
}
NAN, INF = math.nan, math.inf
# Each value is invalid for its field in both base documents.
BAD_FIELDS = {
    "algebra": ["x", "", 0, -1, NAN, None, [], "abelian0", "abelian-1"],
    "lambda0": ["x", 0, -1.0, NAN, [], [NAN], [INF], [-INF], [None], ["x"], {}],
    "ds": ["x", None, 0, -0.05, NAN, INF, -INF, [], {}],
    "s_end": ["x", None, -0.5, NAN, INF, -INF, []],
    "v": ["x", 0, -1.0, INF, [], [NAN], [INF], [None], {}],
    "scheme": ["x", 0, -1, NAN, None, []],
    "renormalize": ["false", "true", 0, 1, "x", NAN, None, [], {}],
    "connection": [
        "x", 0, NAN, [], {}, {"preset": "x"}, {"preset": 0},
        {"preset": "constant", "params": {"a": [NAN, 0.0, 1.0]}},
        {"preset": "constant", "params": {"a": "x"}},
        {"preset": "constant", "params": {"a": [INF]}},
        {"preset": "wu_yang_monopole", "params": {"q": NAN}},
        {"preset": "wu_yang_monopole", "params": {"q": "x"}},
        {"preset": "abelian_zero", "params": {"q": 1.0}},
    ],
}
REQUIRED = ("algebra", "lambda0", "ds", "s_end")
mutations = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(REQUIRED)),
    st.sampled_from([(key, bad) for key, values in BAD_FIELDS.items() for bad in values]),
)
bad_cartan_docs = st.one_of(
    st.sampled_from([[], "x", 0, -1.0, NAN, INF, None]),
    st.tuples(
        st.sampled_from([BASE_CARTAN, BASE_MONOPOLE]),
        st.lists(mutations, min_size=1, max_size=3),
    ).map(lambda base_muts: _mutate(*base_muts)),
)


def _mutate(base, muts):
    doc = json.loads(json.dumps(base))
    for key, value in muts:
        if key == "drop":
            doc.pop(value, None)
        else:
            doc[key] = value
    return doc


@given(bad_cartan_docs, st.sampled_from([[], ["--auto-ds"]]))
def test_invalid_cartan_config_never_raises(tmp_path_factory, doc, extra):
    path = tmp_path_factory.mktemp("cfg") / "c.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--json", "cartan", "--config", str(path), *extra]) in (1, 2)


# Each lambda0 entry is moderate or near the float64 maximum.
lambda_entries = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(-1e3, -1e-3),
    st.sampled_from([1.2e308, -1.2e308, 1.5e308, -1.5e308]),
)


@st.composite
def valid_cartan_docs(draw):
    ds = draw(st.floats(0.05, 0.9))
    return {
        "algebra": draw(st.sampled_from(["su2", "sl2"])),
        "connection": {
            "preset": "constant",
            "params": {"a": draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))},
        },
        "lambda0": draw(st.lists(lambda_entries, min_size=3, max_size=3)),
        "ds": ds,
        "s_end": draw(st.floats(0.0, 30 * ds)),
        "scheme": draw(st.sampled_from(cartan.SCHEMES)),
        "renormalize": draw(st.booleans()),
    }


# |lambda0| past float64 with finite entries, and a residual row that overflows
NORM_PAST_FLOAT64 = dict(BASE_CARTAN, lambda0=[1.5e308] * 3, ds=1e-3, s_end=0.01)
RESIDUAL_PAST_FLOAT64 = dict(BASE_CARTAN, lambda0=[1.2e308, 0.0, 0.0], ds=0.9, s_end=2.7)


@example(NORM_PAST_FLOAT64, [])
@example(RESIDUAL_PAST_FLOAT64, [])
@given(valid_cartan_docs(), st.sampled_from([[], ["--auto-ds"]]))
def test_valid_cartan_config_never_raises(tmp_path_factory, doc, extra):
    path = tmp_path_factory.mktemp("cfg") / "c.json"
    path.write_text(json.dumps(doc))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["--json", "cartan", "--config", str(path), *extra])
    assert rc in (0, 1, 2)
    if rc == 0:
        assert printed.getvalue().count("\n") == 1
        assert isinstance(_strict_json(printed.getvalue()), dict)


HUGE_VORTEX = {"x": 3.0, "y": 3.0, "alpha": 1e308, "sigma": 0.7}


def _strict_json(text):
    """text parsed as JSON, refusing NaN and Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestOutputContract:
    """One result per run: artifacts are written first, then one strict JSON
    line under --json; an error prints nothing on stdout."""

    CARTAN = {"algebra": "su2", "connection": {"preset": "constant", "params": {"a": [0, 0, 1.0]}},
              "lambda0": [1.0, 0.0, 0.0], "ds": 0.01, "s_end": 1.0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["lie", "verify", "--algebra", "su2"],
            ["lie", "cohomology", "--algebra", "sl2", "--p", "1"],
            ["lie", "betti", "--algebra", "su2", "--base", "1,2,1"],
            ["lie", "delta", "--algebra", "sl2", "--tensor", "[[[0], 1, 1]]"],
            ["lie", "delta", "--algebra", "su2", "--kind", "curvature",
             "--tensor", "[[[0, 1], 1, 2]]", "--omega", "1,0,1/2"],
            ["cartan", "--config", "{cartan}"],
            ["euler", "run", "--config", "{euler}"],
            ["euler", "gaussian", "--N", "16", "--t-end", "0.05"],
            ["euler", "multivortex", "--N", "16", "--t-end", "0.02"],
            ["report", "--csv", "{csv}"],
        ],
        ids=[
            "lie-verify", "lie-cohomology", "lie-betti", "lie-delta-structural",
            "lie-delta-curvature", "cartan", "euler-run", "euler-gaussian",
            "euler-multivortex", "report",
        ],
    )
    def test_json_is_one_strict_line(self, capsys, tmp_path, argv):
        files = {"cartan": tmp_path / "c.json", "euler": tmp_path / "e.json",
                 "csv": tmp_path / "inv.csv"}
        files["cartan"].write_text(json.dumps(self.CARTAN))
        TestEuler.write_config(files["euler"], vortices=[VORTEX])
        files["csv"].write_text("t,I0,I2,div_max,circ_v0\n0,1,2,0,3\n1,1.5,2.5,1e-3,3\n")
        argv = [a.format(**files) for a in argv]
        rc, out, err = run_cli(capsys, ["--json", *argv])
        assert (rc, err) == (0, "")
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(_strict_json(out), dict)

    def test_io_error_prints_nothing(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"  # under a regular file
        rc, out, err = run_cli(capsys, ["--out", str(out_dir), "lie", "verify", "--algebra", "su2"])
        assert (rc, out) == (3, "")
        assert err.startswith("io error: ")

    def test_lambda_whose_squared_norm_overflows(self, capsys, tmp_path):
        # |lambda0| = 2**1023 * sqrt(2) is finite, its square is not. The run
        # is 2**1023 times the run from (1, 1, 0), whose norm grows by
        # sqrt(1 + h**2) a step under euler_paper. The last step is 0.005, and
        # the residual's difference quotient across it overflows unreported.
        runs = []
        for scale in (1.0, 2.0**1023):
            cfg = tmp_path / "c.json"
            doc = dict(self.CARTAN, lambda0=[scale, scale, 0.0], s_end=1.005)
            cfg.write_text(json.dumps(doc))
            rc, out, err = run_cli(capsys, ["--json", "cartan", "--config", str(cfg)])
            assert (rc, err) == (0, "")
            runs.append(_strict_json(out))
        small, big = runs
        assert big["final_lambda"] == [2.0**1023 * x for x in small["final_lambda"]]
        assert big["norm_drift"] == pytest.approx(2.0**1023 * small["norm_drift"], rel=1e-9)
        growth = 1.0001**50 * math.sqrt(1 + 0.005**2)
        assert small["norm_drift"] == pytest.approx(math.sqrt(2) * (growth - 1), rel=1e-9)

    @pytest.mark.parametrize(
        "flags", [[], ["--json"], ["--out", "{out}"]], ids=["text", "json", "out"]
    )
    @pytest.mark.parametrize(
        "doc, rc, err",
        [
            (NORM_PAST_FLOAT64, 1, "config error: the norm of lambda0 must be finite, not inf\n"),
            (RESIDUAL_PAST_FLOAT64, 2, "numerical gate: the residual leaves float64 at s=1.8\n"),
            (dict(CARTAN, lambda0=[1e308, 1e308, 0.0], ds=0.5, s_end=1.5),
             2, "numerical gate: the norm of lambda leaves float64 at s=1.5\n"),
            # euler_paper grows lambda by 1 + h/0.5 a step, the exact flow by e^(h/0.5)
            (dict(CARTAN, algebra="sl2", lambda0=[1e302] * 3, ds=0.4, s_end=8.0,
                  connection={"preset": "constant", "params": {"a": [1, 0, 0]}}),
             2, "numerical gate: the oracle deviation leaves float64 at s=8.0\n"),
        ],
        ids=["lambda0-norm", "residual", "norm", "oracle"],
    )
    def test_a_quantity_past_float64_prints_nothing(self, capsys, tmp_path, flags, doc, rc, err):
        # every entry of lambda stays finite: |lambda0| is read at load, and a
        # norm, residual or oracle deviation past float64 is the numerical gate
        # at its first s, before any artifact or result is written
        cfg, out_dir = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc))
        flags = [f.format(out=out_dir) for f in flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, [*flags, "cartan", "--config", str(cfg)]) == (rc, "", err)
        assert not out_dir.exists()


class TestExitCodeBoundary:
    """Bad input is exit 1 where it is loaded; anything else is not a config error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lie", "betti", "--algebra", "su2", "--base", "a,1"], "base must be"),
            (["lie", "cohomology", "--algebra", "su2", "--p", "-1"], "p=-1"),
            (["euler", "gaussian", "--N", "100"], "N must be a power of two"),
            # a bad or missing flag is exit 1 too: exit 2 is the numerical gate
            (["lie", "cohomology", "--p", "x"], "spencerflow lie cohomology: argument --p: "),
            (["lie", "delta", "--kind", "bogus"], "spencerflow lie delta: argument --kind: "),
            (["cartan"], "spencerflow cartan: the following arguments are required: --config"),
            (["euler", "gaussian", "--N", "abc"], "spencerflow euler gaussian: argument --N: "),
            (
                ["lie", "betti", "--algebra", "su2", "--base", "1", "--factor", "bogus"],
                "spencerflow lie betti: argument --factor: invalid choice",
            ),
        ],
        ids=[
            "betti-base", "cohomology-p", "euler-N",
            "flag-p", "flag-kind", "flag-config", "flag-N", "flag-factor",
        ],
    )
    def test_load_site_errors_are_config_errors(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: ") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["lie", "cohomology", "--help"])
        assert info.value.code == 0
        assert "--max-q" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "row, message",
        [("0,1,1,x", "could not convert"), ("0,1,1,nan", "non-finite"), ("0,1,1", "3 fields")],
        ids=["not-a-number", "non-finite", "short-row"],
    )
    def test_bad_csv_record_is_config_error(self, capsys, tmp_path, row, message):
        path = tmp_path / "inv.csv"
        path.write_text(f"t,I0,I2,div_max\n{row}\n1,1,1,1\n")
        rc, out, err = run_cli(capsys, ["report", "--csv", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"config error: {path} line 2: ") and message in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"vortices": [HUGE_VORTEX] * 2}, "non-finite vorticity values"),
            # the state and the velocity stay finite and zeta^2 overflows in I2
            ({"vortices": [dict(HUGE_VORTEX, alpha=1e160)]}, "non-finite invariant record"),
            ({"curves": [{"cx": 1e308, "cy": 3.0, "radius": 1e308}]}, "non-finite evaluation point"),
            # dx**2 in the first record and sigma**2 in the initial vorticity
            # raise OverflowError, not a float64 overflow
            ({"grid": {"N": 32, "L": 1e300}}, "Numerical result out of range"),
            ({"vortices": [dict(HUGE_VORTEX, alpha=2.0, sigma=1e300)]}, "Numerical result out of range"),
        ],
        ids=["vorticity", "record", "curve", "grid-L", "sigma"],
    )
    def test_finite_values_that_overflow_are_config_errors(
        self, capsys, tmp_path, overrides, message
    ):
        cfg = TestEuler.write_config(tmp_path / "e.json", **overrides)
        rc, out, err = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: ") and message in err
        assert "Warning" not in err

    def test_internal_value_error_propagates(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cartan, "integrate", broken)
        cfg = TestCartan.write_config(tmp_path / "c.json", s_end=0.01)
        with pytest.raises(ValueError, match="internal failure"):
            cli.main(["cartan", "--config", str(cfg)])

    def test_internal_value_error_in_the_first_stage_propagates(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(eu, "stage", broken)
        cfg = TestEuler.write_config(tmp_path / "e.json")
        with pytest.raises(ValueError, match="internal failure") as info:
            cli.main(["euler", "run", "--config", str(cfg)])
        assert not isinstance(info.value, cli.ConfigError)

    def test_state_leaving_float64_after_a_step_is_gate_exit(
        self, capsys, monkeypatch, tmp_path
    ):
        rk4_step = eu.rk4_step

        def overflowing(zhat, dt, points, first, ws):
            zhat, points = rk4_step(zhat, dt, points, first, ws)
            return zhat * 1e308 * 1e308, points

        monkeypatch.setattr(eu, "rk4_step", overflowing)
        cfg = TestEuler.write_config(
            tmp_path / "e.json", vortices=[{"x": 3.0, "y": 3.0, "alpha": 2.0, "sigma": 0.7}]
        )
        rc, out, err = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        prefix = "numerical gate: non-finite state after the step to t="
        assert err.startswith(prefix)
        assert 0.0 < float(err[len(prefix):]) < 0.2  # the first step, not t=0 or t_end


class TestParser:
    """A run builds only the parsers on its command's path, and the parse
    reads as it did when all twelve were built up front: the strings below
    were recorded with that parser (Python 3.10 to 3.13.0, COLUMNS=80)."""

    @pytest.mark.parametrize(
        "argv, parsers, rc",
        [
            (["cartan", "--config", "absent.json"], 2, 3),
            (["report", "--csv", "absent.csv"], 2, 3),
            (["euler", "run", "--config", "absent.json"], 3, 3),
            # not a preset and not a file: exit 1, from the command, not the parse
            (["lie", "cohomology", "--algebra", "absent.json"], 3, 1),
        ],
        ids=["cartan", "report", "euler-run", "lie-cohomology"],
    )
    def test_a_run_builds_only_the_parsers_on_its_path(
        self, capsys, monkeypatch, tmp_path, argv, parsers, rc
    ):
        built = []

        class Counted(cli._Parser):
            def __init__(self, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (rc, "")
        assert not err.startswith("config error: spencerflow")
        assert len(built) == parsers, built

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--help"],
                "usage: spencerflow [-h] [--out OUT] [--json] {lie,cartan,euler,report} ...\n"
                "\n"
                "positional arguments:\n"
                "  {lie,cartan,euler,report}\n"
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
                "  --out OUT             output directory\n"
                "  --json                machine-readable output\n",
            ),
            (
                ["lie", "--help"],
                "usage: spencerflow lie [-h] {verify,cohomology,betti,delta} ...\n"
                "\n"
                "positional arguments:\n"
                "  {verify,cohomology,betti,delta}\n"
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n",
            ),
            (
                ["lie", "cohomology", "--help"],
                "usage: spencerflow lie cohomology [-h] --algebra ALGEBRA [--p P]\n"
                "                                  [--max-q MAX_Q]\n"
                "\n"
                "options:\n"
                "  -h, --help         show this help message and exit\n"
                "  --algebra ALGEBRA\n"
                "  --p P\n"
                "  --max-q MAX_Q\n",
            ),
        ],
        ids=["top", "lie", "lie-cohomology"],
    )
    def test_help_text(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "argv, messages",
        [
            # argparse quotes the choices with repr() (Python 3.10 to 3.13.0)
            # or prints them with str() (later patch releases, 3.13.13 among them)
            (
                ["bogus"],
                [
                    "spencerflow: argument command: invalid choice: 'bogus' "
                    "(choose from 'lie', 'cartan', 'euler', 'report')",
                    "spencerflow: argument command: invalid choice: 'bogus' "
                    "(choose from lie, cartan, euler, report)",
                ],
            ),
            (
                ["lie", "bogus"],
                [
                    "spencerflow lie: argument subcommand: invalid choice: 'bogus' "
                    "(choose from 'verify', 'cohomology', 'betti', 'delta')",
                    "spencerflow lie: argument subcommand: invalid choice: 'bogus' "
                    "(choose from verify, cohomology, betti, delta)",
                ],
            ),
            ([], ["spencerflow: the following arguments are required: command"]),
            (["euler"], ["spencerflow euler: the following arguments are required: subcommand"]),
            (["--config=x"], ["spencerflow: the following arguments are required: command"]),
            (
                ["lie", "verify", "--algebra", "su2", "--json"],
                ["spencerflow: unrecognized arguments: --json"],
            ),
        ],
        ids=[
            "invalid-command", "invalid-subcommand", "no-command", "no-subcommand",
            "flag-before-command", "json-after-command",
        ],
    )
    def test_parse_error_message(self, capsys, argv, messages):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err in [f"config error: {m}\n" for m in messages]

    def test_a_unique_prefix_names_its_flag(self):
        args = cli.build_parser().parse_args(
            ["--js", "lie", "cohomology", "--alg", "su2", "--max", "6"]
        )
        assert vars(args) == {
            "out": None, "json": True, "command": "lie", "subcommand": "cohomology",
            "algebra": "su2", "p": 0, "max_q": 6,
        }


class TestModuleEntry:
    @staticmethod
    def run_python(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    def run_module(self, *argv):
        return self.run_python("-m", "spencerflow", *argv)

    def test_python_m_runs_the_cli(self):
        proc = self.run_module("--json", "lie", "cohomology", "--algebra", "su2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dims"] == [1, 0, 0, 1]

    def test_python_m_help_lists_the_commands(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0, proc.stderr
        assert "{lie,cartan,euler,report}" in proc.stdout

    def test_presets_are_read_as_package_data(self, tmp_path):
        # importing presets/ as a namespace package costs a first read about
        # 0.3 ms; the files are data of the spencerflow package
        cfg = TestCartan.write_config(tmp_path / "c.json", s_end=0.1)
        proc = self.run_python(
            "-c",
            "import sys\n"
            "from spencerflow import cli\n"
            "assert cli.main(['cartan', '--config', sys.argv[1]]) == 0\n"
            "assert cli.main(['euler', 'gaussian', '--N', '16', '--t-end', '0.01']) == 0\n"
            "print('spencerflow.presets' in sys.modules)\n",
            str(cfg),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_import_loads_no_executor_modules(self):
        # concurrent.futures adds 10-13 ms and queue about 2 ms to start-up;
        # the stage's helper thread needs neither
        proc = self.run_python(
            "-c",
            "import sys, spencerflow.cli\n"
            "print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_python_m_passes_the_exit_code(self, tmp_path):
        proc = self.run_module("cartan", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 3
        assert "io error" in proc.stderr

    def test_overflow_prints_only_the_gate_line(self, tmp_path):
        # numpy's overflow warning must not reach stderr before the gate message
        cfg = TestCartan.write_config(
            tmp_path / "c.json",
            algebra="sl2",
            connection={"preset": "constant", "params": {"a": [1.0, 0.0, 0.0]}},
            lambda0=[1.0, 1.0, 1.0],
            ds=0.1,
            s_end=400.0,
            scheme="euler_paper",
        )
        proc = self.run_module("cartan", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "numerical gate: non-finite state after the step to s=389.40000000002004\n"
        )

    def test_a_vortex_narrower_than_float64_prints_only_the_config_line(self, tmp_path):
        # sigma**2 underflows to 0: numpy's divide warning must not reach stderr
        vortex = {"x": 0.0, "y": 0.0, "alpha": 1.0, "sigma": 1e-300}
        cfg = TestEuler.write_config(tmp_path / "e.json", vortices=[vortex])
        proc = self.run_module("euler", "run", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "config error: the initial state of the config is not finite: "
            "non-finite vorticity values\n"
        )


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid": {"N": 16}, "dt": 1e-300, "t_end": 1.0},
            {"t_end": 1.0, "vortices": [{"x": 3.0, "y": 3.0, "alpha": 1e100, "sigma": 0.6}]},
        ],
        ids=["fixed-dt", "auto-dt"],
    )
    def test_more_steps_than_an_index_counts_is_gate_exit(
        self, capsys, monkeypatch, tmp_path, overrides
    ):
        # t += dt stops moving t long before t_end, so such a run never ended;
        # it is refused before its first step
        def step(*args):
            raise AssertionError(f"a step of dt={args[1]} was taken")

        monkeypatch.setattr(eu, "rk4_step", step)
        cfg = self.write_config(tmp_path / "c.json", **overrides)
        rc, out, err = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert err.startswith("numerical gate: step size ")
        assert "steps to t_end=1.0, more than an index can count" in err

    def test_negative_dt_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path / "c.json", dt=-0.1)
        rc, _, _ = run_cli(capsys, ["euler", "run", "--config", str(cfg)])
        assert rc == 1

    @pytest.mark.parametrize(
        "field, override",
        [
            ("N", {"grid": {"N": None}}),
            ("M", {"curves": [{"cx": 3.0, "cy": 3.0, "radius": 1.0, "M": None}]}),
            ("output_every", {"output_every": 0}),
            ("output_every", {"output_every": True}),
            ("N", {"grid": {"N": 32.5}}),
            ("sigma", {"vortices": [{"x": 3.0, "y": 3.0, "alpha": 1.0, "sigma": "x"}]}),
            ("t_end", {"t_end": math.inf}),
            ("t_end", {"t_end": math.nan}),
            ("dt", {"dt": math.nan}),
        ],
    )
    def test_bad_value_is_config_error(self, capsys, tmp_path, field, override):
        cfg = self.write_config(tmp_path / "c.json", **override)
        rc, out, err = run_cli(capsys, ["--json", "euler", "run", "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"config error: {field} must be")

    def test_preset_grid_size_zero_is_config_error(self, capsys):
        rc, out, err = run_cli(
            capsys, ["--json", "euler", "gaussian", "--N", "0", "--t-end", "0.01"]
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("config error: N must be")

    def test_gaussian_preset_short(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["--json", "euler", "gaussian", "--N", "64", "--t-end", "0.1"],
        )
        assert rc == 0
        rep = {k: float(v) for k, v in json.loads(out).items()}
        assert rep["I0"] <= 1e-12
        assert rep["I2"] <= 1e-6


SHARING_DOC = {
    "grid": {"N": 32},
    "t_end": 0.6,
    "vortices": [
        {"x": 3.0, "y": 3.2, "alpha": 3.0, "sigma": 0.6},
        {"x": 4.2, "y": 2.5, "alpha": -2.0, "sigma": 0.5},
    ],
    "curves": [
        {"cx": 3.0, "cy": 3.2, "radius": 0.8, "M": 32},
        {"cx": 4.2, "cy": 2.5, "radius": 0.5, "M": 16},
    ],
}


def simulate_with_a_stage_per_use(doc):
    """The simulate loop in which rk4_step evaluates its own first stage and
    each record and dt evaluates the stage of its state again."""
    grid, vortices, curves, dt_conf, t_end, output_every = cli.load_euler_config(doc)
    zhat = eu.gaussian_vorticity(
        grid,
        [(x, y) for x, y, _, _ in vortices],
        [alpha for _, _, alpha, _ in vortices],
        [sigma for _, _, _, sigma in vortices],
    ).spectrum()
    ends = np.cumsum([len(c.points) for c in curves])[:-1]
    points = np.concatenate([c.points for c in curves])
    ws = eu.Workspace(grid)

    def record(zhat, points, t):
        _, u, velocities = eu.stage(grid, zhat, points)
        zeta = eu.VorticityField.from_spectrum(grid, zhat)
        return inv.phi_triple(zeta, u, np.split(points, ends), np.split(velocities, ends), t=t)

    t = 0.0
    records = [record(zhat, points, t)]
    step = 0
    while t < t_end * (1 - 1e-12):
        u = eu.stage(grid, zhat, points)[1]
        dt = u.cfl_dt() if dt_conf == "auto" else dt_conf
        if not math.isfinite(dt):
            dt = t_end - t
        dt = min(dt, t_end - t)
        zhat, points = eu.rk4_step(zhat, dt, points, None, ws)
        curves = [eu.MarkerCurve(c.label, p) for c, p in zip(curves, np.split(points, ends))]
        t += dt
        step += 1
        if step % output_every == 0 or t >= t_end * (1 - 1e-12):
            records.append(record(zhat, points, t))
    return records, curves


class TestSimulateSharesOneVelocityPerState:
    def test_tracer_step_and_stage_counts(self, monkeypatch):
        # The benchmark tracer counts one rk4_step per step; each state gets
        # one stage, which is also k1 of the next step, and no other inversion.
        calls = {"rk4_step": 0, "stage": 0, "velocity_from_vorticity": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(eu, name, counted(name, getattr(eu, name)))
        records, _ = cli.simulate(dict(SHARING_DOC, output_every=1))
        steps = len(records) - 1
        assert steps >= 3
        assert calls == {"rk4_step": steps, "stage": 4 * steps + 1, "velocity_from_vorticity": 0}

    def test_a_step_makes_only_its_stages_transforms(self, monkeypatch):
        # the state stays a band spectrum between steps: a run makes the
        # initial state's band forward transform (rfft, fft), 4 steps + 1
        # stages of 2 band inverses (ifft, irfft) and 2 band forwards each,
        # and per record one band inverse for the grid field and div_max's
        # one rfft2 of both velocity components stacked; no other transform.
        # A grid state made one more rfft2 and one more irfft2 per step.
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for kind in ("fft", "ifft", "rfft", "irfft"):
            for name in (kind, kind + "2", kind + "n"):
                monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        rk4_step, steps = eu.rk4_step, []

        def step(*args):
            steps.append(args[1])
            return rk4_step(*args)

        monkeypatch.setattr(eu, "rk4_step", step)
        records, _ = cli.simulate(dict(SHARING_DOC, output_every=10**6))
        stages, R = 4 * len(steps) + 1, len(records)
        assert len(steps) >= 3 and R == 2
        assert calls == {
            "rfft": 2 * stages + 1, "fft": 2 * stages + 1, "ifft": 2 * stages + R,
            "irfft": 2 * stages + R, "rfft2": R,
        }

    def test_the_step_loop_makes_no_marker_curve(self, monkeypatch):
        # the markers stay one (P, 2) array: curves are made from the config
        # and for the return value only, however many steps and records
        made = []

        class Counted(eu.MarkerCurve):
            def __post_init__(self):
                made.append(self.label)
                super().__post_init__()

        monkeypatch.setattr(eu, "MarkerCurve", Counted)
        records, curves = cli.simulate(dict(SHARING_DOC, output_every=1))
        assert len(records) >= 4
        assert made == ["v0", "v1"] * 2
        assert [(c.label, c.points.shape) for c in curves] == [("v0", (32, 2)), ("v1", (16, 2))]

    @pytest.mark.parametrize("dt", ["auto", 0.05])
    def test_one_cfl_bound_per_step(self, monkeypatch, dt):
        # simulate's auto dt and rk4_step's gate read the one bound of each
        # state that takes a step; the last state takes none
        calls = []
        max_speed = eu.VelocityField.max_speed

        def counted(u, ws=None):
            calls.append(u)
            return max_speed(u, ws)

        monkeypatch.setattr(eu.VelocityField, "max_speed", counted)
        records, _ = cli.simulate(dict(SHARING_DOC, dt=dt, output_every=1))
        steps = len(records) - 1
        assert steps >= 3
        assert len(calls) == steps

    @pytest.mark.parametrize("output_every", [1, 3])
    def test_records_and_markers_are_bit_identical(self, output_every):
        doc = dict(SHARING_DOC, output_every=output_every)
        records, curves = cli.simulate(doc)
        old_records, old_curves = simulate_with_a_stage_per_use(doc)
        assert len(records) > 2
        assert records == old_records
        assert [c.label for c in curves] == [c.label for c in old_curves]
        for new, old in zip(curves, old_curves):
            assert np.array_equal(new.points, old.points)


BASE_EULER = {
    "grid": {"N": 32},
    "dt": "auto",
    "t_end": 0.05,
    "vortices": [{"x": 3.0, "y": 3.0, "alpha": 2.0, "sigma": 0.7}],
    "curves": [{"cx": 3.0, "cy": 3.0, "radius": 1.0, "M": 16}],
    "output_every": 2,
}
VORTEX = BASE_EULER["vortices"][0]
CURVE = BASE_EULER["curves"][0]
NOT_NUMBERS = ["x", None, NAN, INF, -INF, [], {}]
# Each value is invalid for its field.
BAD_EULER = {
    "grid": [
        "x", 0, None, [], {}, {"N": 32, "typo": 1},
        *({"N": n} for n in NOT_NUMBERS + [0, -32, 8, 48, 32.5, True]),
        *({"N": 32, "L": L} for L in NOT_NUMBERS + [0, -1.0, 1e300]),
    ],
    "t_end": NOT_NUMBERS + [0, -0.05],
    "dt": NOT_NUMBERS + ["Auto", 0, -0.01],
    "output_every": NOT_NUMBERS + [0, -1, 1.5, True, False],
    "dealias": [False, 0, "x", None],
    "vortices": [
        "x", 0, None, {}, [0], ["x"], [None], [[]], [{"x": 3.0}], [dict(VORTEX, typo=1)],
        *([dict(VORTEX, **{key: bad})] for key in VORTEX for bad in NOT_NUMBERS),
        [dict(VORTEX, sigma=0)], [dict(VORTEX, sigma=-0.7)],
        [dict(VORTEX, alpha=1e308)], [dict(VORTEX, alpha=1e308)] * 2, [dict(VORTEX, sigma=1e300)],
    ],
    "curves": [
        "x", 0, None, {}, [0], [None], [[]], [{"cx": 3.0}], [dict(CURVE, typo=1)],
        *([dict(CURVE, **{key: bad})] for key in CURVE for bad in NOT_NUMBERS),
        *([dict(CURVE, M=M)] for M in [0, 7, -16, 16.5, True]),
        [dict(CURVE, cx=1e308, radius=1e308)],
    ],
    "typo": [1],
}
REQUIRED_EULER = ("grid", "t_end", "vortices")
bad_euler_docs = st.one_of(
    st.sampled_from([[], "x", 0, -1.0, NAN, INF, None, {}]),
    st.tuples(
        st.just(BASE_EULER),
        st.lists(
            st.one_of(
                st.tuples(st.just("drop"), st.sampled_from(REQUIRED_EULER)),
                st.sampled_from(
                    [(key, bad) for key, values in BAD_EULER.items() for bad in values]
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    ).map(lambda base_muts: _mutate(*base_muts)),
)


@given(bad_euler_docs)
def test_invalid_euler_config_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("cfg") / "e.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--json", "euler", "run", "--config", str(path)]) in (1, 2)


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
        golden = (DATA / "golden_report.txt").read_text()
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
        golden = (DATA / "golden_invariants.csv").read_bytes()
        assert (outdir / "invariants.csv").read_bytes() == golden

    def test_run_without_curves_reads_back(self, capsys, tmp_path):
        cfg = TestEuler.write_config(tmp_path / "c.json", curves=[], vortices=[VORTEX])
        outdir = tmp_path / "out"
        rc, run_out, _ = run_cli(
            capsys, ["--json", "--out", str(outdir), "euler", "run", "--config", str(cfg)]
        )
        assert rc == 0
        rc, out, err = run_cli(
            capsys, ["--json", "report", "--csv", str(outdir / "invariants.csv")]
        )
        assert (rc, err) == (0, "")
        assert out == run_out
        assert set(json.loads(out)) == {"I0", "I2"}
        lines = (outdir / "invariants.csv").read_text().splitlines()
        assert lines[0] == "t,I0,I2,div_max"  # no empty fifth field
        assert {line.count(",") for line in lines} == {3}

    def test_a_no_curve_header_with_a_trailing_comma_still_reads(self, capsys, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("t,I0,I2,div_max,\n0,1,2,0\n1,1,2,0\n")
        rc, out, err = run_cli(capsys, ["--json", "report", "--csv", str(path)])
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"I0": "0", "I2": "0"}

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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def invariant_series(curves):
    record = st.builds(
        inv.InvariantRecord, t=finite_floats, I0=finite_floats,
        I1=st.tuples(*[finite_floats] * curves), I2=finite_floats, div_max=finite_floats,
    )
    return st.lists(record, min_size=2, max_size=6)


@given(st.integers(0, 3).flatmap(invariant_series))
def test_invariant_csv_round_trips(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "invariants.csv"
    labels = [f"v{i}" for i in range(len(records[0].I1))]
    cli.write_invariant_csv(path, records, labels)
    back_labels, back = cli.read_invariant_csv(path)
    assert back_labels == labels
    assert back == records
    report = inv.conservation_report(records)
    assert inv.conservation_report(back) == report
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["--json", "report", "--csv", str(path)]) == 0
    assert printed.getvalue() == json.dumps({k: "%.17g" % v for k, v in report.items()}) + "\n"
