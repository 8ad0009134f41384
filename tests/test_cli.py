import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from schurlab.cli import main


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _strip_wall_ms(text: str) -> str:
    if text.startswith("symbol_id,"):
        lines = text.strip().split("\n")
        return "\n".join([lines[0]] + [ln.rsplit(",", 1)[0] + ",0" for ln in lines[1:]])
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


SPHERE_CLASSIFY = {
    "schema": "schur-lab/1",
    "command": "classify",
    "symbol": {
        "m_dim": 2,
        "n_dim": 2,
        "builtin": "sphere_delta",
        "params": {"n": 2, "delta": 0.0},
        "expr": None,
        "box": None,
    },
    "seed": 1,
}

TRIANGULAR_NORMS = {
    "schema": "schur-lab/1",
    "command": "norms",
    "symbol": {"m_dim": 1, "n_dim": 1, "builtin": "triangular", "params": {}, "expr": None, "box": None},
    "p": 4,
    "sizes": [8, 16, 32],
    "budget": 2,
    "seed": 0,
}


class TestClassifyCommand:
    def test_sphere_reports_curvature_fail(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--config", _write_config(tmp_path, SPHERE_CLASSIFY), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "schur-lab/1"
        assert report["verdict"] == "CURVATURE_FAIL"
        assert report["witnesses"]

    def test_expect_flags(self, tmp_path):
        cfg = _write_config(tmp_path, SPHERE_CLASSIFY)
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "fail"]) == 0
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 2

    def test_ball_passes(self, tmp_path):
        cfg = dict(SPHERE_CLASSIFY)
        cfg["symbol"] = {
            "m_dim": 2,
            "n_dim": 2,
            "builtin": "ball",
            "params": {"n": 2, "R": 1.0},
            "expr": None,
            "box": None,
        }
        out = tmp_path / "r.json"
        assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out), "--expect", "pass"]) == 0
        assert json.loads(out.read_text())["verdict"] == "TRIANGULAR_MODEL"

    def test_explicit_base_point(self, tmp_path):
        cfg = dict(SPHERE_CLASSIFY)
        cfg["symbol"] = {
            "m_dim": 2,
            "n_dim": 2,
            "builtin": "ball",
            "params": {"n": 2, "R": 1.0},
            "expr": None,
            "box": None,
        }
        cfg["z0"] = [[1.0, 0.0], [0.0, 0.0]]  # normal vanishes in the y factor
        out = tmp_path / "r.json"
        assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "NON_TRANSVERSE"


class TestNormsCommand:
    def test_csv_rows_monotone(self, tmp_path):
        cfg_obj = dict(TRIANGULAR_NORMS, sizes=[8, 16, 32, 64])
        cfg = _write_config(tmp_path, cfg_obj)
        out = tmp_path / "records.csv"
        code = main(["--config", cfg, "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "symbol_id,p,N,lower_bound,trials,seed,wall_ms"
        assert len(lines) == 5  # four monotone data rows
        bounds = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_svg_output(self, tmp_path):
        cfg = _write_config(tmp_path, TRIANGULAR_NORMS)
        out = tmp_path / "plot.svg"
        assert main(["--config", cfg, "--out", str(out), "--format", "svg"]) == 0
        blob = out.read_text()
        assert blob.startswith("<svg") and "polyline" in blob

    def test_json_report_round_trips(self, tmp_path):
        cfg = _write_config(tmp_path, TRIANGULAR_NORMS)
        out = tmp_path / "report.json"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "schur-lab/1"
        assert [r["N"] for r in report["records"]] == [8, 16, 32]


class TestOtherCommands:
    def test_cotlar(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "cotlar", "group": "affine", "samples": 20000, "seed": 0},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 0
        assert json.loads(out.read_text())["failures"] == 0

    def test_groupcheck(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "groupcheck", "group": "sl2r", "field": "sgn_c", "seed": 0},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 0
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_groupcheck_so3_fails(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "schema": "schur-lab/1",
                "command": "groupcheck",
                "group": "so3",
                "field": "g11",
                "g0": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                "seed": 0,
            },
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "fail"]) == 0
        assert json.loads(out.read_text())["verdict"] == "FAIL"

    def test_transfer(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "transfer", "N": 16, "p": 4, "m": "half", "seed": 0},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 0
        rep = json.loads(out.read_text())
        assert rep["fourier_lb"] <= rep["schur_lb"] * (1 + 1e-9)

    def test_squarefn(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "schema": "schur-lab/1",
                "command": "squarefn",
                "shape": [16, 16],
                "terms": 3,
                "degree": 2,
                "p": 4,
                "C": 10.0,
                "seed": 0,
            },
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True and rep["lhs"] > 0


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    def test_norms_outputs_byte_identical(self, tmp_path, fmt):
        cfg = _write_config(tmp_path, TRIANGULAR_NORMS)
        out1 = tmp_path / f"a.{fmt}"
        out2 = tmp_path / f"b.{fmt}"
        assert main(["--config", cfg, "--out", str(out1), "--format", fmt]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--format", fmt]) == 0
        assert _strip_wall_ms(out1.read_text()) == _strip_wall_ms(out2.read_text())

    def test_classify_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, SPHERE_CLASSIFY)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["--config", cfg, "--out", str(out1)]) == 0
        assert main(["--config", cfg, "--out", str(out2)]) == 0
        assert _strip_wall_ms(out1.read_text()) == _strip_wall_ms(out2.read_text())

    def test_jobs_flag_does_not_change_bytes(self, tmp_path):
        cfg = _write_config(tmp_path, TRIANGULAR_NORMS)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(out1), "--format", "csv"]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--format", "csv", "--jobs", "4"]) == 0
        assert _strip_wall_ms(out1.read_text()) == _strip_wall_ms(out2.read_text())


class TestErrorPaths:
    def test_bad_schema_exits_64(self, tmp_path):
        cfg = _write_config(tmp_path, {"schema": "other/9", "command": "classify"})
        assert main(["--config", cfg]) == 64

    def test_unknown_command_exits_64(self, tmp_path):
        cfg = _write_config(tmp_path, {"schema": "schur-lab/1", "command": "nope"})
        assert main(["--config", cfg]) == 64

    def test_malformed_json_exits_64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 64

    def test_missing_config_exits_74(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 74

    def test_unwritable_output_exits_74(self, tmp_path):
        cfg = _write_config(tmp_path, TRIANGULAR_NORMS)
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["--config", cfg, "--out", str(target)]) == 74

    def test_csv_for_classify_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, SPHERE_CLASSIFY)
        assert main(["--config", cfg, "--format", "csv", "--out", str(tmp_path / "x.csv")]) == 64

    @pytest.mark.parametrize(
        "cfg, code",
        [
            ({"command": "cotlar", "group": "affine", "samples": -5}, 64),
            ({"command": "cotlar", "group": "so3", "samples": 10}, 64),
            ({"command": "cotlar", "samples": 10}, 64),
            ({"command": "groupcheck", "group": "heisenberg", "field": "x", "g0": [1]}, 64),
            ({"command": "groupcheck", "group": "real", "field": "t", "g0": [0.5]}, 0),
            ({"command": "transfer", "N": 1000}, 64),
            ({"command": "transfer", "N": 8, "m": [1, 0, 1]}, 64),
        ],
        ids=[
            "cotlar-negative-samples",
            "cotlar-so3",
            "cotlar-no-group",
            "groupcheck-short-g0",
            "groupcheck-real-g0-list",
            "transfer-N-too-large",
            "transfer-m-wrong-length",
        ],
    )
    def test_group_command_configs(self, tmp_path, capsys, cfg, code):
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "seed": 0, **cfg})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == code
        err = capsys.readouterr().err
        if code == 64:
            assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "transfer", "N": 8, "budget": -1},
            {"command": "transfer", "N": 8, "p": 0.5},
            {**TRIANGULAR_NORMS, "budget": 0},
            {**TRIANGULAR_NORMS, "sizes": [16, 8]},
            {**TRIANGULAR_NORMS, "sizes": [0]},
            {**TRIANGULAR_NORMS, "sizes": [8, 16.5]},
            {**TRIANGULAR_NORMS, "ascent_steps": -1},
            {**TRIANGULAR_NORMS, "p": 0.5},
            {**TRIANGULAR_NORMS, "p": float("nan")},
            {**TRIANGULAR_NORMS, "p": [4]},
        ],
        ids=[
            "transfer-negative-budget",
            "transfer-p-below-1",
            "norms-zero-budget",
            "norms-decreasing-sizes",
            "norms-zero-size",
            "norms-fractional-size",
            "norms-negative-ascent-steps",
            "norms-p-below-1",
            "norms-p-nan",
            "norms-p-list",
        ],
    )
    def test_estimator_configs_exit_64(self, tmp_path, capsys, cfg):
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "seed": 0, **cfg})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "squarefn", "shape": [0], "C": 10},
            {"command": "squarefn", "shape": [8, -2], "C": 10},
            {"command": "squarefn", "shape": [8.5], "C": 10},
            {"command": "squarefn", "shape": 8, "C": 10},
            {"command": "squarefn", "terms": 0, "C": 10},
            {"command": "squarefn", "degree": 0, "C": 10},
            {**SPHERE_CLASSIFY, "boundary_samples": 0},
            {**SPHERE_CLASSIFY, "sections": -1},
            {**SPHERE_CLASSIFY, "points_per_section": 0},
        ],
        ids=[
            "squarefn-zero-shape",
            "squarefn-negative-shape",
            "squarefn-fractional-shape",
            "squarefn-shape-not-a-list",
            "squarefn-zero-terms",
            "squarefn-zero-degree",
            "classify-zero-boundary-samples",
            "classify-negative-sections",
            "classify-zero-points-per-section",
        ],
    )
    def test_count_configs_exit_64(self, tmp_path, capsys, cfg):
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "seed": 0, **cfg})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "cfg",
        [
            {**SPHERE_CLASSIFY, "z0": "abc"},
            {**SPHERE_CLASSIFY, "z0": [[0.1, 0.2], [0.2]], "symbol": TRIANGULAR_NORMS["symbol"]},
            {**SPHERE_CLASSIFY, "seed": "x"},
            {"command": "squarefn", "C": "x"},
            {"command": "cotlar", "group": "affine", "samples": 10, "seed": -1},
        ],
        ids=[
            "classify-z0-string",
            "classify-z0-wrong-size",
            "classify-seed-string",
            "squarefn-C-string",
            "cotlar-negative-seed",
        ],
    )
    def test_malformed_values_exit_64(self, tmp_path, capsys, cfg):
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "seed": 0, **cfg})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_override_exits_64(self, tmp_path, capsys):
        path = _write_config(tmp_path, SPHERE_CLASSIFY)
        assert main(["--config", path, "--seed", "-1", "--out", str(tmp_path / "r.json")]) == 64
        assert capsys.readouterr().err.startswith("error: ")


def test_norms_zero_ascent_steps_reports_best_start(tmp_path):
    cfg = _write_config(tmp_path, {**TRIANGULAR_NORMS, "p": "inf", "ascent_steps": 0})
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    bounds = [r["lower_bound"] for r in json.loads(out.read_text())["records"]]
    assert all(b >= 1.0 - 1e-12 for b in bounds), bounds


@pytest.mark.parametrize("expr", ["log(x1) - y1", "exp(1000*x1) - y1"])
def test_expression_symbols_print_no_numpy_warnings(tmp_path, capsys, expr):
    # log of negative numbers and exp overflow at some sample points
    cfg = {
        **SPHERE_CLASSIFY,
        "symbol": {"m_dim": 1, "n_dim": 1, "builtin": None, "params": {}, "expr": expr,
                   "box": [[-1, 1], [-1, 1]]},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in caught] == []


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, schurlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
