import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from schurlab import groups, harmonic
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

    def test_inconclusive_fails_expect_pass(self, tmp_path):
        # one point per section assembles no section pair
        cfg = _write_config(tmp_path, {**SPHERE_CLASSIFY, "points_per_section": 1})
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out), "--expect", "pass"]) == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["samples"]["sections_used"] == 0

    def test_constant_expression_has_no_boundary(self, tmp_path):
        # a constant F evaluates to a scalar, which the ray solves fill out
        # to their rows; it has no boundary and a vanishing gradient
        cfg = dict(SPHERE_CLASSIFY)
        cfg["symbol"] = {
            "m_dim": 1,
            "n_dim": 1,
            "builtin": None,
            "params": {},
            "expr": "1",
            "box": [[-1.0, 1.0], [-1.0, 1.0]],
        }
        out = tmp_path / "r.json"
        assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["samples"]["pool_points"] == 0
        assert report["notes"] == ["no boundary points found in the domain box"]

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
        assert lines[0] == "symbol_id,p,N,lower_bound,upper_bound,iterations,stop,trials,seed,wall_ms"
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

    @pytest.mark.parametrize("p", [4, "inf"])
    @pytest.mark.parametrize("expr, bound", [("1", 1.0), ("-1", 0.0)])
    def test_constant_expression(self, tmp_path, expr, bound, p):
        """A constant F discretizes to an all-ones or all-zero N x N matrix,
        of norm 1 or 0 at every p."""
        symbol = {"m_dim": 1, "n_dim": 1, "builtin": None, "params": {}, "expr": expr,
                  "box": [[-1.0, 1.0], [-1.0, 1.0]]}
        cfg = _write_config(tmp_path, {**TRIANGULAR_NORMS, "symbol": symbol, "p": p})
        out = tmp_path / "report.json"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["N"] for r in records] == [8, 16, 32]
        for r in records:
            assert abs(r["lower_bound"] - bound) <= 1e-12, r
            assert r["lower_bound"] <= r["upper_bound"] <= bound + 1e-12, r
        if bound == 0.0:
            # the zero symbol scores no seeded start: the matrix unit, the
            # p = inf loop's witness at p = 4, and the carried witness after N = 8
            loop = 1 if p == 4 else 0
            assert [r["trials"] for r in records] == [1 + loop, 2 + loop, 2 + loop]


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

    @pytest.mark.parametrize("p", [1, 4, "inf"])
    def test_transfer_identity_multiplier_has_norm_one(self, tmp_path, capsys, p):
        cfg = {"schema": "schur-lab/1", "command": "transfer", "N": 16, "p": p, "m": "delta", "seed": 0}
        if p == 4:  # the report goes to stdout without --out
            assert main(["--config", _write_config(tmp_path, cfg)]) == 0
            rep = json.loads(capsys.readouterr().out)
        else:
            out = tmp_path / "r.json"
            assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
        assert rep["fourier_lb"] == rep["schur_lb"] == 1.0

    def test_transfer_with_a_subnormal_symbol(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "transfer", "N": 4, "p": 4, "m": [1e-320, 0, 0, 0]},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert all(math.isfinite(rep[k]) and rep[k] > 0.0 for k in ("fourier_lb", "schur_lb"))

    @pytest.mark.parametrize("p", [1.5, "inf"])
    def test_transfer_with_a_near_max_symbol(self, tmp_path, p):
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "transfer", "N": 3, "p": p, "m": [1e308, 1e308, 1e308]},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out)]) == 0

        def no_constant(name):
            raise AssertionError(f"the report holds {name}")

        rep = json.loads(out.read_text(), parse_constant=no_constant)
        assert rep["contract_ok"] and 0.0 < rep["fourier_lb"] <= rep["schur_lb"] * (1 + 1e-9)

    def test_transfer_bound_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        # sum |fft(m)| / N = 5a / 3 > 1.8e308 for a = 1.7e308
        cfg = _write_config(
            tmp_path,
            {"schema": "schur-lab/1", "command": "transfer", "N": 3, "p": "inf", "m": [1.7e308, -1.7e308, 1.7e308]},
        )
        out = tmp_path / "r.json"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("p", [1000, 1e300])
    def test_squarefn_at_a_huge_exponent_is_not_vacuous(self, tmp_path, p):
        rep = _squarefn_report(tmp_path, {"C": 1, "p": p})
        for key in ("lhs", "rhs"):
            assert math.isfinite(rep[key]) and rep[key] > 0.0
        assert rep["grid"] == rep["shape"]


def _squarefn_report(tmp_path, params):
    cfg = {"schema": "schur-lab/1", "command": "squarefn", **params}
    out = tmp_path / "r.json"
    assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _full_grid_square_functions(seed, shape, terms, degree, p, us=None):
    """The squarefn sums on the requested grid itself, as before the grid rule."""
    rng = np.random.default_rng(seed)
    fs, drawn = [], []
    for k in range(terms):
        fs.append(harmonic.random_trig_polynomial(tuple(shape), degree, seed=seed * 1000 + k))
        u = rng.standard_normal(len(shape))
        drawn.append(u / np.linalg.norm(u))
    return harmonic.square_function_test(fs, drawn if us is None else us, p, 1.0)


class TestSquarefnGrid:
    """At an even p squarefn sums on p * degree + 1 points per longer axis;
    the sums are exact there, so lhs and rhs are those of the full grid."""

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize(
        "shape, degree, grid",
        [
            ([200], 3, lambda p: [3 * p + 1]),
            ([64, 48], 2, lambda p: [2 * p + 1] * 2),
            ([24, 20, 16], 1, lambda p: [p + 1] * 3),
            ([3, 100], 2, lambda p: [3, 2 * p + 1]),  # the axis of 3 <= p * degree stays
            ([100], 12, lambda p: [12 * p + 1]),  # 49 points at p = 4
        ],
        ids=["1d", "2d", "3d", "mixed", "degree12"],
    )
    def test_coarse_grid_matches_full_grid(self, tmp_path, p, shape, degree, grid):
        params = {"shape": shape, "terms": 3, "degree": degree, "p": p, "C": 1.0, "seed": 5}
        rep = _squarefn_report(tmp_path, params)
        assert rep["grid"] == grid(p) and rep["shape"] == shape
        full = _full_grid_square_functions(5, shape, 3, degree, float(p))
        assert rep["lhs"] == pytest.approx(full.lhs, rel=1e-12, abs=0.0)
        assert rep["rhs"] == pytest.approx(full.rhs, rel=1e-12, abs=0.0)
        assert rep["pass"] is full.passed

    @pytest.mark.parametrize("p", [4, 3])
    def test_degree_beyond_float_range_is_clamped(self, tmp_path, p):
        # every frequency of an 8-point axis has |xi| <= 4
        params = {"shape": [8], "C": 1, "p": p}
        huge = _squarefn_report(tmp_path, {**params, "degree": 10**400})
        four = _squarefn_report(tmp_path, {**params, "degree": 4})
        assert (huge["lhs"], huge["rhs"]) == (four["lhs"], four["rhs"])
        assert huge["degree"] == 10**400

    @pytest.mark.parametrize("p", [3, 1.5, "inf"])
    def test_grid_is_the_shape_at_other_exponents(self, tmp_path, p):
        params = {"shape": [40, 24], "terms": 2, "degree": 2, "p": p, "C": 1.0, "seed": 3}
        rep = _squarefn_report(tmp_path, params)
        assert rep["grid"] == [40, 24]
        full = _full_grid_square_functions(3, [40, 24], 2, 2, math.inf if p == "inf" else float(p))
        assert (rep["lhs"], rep["rhs"]) == (full.lhs, full.rhs)

    def test_coarse_grid_keeps_the_tie_tolerance_of_the_shape(self, tmp_path, monkeypatch):
        # <(1, 1), u> = 7.1e-8 lies between the tie tolerances of the 3 x 3
        # grid (3e-9) and the 512 x 512 shape (5.1e-7): a tie on the shape
        u = np.array([1.0, -(1.0 - 1e-7)])
        u /= np.linalg.norm(u)
        shape, grid = (512, 512), (3, 3)
        coarse = []
        original = harmonic.square_function_test

        def with_direction_u(fs, us, p, c, **kwargs):
            coarse[:] = [fs]
            return original(fs, [u] * len(fs), p, c, **kwargs)

        monkeypatch.setattr(harmonic, "square_function_test", with_direction_u)
        params = {"shape": list(shape), "terms": 2, "degree": 1, "p": 2, "C": 1.0, "seed": 0}
        rep = _squarefn_report(tmp_path, params)
        monkeypatch.undo()
        assert rep["grid"] == list(grid)
        full = _full_grid_square_functions(0, shape, 2, 1, 2.0, us=[u, u])
        assert rep["lhs"] == pytest.approx(full.lhs, rel=1e-12, abs=0.0)
        # the coarse grid's own tolerance keeps the (1, 1) mode instead
        own = original(coarse[0], [u, u], 2.0, 1.0)
        assert own.lhs > full.lhs * (1 + 1e-6)


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

    def test_pinf_csv_strip_keeps_the_bracket_columns(self, tmp_path):
        """At p = inf the CSV rows carry the bracket columns; wall_ms stays
        last, so stripping the last cell leaves byte-identical rows that
        still hold every bound."""
        cfg = _write_config(tmp_path, {**TRIANGULAR_NORMS, "p": "inf"})
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        texts = [_strip_wall_ms(out.read_text()) for out in outs]
        assert texts[0] == texts[1]
        header, *rows = [line.split(",") for line in texts[0].split("\n")]
        assert header[-1] == "wall_ms" and header[3:7] == ["lower_bound", "upper_bound", "iterations", "stop"]
        for row in rows:
            assert len(row) == len(header) and row[-1] == "0"
            assert float(row[3]) <= float(row[4]) and row[6] in ("gap", "stall", "cap")

    def test_pinf_report_ignores_seed_and_budget(self, tmp_path):
        """The scaling loop draws nothing: a p = inf report is the same for
        any seed and budget, up to the seed it echoes and its timings."""
        reports = []
        for k, (seed, budget) in enumerate([(0, 2), (7, 5)]):
            cfg = {**TRIANGULAR_NORMS, "p": "inf", "seed": seed, "budget": budget}
            out = tmp_path / f"r{k}.json"
            assert main(["--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
            records = json.loads(out.read_text())["records"]
            reports.append([{k: v for k, v in r.items() if k not in ("seed", "wall_ms")} for r in records])
        assert reports[0] == reports[1]
        assert all(r["upper_bound"] >= r["lower_bound"] for r in reports[0])

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

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe" + json.dumps({"schema": "schur-lab/1", "command": "classify"}).encode(),
            b'{"schema": "schur-lab/1", "command": "transfer", "N": 4, "m": ' + b"[" * 100_000,
            b'{"schema": "schur-lab/1", "command": "transfer", "N": 4, "m": '
            + b"[" * 100_000 + b"1" + b"]" * 100_000 + b"}",
            b'{"schema": "schur-lab/1", "command": "transfer", "N": ' + b"9" * 5000 + b"}",
        ],
        ids=["not-utf8", "m-open-100000-deep", "m-nested-100000-deep", "N-5000-digits"],
    )
    def test_unparsable_config_exits_64(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["--config", str(path)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1

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
            # g0 must lie on the boundary {phi = 0}
            ({"command": "groupcheck", "group": "real", "field": "t-0.5", "g0": [0.5]}, 0),
            ({"command": "groupcheck", "group": "real", "field": "t", "g0": [math.nan]}, 64),
            ({"command": "groupcheck", "group": "affine", "field": "b", "g0": [1, math.inf]}, 64),
            # g0 and m take JSON numbers only: no strings, no booleans
            ({"command": "groupcheck", "group": "affine", "field": "b", "g0": ["1", "0"]}, 64),
            ({"command": "groupcheck", "group": "real", "field": "t", "g0": [False]}, 64),
            ({"command": "groupcheck", "group": "real", "field": "t", "g0": "0"}, 64),
            ({"command": "groupcheck", "group": "affine", "field": "b", "g0": [[1], [0, 1]]}, 64),
            ({"command": "groupcheck", "group": "real", "field": "t", "g0": 0}, 0),
            ({"command": "groupcheck", "group": "real", "field": "log(t)"}, 1),
            # |phi| = 0.5 at the default g0 = (1, 0)
            ({"command": "groupcheck", "group": "affine", "field": "b-0.5"}, 64),
            ({"command": "groupcheck", "group": "affine", "field": "b-0.5", "g0": [1.0, 0.5]}, 0),
            # a constant field has no boundary near g0: |phi(g0)| is judged
            # before its vanishing chart gradient
            ({"command": "groupcheck", "group": "affine", "field": "1"}, 64),
            ({"command": "groupcheck", "group": "affine", "field": "2+0*a"}, 64),
            ({"command": "groupcheck", "group": "affine", "field": "0"}, 1),
            ({"command": "transfer", "N": 1000}, 64),
            ({"command": "transfer", "N": 8, "m": [1, 0, 1]}, 64),
            ({"command": "transfer", "N": 4, "m": ["1", "0", "1", "0"]}, 64),
            ({"command": "transfer", "N": 4, "m": [True, False, True, False]}, 64),
            ({"command": "transfer", "N": 1, "m": 1}, 64),
            # nested far past numpy's 64 axes
            ({"command": "transfer", "N": 4, "m": functools.reduce(lambda v, _: [v], range(600), 1)}, 64),
        ],
        ids=[
            "cotlar-negative-samples",
            "cotlar-so3",
            "cotlar-no-group",
            "groupcheck-short-g0",
            "groupcheck-real-g0-list",
            "groupcheck-real-g0-nan",
            "groupcheck-affine-g0-inf",
            "groupcheck-affine-g0-strings",
            "groupcheck-real-g0-boolean",
            "groupcheck-real-g0-string",
            "groupcheck-affine-g0-ragged",
            "groupcheck-real-g0-bare-number",
            "groupcheck-field-not-finite",
            "groupcheck-g0-off-boundary",
            "groupcheck-g0-on-shifted-boundary",
            "groupcheck-constant-field",
            "groupcheck-constant-expression",
            "groupcheck-zero-field",
            "transfer-N-too-large",
            "transfer-m-wrong-length",
            "transfer-m-strings",
            "transfer-m-booleans",
            "transfer-m-bare-number",
            "transfer-m-nested-600-deep",
        ],
    )
    def test_group_command_configs(self, tmp_path, capsys, cfg, code):
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "seed": 0, **cfg})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == code
        err = capsys.readouterr().err
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1
        if cfg.get("field") in ("1", "2+0*a"):
            assert "off the boundary" in err
        if cfg.get("field") == "0":
            assert "vanishing chart gradient" in err


    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "transfer", "N": 8, "budget": -1},
            {"command": "transfer", "N": 8, "p": 0.5},
            {**TRIANGULAR_NORMS, "budget": 0},
            {**TRIANGULAR_NORMS, "sizes": [16, 8]},
            {**TRIANGULAR_NORMS, "sizes": [0]},
            {**TRIANGULAR_NORMS, "sizes": [8, 16.5]},
            {**TRIANGULAR_NORMS, "sizes": [4096]},
            {**TRIANGULAR_NORMS, "sizes": [10000000]},
            {**TRIANGULAR_NORMS, "ascent_steps": -1},
            {**TRIANGULAR_NORMS, "p": 0.5},
            {**TRIANGULAR_NORMS, "p": float("nan")},
            {**TRIANGULAR_NORMS, "p": [4]},
            {**TRIANGULAR_NORMS, "p": 10**400},
            {**TRIANGULAR_NORMS, "symbol": {"builtin": "ball", "params": {"n": 13}}, "sizes": [8]},
            {"command": "transfer", "N": 4, "p": 4, "m": [1, math.nan, 0, 1]},
            {"command": "transfer", "N": 4, "p": "inf", "m": [1, math.nan, 0, 1]},
        ],
        ids=[
            "transfer-negative-budget",
            "transfer-p-below-1",
            "norms-zero-budget",
            "norms-decreasing-sizes",
            "norms-zero-size",
            "norms-fractional-size",
            "norms-size-above-max",
            "norms-size-ten-million",
            "norms-negative-ascent-steps",
            "norms-p-below-1",
            "norms-p-nan",
            "norms-p-list",
            "norms-p-beyond-float-range",
            "norms-factor-dim-13",
            "transfer-m-nan-p4",
            "transfer-m-nan-pinf",
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
            {"command": "squarefn", "shape": [100000, 100000], "C": 1},
            {"command": "squarefn", "shape": [64, 64, 64], "terms": 17, "C": 1},
            {"command": "cotlar", "group": "real", "samples": 10**8 + 1},
            {"command": "cotlar", "group": "real", "samples": 10**400},
            {**SPHERE_CLASSIFY, "boundary_samples": 0},
            {**SPHERE_CLASSIFY, "sections": -1},
            {**SPHERE_CLASSIFY, "points_per_section": 0},
            {**SPHERE_CLASSIFY, "boundary_samples": 1_000_000_000},
            {**SPHERE_CLASSIFY, "points_per_section": 1_000_000_000},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 1_000_000}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 1_000_000_000}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "halfspace", "params": {"m_dim": 10**9}}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": 10**9, "n_dim": 1, "expr": "x1 - y1",
                                           "box": [[-1, 1], [-1, 1]]}},
        ],
        ids=[
            "squarefn-zero-shape",
            "squarefn-negative-shape",
            "squarefn-fractional-shape",
            "squarefn-shape-not-a-list",
            "squarefn-zero-terms",
            "squarefn-zero-degree",
            "squarefn-grid-ten-billion",
            "squarefn-terms-times-grid-above-max",
            "cotlar-samples-above-max",
            "cotlar-samples-beyond-float-range",
            "classify-zero-boundary-samples",
            "classify-negative-sections",
            "classify-zero-points-per-section",
            "classify-billion-boundary-samples",
            "classify-billion-points-per-section",
            "classify-ball-dim-million",
            "classify-ball-dim-billion",
            "classify-halfspace-dim-billion",
            "classify-expression-dim-billion",
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
            {**SPHERE_CLASSIFY, "z0": [[0.1], [True]], "symbol": TRIANGULAR_NORMS["symbol"]},
            {**SPHERE_CLASSIFY, "seed": "x"},
            {"command": "squarefn", "C": "x"},
            {"command": "cotlar", "group": "affine", "samples": 10, "seed": -1},
            {**SPHERE_CLASSIFY, "symbol": {**SPHERE_CLASSIFY["symbol"], "builtin": None,
                                           "expr": "x1 - y1", "box": [[-1, math.inf]] + [[-1, 1]] * 3}},
            # finite bounds whose width hi - lo overflows to inf
            {**SPHERE_CLASSIFY, "symbol": {**SPHERE_CLASSIFY["symbol"], "box": [[-1e308, 1e308]] + [[-1, 1]] * 3}},
            {**TRIANGULAR_NORMS, "symbol": {**TRIANGULAR_NORMS["symbol"], "box": [[-1e308, 1e308], [0, 1024]]}},
            # integer fields take ints or integral floats only
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 2.5}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": True}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "sphere_delta", "params": {"n": "2", "delta": 0.0}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "halfspace", "params": {"n_dim": 1.5}}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": 1.5, "n_dim": 1, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": True, "n_dim": 1, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": 1, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": "abc"}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": [2]}},
            # real fields take ints or floats only
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 2, "R": True}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 2, "R": "1.0"}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "toeplitz_ball", "params": {"n": 1, "R": False}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "sphere_delta", "params": {"n": 2, "delta": "0.1"}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "sphere_delta", "params": {"n": 2, "delta": True}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "sphere_delta", "params": {"n": 2}}},
            {**SPHERE_CLASSIFY, "symbol": {"builtin": "ball", "params": {"n": 2, "R": 10**400}}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": 1, "n_dim": 1, "expr": "x1 - y1",
                                           "box": [[-1, True], [-1, 1]]}},
            {**SPHERE_CLASSIFY, "symbol": {"m_dim": 1, "n_dim": 1, "expr": "x1 - y1",
                                           "box": [["-1", 1], [-1, 1]]}},
        ],
        ids=[
            "classify-z0-string",
            "classify-z0-wrong-size",
            "classify-z0-boolean",
            "classify-seed-string",
            "squarefn-C-string",
            "cotlar-negative-seed",
            "classify-infinite-box",
            "classify-box-width-overflows",
            "norms-box-width-overflows",
            "ball-fractional-n",
            "ball-boolean-n",
            "sphere-string-n",
            "halfspace-fractional-n-dim",
            "expression-fractional-m-dim",
            "expression-boolean-m-dim",
            "expression-missing-n-dim",
            "ball-params-string",
            "ball-params-list",
            "ball-boolean-R",
            "ball-string-R",
            "toeplitz-boolean-R",
            "sphere-string-delta",
            "sphere-boolean-delta",
            "sphere-missing-delta",
            "ball-R-beyond-float-range",
            "expression-boolean-box-bound",
            "expression-string-box-bound",
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

    def test_unknown_key_exits_64_and_names_it(self, tmp_path, capsys):
        path = _write_config(tmp_path, {**TRIANGULAR_NORMS, "budjet": 3})
        assert main(["--config", path, "--out", str(tmp_path / "r.json")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'budjet'" in err

    def test_svg_for_transfer_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the transfer ran before its --format was checked")

        monkeypatch.setattr(groups, "fourier_multiplier_norm_finite_cyclic", must_not_run)
        path = _write_config(tmp_path, {"schema": "schur-lab/1", "command": "transfer", "N": 8})
        out = tmp_path / "r.svg"
        assert main(["--config", path, "--out", str(out), "--format", "svg"]) == 64
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()


def test_norms_at_a_huge_finite_p_reports_a_finite_bracket(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**TRIANGULAR_NORMS, "p": 1e308, "sizes": [4, 8]})
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for r in json.loads(out.read_text())["records"]:
        assert 0.0 < r["lower_bound"] <= r["upper_bound"] < math.inf, r


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


def test_one_process_runs_configs_as_separate_processes(tmp_path):
    """main parses with one parser built at import: configs run one after
    another in this process, with different --seed, --format and --expect
    (and then none), give the exit codes and bytes of separate runs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    sphere = _write_config(tmp_path, SPHERE_CLASSIFY, "sphere.json")
    norms = _write_config(tmp_path, TRIANGULAR_NORMS, "norms.json")
    runs = [
        [sphere, "--seed", "5", "--format", "json", "--expect", "fail"],
        [norms, "--seed", "2", "--format", "csv", "--expect", "pass"],
        [sphere],
    ]
    for k, (cfg, *flags) in enumerate(runs):
        here, alone = tmp_path / f"here{k}", tmp_path / f"alone{k}"
        code = main(["--config", cfg, "--out", str(here), *flags])
        separate = subprocess.run(
            [sys.executable, "-m", "schurlab.cli", "--config", cfg, "--out", str(alone), *flags],
            env=env, capture_output=True, text=True,
        )
        assert code == separate.returncode, separate.stderr
        assert _strip_wall_ms(here.read_text()) == _strip_wall_ms(alone.read_text())
