"""Command-line front end.

Reads a JSON experiment config, dispatches to the library, and writes a
JSON/CSV/SVG report atomically.  Outputs are byte-identical across runs
with the same config and seed, except for the wall_ms timing fields.

Exit codes: 0 complete, 2 failed expectation (--expect), 1 runtime error,
64 invalid config, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import geometry, groups, harmonic, multiplier, symbols
from .errors import ConfigInvalid, GroupMismatch, SchurLabError

SCHEMA = "schur-lab/1"

COMMANDS = ("classify", "norms", "squarefn", "cotlar", "groupcheck", "transfer")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    if cfg.get("schema", SCHEMA) != SCHEMA:
        raise ConfigInvalid(f"unsupported schema {cfg.get('schema')!r}")
    if cfg.get("command") not in COMMANDS:
        raise ConfigInvalid(f"command must be one of {COMMANDS}")
    return cfg


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schurlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"


def _parse_p(value):
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if type(value) not in (int, float) or not value >= 1:  # NaN fails too
        raise ConfigInvalid(f"exponent must be a number >= 1 or 'inf', got {value!r}")
    return float(value)


def _finite_number(value) -> bool:
    """True for a JSON number (not a bool) that is a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _int_param(cfg, key, default, lo, hi=math.inf) -> int:
    value = cfg.get(key, default)
    if type(value) not in (int, float) or not (lo <= value <= hi and float(value).is_integer()):
        raise ConfigInvalid(f"{key!r} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _symbol_from_config(cfg) -> symbols.SymbolSpec:
    payload = cfg.get("symbol")
    if not isinstance(payload, dict):
        raise ConfigInvalid("config needs a 'symbol' object")
    try:
        return symbols.from_json(payload)
    except (KeyError, TypeError, ValueError, SchurLabError) as exc:
        raise ConfigInvalid(f"bad symbol payload: {exc}") from exc


def _svg_norm_plot(records) -> str:
    """Static log-x line chart of lower bounds against grid size."""
    width, height, margin = 480, 320, 48
    xs = [math.log2(r.n) for r in records]
    ys = [r.lower_bound for r in records]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.1 or 1.0
    span_x = (x1 - x0) or 1.0

    def sx(v):
        return margin + (width - 2 * margin) * (v - x0) / span_x

    def sy(v):
        return height - margin - (height - 2 * margin) * (v - y0) / (y1 - y0)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    labels = []
    for r, x, y in zip(records, xs, ys):
        labels.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f6feb"/>'
            f'<text x="{sx(x):.2f}" y="{height - margin + 16}" font-size="10"'
            f' text-anchor="middle">{r.n}</text>'
        )
    title = f"{records[0].symbol_id}  p={'inf' if math.isinf(records[0].p) else records[0].p}"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{margin}" y="20" font-size="12">{title}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>\n'
        + "\n".join(labels)
        + f'\n<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
        f' y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}"'
        f' stroke="black"/>\n</svg>\n'
    )


def _cmd_classify(cfg, seed):
    spec = _symbol_from_config(cfg)
    z0 = cfg.get("z0")
    if z0 is not None:
        dims = (spec.m_dim, spec.n_dim)
        if not (
            isinstance(z0, list)
            and len(z0) == 2
            and all(
                isinstance(part, list) and len(part) == d and all(map(_finite_number, part))
                for part, d in zip(z0, dims)
            )
        ):
            raise ConfigInvalid(
                f"'z0' must be two lists of {dims[0]} and {dims[1]} finite numbers, got {z0!r}"
            )
        z0 = (np.array(z0[0], dtype=float), np.array(z0[1], dtype=float))
    t0 = time.perf_counter()
    report = geometry.classify(
        spec,
        z0=z0,
        boundary_samples=_int_param(cfg, "boundary_samples", 64, 1),
        sections=_int_param(cfg, "sections", 8, 1),
        points_per_section=_int_param(cfg, "points_per_section", 8, 1),
        seed=seed,
    )
    wall_ms = int(round(1000 * (time.perf_counter() - t0)))
    out = {"schema": SCHEMA, "command": "classify", "wall_ms": wall_ms}
    out.update(report.to_json())
    ok = report.verdict == geometry.TRIANGULAR_MODEL
    failed = report.verdict in (geometry.CURVATURE_FAIL, geometry.NON_TRANSVERSE)
    return out, ok, failed


def _cmd_norms(cfg, seed):
    spec = _symbol_from_config(cfg)
    sizes = cfg.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigInvalid("'norms' needs a nonempty 'sizes' list")
    sizes = [_int_param({"sizes": s}, "sizes", None, 1, multiplier.MAX_GRID_SIZE) for s in sizes]
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ConfigInvalid(f"'sizes' must be strictly increasing, got {sizes}")
    p = _parse_p(cfg.get("p", 2))
    records = multiplier.norm_growth_experiment(
        spec,
        p,
        sizes,
        budget=_int_param(cfg, "budget", 6, 1),
        seed=seed,
        ascent_steps=_int_param(cfg, "ascent_steps", 50, 0),
    )
    out = {
        "schema": SCHEMA,
        "command": "norms",
        "symbol_id": spec.symbol_id,
        "p": "inf" if math.isinf(p) else p,
        "seed": seed,
        "records": [
            {
                "N": r.n,
                "lower_bound": r.lower_bound,
                "trials": r.trials,
                "seed": r.seed,
                "wall_ms": r.wall_ms,
            }
            for r in records
        ],
    }
    monotone = all(b.lower_bound >= a.lower_bound for a, b in zip(records, records[1:]))
    return out, monotone, not monotone, records


def _cmd_squarefn(cfg, seed):
    shape = cfg.get("shape", [32, 32])
    if not isinstance(shape, list) or not shape:
        raise ConfigInvalid(f"'shape' must be a nonempty list of positive integers, got {shape!r}")
    shape = tuple(_int_param({"shape": s}, "shape", None, 1) for s in shape)
    terms = _int_param(cfg, "terms", 4, 1)
    degree = _int_param(cfg, "degree", 4, 1)
    if terms * math.prod(shape) > harmonic.MAX_SQUAREFN_ENTRIES:
        raise ConfigInvalid(
            f"'terms' x the grid size must be at most {harmonic.MAX_SQUAREFN_ENTRIES}, "
            f"got {terms} x {'x'.join(map(str, shape))}"
        )
    p = _parse_p(cfg.get("p", 4))
    c = cfg.get("C")
    if c is None:
        raise ConfigInvalid("'squarefn' needs the constant 'C'")
    if not (_finite_number(c) and c > 0):
        raise ConfigInvalid(f"'C' must be a finite positive number, got {c!r}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    fs, us = [], []
    for k in range(terms):
        fs.append(harmonic.random_trig_polynomial(shape, degree, seed=seed * 1000 + k))
        u = rng.standard_normal(len(shape))
        us.append(u / np.linalg.norm(u))
    res = harmonic.square_function_test(fs, us, p, float(c))
    out = {
        "schema": SCHEMA,
        "command": "squarefn",
        "lhs": res.lhs,
        "rhs": res.rhs,
        "C": res.constant,
        "pass": res.passed,
        "p": "inf" if math.isinf(p) else p,
        "shape": list(shape),
        "terms": terms,
        "degree": degree,
        "seed": seed,
        "wall_ms": int(round(1000 * (time.perf_counter() - t0))),
    }
    return out, res.passed, not res.passed


def _cmd_cotlar(cfg, seed):
    group = cfg.get("group")
    samples = _int_param(cfg, "samples", 100_000, 1)
    t0 = time.perf_counter()
    try:
        failures = groups.cotlar_pointwise_check(group, samples=samples, seed=seed)
    except GroupMismatch as exc:
        raise ConfigInvalid(str(exc)) from exc
    wall_ms = int(round(1000 * (time.perf_counter() - t0)))
    out = {
        "schema": SCHEMA,
        "command": "cotlar",
        "group": group,
        "samples": samples,
        "failures": failures,
        "seed": seed,
        "wall_ms": wall_ms,
    }
    return out, failures == 0, failures > 0


def _cmd_groupcheck(cfg, seed):
    group = cfg.get("group")
    field_name = cfg.get("field", cfg.get("symbol"))
    if not isinstance(field_name, str):
        raise ConfigInvalid("'groupcheck' needs a boundary field name or expression")
    try:
        omega = groups.named_boundary_field(group, field_name)
    except SchurLabError as exc:
        raise ConfigInvalid(str(exc)) from exc
    g0 = _group_point(cfg, group)
    t0 = time.perf_counter()
    verdict = groups.boundary_subalgebra_verdict(group, omega, g0, seed=seed)
    out = {
        "schema": SCHEMA,
        "command": "groupcheck",
        "group": group,
        "field": field_name,
        "seed": seed,
        "wall_ms": int(round(1000 * (time.perf_counter() - t0))),
    }
    out.update(verdict.to_json())
    return out, verdict.passed, not verdict.passed


def _group_point(cfg, group) -> groups.GroupElement:
    """The base point g0 of a known matrix Lie group: the config's
    coordinates in the group's coordinate shape, or the group's default."""
    row = groups.GROUPS[group]
    try:
        coords = np.array(cfg.get("g0", row.g0), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"g0 for group {group!r} is not numeric: {exc}") from exc
    if coords.size != math.prod(row.shape):
        raise ConfigInvalid(
            f"g0 for group {group!r} needs {math.prod(row.shape)} numbers "
            f"(shape {list(row.shape)}), got {coords.size}"
        )
    try:
        return row.make(coords.reshape(row.shape))
    except SchurLabError as exc:
        raise ConfigInvalid(f"bad g0 for group {group!r}: {exc}") from exc


def _cmd_transfer(cfg, seed):
    n = _int_param(cfg, "N", 16, 1, groups.MAX_CYCLIC_ORDER)
    p = _parse_p(cfg.get("p", 4))
    m_spec = cfg.get("m", "half")
    if m_spec == "half":
        mv = np.zeros(n)
        mv[1 : n // 2 + 1] = 1.0
    elif m_spec == "delta":
        mv = np.zeros(n)
        mv[0] = 1.0
    elif isinstance(m_spec, list):
        try:
            mv = np.array(m_spec, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"'m' is not a list of numbers: {exc}") from exc
        if mv.shape != (n,):
            raise ConfigInvalid(f"'m' must be a flat list of N = {n} values, got shape {mv.shape}")
    else:
        raise ConfigInvalid("'m' must be 'half', 'delta', or a list of values")
    t0 = time.perf_counter()
    res = groups.fourier_multiplier_norm_finite_cyclic(
        mv, n, p, budget=_int_param(cfg, "budget", 8, 1), seed=seed
    )
    out = {
        "schema": SCHEMA,
        "command": "transfer",
        "N": n,
        "p": "inf" if math.isinf(p) else p,
        "fourier_lb": res.fourier_lb,
        "schur_lb": res.schur_lb,
        "contract_ok": res.contract_ok,
        "seed": seed,
        "wall_ms": int(round(1000 * (time.perf_counter() - t0))),
    }
    return out, res.contract_ok, not res.contract_ok


def run(config: dict, out_path=None, fmt="json", seed=None, expect=None) -> int:
    """Execute one experiment config; returns the process exit code."""
    command = config["command"]
    seed = _int_param(config if seed is None else {"seed": seed}, "seed", 0, 0)
    records = None
    # expression symbols overflow or leave their domain at some sample
    # points; every solver checks finiteness itself, so numpy's warnings
    # would only be noise on stderr
    with np.errstate(all="ignore"):
        if command == "classify":
            report, ok, failed = _cmd_classify(config, seed)
        elif command == "norms":
            report, ok, failed, records = _cmd_norms(config, seed)
        elif command == "squarefn":
            report, ok, failed = _cmd_squarefn(config, seed)
        elif command == "cotlar":
            report, ok, failed = _cmd_cotlar(config, seed)
        elif command == "groupcheck":
            report, ok, failed = _cmd_groupcheck(config, seed)
        elif command == "transfer":
            report, ok, failed = _cmd_transfer(config, seed)
        else:  # pragma: no cover - guarded by _load_config
            raise ConfigInvalid(f"unknown command {command!r}")

    if fmt == "json":
        payload = _dump_json(report)
    elif fmt == "csv":
        if records is None:
            raise ConfigInvalid(f"csv output is only defined for 'norms', not {command!r}")
        payload = multiplier.records_to_csv(records)
    elif fmt == "svg":
        if records is None:
            raise ConfigInvalid(f"svg output is only defined for 'norms', not {command!r}")
        payload = _svg_norm_plot(records)
    else:
        raise ConfigInvalid(f"unknown format {fmt!r}")

    if out_path:
        _atomic_write(out_path, payload)
    else:
        sys.stdout.write(payload)

    if expect == "pass" and not ok:
        return 2
    if expect == "fail" and not failed:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Run schurlab experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default="json", choices=("json", "csv", "svg"))
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    parser.add_argument("--expect", choices=("pass", "fail"), default=None)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        return run(
            cfg,
            out_path=args.out,
            fmt=args.format,
            seed=args.seed,
            expect=args.expect,
        )
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 74
    except SchurLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
