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
from .errors import ConfigInvalid, GroupMismatch, NonFinite, SchurLabError

SCHEMA = "schur-lab/1"

FORMATS = ("json", "csv", "svg")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    if cfg.get("schema", SCHEMA) != SCHEMA:
        raise ConfigInvalid(f"unsupported schema {cfg.get('schema')!r}")
    if cfg.get("command") not in COMMANDS:
        raise ConfigInvalid(f"command must be one of {tuple(COMMANDS)}")
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


def _p_label(p):
    return "inf" if math.isinf(p) else p


def _finite_number(value) -> bool:
    """True for a JSON number (not a bool) that is a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _numbers(value):
    """``value`` as a float array when it is a finite JSON number or nested
    lists of them, else None: a bool, a string, a ragged list.  The leaves
    are walked with a stack, so no nesting depth exhausts the recursion."""
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(v)
        elif not _finite_number(v):
            return None
    try:
        return np.array(value, dtype=float)
    except ValueError:  # ragged, or nested deeper than numpy's 64 axes
        return None


def _integer(lo, hi=math.inf):
    def parse(key, value):
        whole = type(value) is int or (type(value) is float and value.is_integer())
        if not (whole and lo <= value <= hi):
            raise ConfigInvalid(f"{key!r} must be an integer in [{lo}, {hi}], got {value!r}")
        return int(value)

    return parse


_count = _integer(1)


def _integers(lo, hi=math.inf):
    def parse(key, value):
        if not isinstance(value, list) or not value:
            raise ConfigInvalid(f"{key!r} must be a nonempty list of integers, got {value!r}")
        return [_integer(lo, hi)(key, v) for v in value]

    return parse


def _exponent(key, value):
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if not (_finite_number(value) or value == math.inf) or not value >= 1:  # NaN fails too
        raise ConfigInvalid(f"{key!r} must be a number >= 1 or 'inf', got {value!r}")
    return float(value)


def _positive(key, value):
    if not (_finite_number(value) and value > 0):
        raise ConfigInvalid(f"{key!r} must be a finite positive number, got {value!r}")
    return float(value)


def _symbol(key, value) -> symbols.SymbolSpec:
    if not isinstance(value, dict):
        raise ConfigInvalid(f"config needs a {key!r} object")
    try:
        return symbols.from_json(value)
    except (KeyError, TypeError, ValueError, SchurLabError) as exc:
        raise ConfigInvalid(f"bad symbol payload: {exc}") from exc


def _raw(key, value):  # a parameter its handler checks
    return value


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
    title = f"{records[0].symbol_id}  p={_p_label(records[0].p)}"
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


def _classify(seed, symbol, z0, boundary_samples, sections, points_per_section):
    dims = (symbol.m_dim, symbol.n_dim)
    if z0 is not None:
        parts = [_numbers(part) for part in z0] if isinstance(z0, list) else []
        if not (
            len(parts) == 2
            and all(part is not None and part.shape == (d,) for part, d in zip(parts, dims))
        ):
            raise ConfigInvalid(
                f"'z0' must be two lists of {dims[0]} and {dims[1]} finite numbers, got {z0!r}"
            )
        z0 = tuple(parts)
    rays = max(40 * boundary_samples, points_per_section * min(sections, boundary_samples))
    if rays * sum(dims) > geometry.MAX_RAY_ENTRIES:
        raise ConfigInvalid(f"{rays} rays x {sum(dims)} axes > {geometry.MAX_RAY_ENTRIES} entries")
    report = geometry.classify(
        symbol,
        z0=z0,
        boundary_samples=boundary_samples,
        sections=sections,
        points_per_section=points_per_section,
        seed=seed,
    )
    verdict = report.verdict
    passed = None if verdict == geometry.INCONCLUSIVE else verdict == geometry.TRIANGULAR_MODEL
    return report.to_json(), passed, None


def _norms(seed, symbol, sizes, p, budget, ascent_steps):
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ConfigInvalid(f"'sizes' must be strictly increasing, got {sizes}")
    if max(symbol.m_dim, symbol.n_dim) > multiplier.MAX_GRID_DIM:
        raise ConfigInvalid(f"'norms' grids factors of dimension at most {multiplier.MAX_GRID_DIM}")
    records = multiplier.norm_growth_experiment(
        symbol, p, sizes, budget=budget, seed=seed, ascent_steps=ascent_steps
    )
    fields = {
        "symbol_id": symbol.symbol_id,
        "p": _p_label(p),
        "records": [{"N": r.n, **{k: getattr(r, k) for k in multiplier.RECORD_FIELDS}} for r in records],
    }
    monotone = all(b.lower_bound >= a.lower_bound for a, b in zip(records, records[1:]))
    return fields, monotone, records


def _squarefn(seed, shape, terms, degree, p, C):
    if terms * math.prod(shape) > harmonic.MAX_SQUAREFN_ENTRIES:
        raise ConfigInvalid(
            f"'terms' x the grid size must be at most {harmonic.MAX_SQUAREFN_ENTRIES}, "
            f"got {terms} x {'x'.join(map(str, shape))}"
        )
    # At an even p the p-th power of a square function of polynomials of
    # degree <= degree is a polynomial of degree <= p * degree on each axis,
    # and its Riemann sum on an axis of more than p * degree points is its
    # mean: the sums run on the smallest such grid.  The same polynomials are
    # drawn there, rescaled because ifftn divides by the grid size, and the
    # masks keep the tie tolerance of the requested shape.
    grid = list(shape)
    if p.is_integer() and int(p) % 2 == 0:  # inf is not an integer
        top = int(p) * degree
        grid = [n if n <= top else top + 1 for n in shape]
    scale = math.prod(grid) / math.prod(shape)
    rng = np.random.default_rng(seed)
    fs, us = [], []
    for k in range(terms):
        f = harmonic.random_trig_polynomial(tuple(grid), degree, seed=seed * 1000 + k)
        fs.append(f * scale)
        u = rng.standard_normal(len(shape))
        us.append(u / np.linalg.norm(u))
    res = harmonic.square_function_test(fs, us, p, C, tie_shape=shape)
    fields = {
        "lhs": res.lhs,
        "rhs": res.rhs,
        "C": res.constant,
        "pass": res.passed,
        "p": _p_label(p),
        "shape": shape,
        "grid": grid,
        "terms": terms,
        "degree": degree,
    }
    return fields, res.passed, None


def _cotlar(seed, group, samples):
    try:
        failures = groups.cotlar_pointwise_check(group, samples=samples, seed=seed)
    except GroupMismatch as exc:
        raise ConfigInvalid(str(exc)) from exc
    return {"group": group, "samples": samples, "failures": failures}, failures == 0, None


def _groupcheck(seed, group, field, g0):
    if not isinstance(field, str):
        raise ConfigInvalid("'groupcheck' needs a boundary field name or expression")
    try:
        omega = groups.named_boundary_field(group, field)
    except SchurLabError as exc:
        raise ConfigInvalid(str(exc)) from exc
    row = groups.GROUPS[group]  # g0: coordinates in the group's shape, or its default
    coords = np.array(row.g0, dtype=float) if g0 is None else _numbers(g0)
    if coords is None or coords.size != math.prod(row.shape):
        raise ConfigInvalid(
            f"g0 for group {group!r} needs {math.prod(row.shape)} finite numbers "
            f"(shape {list(row.shape)}), got {g0!r}"
        )
    try:
        g0 = row.make(coords.reshape(row.shape))
    except SchurLabError as exc:
        raise ConfigInvalid(f"bad g0 for group {group!r}: {exc}") from exc
    # off the boundary the verdict would judge another level set of the
    # field; a field not finite at g0 is the verdict's runtime error
    residual = abs(float(omega(g0[None])[0]))
    if math.isfinite(residual) and residual > 1e-9:
        raise ConfigInvalid(f"g0 is off the boundary of field {field!r}: |phi(g0)| = {residual:.3e} > 1e-09")
    verdict = groups.boundary_subalgebra_verdict(group, omega, g0, seed=seed)
    return {"group": group, "field": field, **verdict.to_json()}, verdict.passed, None


def _transfer(seed, N, p, m, budget):
    if m == "half":
        mv = np.zeros(N)
        mv[1 : N // 2 + 1] = 1.0
    elif m == "delta":
        mv = np.zeros(N)
        mv[0] = 1.0
    else:
        mv = _numbers(m)
        if mv is None or mv.shape != (N,):
            raise ConfigInvalid(f"'m' must be 'half', 'delta', or a flat list of N = {N} finite numbers")
    res = groups.fourier_multiplier_norm_finite_cyclic(mv, N, p, budget=budget, seed=seed)
    if not (math.isfinite(res.fourier_lb) and math.isfinite(res.schur_lb)):
        raise NonFinite(f"the bounds overflow the float range: {res.fourier_lb}, {res.schur_lb}")
    fields = {
        "N": N,
        "p": _p_label(p),
        "fourier_lb": res.fourier_lb,
        "schur_lb": res.schur_lb,
        "contract_ok": res.contract_ok,
    }
    return fields, res.contract_ok, None


# command -> (handler, {parameter: (default, parser)}).  run parses every
# parameter before the handler runs: a parser takes (key, value) and returns
# the checked value or raises ConfigInvalid, and never accepts None, the
# default of a required parameter.  A handler takes the seed and the parsed
# parameters, checks what involves more than one of them, and returns (report
# fields, passed, norm records or None), passed being None when the result
# is neither a pass nor a failure.
COMMANDS = {
    "classify": (_classify, {
        "symbol": (None, _symbol), "z0": (None, _raw), "boundary_samples": (64, _count),
        "sections": (8, _count), "points_per_section": (8, _count)}),
    "norms": (_norms, {
        "symbol": (None, _symbol), "sizes": (None, _integers(1, multiplier.MAX_GRID_SIZE)),
        "p": (2, _exponent), "budget": (6, _count), "ascent_steps": (50, _integer(0))}),
    "squarefn": (_squarefn, {
        "shape": ([32, 32], _integers(1)), "terms": (4, _count), "degree": (4, _count),
        "p": (4, _exponent), "C": (None, _positive)}),
    "cotlar": (_cotlar, {
        "group": (None, _raw), "samples": (100_000, _integer(1, groups.MAX_COTLAR_SAMPLES))}),
    "groupcheck": (_groupcheck, {"group": (None, _raw), "field": (None, _raw), "g0": (None, _raw)}),
    "transfer": (_transfer, {
        "N": (16, _integer(1, groups.MAX_CYCLIC_ORDER)), "p": (4, _exponent),
        "m": ("half", _raw), "budget": (8, _count)}),
}


def run(config: dict, out_path=None, fmt="json", seed=None, expect=None) -> int:
    """Execute one experiment config; returns the process exit code."""
    seed = _integer(0)("seed", config.get("seed", 0) if seed is None else seed)
    command = config["command"]
    handler, params = COMMANDS[command]
    unknown = sorted(set(config) - {"schema", "command", "seed"} - set(params))
    if unknown:
        raise ConfigInvalid(f"unknown key(s) for {command!r}: {', '.join(map(repr, unknown))}")
    if fmt not in FORMATS:
        raise ConfigInvalid(f"unknown format {fmt!r}")
    if fmt != "json" and command != "norms":
        raise ConfigInvalid(f"{fmt} output is only defined for 'norms', not {command!r}")
    args = {key: parse(key, config.get(key, default)) for key, (default, parse) in params.items()}

    t0 = time.perf_counter()
    # expression symbols overflow or leave their domain at some sample
    # points; every solver checks finiteness itself, so numpy's warnings
    # would only be noise on stderr
    with np.errstate(all="ignore"):
        fields, passed, records = handler(seed, **args)
    wall_ms = int(round(1000 * (time.perf_counter() - t0)))
    report = {"schema": SCHEMA, "command": command, "seed": seed, "wall_ms": wall_ms, **fields}

    if fmt == "json":
        payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    elif fmt == "csv":
        payload = multiplier.records_to_csv(records)
    else:
        payload = _svg_norm_plot(records)

    if out_path:
        _atomic_write(out_path, payload)
    else:
        sys.stdout.write(payload)

    if expect is not None and passed is not (expect == "pass"):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Run schurlab experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default="json", choices=FORMATS)
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
