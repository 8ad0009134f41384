"""Seeded workload configs for the schurlab benchmark, with output checks.

A workload is a list of Jobs.  Each Job is one CLI invocation: a config,
an output format and a check that reads the written report and returns
the reasons it is wrong (an empty list when it is right).  Every config
value that varies comes from the benchmark seed, so the program only sees
configs generated from that seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SCHEMA = "schur-lab/1"

# Tolerances of the checks.  An oracle row may fall short of the exact norm
# by at most ORACLE_TOL (relative); a lower bound above the exact norm is
# always wrong.  The smoke test moves an oracle row by 1% and expects a
# failure, so ORACLE_TOL must stay well below 1e-2.
ORACLE_TOL = 1e-3
CONTRACT_SLACK = 1e-9
PLATEAU_RATIO = 1.10


@dataclass
class Job:
    name: str
    config: dict
    fmt: str = "json"
    check: Callable[[str], list] = lambda text: []
    # exact S_inf multiplier norm for circulant oracle rows, else None
    oracle: float | None = None
    # triangular sweep rows (p label, N) the trace reports per row
    rows: tuple = field(default_factory=tuple)


def _symbol(builtin=None, params=None, m_dim=1, n_dim=1, expr=None, box=None):
    return {
        "m_dim": m_dim,
        "n_dim": n_dim,
        "builtin": builtin,
        "params": params or {},
        "expr": expr,
        "box": box,
    }


def strip_timing(text: str) -> str:
    """Drop the wall_ms fields, as the CLI determinism criterion does."""
    if text.startswith("symbol_id,"):
        lines = text.strip().split("\n")
        return "\n".join([lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]])
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


def circulant_oracle(m) -> float:
    """Exact S_inf norm of the Schur multiplier M(i, j) = m(i - j mod N):
    the Fourier algebra norm sum |fft(m)| / N (Bozejko-Fendler)."""
    m = np.asarray(m, dtype=float)
    return float(np.sum(np.abs(np.fft.fft(m))) / m.size)


def shortfall(lower_bound: float, exact: float) -> float:
    return (exact - lower_bound) / exact


# ---------------------------------------------------------------------------
# Checks.  Each takes the report text and returns a list of failure reasons.
# ---------------------------------------------------------------------------


def _bounds_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [int(r["N"]) for r in rows], [float(r["lower_bound"]) for r in rows]


def _bounds_json(text):
    recs = json.loads(text)["records"]
    return [r["N"] for r in recs], [float(r["lower_bound"]) for r in recs]


def check_plateau(sizes):
    """Criterion-4 gate at p = 4: monotone, and bound_64/bound_32 <= 1.10."""

    def check(text):
        ns, b = _bounds_csv(text)
        errs = []
        if ns != sizes:
            return [f"rows for N={ns}, expected {sizes}"]
        if not all(math.isfinite(v) and v > 0.0 for v in b):
            errs.append(f"bounds not finite and positive: {b}")
        if not all(y >= x - 1e-12 for x, y in zip(b, b[1:])):
            errs.append(f"p=4 bounds not monotone: {b}")
        if b[-1] / b[-2] > PLATEAU_RATIO:
            errs.append(f"no p=4 plateau: ratio {b[-1] / b[-2]:.4f}")
        return errs

    return check


def check_strict_growth(sizes):
    """Criterion-4 gate at p = inf: strictly increasing bounds."""

    def check(text):
        ns, b = _bounds_json(text)
        if ns != sizes:
            return [f"rows for N={ns}, expected {sizes}"]
        if not all(y > x for x, y in zip(b, b[1:])):
            return [f"p=inf bounds not strictly increasing: {b}"]
        return []

    return check


def check_svg(sizes):
    def check(text):
        if not text.startswith("<svg") or "<polyline" not in text:
            return ["not an SVG line chart"]
        labels = [int(v) for v in re.findall(r'text-anchor="middle">(\d+)</text>', text)]
        if labels != sizes:
            return [f"SVG points for N={labels}, expected {sizes}"]
        return []

    return check


def check_transfer(exact=None):
    """The transfer contract fourier_lb <= schur_lb, and for oracle rows
    schur_lb within ORACLE_TOL below the exact norm and never above it."""

    def check(text):
        r = json.loads(text)
        errs = []
        if r["contract_ok"] is not True:
            errs.append("contract_ok is false")
        if not r["fourier_lb"] <= r["schur_lb"] * (1.0 + CONTRACT_SLACK):
            errs.append(f"fourier_lb {r['fourier_lb']} > schur_lb {r['schur_lb']}")
        if exact is not None:
            gap = shortfall(r["schur_lb"], exact)
            if gap < -CONTRACT_SLACK:
                errs.append(f"lower bound {r['schur_lb']} exceeds exact norm {exact}")
            elif gap > ORACLE_TOL:
                errs.append(f"lower bound {r['schur_lb']} short of exact {exact} by {gap:.2e}")
        return errs

    return check


def check_field(key, expected):
    def check(text):
        got = json.loads(text)[key]
        return [] if got == expected else [f"{key} is {got!r}, expected {expected!r}"]

    return check


def check_cotlar(samples):
    def check(text):
        r = json.loads(text)
        errs = []
        if r["failures"] != 0:
            errs.append(f"{r['failures']} Cotlar failures")
        if r["samples"] != samples:
            errs.append(f"{r['samples']} samples, expected {samples}")
        return errs

    return check


def check_squarefn(must_pass, plancherel=False):
    """The pass flag agrees with lhs <= C * rhs; a p = 2, C = 1 case must
    pass, because each directional projection is an L_2 contraction."""

    def check(text):
        r = json.loads(text)
        errs = []
        lhs, rhs, c = r["lhs"], r["rhs"], r["C"]
        if not (math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0.0):
            errs.append(f"square functions not finite: lhs {lhs}, rhs {rhs}")
        elif r["pass"] != (lhs <= c * rhs * (1.0 + CONTRACT_SLACK)):
            errs.append("pass flag disagrees with lhs <= C * rhs")
        if must_pass and r["pass"] is not True:
            errs.append(f"expected a pass: lhs {lhs} vs C * rhs {c * rhs}")
        if plancherel and not lhs <= rhs * (1.0 + CONTRACT_SLACK):
            errs.append(f"Plancherel violated: lhs {lhs} > rhs {rhs}")
        return errs

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _random_01(rng, n):
    """Seeded 0/1 circulant symbol, never all zeros."""
    m = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    m[int(rng.integers(n))] = 1.0
    return m


def _config_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# Triangular estimator sweeps of the norms workload, p label -> sizes.  The
# traced run reports one matcore.row.<p>.N<n> pair per (p, N) in these.
TRIANGULAR_SWEEPS = {"4": (8, 16, 32, 64), "inf": (8, 16, 32, 64, 128)}
TRIANGULAR_ROWS = tuple((p, n) for p, sizes in TRIANGULAR_SWEEPS.items() for n in sizes)


def norms(seed: int) -> list:
    """Estimator sweeps (triangular p=4 and p=inf, ball(2,1) p=4) and
    circulant transfer rows at p=inf with exact oracle values."""
    rng = np.random.default_rng([seed, 1])
    tri = _symbol("triangular")
    jobs = []
    sizes4 = list(TRIANGULAR_SWEEPS["4"])
    jobs.append(
        Job(
            "norms.triangular.p4",
            {"schema": SCHEMA, "command": "norms", "symbol": tri, "p": 4,
             "sizes": sizes4, "budget": 6, "seed": _config_seed(rng)},
            fmt="csv",
            check=check_plateau(sizes4),
            rows=tuple(("4", n) for n in sizes4),
        )
    )
    sizes_inf = list(TRIANGULAR_SWEEPS["inf"])
    jobs.append(
        Job(
            "norms.triangular.pinf",
            {"schema": SCHEMA, "command": "norms", "symbol": tri, "p": "inf",
             "sizes": sizes_inf, "budget": 4, "seed": _config_seed(rng)},
            check=check_strict_growth(sizes_inf),
            rows=tuple(("inf", n) for n in sizes_inf),
        )
    )
    sizes_ball = [16, 32, 64]
    jobs.append(
        Job(
            "norms.ball.p4",
            {"schema": SCHEMA, "command": "norms",
             "symbol": _symbol("ball", {"n": 2, "R": 1.0}, 2, 2), "p": 4,
             "sizes": sizes_ball, "seed": _config_seed(rng)},
            fmt="svg",
            check=check_svg(sizes_ball),
        )
    )
    for n in (64, 128):
        m = _random_01(rng, n)
        exact = circulant_oracle(m)
        jobs.append(
            Job(
                f"norms.transfer.N{n}",
                {"schema": SCHEMA, "command": "transfer", "N": n, "p": "inf",
                 "m": m.tolist(), "seed": _config_seed(rng)},
                check=check_transfer(exact),
                oracle=exact,
            )
        )
    return jobs


# Criterion-1 verdict table plus toeplitz_ball(2,1).
CLASSIFY_TABLE = (
    (_symbol("ball", {"n": 1, "R": 1.0}), "TRIANGULAR_MODEL"),
    (_symbol("ball", {"n": 2, "R": 1.0}, 2, 2), "TRIANGULAR_MODEL"),
    (_symbol("ball", {"n": 3, "R": 1.0}, 3, 3), "TRIANGULAR_MODEL"),
    (_symbol("halfspace"), "TRIANGULAR_MODEL"),
    (_symbol("sphere_delta", {"n": 1, "delta": -0.5}), "TRIANGULAR_MODEL"),
    (_symbol("sphere_delta", {"n": 1, "delta": 0.0}), "TRIANGULAR_MODEL"),
    (_symbol("sphere_delta", {"n": 1, "delta": 0.5}), "TRIANGULAR_MODEL"),
    (_symbol("halfspace", {"f1": "0"}), "TRIANGULAR_MODEL"),
    (_symbol("sphere_delta", {"n": 2, "delta": 0.0}, 2, 2), "CURVATURE_FAIL"),
    (_symbol("sphere_delta", {"n": 2, "delta": 0.3}, 2, 2), "CURVATURE_FAIL"),
    (_symbol("sphere_delta", {"n": 3, "delta": 0.0}, 3, 3), "CURVATURE_FAIL"),
    (_symbol("toeplitz_ball", {"n": 2, "R": 1.0}, 2, 2), "CURVATURE_FAIL"),
)


# Classify time depends on the random rays each config seed draws; two
# independent config seeds per symbol narrow the spread of the pass time
# across benchmark seeds.
CLASSIFY_REPEATS = 2


def classify(seed: int) -> list:
    """Criterion-1 verdict table, expression symbols (one triangular, one
    curved) and one base-point config, each at CLASSIFY_REPEATS config
    seeds."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for rep in range(CLASSIFY_REPEATS):
        jobs += _classify_set(rng, f"classify.r{rep}")
    return jobs


def _classify_set(rng, prefix):
    cseed = _config_seed(rng)
    jobs = []
    for k, (sym, verdict) in enumerate(CLASSIFY_TABLE):
        name = sym["builtin"] + "".join(f".{v}" for v in sym["params"].values())
        jobs.append(
            Job(
                f"{prefix}.{k:02d}.{name}",
                {"schema": SCHEMA, "command": "classify", "symbol": sym, "seed": cseed},
                check=check_field("verdict", verdict),
            )
        )
    box2 = [[-1.0, 1.0]] * 4
    a, b = (round(float(v), 3) for v in rng.uniform(0.5, 1.5, size=2))
    c = round(float(rng.uniform(-0.2, 0.2)), 3)
    exprs = (
        (f"{a}*x1+x2**2-{b}*y1-y2**2", "TRIANGULAR_MODEL"),
        (f"x1*y1+{a}*x2*y2{c:+}", "CURVATURE_FAIL"),
    )
    for k, (expr, verdict) in enumerate(exprs):
        jobs.append(
            Job(
                f"{prefix}.expr{k}",
                {"schema": SCHEMA, "command": "classify",
                 "symbol": _symbol(None, None, 2, 2, expr, box2), "seed": cseed},
                check=check_field("verdict", verdict),
            )
        )
    # base point on the sphere |x|^2 + |y|^2 = 1 with both factors nonzero
    t = float(rng.uniform(0.25, 0.75)) * math.pi / 2
    u, v = rng.uniform(0.0, 2.0 * math.pi, size=2)
    z0 = [[math.cos(t) * math.cos(u), math.cos(t) * math.sin(u)],
          [math.sin(t) * math.cos(v), math.sin(t) * math.sin(v)]]
    jobs.append(
        Job(
            f"{prefix}.z0.ball.2",
            {"schema": SCHEMA, "command": "classify",
             "symbol": _symbol("ball", {"n": 2, "R": 1.0}, 2, 2), "z0": z0, "seed": cseed},
            check=check_field("verdict", "TRIANGULAR_MODEL"),
        )
    )
    return jobs


GROUPCHECK_TABLE = (
    ("sl2r", "sgn_c", "PASS"),
    ("sl2r", "m0", "FAIL"),
    ("so3", "g11", "FAIL"),
    ("real", "t", "PASS"),
    ("affine", "b", "PASS"),
    ("heisenberg", "x", "PASS"),
)


def checks(seed: int) -> list:
    """Cotlar identities, subalgebra verdicts, square functions and
    criterion-8 transfer rows."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    samples = 1_000_000
    for group in ("real", "affine", "sl2r"):
        jobs.append(
            Job(
                f"checks.cotlar.{group}",
                {"schema": SCHEMA, "command": "cotlar", "group": group,
                 "samples": samples, "seed": _config_seed(rng)},
                check=check_cotlar(samples),
            )
        )
    for group, fld, verdict in GROUPCHECK_TABLE:
        jobs.append(
            Job(
                f"checks.groupcheck.{group}.{fld}",
                {"schema": SCHEMA, "command": "groupcheck", "group": group,
                 "field": fld, "seed": _config_seed(rng)},
                check=check_field("verdict", verdict),
            )
        )
    # a horizontal line through the centre spans a normal subalgebra
    k = round(float(rng.uniform(-2.0, 2.0)), 3)
    jobs.append(
        Job(
            "checks.groupcheck.heisenberg.expr",
            {"schema": SCHEMA, "command": "groupcheck", "group": "heisenberg",
             "field": f"x{k:+}*y", "seed": _config_seed(rng)},
            check=check_field("verdict", "PASS"),
        )
    )
    # lhs/rhs is about 0.72 on these grids, so C = 2 passes with room
    for shape in ([64, 64, 64], [512, 512]):
        jobs.append(
            Job(
                f"checks.squarefn.{'x'.join(map(str, shape))}",
                {"schema": SCHEMA, "command": "squarefn", "shape": shape,
                 "terms": 4, "degree": 4, "p": 4, "C": 2.0, "seed": _config_seed(rng)},
                check=check_squarefn(must_pass=False),
            )
        )
    jobs.append(
        Job(
            "checks.squarefn.plancherel",
            {"schema": SCHEMA, "command": "squarefn", "shape": [128, 128],
             "terms": 4, "degree": 6, "p": 2, "C": 1.0, "seed": _config_seed(rng)},
            check=check_squarefn(must_pass=True, plancherel=True),
        )
    )
    for n in (16, 32):
        for p in (4.0 / 3.0, 4.0):
            m = _random_01(rng, n)
            jobs.append(
                Job(
                    f"checks.transfer.N{n}.p{p:.3g}",
                    {"schema": SCHEMA, "command": "transfer", "N": n, "p": p,
                     "m": m.tolist(), "budget": 3, "seed": _config_seed(rng)},
                    check=check_transfer(),
                )
            )
    return jobs


WORKLOADS = {"norms": norms, "classify": classify, "checks": checks}
