"""Span tracer for the schurlab benchmark's traced run.

The tracer wraps public functions at the module attributes that callers
resolve at call time, so no schurlab file changes.  Each call records a
span [name, start, end, parent, info, error]; spans stay in memory and
are written once, after the traced pass.  ``layer_metrics`` turns the
spans into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

import numpy as np

from workloads import TRIANGULAR_ROWS

# spans are lists: [name, start, end, parent index, info, error class name]
NAME, START, END, PARENT, INFO, ERROR = range(6)

COMMANDS = ("classify", "norms", "squarefn", "cotlar", "groupcheck", "transfer")


def _svd_gflop(a, full_matrices=True, compute_uv=True, *_, **__):
    """LAPACK SVD flop model, Golub-Reinsch column of Golub & Van Loan,
    Matrix Computations (3rd ed.), Table 5.4.1, with m >= n: values only
    4mn^2 - 4n^3/3; thin factors 14mn^2 + 8n^3; full factors
    4m^2n + 8mn^2 + 9n^3.  Four real flops per complex one.  A computed
    count, not a measured one."""
    a = np.asarray(a)
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    if np.iscomplexobj(a):
        flops *= 4
    return batch * flops / 1e9


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_gflop_computed"):
        return "GFLOP"
    if name.endswith("_gbytes_computed"):
        return "GB"
    if name.endswith(("_share", "_yield", "_ratio", "_shortfall")):
        return "ratio"
    return "count"


def _fft_gbytes(a, *_, **__):
    """Bytes an out-of-place complex transform reads and writes, computed
    from the array size."""
    return 2 * 16 * np.asarray(a).size / 1e9


class Tracer:
    """Records spans for calls through the attributes it patches."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.job = None  # the Job whose CLI call is running

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   info(*args, **kwargs) if info else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, obj, attr, name, info=None):
        original = getattr(obj, attr)
        self._patched.append((obj, attr, original))
        setattr(obj, attr, self.wrap(name, original, info))

    def install(self):
        """Patch every traced boundary; ``uninstall`` restores them."""
        from schurlab import cli, geometry, groups, harmonic, multiplier, symbols

        def job_info(*_, **__):
            return self.job.config["command"]

        def estimator_info(m, p, *_, **__):
            return {"p": "inf" if np.isinf(float(p)) else f"{float(p):g}",
                    "N": int(np.shape(m)[0]), "rows": self.job.rows}

        from_json = symbols.from_json

        def traced_from_json(obj):
            spec = from_json(obj)
            return dataclasses.replace(spec, f=self.wrap("symbols.f", spec.f))

        self._patched.append((symbols, "from_json", from_json))
        symbols.from_json = self.wrap("symbols.parse", traced_from_json)

        self.patch(cli, "main", "cli", job_info)
        self.patch(multiplier, "norm_growth_experiment", "multiplier")
        self.patch(multiplier, "nested_grids", "multiplier.grid")
        self.patch(multiplier, "discretize_symbol", "multiplier.discretize")
        self.patch(multiplier, "multiplier_norm_lower_bound", "matcore.estimator", estimator_info)
        self.patch(groups, "multiplier_norm_lower_bound", "matcore.estimator", estimator_info)
        self.patch(np.linalg, "svd", "matcore.svd", _svd_gflop)
        self.patch(np.fft, "fftn", "harmonic.fft", _fft_gbytes)
        self.patch(np.fft, "ifftn", "harmonic.fft", _fft_gbytes)
        self.patch(harmonic, "square_function_test", "harmonic")
        self.patch(harmonic, "random_trig_polynomial", "harmonic")
        self.patch(geometry, "classify", "geometry.classify")
        self.patch(geometry, "boundary_project", "geometry.solve")
        self.patch(geometry, "boundary_project_x", "geometry.solve")
        self.patch(geometry, "mixed_hessian_check", "geometry.hessian_check")
        self.patch(geometry, "gradient", "symbols.grad")
        self.patch(geometry, "mixed_hessian", "symbols.hess")
        self.patch(groups, "cotlar_pointwise_check", "groups.cotlar",
                   lambda *a, samples=100_000, **k: samples)
        self.patch(groups, "boundary_subalgebra_verdict", "groups.verdict")
        self.patch(groups, "fourier_multiplier_norm_finite_cyclic", "groups.transfer")
        self.patch(groups, "expm", "groups.expm")

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced pass.

    A span's self time is its duration minus the time its child spans
    cover; calls are sequential, so children never overlap.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    count = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    for i, s in enumerate(spans):
        count[s[NAME]] += 1
        total[s[NAME]] += dur[i]
        self_t[s[NAME]] += dur[i] - child[i]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    out = {}
    # matcore: the estimator, and the SVDs it runs directly
    est_svd = [i for i, s in enumerate(spans)
               if s[NAME] == "matcore.svd" and parent_name(s) == "matcore.estimator"]
    svd_s = sum((dur[i] for i in est_svd), 0.0)
    out["matcore.estimator_calls"] = count["matcore.estimator"]
    out["matcore.estimator_s"] = total["matcore.estimator"]
    out["matcore.svd_calls"] = len(est_svd)
    out["matcore.svd_s"] = svd_s
    out["matcore.svd_share"] = svd_s / total["matcore.estimator"] if total["matcore.estimator"] else 0.0
    out["matcore.svd_gflop_computed"] = sum((spans[i][INFO] for i in est_svd), 0.0)
    row_s = defaultdict(float)
    row_svd = defaultdict(int)
    for i, s in enumerate(spans):
        if s[NAME] == "matcore.estimator" and s[INFO]:
            key = (s[INFO]["p"], s[INFO]["N"])
            if key in s[INFO]["rows"]:
                row_s[key] += dur[i]
    for i in est_svd:
        info = spans[spans[i][PARENT]][INFO]
        key = (info["p"], info["N"])
        if key in info["rows"]:
            row_svd[key] += 1
    for p, n in TRIANGULAR_ROWS:
        out[f"matcore.row.{p}.N{n}.s"] = row_s[(p, n)]
        out[f"matcore.row.{p}.N{n}.svd_calls"] = row_svd[(p, n)]

    out["multiplier.self_s"] = self_t["multiplier"]
    out["multiplier.discretize_s"] = total["multiplier.discretize"]
    out["multiplier.grid_s"] = total["multiplier.grid"]

    solves = [s for s in spans if s[NAME] == "geometry.solve"]
    fails = defaultdict(int)
    for s in solves:
        if s[ERROR]:
            fails[s[ERROR]] += 1
    out["geometry.classify_s"] = total["geometry.classify"]
    out["geometry.self_s"] = sum((v for k, v in self_t.items() if k.startswith("geometry.")), 0.0)
    out["geometry.ray_solves"] = len(solves)
    out["geometry.ray_fail.no_convergence"] = fails["NoConvergence"]
    out["geometry.ray_fail.degenerate"] = fails["DegenerateGradient"]
    out["geometry.ray_yield"] = (len(solves) - sum(fails.values())) / len(solves) if solves else 0.0
    out["geometry.solve_s"] = total["geometry.solve"]
    out["geometry.hessian_check_s"] = total["geometry.hessian_check"]

    out["symbols.f_calls"] = count["symbols.f"]
    out["symbols.grad_calls"] = count["symbols.grad"]
    out["symbols.hess_calls"] = count["symbols.hess"]
    # outermost symbols spans only, so f calls inside a finite-difference
    # gradient are not counted twice
    out["symbols.s"] = sum((dur[i] for i, s in enumerate(spans)
                            if s[NAME].startswith("symbols.")
                            and not parent_name(s).startswith("symbols.")), 0.0)

    cotlar_s = total["groups.cotlar"]
    out["groups.cotlar_s"] = cotlar_s
    out["groups.cotlar_samples_per_s"] = (
        sum(s[INFO] for s in spans if s[NAME] == "groups.cotlar") / cotlar_s if cotlar_s else 0.0)
    out["groups.verdict_s"] = total["groups.verdict"]
    out["groups.expm_calls"] = count["groups.expm"]
    out["groups.expm_s"] = total["groups.expm"]
    out["groups.transfer_self_s"] = self_t["groups.transfer"]

    out["harmonic.squarefn_s"] = total["harmonic"]
    out["harmonic.fft_calls"] = count["harmonic.fft"]
    out["harmonic.fft_s"] = total["harmonic.fft"]
    out["harmonic.fft_gbytes_computed"] = sum(
        (s[INFO] for s in spans if s[NAME] == "harmonic.fft"), 0.0)

    out["cli.self_s"] = self_t["cli"]
    cmd_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[NAME] == "cli":
            cmd_s[s[INFO]] += dur[i]
    for cmd in COMMANDS:
        out[f"cli.cmd.{cmd}_s"] = cmd_s[cmd]
    return out
