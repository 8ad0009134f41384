"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances and budgets are pinned here, not configurable.
"""

import json
import math
import re
import time

import numpy as np

from schurlab.cli import main as cli_main
from schurlab.errors import SchurLabError
from schurlab.geometry import (
    CURVATURE_FAIL,
    TRIANGULAR_MODEL,
    classify,
    mixed_hessian_check,
    sample_boundary_points,
    transversality_check,
    zero_curvature_check_c1,
)
from schurlab.groups import (
    AFFINE,
    GROUPS,
    HEISENBERG,
    REAL,
    SL2R,
    SO3,
    cotlar_pointwise_check,
    fourier_multiplier_norm_finite_cyclic,
    subalgebra_check,
)
from schurlab.harmonic import scaling_limit_check, solve_T
from schurlab.matcore import multiplier_norm_lower_bound
from schurlab.multiplier import (
    circulant,
    componentwise_reparam,
    compression_jp,
    fourier_multiplier_circulant,
    norm_growth_experiment,
    pullback_symbol,
)
from schurlab.symbols import ball, halfspace, sphere_delta, toeplitz_ball, triangular


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS{'  [' + detail + ']' if detail else ''}")


def test_criterion_1_verdict_suite():
    """Classifier verdicts across the benchmark domains, 64 boundary samples
    each, zero misclassifications, under 10 s."""
    expectations = [
        (ball(1, 1.0), TRIANGULAR_MODEL),
        (ball(2, 1.0), TRIANGULAR_MODEL),
        (ball(3, 1.0), TRIANGULAR_MODEL),
        (halfspace(), TRIANGULAR_MODEL),
        (sphere_delta(1, -0.5), TRIANGULAR_MODEL),
        (sphere_delta(1, 0.0), TRIANGULAR_MODEL),
        (sphere_delta(1, 0.5), TRIANGULAR_MODEL),
        (halfspace(f1="0"), TRIANGULAR_MODEL),  # degenerate n1 == 0
        (sphere_delta(2, 0.0), CURVATURE_FAIL),
        (sphere_delta(2, 0.3), CURVATURE_FAIL),
        (sphere_delta(3, 0.0), CURVATURE_FAIL),
    ]
    t0 = time.perf_counter()
    wrong = []
    for spec, expected in expectations:
        verdict = classify(spec, boundary_samples=64, seed=7).verdict
        if verdict != expected:
            wrong.append((spec.symbol_id, verdict, expected))
    elapsed = time.perf_counter() - t0
    assert not wrong, f"misclassifications: {wrong}"
    assert elapsed < 10.0, f"verdict suite took {elapsed:.1f}s (limit 10s)"
    _report("1 (verdict suite)", f"{len(expectations)} domains in {elapsed:.1f}s")


def test_criterion_2_c1_c2_agreement():
    """Tangent-comparison and mixed-Hessian curvature checks never disagree
    on the builtins at transverse sampled points (64 per symbol)."""
    specs = [
        ball(1, 1.0),
        ball(2, 1.0),
        ball(3, 1.0),
        sphere_delta(1, 0.0),
        sphere_delta(1, 0.5),
        sphere_delta(2, 0.0),
        sphere_delta(2, 0.3),
        sphere_delta(3, 0.0),
        toeplitz_ball(1, 1.0),
        toeplitz_ball(2, 1.0),
        triangular(),
        halfspace(),
    ]
    disagreements = 0
    for spec in specs:
        pts = [
            p
            for p in sample_boundary_points(spec, 64, seed=11)
            if transversality_check(p)
        ]
        assert pts, f"no transverse samples for {spec.symbol_id}"
        c1_ok = True
        sections_checked = 0
        rng = np.random.default_rng(12)
        for p in pts[:8]:
            x_inits = [
                np.array([rng.uniform(lo, hi) for lo, hi in spec.x_box])
                for _ in range(7)
            ] + [p.x]
            try:
                ok, _ = zero_curvature_check_c1(spec, p.y, x_inits)
            except SchurLabError:
                continue
            sections_checked += 1
            c1_ok = c1_ok and ok
        assert sections_checked > 0, f"no usable sections for {spec.symbol_id}"
        # the unit normals serve as the gradient split
        rows = (np.array([getattr(p, a) for p in pts]) for a in ("x", "y", "n1", "n2"))
        c2_ok, _ = mixed_hessian_check(spec, *rows)
        if c1_ok != c2_ok:
            disagreements += 1
    assert disagreements == 0
    _report("2 (C1/C2 agreement)", f"{len(specs)} builtins, 64 points each")


def test_criterion_3_p2_exactness():
    """multiplier_norm_lower_bound at p = 2 equals sup |M| within 1e-9 for
    20 random 0/1 matrices up to 64 x 64."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 65))
        m = (rng.random((n, n)) < rng.uniform(0.05, 0.95)).astype(float)
        if not m.any():
            m[0, 0] = 1.0
        v = multiplier_norm_lower_bound(m, 2.0, budget=2, seed=int(rng.integers(1000)))
        worst = max(worst, abs(v - 1.0))
    assert worst <= 1e-9, f"max |lb - sup| = {worst:.2e}"
    _report("3 (p=2 exactness)", f"max deviation {worst:.1e}")


# p = inf triangular bounds at seed 0, budget 4, N = 8 ... 256 from the
# complex-arithmetic estimator; the real path must not fall below them.
TRIANGULAR_PINF_REFERENCE = (
    1.5104835494, 1.7044802171, 1.9054456507, 2.1113665224, 2.3207942077, 2.5327159195,
)


def test_criterion_4_triangular_growth_probe():
    """Triangular symbol: p = 4 bounds monotone with a plateau
    (bound_64 / bound_32 <= 1.10); p = inf strictly increasing through
    N = 256 and not below TRIANGULAR_PINF_REFERENCE.  Under 60 s."""
    t0 = time.perf_counter()
    spec = triangular()
    rec4 = norm_growth_experiment(spec, 4.0, [8, 16, 32, 64], budget=6, seed=0)
    b4 = [r.lower_bound for r in rec4]
    assert all(b >= a - 1e-12 for a, b in zip(b4, b4[1:])), f"p=4 not monotone: {b4}"
    ratio = b4[3] / b4[2]
    assert ratio <= 1.10, f"no p=4 plateau: bound_64/bound_32 = {ratio:.4f}"

    rec_inf = norm_growth_experiment(
        spec, math.inf, [8, 16, 32, 64, 128, 256], budget=4, seed=0
    )
    binf = [r.lower_bound for r in rec_inf]
    assert all(b > a for a, b in zip(binf, binf[1:])), f"p=inf not strictly increasing: {binf}"
    for b, ref in zip(binf, TRIANGULAR_PINF_REFERENCE):
        assert b >= ref * (1.0 - 1e-6), f"p=inf bound {b} below the reference {ref}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"growth probe took {elapsed:.1f}s (limit 60s)"
    # diagnostic, not a gate: the p = inf growth per doubling of N that the
    # brackets certify, next to the Kwapien-Pelczynski rate ln 2 / pi
    uinf = [r.upper_bound for r in rec_inf]
    doublings = math.log2(rec_inf[-1].n / rec_inf[0].n)
    slope = ((binf[-1] - uinf[0]) / doublings, (uinf[-1] - binf[0]) / doublings)
    _report(
        "4 (triangular probe)",
        f"p=4 plateau ratio {ratio:.3f}; p=inf {binf[0]:.2f} -> {binf[-1]:.2f} in {elapsed:.0f}s; "
        f"certified p=inf slope per doubling [{slope[0]:.6f}, {slope[1]:.6f}]"
        f" (ln 2/pi = {math.log(2.0) / math.pi:.4f})",
    )


def test_criterion_5_cotlar_identities():
    """Zero failures in 1e5 seeded samples for each line action; < 5 s each."""
    for gid in (REAL, AFFINE, SL2R):
        t0 = time.perf_counter()
        failures = cotlar_pointwise_check(gid, samples=100_000, seed=0)
        elapsed = time.perf_counter() - t0
        assert failures == 0, f"{gid}: {failures} failures"
        assert elapsed < 5.0, f"{gid} took {elapsed:.1f}s (limit 5s)"
    _report("5 (Cotlar identities)", "3 actions x 1e5 samples, 0 failures")


def test_criterion_6_subalgebra_criterion():
    """Bracket-closure verdicts at tolerance 1e-9: the standard positive
    cases pass, 20 random planes in so(3) all fail."""
    assert subalgebra_check(GROUPS[SL2R].basis, [[1, 0, 0], [0, 1, 0]], tol=1e-9)
    assert subalgebra_check(GROUPS[HEISENBERG].basis, [[1, 0, 0], [0, 0, 1]], tol=1e-9)
    assert subalgebra_check(GROUPS[HEISENBERG].basis, [[0.3, -1.2, 0], [0, 0, 1]], tol=1e-9)
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        cand = rng.standard_normal((n - 1, n))
        diagonal = np.array([np.diag(e) for e in np.eye(n)])  # an abelian algebra
        assert subalgebra_check(diagonal, cand, tol=1e-9)
    failures = 0
    for _ in range(20):
        plane = rng.standard_normal((2, 3))
        if subalgebra_check(GROUPS[SO3].basis, plane, tol=1e-9):
            failures += 1
    assert failures == 0, f"{failures} so(3) planes wrongly accepted"
    _report("6 (subalgebra criterion)", "sl2/heis/abelian pass; 20 so3 planes fail")


def test_criterion_7_scaling_limit():
    """Halfspace-limit agreement >= 0.99 at eps = 1e-3 for ball(2,1) and
    sphere_delta(2,0.3), 10 transverse points, 1000 samples each."""
    for spec in (ball(2, 1.0), sphere_delta(2, 0.3)):
        pts = [
            p
            for p in sample_boundary_points(spec, 40, seed=41)
            if transversality_check(p, 1e-3)
        ][:10]
        assert len(pts) == 10, f"only {len(pts)} transverse points for {spec.symbol_id}"
        for k, z in enumerate(pts):
            t = solve_T(z.n1, z.n2)
            res = scaling_limit_check(
                spec, z, t, [1e-1, 1e-2, 1e-3], samples=1000, seed=100 + k
            )
            assert res.fraction >= 0.99, (
                f"{spec.symbol_id} point {k}: agreement {res.fraction:.3f}"
            )
    _report("7 (scaling limit)", "2 domains x 10 points, agreement >= 0.99")


def test_criterion_8_transference_inequality():
    """fourier_lb <= schur_lb (1 + 1e-9) for 30 random symbols over
    Z_N, N in {8, 16, 32}, p in {4/3, 4}."""
    rng = np.random.default_rng(51)
    combos = [(n, p) for n in (8, 16, 32) for p in (4.0 / 3.0, 4.0)]
    count = 0
    for k in range(30):
        n, p = combos[k % len(combos)]
        mv = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        res = fourier_multiplier_norm_finite_cyclic(mv, n, p, budget=3, seed=k)
        assert res.fourier_lb <= res.schur_lb * (1.0 + 1e-9), (
            f"symbol {k} on Z_{n}, p={p}: {res.fourier_lb} > {res.schur_lb}"
        )
        count += 1
    assert count == 30
    _report("8 (transference)", "30 symbols, inequality holds")


def test_criterion_9_intertwining():
    """Compression intertwines Fourier and Schur multipliers exactly on
    Z_8: Frobenius error <= 1e-12 on 100 random triples."""
    rng = np.random.default_rng(61)
    n = 8
    idx = np.arange(n)
    worst = 0.0
    for _ in range(100):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = rng.standard_normal(n)
        phi, psi = rng.random(n), rng.random(n)
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        x = circulant(c)
        lhs = compression_jp(fourier_multiplier_circulant(x, m), phi, psi, p)
        rhs = m[(idx[:, None] - idx[None, :]) % n] * compression_jp(x, phi, psi, p)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert worst <= 1e-12, f"max Frobenius error {worst:.2e}"
    _report("9 (intertwining)", f"100 triples, max error {worst:.1e}")


def test_criterion_10_pullback_invariance():
    """Classification verdicts survive 5 seeded diffeomorphic
    reparametrizations of each builtin."""
    specs = [
        ball(2, 1.0),
        sphere_delta(2, 0.3),
        sphere_delta(1, 0.0),
        halfspace(),
        toeplitz_ball(2, 1.0),
        triangular(),
    ]
    for spec in specs:
        base = classify(spec, seed=71).verdict
        for trial in range(5):
            rng = np.random.default_rng([71, trial])

            def make(dim):
                coeffs = [
                    (rng.uniform(0.7, 1.3), rng.uniform(0.0, 0.3)) for _ in range(dim)
                ]
                return componentwise_reparam(
                    [lambda t, a=a, c=c: a * t + c * t**3 for a, c in coeffs],
                    [lambda t, a=a, c=c: a + 3.0 * c * t**2 for a, c in coeffs],
                )

            pulled = pullback_symbol(spec, make(spec.m_dim), make(spec.n_dim))
            verdict = classify(pulled, seed=71).verdict
            assert verdict == base, (
                f"{spec.symbol_id} trial {trial}: {verdict} != {base}"
            )
    _report("10 (pullback invariance)", f"{len(specs)} builtins x 5 reparametrizations")


def test_criterion_11_cli_determinism(tmp_path):
    """Byte-identical CLI outputs for equal config and seed (wall_ms
    excluded)."""
    configs = [
        (
            {
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
                "seed": 3,
            },
            "json",
        ),
        (
            {
                "schema": "schur-lab/1",
                "command": "norms",
                "symbol": {
                    "m_dim": 1,
                    "n_dim": 1,
                    "builtin": "triangular",
                    "params": {},
                    "expr": None,
                    "box": None,
                },
                "p": 4,
                "sizes": [8, 16],
                "budget": 2,
                "seed": 0,
            },
            "csv",
        ),
        (
            {
                "schema": "schur-lab/1",
                "command": "cotlar",
                "group": "affine",
                "samples": 20000,
                "seed": 0,
            },
            "json",
        ),
    ]

    def strip(text):
        if text.startswith("symbol_id,"):
            lines = text.strip().split("\n")
            return "\n".join(
                [lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]]
            )
        return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)

    for k, (cfg, fmt) in enumerate(configs):
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in range(2):
            out = tmp_path / f"out{k}_{run}.{fmt}"
            code = cli_main(
                ["--config", str(cfg_path), "--out", str(out), "--format", fmt]
            )
            assert code == 0
            outs.append(strip(out.read_text()))
        assert outs[0] == outs[1], f"config {k} output not deterministic"
    _report("11 (CLI determinism)", "3 commands byte-stable")
