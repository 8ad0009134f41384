import sys
from pathlib import Path

import numpy as np
import pytest

from schurlab.errors import NegativeWeight, OutOfDomain, ShapeInvalid
from schurlab.geometry import classify
from schurlab.matcore import multiplier_norm_lower_bound, schatten_norm
from schurlab.multiplier import (
    CSV_HEADER,
    Reparam,
    _is_circulant,
    circulant,
    componentwise_reparam,
    compression_jp,
    discretize_symbol,
    factor_grid,
    fourier_multiplier_circulant,
    nested_grids,
    norm_growth_experiment,
    pullback_symbol,
    records_to_csv,
)
from schurlab.symbols import ball, from_json, halfspace, sphere_delta, triangular, user_symbol

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CLASSIFY_TABLE  # noqa: E402


class TestDiscretize:
    def test_triangular_integer_grid_gives_lower_triangle_with_diagonal(self):
        spec = triangular()
        grid = np.arange(1.0, 9.0).reshape(-1, 1)
        m = discretize_symbol(spec, grid, grid)
        expected = np.tril(np.ones((8, 8)))
        np.testing.assert_array_equal(m, expected)

    def test_symmetric_symbol_symmetric_grids(self):
        spec = ball(1, 1.0)
        grid = factor_grid(spec.x_box, 16)
        m = discretize_symbol(spec, grid, grid)
        np.testing.assert_array_equal(m, m.T)

    def test_halfspace_sorted_grid_staircase(self):
        spec = halfspace()
        gx = np.linspace(-1.5, 1.5, 10).reshape(-1, 1)
        m = discretize_symbol(spec, gx, gx)
        # rows are nondecreasing step functions of the column order reversed
        for i in range(10):
            row = m[i]
            assert np.all(np.diff(row) <= 0)

    @pytest.mark.parametrize("f1, f2", [("0", "y1"), ("x1", "0")])
    def test_symbol_of_one_factor_fills_the_grid(self, f1, f2):
        """F ignoring one factor still gives one entry per pair of grid
        points: halfspace(f1 = "0") is {y < 0}, constant along each column."""
        spec = halfspace(f1=f1, f2=f2)
        gx = np.linspace(-1.5, 1.5, 10).reshape(-1, 1)
        gy = gx[::-1] + 0.05
        m = discretize_symbol(spec, gx, gy)
        expected = (0.0 > gy.T) if f1 == "0" else (gx > 0.0)
        np.testing.assert_array_equal(m, np.broadcast_to(expected, (10, 10)).astype(float))

    def test_constant_symbol_fills_the_grid(self):
        for expr, value in (("1", 1.0), ("-1", 0.0)):
            spec = user_symbol(expr, 1, 1, [[-1.0, 1.0], [-1.0, 1.0]])
            gx = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
            np.testing.assert_array_equal(discretize_symbol(spec, gx, gx[:5]), np.full((7, 5), value))

    def test_grid_outside_box_rejected(self):
        spec = ball(1, 1.0)
        with pytest.raises(OutOfDomain):
            discretize_symbol(spec, np.array([[5.0]]), np.array([[0.0]]))

    def test_values_binary(self):
        spec = sphere_delta(2, 0.3)
        gx = factor_grid(spec.x_box, 12)
        gy = factor_grid(spec.y_box, 12)
        m = discretize_symbol(spec, gx, gy)
        assert set(np.unique(m)) <= {0.0, 1.0}


class TestNestedGrids:
    def test_prefix_nesting(self):
        spec = ball(2, 1.0)
        grids = nested_grids(spec, [4, 8, 16])
        np.testing.assert_array_equal(grids[4][0], grids[16][0][:4])
        np.testing.assert_array_equal(grids[8][1], grids[16][1][:8])

    def test_grid_inside_box(self):
        spec = sphere_delta(2, 0.0)
        gx, gy = nested_grids(spec, [32])[32]
        for g, box in ((gx, spec.x_box), (gy, spec.y_box)):
            for d, (lo, hi) in enumerate(box):
                assert np.all(g[:, d] >= lo) and np.all(g[:, d] <= hi)


class TestNormGrowth:
    @pytest.mark.parametrize(
        "symbol", [sym for sym, _ in CLASSIFY_TABLE],
        ids=lambda sym: sym["builtin"] + "".join(f".{v}" for v in sym["params"].values()),
    )
    def test_brackets_are_in_order(self, symbol):
        """Rounding can put an estimate a few ulps above the certified upper
        bound (halfspace(f1 = "0"), one of the table's symbols, has norm 1,
        and its ratios read 1 + 2^-52); the reported upper bound is raised
        to the lower bound there, so no record's bracket is upside down."""
        spec = from_json(symbol)
        for p in (4.0 / 3.0, 1.5, 4.0, np.inf):
            for r in norm_growth_experiment(spec, p, [4, 8, 16], budget=2, seed=0):
                assert r.lower_bound <= r.upper_bound, r

    def test_p2_is_exactly_sup(self):
        for spec in (triangular(), ball(1, 1.0)):
            records = norm_growth_experiment(spec, 2.0, [4, 8, 16], budget=2, seed=0)
            for r in records:
                assert abs(r.lower_bound - 1.0) <= 1e-9

    def test_monotone_lower_bounds(self):
        records = norm_growth_experiment(triangular(), 4.0, [4, 8, 16, 32], budget=3, seed=0)
        bounds = [r.lower_bound for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_trials_count_the_estimator_starts(self):
        # matrix unit + the scaling loop's witness + 2 * budget seeded
        # starts, plus the carried witness from the second size on
        records = norm_growth_experiment(triangular(), 4.0, [8, 16], budget=3, seed=0)
        assert [r.trials for r in records] == [8, 9]

    @pytest.mark.parametrize("p", [4.0, 4.0 / 3.0], ids=["p4", "p4/3"])
    @pytest.mark.parametrize("spec", [triangular(), sphere_delta(2, 0.0)], ids=lambda s: s.symbol_id)
    def test_bracket_holds_the_bound(self, spec, p):
        """The Riesz-Thorin upper bound sup|M|^(1 - theta) U^theta of the
        scaling loop's certified U sits above the lower bound, and the
        loop's steps and stop reason come with it."""
        records = norm_growth_experiment(spec, p, [8, 16, 32, 64], budget=2, seed=0)
        grids = nested_grids(spec, [r.n for r in records])
        for r in records:
            m = discretize_symbol(spec, *grids[r.n])
            loop = multiplier_norm_lower_bound(m, np.inf if p > 2.0 else 1.0, report=True)
            theta = abs(1.0 - 2.0 / p)
            assert r.upper_bound == np.abs(m).max() ** (1.0 - theta) * loop.upper_bound**theta
            assert (r.iterations, r.stop) == (loop.iterations, loop.stop)
            assert r.lower_bound <= r.upper_bound, r

    @pytest.mark.parametrize("p", [4.0, 4.0 / 3.0], ids=["p4", "p4/3"])
    def test_records_beat_the_loop_witness(self, p):
        """Each record is at least the ratio ||M o W||_p / ||W||_p at the
        scaling loop's witness W, computed here by SVD."""
        for spec in (triangular(), ball(2, 1.0)):
            sizes = [8, 16, 32]
            grids = nested_grids(spec, sizes)
            for r in norm_growth_experiment(spec, p, sizes, budget=2, seed=1):
                m = discretize_symbol(spec, *grids[r.n])
                w = multiplier_norm_lower_bound(m, np.inf if p > 2.0 else 1.0, report=True).witness
                ratio = schatten_norm(m * w, p) / schatten_norm(w, p)
                assert r.lower_bound >= ratio * (1.0 - 1e-12), (spec.symbol_id, r, ratio)

    def test_p2_bracket_is_closed(self):
        for spec in (triangular(), sphere_delta(2, 0.0)):
            for r in norm_growth_experiment(spec, 2.0, [4, 8, 16], budget=1, seed=0):
                assert (r.upper_bound, r.iterations, r.stop) == (1.0, 0, "gap"), r
                assert abs(r.lower_bound - r.upper_bound) <= 1e-12, r

    @pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, 2.0, np.inf])
    def test_zero_symbol_bracket(self, p):
        spec = halfspace("x1 - 5", "y1")  # x1 - 5 < y1 on the whole box [-2, 2]^2
        for r in norm_growth_experiment(spec, p, [4, 8], budget=1, seed=0):
            assert (r.lower_bound, r.upper_bound) == (0.0, 0.0), r

    def test_step_matched_leader_cuts_the_sweep_eighs(self, monkeypatch):
        """The benchmark's seed-1 triangular p = 4 sweep made 773
        np.linalg.eigh calls when each start was ranked once, after its
        warm-up, and the top two went on to the step cap; judged step by
        step against the leader it makes 414.  The guard is 60% of 773."""
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        records = norm_growth_experiment(triangular(), 4, [8, 16, 32, 64], budget=6, seed=1114088974)
        assert len(calls) <= 0.6 * 773, len(calls)
        assert records[-1].lower_bound >= 1.191231199731878 * (1.0 - 1e-12), records[-1]

    def test_bounds_monotone_in_budget(self):
        sizes = [8, 16, 32]
        runs = [
            norm_growth_experiment(triangular(), 4.0, sizes, budget=b, seed=0) for b in (1, 2, 4)
        ]
        for records in runs:
            bounds = [r.lower_bound for r in records]
            assert all(b >= a for a, b in zip(bounds, bounds[1:])), bounds
        for small, large in zip(runs, runs[1:]):
            assert all(b.lower_bound >= a.lower_bound for a, b in zip(small, large))

    def test_submatrix_monotonicity_directly(self):
        # restriction to a subgrid never increases the estimated norm
        spec = triangular()
        grids = nested_grids(spec, [8, 16])
        m_small = discretize_symbol(spec, *grids[8])
        m_big = discretize_symbol(spec, *grids[16])
        np.testing.assert_array_equal(m_big[:8, :8], m_small)
        lb_small = multiplier_norm_lower_bound(m_small, 4.0, budget=4, seed=1)
        lb_big = multiplier_norm_lower_bound(
            m_big, 4.0, budget=4, seed=1, extra_starts=[np.pad(np.ones((8, 8)), ((0, 8), (0, 8)))]
        )
        assert lb_big >= lb_small - 0.02

    def test_transpose_duality(self):
        spec = halfspace()
        gx, gy = nested_grids(spec, [16])[16]
        m = discretize_symbol(spec, gx, gy)
        p = 4.0
        q = p / (p - 1.0)
        lb_p = multiplier_norm_lower_bound(m, p, budget=8, seed=2)
        lb_q = multiplier_norm_lower_bound(m.T, q, budget=8, seed=3)
        assert abs(lb_p - lb_q) <= 0.05 * max(lb_p, lb_q)

    def test_csv_format(self):
        records = norm_growth_experiment(triangular(), 2.0, [4, 8], budget=1, seed=0)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "symbol_id,p,N,lower_bound,upper_bound,iterations,stop,trials,seed,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "triangular"
        assert first[2] == "4"

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            norm_growth_experiment(triangular(), 2.0, [8, 8], budget=1, seed=0)


class TestPullback:
    def test_identity_reparam_identical_discretization(self):
        spec = ball(1, 1.0)
        ident = componentwise_reparam([lambda t: t], [lambda t: 1.0], [lambda t: t])
        pulled = pullback_symbol(spec, ident, ident)
        grids = nested_grids(spec, [16])[16]
        np.testing.assert_array_equal(
            discretize_symbol(spec, *grids), discretize_symbol(pulled, *grids)
        )

    def test_scaling_reparam_transported_grids_match_exactly(self):
        spec = ball(1, 1.0)
        double = componentwise_reparam(
            [lambda t: 2.0 * t], [lambda t: 2.0], [lambda t: 0.5 * t]
        )
        pulled = pullback_symbol(spec, double, double)
        # pulled box is the preimage: half the original
        np.testing.assert_allclose(pulled.domain_box, 0.5 * np.asarray(spec.domain_box))
        gx, gy = nested_grids(spec, [16])[16]
        m_base = discretize_symbol(spec, gx, gy)
        m_pulled = discretize_symbol(pulled, gx / 2.0, gy / 2.0)
        np.testing.assert_array_equal(m_base, m_pulled)
        lb1 = multiplier_norm_lower_bound(m_base, 4.0, budget=3, seed=0)
        lb2 = multiplier_norm_lower_bound(m_pulled, 4.0, budget=3, seed=0)
        assert lb1 == lb2

    def test_monotone_reparam_preserves_staircase(self):
        spec = triangular()
        cubic = componentwise_reparam(
            [lambda t: t + t**3 / 1e6],
            [lambda t: 1.0 + 3.0 * t**2 / 1e6],
        )
        pulled = pullback_symbol(spec, cubic, cubic)
        g = np.linspace(1.0, 100.0, 12).reshape(-1, 1)
        ginv = np.array([[_invert_cubic(v[0])] for v in g])
        m = discretize_symbol(pulled, ginv, ginv)
        np.testing.assert_array_equal(m, np.tril(np.ones((12, 12))))

    def test_batched_jacobian(self):
        cubic = componentwise_reparam(
            [lambda t: t + 0.3 * t**3, lambda t: 2.0 * t],
            [lambda t: 1.0 + 0.9 * t**2, lambda t: 2.0],
        )
        pts = np.array([[[0.1, 0.2], [0.3, -0.4], [0.0, 1.0]]])
        jac = cubic.jac(pts)
        assert jac.shape == (1, 3, 2, 2)
        np.testing.assert_array_equal(jac[0, 1], np.diag([1.0 + 0.9 * 0.3**2, 2.0]))
        np.testing.assert_array_equal(cubic.jac(pts[0, 1]), jac[0, 1])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_bisected_box_matches_pointwise_bisection(self, sign):
        """Without an inverse the box's 2d endpoints are bisected as one
        batch, and the box is bit-identical to 200 scalar halvings per
        endpoint (808 calls of the map for a 2-D box; the batch stops once
        no interval can be split)."""
        calls = []

        def fn(pts):
            calls.append(1)
            pts = np.asarray(pts, dtype=float)
            return sign * np.stack([pts[..., 0] + 0.3 * pts[..., 0] ** 3, 2.0 * pts[..., 1]], axis=-1)

        spec = sphere_delta(2, 0.3)
        box = pullback_symbol(spec, Reparam(fn=fn), Reparam(fn=fn)).domain_box
        assert len(calls) <= 2 * 70, len(calls)  # two factors

        def scalar(i, target, lo, hi, factor_box):
            def f1(t):
                pt = np.array([0.5 * (l + h) for l, h in factor_box], dtype=float)
                pt[i] = t
                return float(fn(pt)[i])

            direction = 1.0 if f1(hi) >= f1(lo) else -1.0
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if direction * (f1(mid) - target) < 0.0:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        expected = []
        for factor_box in (spec.domain_box[:2], spec.domain_box[2:]):
            for i, (lo, hi) in enumerate(factor_box):
                span = hi - lo
                ends = [scalar(i, t, lo - 4.0 * span, hi + 4.0 * span, factor_box) for t in (lo, hi)]
                expected.append((min(ends), max(ends)))
        assert box == tuple(expected)

    def test_classify_verdict_invariant(self):
        spec = sphere_delta(2, 0.3)
        cubic = componentwise_reparam(
            [lambda t: t + 0.3 * t**3, lambda t: t + 0.1 * t**3],
            [lambda t: 1.0 + 0.9 * t**2, lambda t: 1.0 + 0.3 * t**2],
        )
        pulled = pullback_symbol(spec, cubic, cubic)
        assert classify(pulled, seed=4).verdict == classify(spec, seed=4).verdict


def _invert_cubic(v):
    lo, hi = 0.0, 200.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid + mid**3 / 1e6 < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCompression:
    def test_unit_weights_are_identity(self):
        rng = np.random.default_rng(0)
        x = circulant(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        out = compression_jp(x, np.ones(6), np.ones(6), 4.0)
        np.testing.assert_array_equal(out, x)

    def test_shift_is_eigenvector_of_multipliers(self):
        n = 8
        g = 3
        delta = np.zeros(n)
        delta[g] = 1.0
        x = circulant(delta)  # lambda(delta_g)
        rng = np.random.default_rng(1)
        m = rng.standard_normal(n)
        phi, psi = rng.random(n), rng.random(n)
        lhs = compression_jp(fourier_multiplier_circulant(x, m), phi, psi, 4.0)
        rhs = m[g] * compression_jp(x, phi, psi, 4.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_intertwining_on_random_triples(self):
        rng = np.random.default_rng(2)
        n = 8
        idx = np.arange(n)
        for _ in range(100):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = rng.standard_normal(n)
            phi, psi = rng.random(n), rng.random(n)
            x = circulant(c)
            lhs = compression_jp(fourier_multiplier_circulant(x, m), phi, psi, 4.0)
            schur_symbol = m[(idx[:, None] - idx[None, :]) % n]
            rhs = schur_symbol * compression_jp(x, phi, psi, 4.0)
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_weights_at_p_inf_are_the_supports(self):
        rng = np.random.default_rng(5)
        n = 8
        idx = np.arange(n)
        for _ in range(20):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = rng.standard_normal(n)
            phi, psi = rng.random(n), rng.random(n)
            phi[rng.random(n) < 0.4] = 0.0
            psi[rng.random(n) < 0.4] = 0.0
            x = circulant(c)
            out = compression_jp(x, phi, psi, np.inf)
            np.testing.assert_array_equal(out, (phi > 0)[:, None] * x * (psi > 0)[None, :])
            lhs = compression_jp(fourier_multiplier_circulant(x, m), phi, psi, np.inf)
            rhs = m[(idx[:, None] - idx[None, :]) % n] * out
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_negative_weight_rejected(self):
        x = circulant(np.ones(4))
        with pytest.raises(NegativeWeight):
            compression_jp(x, np.array([1.0, -0.1, 1.0, 1.0]), np.ones(4), 2.0)

    def test_non_circulant_rejected(self):
        with pytest.raises(ShapeInvalid):
            compression_jp(np.triu(np.ones((4, 4))), np.ones(4), np.ones(4), 2.0)

    def test_is_circulant(self):
        assert _is_circulant(circulant([1.0, 2.0, 3.0]))
        assert not _is_circulant(np.triu(np.ones((3, 3))))

    def test_schur_idempotence_of_binary_symbol(self):
        rng = np.random.default_rng(3)
        m = (rng.random((5, 5)) < 0.5).astype(float)
        a = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(m * (m * a), m * a)

    def test_compression_norm_contraction_at_p(self):
        # ||J_p(x)||_p <= ||phi||_inf^(1/p) ||psi||_inf^(1/p) ||x||_p here
        rng = np.random.default_rng(4)
        x = circulant(rng.standard_normal(6))
        phi, psi = rng.random(6), rng.random(6)
        p = 4.0
        lhs = schatten_norm(compression_jp(x, phi, psi, p), p)
        bound = (phi.max() * psi.max()) ** (1.0 / p) * schatten_norm(x, p)
        assert lhs <= bound * (1.0 + 1e-12)
