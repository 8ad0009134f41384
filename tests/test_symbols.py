import dataclasses
import math

import numpy as np
import pytest

from schurlab.errors import (
    DegenerateGradient,
    ExpressionError,
    OutOfDomain,
    RequiresC2,
)
from schurlab.symbols import (
    ball,
    evaluate_symbol,
    from_json,
    gradient,
    gradient_rows,
    halfspace,
    indicator_values,
    mixed_hessian,
    parse_expression,
    sphere_delta,
    to_json,
    toeplitz_ball,
    transpose_spec,
    triangular,
    unit_normal_split,
    user_symbol,
)

ANALYTIC_BUILTINS = [
    ball(2, 1.0),
    ball(3, 0.8),
    sphere_delta(1, 0.0),
    sphere_delta(2, 0.3),
    sphere_delta(3, -0.2),
    toeplitz_ball(2, 1.0),
    triangular(),
]


class TestEvaluate:
    def test_ball_center(self):
        assert evaluate_symbol(ball(2, 1.0), [0.0, 0.0], [0.0, 0.0]) == 1

    def test_sphere_chart_inner_product_half(self):
        # chart points with <x, y> = 0.5 exactly: x lifts u = (0.6, 0),
        # y = (cos t, 0, sin t) with 0.6 cos t + 0.8 sin t = 0.5, north branch
        spec = sphere_delta(2, 0.0)
        u = np.array([0.6, 0.0])
        t = math.pi - math.asin(0.5) - math.atan2(0.6, 0.8)
        v = np.array([math.cos(t), 0.0])
        ip = float(spec.f(u, v))  # = <x, y> since delta = 0
        assert abs(ip - 0.5) < 1e-12
        assert evaluate_symbol(spec, u, v) == 1

    def test_halfspace_below(self):
        spec = halfspace()
        assert evaluate_symbol(spec, [0.2], [0.7]) == 0
        assert evaluate_symbol(spec, [0.7], [0.2]) == 1

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            evaluate_symbol(ball(2, 1.0), [5.0, 0.0], [0.0, 0.0])

    def test_indicator_is_binary_and_idempotent(self):
        rng = np.random.default_rng(0)
        for spec in ANALYTIC_BUILTINS:
            xs = np.stack(
                [rng.uniform(lo, hi, size=50) for lo, hi in spec.x_box], axis=-1
            )
            ys = np.stack(
                [rng.uniform(lo, hi, size=50) for lo, hi in spec.y_box], axis=-1
            )
            vals = indicator_values(spec, xs, ys)
            ok = ~np.isnan(vals)
            assert np.all((vals[ok] == 0.0) | (vals[ok] == 1.0))
            np.testing.assert_array_equal(vals[ok] ** 2, vals[ok])


class TestGradient:
    def test_ball_gradient(self):
        gx, gy = gradient(ball(2, 1.0), [0.3, -0.1], [0.2, 0.4])
        np.testing.assert_allclose(gx, [-0.6, 0.2])
        np.testing.assert_allclose(gy, [-0.4, -0.8])

    def test_halfspace_gradient_split(self):
        spec = halfspace("x1 + x2", "y1**2", m_dim=2, n_dim=1)
        gx, gy = gradient(spec, [0.5, 0.2], [0.3])
        np.testing.assert_allclose(gx, [1.0, 1.0], rtol=1e-6)
        np.testing.assert_allclose(gy, [-0.6], rtol=1e-5)
        # d_y F is independent of x
        _, gy2 = gradient(spec, [-1.0, 0.9], [0.3])
        np.testing.assert_allclose(gy, gy2, rtol=1e-9)

    def test_toeplitz_normals_opposite(self):
        spec = toeplitz_ball(2, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2)
            d = rng.standard_normal(2)
            y = x + d / np.linalg.norm(d)  # |x - y| = 1: boundary
            n1, n2 = unit_normal_split(spec, x, y)
            np.testing.assert_allclose(n1, -n2, atol=1e-12)
            assert np.linalg.norm(n1) > 0.1

    def test_split_dimensions(self):
        for spec in ANALYTIC_BUILTINS:
            x = np.array([0.5 * (lo + hi) for lo, hi in spec.x_box])
            y = np.array([0.5 * (lo + hi) + 0.01 for lo, hi in spec.y_box])
            try:
                gx, gy = gradient(spec, x, y)
            except DegenerateGradient:
                continue
            assert gx.shape == (spec.m_dim,)
            assert gy.shape == (spec.n_dim,)

    def test_degenerate_gradient_raises(self):
        with pytest.raises(DegenerateGradient):
            gradient(ball(2, 1.0), [0.0, 0.0], [0.0, 0.0])

    def test_batched_rows_match_single_points(self):
        x = np.array([[0.3, -0.1], [0.0, 0.0], [0.5, 0.2]])
        y = np.array([[0.2, 0.4], [0.0, 0.0], [-0.1, 0.3]])
        _, _, degenerate = gradient_rows(ball(2, 1.0), x, y)
        assert degenerate.tolist() == [False, True, False]
        fd = user_symbol("x1*y1 + sin(x2)*y2 + 0.5*y1", 2, 2, [[-1.0, 1.0]] * 4)
        gx, gy, degenerate = gradient_rows(fd, x, y)
        assert not degenerate.any()
        for i in range(3):
            sx, sy = gradient(fd, x[i], y[i])
            np.testing.assert_array_equal(gx[i], sx)
            np.testing.assert_array_equal(gy[i], sy)

    def test_finite_differences_match_analytic(self):
        # 100 random points across the analytic builtins
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 100:
            spec = ANALYTIC_BUILTINS[int(rng.integers(len(ANALYTIC_BUILTINS)))]
            x = np.array([rng.uniform(lo * 0.8, hi * 0.8) for lo, hi in spec.x_box])
            y = np.array([rng.uniform(lo * 0.8, hi * 0.8) for lo, hi in spec.y_box])
            try:
                gx, gy = gradient(spec, x, y)
            except DegenerateGradient:
                continue
            stripped = dataclasses.replace(spec, grad=None)
            fx, fy = gradient(stripped, x, y)
            scale = max(1.0, float(np.linalg.norm(np.concatenate([gx, gy]))))
            assert np.linalg.norm(gx - fx) <= 1e-6 * scale
            assert np.linalg.norm(gy - fy) <= 1e-6 * scale
            checked += 1


class TestMixedHessian:
    def test_ball_zero(self):
        np.testing.assert_array_equal(
            mixed_hessian(ball(2, 1.0), [0.3, 0.1], [0.2, 0.0]), np.zeros((2, 2))
        )

    def test_halfspace_zero(self):
        h = mixed_hessian(halfspace(), [0.4], [0.1])
        assert np.max(np.abs(h)) < 1e-8

    def test_sphere_matches_independent_stencil(self):
        # oracle: 4-point cross stencil at half the default step
        spec = sphere_delta(2, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(-0.4, 0.4, 2)
            v = rng.uniform(-0.4, 0.4, 2)
            analytic = mixed_hessian(spec, u, v)
            h = 0.5e-4 * (1.0 + float(np.linalg.norm(np.concatenate([u, v]))))
            fd = np.zeros((2, 2))
            for j in range(2):
                for k in range(2):
                    eu = np.zeros(2)
                    ev = np.zeros(2)
                    eu[j] = h
                    ev[k] = h
                    fd[j, k] = (
                        float(spec.f(u + eu, v + ev))
                        - float(spec.f(u + eu, v - ev))
                        - float(spec.f(u - eu, v + ev))
                        + float(spec.f(u - eu, v - ev))
                    ) / (4.0 * h * h)
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * max(1.0, np.max(np.abs(analytic)))


class TestMixedHessianErrors:
    def test_requires_c2_near_chart_edge(self):
        # strip the exact derivatives; the FD stencil pokes outside the
        # hemisphere chart and must fail loudly instead of returning NaN
        spec = dataclasses.replace(
            sphere_delta(2, 0.0, box=((-1.0, 1.0),) * 4), grad=None, hess_xy=None
        )
        with pytest.raises(RequiresC2):
            mixed_hessian(spec, [0.999999, 0.0], [0.0, 0.0])


class TestExpressions:
    def test_basic_arithmetic(self):
        fn = parse_expression("x1**2 + 2*x2 - 1", ("x1", "x2"))
        assert fn([3.0, 0.5]) == 9.0

    def test_functions_and_constants(self):
        fn = parse_expression("sin(pi * x1) + exp(0)", ("x1",))
        assert abs(fn([0.5]) - 2.0) < 1e-12

    def test_comparison_values(self):
        fn = parse_expression("x1 > 0", ("x1",))
        assert fn([1.0]) == 1.0
        assert fn([-1.0]) == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os')",
            "x1.real",
            "lambda t: t",
            "[1, 2]",
            "x1 if x1 else 0",
            "unknown(x1)",
            "x1 @ x1",
        ],
    )
    def test_rejects_non_whitelisted_syntax(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad, ("x1",))

    def test_vectorized_evaluation(self):
        spec = user_symbol("x1 - y1**3", 1, 1, [(-2, 2), (-2, 2)])
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        ys = np.zeros((7, 1))
        vals = indicator_values(spec, xs, ys)
        np.testing.assert_array_equal(vals, (xs[:, 0] > 0).astype(float))


class TestJsonSchema:
    def test_round_trip_builtins(self):
        for spec in ANALYTIC_BUILTINS + [halfspace("x1", "y1")]:
            back = from_json(to_json(spec))
            assert back.symbol_id == spec.symbol_id
            assert back.domain_box == spec.domain_box
            assert back.m_dim == spec.m_dim and back.n_dim == spec.n_dim

    def test_expr_symbol(self):
        obj = {
            "m_dim": 1,
            "n_dim": 1,
            "builtin": None,
            "params": {},
            "expr": "x1 - y1",
            "box": [[-1, 1], [-1, 1]],
        }
        spec = from_json(obj)
        assert evaluate_symbol(spec, [0.5], [0.0]) == 1
        assert to_json(spec)["expr"] == "x1 - y1"

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ExpressionError):
            from_json({"m_dim": 1, "n_dim": 1, "builtin": "nope", "params": {}})


class TestTranspose:
    def test_transpose_swaps_factors(self):
        spec = halfspace("x1 + x2", "y1", m_dim=2, n_dim=1)
        tspec = transpose_spec(spec)
        assert (tspec.m_dim, tspec.n_dim) == (1, 2)
        assert evaluate_symbol(spec, [0.5, 0.5], [0.2]) == evaluate_symbol(
            tspec, [0.2], [0.5, 0.5]
        )

    def test_transpose_hessian_is_transposed(self):
        spec = sphere_delta(2, 0.1)
        tspec = transpose_spec(spec)
        u = np.array([0.2, 0.1])
        v = np.array([-0.1, 0.3])
        np.testing.assert_allclose(
            mixed_hessian(tspec, v, u), mixed_hessian(spec, u, v).T, atol=1e-12
        )
