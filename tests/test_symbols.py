import dataclasses
import math

import numpy as np
import pytest

from schurlab import geometry, symbols
from schurlab.errors import (
    DegenerateGradient,
    ExpressionError,
    OutOfDomain,
    RequiresC2,
)
from schurlab.symbols import (
    ball,
    from_json,
    gradient,
    halfspace,
    indicator_values,
    mixed_hessian,
    parse_expression,
    sphere_delta,
    toeplitz_ball,
    transpose_spec,
    triangular,
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


def _chi(spec, x, y) -> float:
    return float(indicator_values(spec, x, y))


def _grad_at(spec, x, y):
    """The row gradient at one point: (gx, gy), DegenerateGradient where
    the gradient vanishes."""
    gx, gy, degenerate = gradient(spec, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None])
    if degenerate[0]:
        raise DegenerateGradient("gradient vanishes")
    return gx[0], gy[0]


def _hess_at(spec, x, y):
    """The row mixed Hessian at one point, (m, n)."""
    return mixed_hessian(spec, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None])[0]


class TestEvaluate:
    def test_ball_center(self):
        assert _chi(ball(2, 1.0), [0.0, 0.0], [0.0, 0.0]) == 1

    def test_sphere_chart_inner_product_half(self):
        # chart points with <x, y> = 0.5 exactly: x lifts u = (0.6, 0),
        # y = (cos t, 0, sin t) with 0.6 cos t + 0.8 sin t = 0.5, north branch
        spec = sphere_delta(2, 0.0)
        u = np.array([0.6, 0.0])
        t = math.pi - math.asin(0.5) - math.atan2(0.6, 0.8)
        v = np.array([math.cos(t), 0.0])
        ip = float(spec.f(u, v))  # = <x, y> since delta = 0
        assert abs(ip - 0.5) < 1e-12
        assert _chi(spec, u, v) == 1

    def test_halfspace_below(self):
        spec = halfspace()
        assert _chi(spec, [0.2], [0.7]) == 0
        assert _chi(spec, [0.7], [0.2]) == 1

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            _hess_at(ball(2, 1.0), [5.0, 0.0], [0.0, 0.0])

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
        gx, gy = _grad_at(ball(2, 1.0), [0.3, -0.1], [0.2, 0.4])
        np.testing.assert_allclose(gx, [-0.6, 0.2])
        np.testing.assert_allclose(gy, [-0.4, -0.8])

    def test_halfspace_gradient_split(self):
        spec = halfspace("x1 + x2", "y1**2", m_dim=2, n_dim=1)
        gx, gy = _grad_at(spec, [0.5, 0.2], [0.3])
        np.testing.assert_allclose(gx, [1.0, 1.0], rtol=1e-6)
        np.testing.assert_allclose(gy, [-0.6], rtol=1e-5)
        # d_y F is independent of x
        _, gy2 = _grad_at(spec, [-1.0, 0.9], [0.3])
        np.testing.assert_allclose(gy, gy2, rtol=1e-9)

    def test_toeplitz_normals_opposite(self):
        spec = toeplitz_ball(2, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2)
            d = rng.standard_normal(2)
            y = x + d / np.linalg.norm(d)  # |x - y| = 1: boundary
            n1, n2 = _grad_at(spec, x, y)
            np.testing.assert_allclose(n1, -n2, atol=1e-12)
            assert np.linalg.norm(n1) > 0.1 * np.linalg.norm(np.concatenate([n1, n2]))

    def test_split_dimensions(self):
        for spec in ANALYTIC_BUILTINS:
            x = np.array([0.5 * (lo + hi) for lo, hi in spec.x_box])
            y = np.array([0.5 * (lo + hi) + 0.01 for lo, hi in spec.y_box])
            try:
                gx, gy = _grad_at(spec, x, y)
            except DegenerateGradient:
                continue
            assert gx.shape == (spec.m_dim,)
            assert gy.shape == (spec.n_dim,)

    def test_degenerate_rows_are_flagged(self):
        x = np.array([[0.3, -0.1], [0.0, 0.0], [0.5, 0.2]])
        y = np.array([[0.2, 0.4], [0.0, 0.0], [-0.1, 0.3]])
        _, _, degenerate = gradient(ball(2, 1.0), x, y)
        assert degenerate.tolist() == [False, True, False]
        nan = gradient(ball(2, 1.0), np.array([[np.nan, 0.0]]), np.array([[0.1, 0.0]]))[2]
        assert nan.tolist() == [True]

    def test_batched_rows_match_single_points(self):
        x = np.array([[0.3, -0.1], [0.0, 0.0], [0.5, 0.2]])
        y = np.array([[0.2, 0.4], [0.0, 0.0], [-0.1, 0.3]])
        fd = user_symbol("x1*y1 + sin(x2)*y2 + 0.5*y1", 2, 2, [[-1.0, 1.0]] * 4)
        gx, gy, degenerate = gradient(fd, x, y)
        assert not degenerate.any()
        for i in range(3):
            sx, sy = _grad_at(fd, x[i], y[i])
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
                gx, gy = _grad_at(spec, x, y)
            except DegenerateGradient:
                continue
            stripped = dataclasses.replace(spec, grad=None)
            fx, fy = _grad_at(stripped, x, y)
            scale = max(1.0, float(np.linalg.norm(np.concatenate([gx, gy]))))
            assert np.linalg.norm(gx - fx) <= 1e-6 * scale
            assert np.linalg.norm(gy - fy) <= 1e-6 * scale
            checked += 1


class TestMixedHessian:
    def test_ball_zero(self):
        np.testing.assert_array_equal(
            _hess_at(ball(2, 1.0), [0.3, 0.1], [0.2, 0.0]), np.zeros((2, 2))
        )

    def test_halfspace_zero(self):
        h = _hess_at(halfspace(), [0.4], [0.1])
        assert np.max(np.abs(h)) < 1e-8

    def test_sphere_matches_independent_stencil(self):
        # oracle: 4-point cross stencil at half the default step
        spec = sphere_delta(2, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(-0.4, 0.4, 2)
            v = rng.uniform(-0.4, 0.4, 2)
            analytic = _hess_at(spec, u, v)
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


def _stencil_at(spec, x, y, fd_step=1e-4):
    """The 4-point cross stencil at one point, entry by entry."""
    h = fd_step * (1.0 + math.sqrt(float(np.sum(x**2) + np.sum(y**2))))
    out = np.zeros((spec.m_dim, spec.n_dim))
    for j in range(spec.m_dim):
        for k in range(spec.n_dim):
            ex, ey = np.zeros(spec.m_dim), np.zeros(spec.n_dim)
            ex[j], ey[k] = h, h
            out[j, k] = (
                float(spec.f(x + ex, y + ey))
                - float(spec.f(x + ex, y - ey))
                - float(spec.f(x - ex, y + ey))
                + float(spec.f(x - ex, y - ey))
            ) / (4.0 * h * h)
    return out


def _exact_hessian_at(spec, x, y):
    """The closed-form mixed Hessian of a builtin at one point."""
    n = spec.n_dim
    if spec.builtin == "sphere_delta":
        su, sv = math.sqrt(1.0 - float(np.sum(x**2))), math.sqrt(1.0 - float(np.sum(y**2)))
        return np.eye(n) + np.outer(x, y) / (su * sv)
    if spec.builtin == "toeplitz_ball":
        return 2.0 * np.eye(n)
    return np.zeros((spec.m_dim, n))  # ball, triangular


def _rows_in_box(spec, k, seed, shrink=0.8):
    rng = np.random.default_rng(seed)
    box = np.asarray(spec.domain_box) * shrink
    pts = rng.uniform(box[:, 0], box[:, 1], size=(k, len(box)))
    return pts[:, : spec.m_dim], pts[:, spec.m_dim :]


class TestMixedHessianRows:
    @pytest.mark.parametrize("spec", ANALYTIC_BUILTINS, ids=[s.symbol_id for s in ANALYTIC_BUILTINS])
    def test_builtin_rows_match_the_closed_form_per_row(self, spec):
        x, y = _rows_in_box(spec, 9, seed=1)
        h = mixed_hessian(spec, x, y)
        assert h.shape == (9, spec.m_dim, spec.n_dim)
        for i in range(9):
            np.testing.assert_allclose(h[i], _exact_hessian_at(spec, x[i], y[i]), rtol=1e-15, atol=0)
            np.testing.assert_array_equal(h[i], mixed_hessian(spec, x[i : i + 1], y[i : i + 1])[0])

    @pytest.mark.parametrize(
        "spec",
        [
            halfspace("x1**3 + x2", "y1**2", m_dim=2, n_dim=1),
            user_symbol("x1*y1 + sin(x2)*y2**2 + 0.5*x1*x2", 2, 2, [[-1.0, 1.0]] * 4),
            user_symbol("2", 1, 1, [[-1.0, 1.0]] * 2),
        ],
        ids=["halfspace", "expression", "constant"],
    )
    def test_stencil_rows_match_the_stencil_per_row(self, spec):
        x, y = _rows_in_box(spec, 7, seed=2)
        h = mixed_hessian(spec, x, y)
        assert h.shape == (7, spec.m_dim, spec.n_dim)
        for i in range(7):
            np.testing.assert_array_equal(h[i], _stencil_at(spec, x[i], y[i]))

    @pytest.mark.parametrize("spec", [sphere_delta(2, 0.1), toeplitz_ball(3, 1.0), triangular()])
    def test_transposed_rows_are_the_transposed_hessians(self, spec):
        tspec = transpose_spec(spec)
        x, y = _rows_in_box(spec, 5, seed=3)
        h = mixed_hessian(tspec, y, x)
        assert h.shape == (5, spec.n_dim, spec.m_dim)
        for i in range(5):
            np.testing.assert_array_equal(h[i], _exact_hessian_at(spec, x[i], y[i]).T)

    def test_one_row_outside_the_box_fails_the_batch(self):
        spec = ball(2, 1.0)
        x, y = _rows_in_box(spec, 6, seed=4)
        mixed_hessian(spec, x, y)
        x[3, 1] = 1.5  # the box is [-1.1, 1.1]; 1% slack reaches 1.122
        with pytest.raises(OutOfDomain, match="outside domain box"):
            mixed_hessian(spec, x, y)
        x[3, 1] = 1.12  # inside the slack
        assert mixed_hessian(spec, x, y).shape == (6, 2, 2)

    def test_one_row_outside_the_chart_fails_the_batch(self):
        # the box reaches past the unit disc; only the chart check rejects
        spec = sphere_delta(2, 0.0, box=((-1.0, 1.0),) * 4)
        x, y = _rows_in_box(spec, 6, seed=5, shrink=0.5)
        mixed_hessian(spec, x, y)
        x[2] = [0.8, 0.8]
        with pytest.raises(OutOfDomain, match="hemisphere chart"):
            mixed_hessian(spec, x, y)


class TestMixedHessianErrors:
    def test_requires_c2_near_chart_edge(self):
        # strip the exact derivatives; the FD stencil pokes outside the
        # hemisphere chart and must fail loudly instead of returning NaN
        spec = dataclasses.replace(
            sphere_delta(2, 0.0, box=((-1.0, 1.0),) * 4), grad=None, hess_xy=None
        )
        with pytest.raises(RequiresC2):
            _hess_at(spec, [0.999999, 0.0], [0.0, 0.0])


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
        def builtin(name, dim, params, half_width):
            return {"m_dim": dim, "n_dim": dim, "builtin": name, "params": params, "expr": None,
                    "box": [[-half_width, half_width]] * (2 * dim)}

        objs = [
            builtin("ball", 2, {"n": 2, "R": 1.0}, 1.1),
            builtin("ball", 3, {"n": 3, "R": 0.8}, 0.8800000000000001),
            builtin("sphere_delta", 1, {"n": 1, "delta": 0.0}, 0.95),
            builtin("sphere_delta", 2, {"n": 2, "delta": 0.3}, 0.67175144212722),
            builtin("sphere_delta", 3, {"n": 3, "delta": -0.2}, 0.5484827557301445),
            builtin("toeplitz_ball", 2, {"n": 2, "R": 1.0}, 1.5),
            {"m_dim": 1, "n_dim": 1, "builtin": "triangular", "params": {}, "expr": None,
             "box": [[0.0, 1024.0], [0.0, 1024.0]]},
            builtin("halfspace", 1, {"f1": "x1", "f2": "y1", "m_dim": 1, "n_dim": 1}, 2.0),
        ]
        for spec, obj in zip(ANALYTIC_BUILTINS + [halfspace("x1", "y1")], objs, strict=True):
            back = from_json(obj)
            assert back.builtin == spec.builtin and back.params == spec.params
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
        assert _chi(spec, [0.5], [0.0]) == 1

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ExpressionError):
            from_json({"m_dim": 1, "n_dim": 1, "builtin": "nope", "params": {}})

    def test_axis_cap_is_the_smallest_classify_batch(self):
        assert symbols.MAX_AXES == geometry.MAX_RAY_ENTRIES // 40

    @pytest.mark.parametrize(
        "obj",
        [
            {"builtin": "ball", "params": {"n": 52_429}},
            {"builtin": "toeplitz_ball", "params": {"n": 10**9}},
            {"builtin": "halfspace", "params": {"m_dim": 104_857, "n_dim": 1}},
            {"m_dim": 10**9, "n_dim": 10**9, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]},
        ],
        ids=["ball", "toeplitz-ball", "halfspace", "expression"],
    )
    def test_too_many_axes_rejected_before_building(self, obj, monkeypatch):
        def must_not_build(*args, **kwargs):
            raise AssertionError("the symbol was built before its size was checked")

        for name in ("ball", "toeplitz_ball", "halfspace", "user_symbol"):
            monkeypatch.setattr(symbols, name, must_not_build)
        with pytest.raises(ExpressionError, match="axes"):
            from_json(obj)

    def test_integral_floats_are_integers(self):
        for obj, expect in [
            ({"builtin": "ball", "params": {"n": 2.0}}, ball(2)),
            ({"builtin": "halfspace", "params": {"m_dim": 2.0, "n_dim": 3}}, halfspace(m_dim=2, n_dim=3)),
            ({"m_dim": 1.0, "n_dim": 2, "expr": "x1 - y2", "box": [[-1, 1]] * 3},
             user_symbol("x1 - y2", 1, 2, [(-1, 1)] * 3)),
        ]:
            spec = from_json(obj)
            assert (spec.symbol_id, spec.m_dim, spec.n_dim) == (expect.symbol_id, expect.m_dim, expect.n_dim)
            assert type(spec.m_dim) is int and type(spec.n_dim) is int

    @pytest.mark.parametrize(
        "obj",
        [
            {"builtin": "ball", "params": {"n": 2.5}},
            {"builtin": "toeplitz_ball", "params": {"n": False}},
            {"builtin": "halfspace", "params": {"m_dim": "1"}},
            {"builtin": "ball", "params": {}},
            {"m_dim": 1, "n_dim": 1.5, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]},
            {"m_dim": None, "n_dim": 1, "expr": "x1 - y1", "box": [[-1, 1], [-1, 1]]},
        ],
        ids=["fractional", "boolean", "string", "missing", "expression-fractional", "expression-null"],
    )
    def test_non_integer_fields_rejected(self, obj):
        with pytest.raises(ExpressionError, match="must be an integer"):
            from_json(obj)

    def test_largest_symbol_accepted(self):
        spec = from_json({"builtin": "halfspace", "params": {"m_dim": 104_856, "n_dim": 1}})
        assert spec.m_dim + spec.n_dim == symbols.MAX_AXES

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(ValueError):
            user_symbol("x1 - y1", 1, 1, [[-1.0, bound], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            triangular(box=((0.0, 1024.0), (bound, 1.0)))


class TestTranspose:
    def test_transpose_swaps_factors(self):
        spec = halfspace("x1 + x2", "y1", m_dim=2, n_dim=1)
        tspec = transpose_spec(spec)
        assert (tspec.m_dim, tspec.n_dim) == (1, 2)
        assert _chi(spec, [0.5, 0.5], [0.2]) == _chi(tspec, [0.2], [0.5, 0.5])

    def test_transpose_hessian_is_transposed(self):
        spec = sphere_delta(2, 0.1)
        tspec = transpose_spec(spec)
        u = np.array([0.2, 0.1])
        v = np.array([-0.1, 0.3])
        np.testing.assert_allclose(
            _hess_at(tspec, v, u), _hess_at(spec, u, v).T, atol=1e-12
        )
