import dataclasses
import math

import numpy as np
import pytest

from schurlab.errors import DegenerateGradient, NoConvergence, NonTransverse, NonTransverseSample
from schurlab.geometry import (
    CURVATURE_FAIL,
    INCONCLUSIVE,
    NON_TRANSVERSE,
    TRIANGULAR_MODEL,
    _NEWTON_FAILURES,
    _newton,
    _newton_one,
    boundary_project,
    classify,
    mixed_hessian_check,
    normal_form_chart,
    sample_boundary_points,
    transversality_check,
    triangular_factorization_check,
    zero_curvature_check_c1,
)
from schurlab.multiplier import componentwise_reparam, pullback_symbol
from schurlab.symbols import (
    ball,
    halfspace,
    sphere_delta,
    toeplitz_ball,
    transpose_spec,
    triangular,
    user_symbol,
)


class TestBoundaryProject:
    def test_ball_circle(self):
        pt = boundary_project(ball(2, 1.0), [0.6, 0.0], [0.0, 0.9])
        assert abs(np.sum(pt.x**2) + np.sum(pt.y**2) - 1.0) <= 1e-9
        assert pt.residual <= 1e-9

    def test_halfspace_matches_level(self):
        pt = boundary_project(halfspace(), [0.3], [-1.2])
        assert abs(pt.y[0] - 0.3) <= 1e-9

    def test_sphere_residual_is_its_own_oracle(self):
        spec = sphere_delta(2, 0.3)
        pt = boundary_project(spec, [0.5, 0.1], [0.0, 0.4])
        su = math.sqrt(1.0 - np.sum(pt.x**2))
        sv = math.sqrt(1.0 - np.sum(pt.y**2))
        assert abs(float(np.dot(pt.x, pt.y)) + su * sv - 0.3) <= 1e-9

    def test_normal_points_towards_domain(self):
        spec = ball(2, 1.0)
        pt = boundary_project(spec, [0.6, 0.0], [0.0, 0.9])
        probe = np.concatenate([pt.x, pt.y]) + 1e-4 * np.concatenate([pt.n1, pt.n2])
        assert float(spec.f(probe[:2], probe[2:])) > 0.0


@pytest.mark.parametrize(
    "f,grad,z0,expect",
    [
        (lambda z: z[:, 0] ** 2 - 2.0, lambda z: 2.0 * z, [1.0], [math.sqrt(2.0)]),
        # minimum-norm steps stay on the ray through the start
        (lambda z: np.sum(z * z, axis=1) - 1.0, lambda z: 2.0 * z, [0.3, 0.4], [0.6, 0.8]),
        (lambda z: z[:, 0] ** 2 + 1.0, lambda z: 2.0 * z, [0.0], (DegenerateGradient, "vanishes")),
        (lambda z: np.sum(z * z, axis=1) + 1.0, lambda z: 2.0 * z, [10.0, 1.0], (NoConvergence, "plateau")),
    ],
    ids=["scalar-root", "vector-projection", "zero-gradient", "no-root-plateau"],
)
def test_newton(f, grad, z0, expect):
    z, status = _newton(lambda z, _: f(z), lambda z, _: grad(z), [z0], 1e-12, 100)
    if isinstance(expect, tuple):
        error, message = _NEWTON_FAILURES[status[0]]
        assert error is expect[0] and expect[1] in message
        with pytest.raises(expect[0], match=expect[1]):
            _newton_one(lambda z: f(z[None])[0], grad, z0, 1e-12, 100)
    else:
        assert status.tolist() == [0]
        np.testing.assert_allclose(z[0], expect, rtol=1e-10)


def _reference_pool(spec, count, seed):
    """sample_boundary_points ray by ray through the single-point solver."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(40 * count):
        x = np.array([rng.uniform(lo, hi) for lo, hi in spec.x_box])
        y0 = np.array([rng.uniform(lo, hi) for lo, hi in spec.y_box])
        try:
            pt = boundary_project(spec, x, y0)
        except (NoConvergence, DegenerateGradient):
            continue
        if all(lo <= t <= hi for t, (lo, hi) in zip(pt.y, spec.y_box)):
            pts.append(pt)
            if len(pts) == count:
                break
    return pts


# the reparametrization is written with products: numpy's t**3 on an
# array can differ in the last bit from t**3 on a scalar
_CUBIC = componentwise_reparam(
    [lambda t: 0.9 * t + 0.2 * t * t * t, lambda t: t + 0.1 * t * t * t],
    [lambda t: 0.9 + 0.6 * t * t, lambda t: 1.0 + 0.3 * t * t],
)


@pytest.mark.parametrize(
    "spec,count,seed",
    [
        (ball(2, 1.0), 16, 3),
        (sphere_delta(2, 0.3), 16, 3),
        (halfspace(), 16, 3),
        (toeplitz_ball(2, 1.0), 16, 3),
        (triangular(), 16, 3),
        (user_symbol("x1*y1+1.3*x2*y2+0.2", 2, 2, [[-1.0, 1.0]] * 4), 16, 3),
        (pullback_symbol(sphere_delta(2, 0.3), _CUBIC, _CUBIC), 16, 3),
        # the config that walks past its first sections in classify
        (sphere_delta(3, 0.0), 64, 532220982),
    ],
    ids=["ball", "sphere", "halfspace", "toeplitz", "triangular", "fd-expr", "pullback", "sphere3"],
)
def test_batched_pool_matches_ray_by_ray(spec, count, seed):
    batched = sample_boundary_points(spec, count, seed=seed)
    reference = _reference_pool(spec, count, seed)
    assert len(batched) == len(reference) > 0
    for p, q in zip(batched, reference):
        for name in ("x", "y", "n1", "n2"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        assert p.residual == q.residual


def test_ray_batch_evaluates_f_a_few_hundred_times():
    # ray by ray, this pool takes 25,803 evaluations of F
    spec = sphere_delta(3, 0.0)
    calls = []

    def f(x, y):
        calls.append(1)
        return spec.f(x, y)

    pts = sample_boundary_points(dataclasses.replace(spec, f=f), 64, seed=7)
    assert len(pts) == 64
    assert len(calls) <= 1000


class TestTransversality:
    def test_toeplitz_always_transverse(self):
        pts = sample_boundary_points(toeplitz_ball(2, 1.0), 20, seed=0)
        assert pts and all(transversality_check(p) for p in pts)

    def test_ball_pole_not_transverse(self):
        pt = boundary_project(ball(2, 1.0), [1.0, 0.0], [0.0, 0.0])
        assert not transversality_check(pt)

    def test_degenerate_symbol_never_transverse(self):
        pts = sample_boundary_points(halfspace(f1="0"), 10, seed=1)
        assert pts and not any(transversality_check(p) for p in pts)


class TestZeroCurvatureC1:
    def test_ball_sections_parallel(self):
        spec = ball(2, 1.0)
        ok, wit = zero_curvature_check_c1(spec, [0.0, 0.5], [[0.8, 0.1], [-0.3, 0.6], [0.1, -0.8]])
        assert ok and not wit

    def test_sphere_fails_with_witness(self):
        spec = sphere_delta(2, 0.3)
        ok, wit = zero_curvature_check_c1(spec, [0.1, 0.2], [[0.5, 0.0], [0.0, 0.5], [-0.4, 0.2]])
        assert not ok
        assert wit and wit[0][2] > 1e-4

    def test_circle_case_trivially_true(self):
        # y at angle ~1.047; the section boundary sits at angle ~-0.524,
        # i.e. u = -0.5, reachable from both starts inside the chart
        spec = sphere_delta(1, 0.0)
        ok, wit = zero_curvature_check_c1(spec, [0.866], [[-0.4], [0.1]])
        assert ok and not wit

    def test_non_transverse_sample_raises(self):
        with pytest.raises(NonTransverseSample):
            zero_curvature_check_c1(ball(2, 1.0), [0.0, 0.0], [[0.9, 0.1]])


class TestMixedHessianCheck:
    def _pts(self, spec, seed=0, count=6):
        return [p for p in sample_boundary_points(spec, count, seed=seed) if transversality_check(p)]

    def test_ball_passes_with_zero_violation(self):
        ok, violation = mixed_hessian_check(ball(2, 1.0), self._pts(ball(2, 1.0)))
        assert ok and violation == 0.0

    def test_halfspace_passes(self):
        ok, violation = mixed_hessian_check(halfspace(), self._pts(halfspace()))
        assert ok and violation <= 1e-6

    def test_sphere_fails_consistently_with_c1(self):
        spec = sphere_delta(2, 0.3)
        pts = self._pts(spec)
        ok, violation = mixed_hessian_check(spec, pts)
        assert not ok and violation > 1e-3
        ok_c1, _ = zero_curvature_check_c1(
            spec, pts[0].y, [pts[0].x + np.array([0.05, -0.02]), pts[0].x]
        )
        assert ok_c1 is False


class TestNormalFormChart:
    def test_halfspace_chart_is_exact(self):
        spec = halfspace()
        z0 = boundary_project(spec, [0.4], [0.0])
        chart = normal_form_chart(spec, z0)
        for s in np.linspace(-0.2, 0.2, 9):
            assert abs(chart.g(np.zeros(0), np.array([s])) - s) <= 1e-9

    def test_ball_circle_graph_residual(self):
        spec = ball(1, 1.0)
        z0 = boundary_project(spec, [math.cos(0.3)], [math.sin(0.3) - 0.05])
        chart = normal_form_chart(spec, z0)
        for s in np.linspace(-0.03, 0.03, 11):
            x, y = chart.surface_point(np.zeros(0), np.array([s]))
            assert abs(float(spec.f(x, y))) <= 1e-8

    def test_g_vanishing_tail_reproduces_y1_on_builtins(self):
        specs = [
            ball(2, 1.0),
            sphere_delta(2, 0.3),
            toeplitz_ball(2, 1.0),
            halfspace(),
            triangular(),
        ]
        rng = np.random.default_rng(4)
        for spec in specs:
            pts = [
                p
                for p in sample_boundary_points(spec, 12, seed=3)
                if transversality_check(p)
            ]
            assert pts, spec.symbol_id
            chart = normal_form_chart(spec, pts[0])
            count = 0
            for _ in range(200):
                yc = rng.uniform(-chart.radius, chart.radius, size=spec.n_dim)
                try:
                    val = chart.g(np.zeros(spec.m_dim - 1), yc)
                except Exception:
                    continue
                assert abs(val - yc[0]) <= 1e-6, spec.symbol_id
                count += 1
                if count >= 50:
                    break
            assert count >= 50, f"not enough chart samples for {spec.symbol_id}"

    def test_requires_transverse_point(self):
        spec = ball(2, 1.0)
        pt = boundary_project(spec, [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(NonTransverse):
            normal_form_chart(spec, pt)


class TestTriangularFactorization:
    def test_halfspace_exact_split(self):
        assert triangular_factorization_check(
            halfspace(), lambda x: x[0], lambda y: y[0], samples=2000, seed=0
        )

    def test_circle_polar_angles_on_hemisphere(self):
        # one boundary component only: angles theta in (0.2, 1.2) for x and
        # (-1.2, -0.2) for y, so theta_x - theta_y stays above -arccos(delta)
        delta = 0.3
        c = math.acos(delta)
        box = [
            (math.sin(0.2), math.sin(1.2)),
            (math.sin(-1.2), math.sin(-0.2)),
        ]
        spec = sphere_delta(1, delta, box=box)
        assert triangular_factorization_check(
            spec,
            lambda x: -math.asin(x[0]),
            lambda y: -math.asin(y[0]) - c,
            samples=4000,
            seed=1,
        )

    def test_sphere2_fails_any_affine_split(self):
        spec = sphere_delta(2, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            c0 = rng.standard_normal()
            ok = triangular_factorization_check(
                spec,
                lambda x, a=a: float(np.dot(a, x)),
                lambda y, b=b, c0=c0: float(np.dot(b, y)) + c0,
                samples=10_000,
                seed=6,
            )
            assert not ok


class TestClassify:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (ball(1, 1.0), TRIANGULAR_MODEL),
            (ball(2, 1.0), TRIANGULAR_MODEL),
            (sphere_delta(1, 0.5), TRIANGULAR_MODEL),
            (halfspace(), TRIANGULAR_MODEL),
            (triangular(), TRIANGULAR_MODEL),
            (sphere_delta(2, 0.3), CURVATURE_FAIL),
            (toeplitz_ball(2, 1.0), CURVATURE_FAIL),
        ],
    )
    def test_verdicts(self, spec, expected):
        assert classify(spec, seed=2).verdict == expected

    def test_degenerate_case_is_triangular(self):
        rep = classify(halfspace(f1="0"), seed=2)
        assert rep.verdict == TRIANGULAR_MODEL
        assert any("degenerate" in n for n in rep.notes)

    def test_explicit_non_transverse_base_point(self):
        rep = classify(ball(2, 1.0), z0=([1.0, 0.0], [0.0, 0.0]), seed=2)
        assert rep.verdict == NON_TRANSVERSE

    def test_report_serializes(self):
        rep = classify(sphere_delta(2, 0.3), seed=2)
        blob = rep.to_json()
        assert blob["verdict"] == CURVATURE_FAIL
        assert blob["witnesses"]
        assert blob["tolerances"]["angle"] == 1e-4

    def test_curvature_witnesses_are_transverse_pairs(self):
        rep = classify(sphere_delta(2, 0.0), seed=3)
        assert rep.verdict == CURVATURE_FAIL
        for p, q, ang in rep.witnesses:
            assert transversality_check(p) and transversality_check(q)
            assert ang > rep.tolerances["angle"]
            np.testing.assert_allclose(p.y, q.y, atol=1e-12)

    def test_walks_past_sections_until_one_assembles(self):
        # at this seed no x start of the first `sections` pool points
        # projects inside the box
        rep = classify(sphere_delta(3, 0.0), seed=532220982)
        assert rep.verdict == CURVATURE_FAIL
        assert rep.samples["sections_used"] == 1

    def test_no_boundary_in_box_is_inconclusive(self):
        # F = x1 - y1 is bounded away from zero on this box
        spec = halfspace(box=[(2.0, 3.0), (-3.0, -2.0)])
        rep = classify(spec, seed=6)
        assert rep.verdict == INCONCLUSIVE
        assert any("no boundary" in n for n in rep.notes)

    def test_verdict_invariant_under_factor_swap(self):
        for spec in (
            ball(2, 1.0),
            sphere_delta(2, 0.3),
            halfspace("x1", "y1**3 + y1"),
            toeplitz_ball(2, 1.0),
        ):
            assert (
                classify(transpose_spec(spec), seed=5).verdict
                == classify(spec, seed=5).verdict
            )
