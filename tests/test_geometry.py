import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from schurlab import geometry
from schurlab.errors import DegenerateGradient, NoConvergence, NonTransverseSample
from schurlab.geometry import (
    ANGLE_TOL,
    CURVATURE_FAIL,
    DEGENERATE_TOL,
    HESSIAN_TOL,
    INCONCLUSIVE,
    NON_TRANSVERSE,
    TRANSVERSE_TOL,
    TRIANGULAR_MODEL,
    _NEWTON_FAILURES,
    _BoundaryPool,
    _boundary_points,
    _kernel_basis,
    _newton,
    _project_rays,
    _transverse,
    _uniform_in_box,
    boundary_project,
    classify,
    mixed_hessian_check,
    sample_boundary_points,
    transversality_check,
    zero_curvature_check_c1,
)
from schurlab.multiplier import componentwise_reparam, pullback_symbol
from schurlab.symbols import (
    BoundaryPoint,
    SymbolSpec,
    ball,
    mixed_hessian,
    halfspace,
    sphere_delta,
    toeplitz_ball,
    transpose_spec,
    triangular,
    from_json,
    user_symbol,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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

    def test_step_cap_raises_with_the_residual(self):
        # one Newton step from |y| = 7 is still far from the circle
        with pytest.raises(NoConvergence, match=r"^boundary projection stalled at \|F\| = 1\.203e\+01$"):
            boundary_project(ball(2, 1.0), [0.1, 0.2], [5.0, 5.0], max_iter=1)


@pytest.mark.parametrize(
    "f,grad,z0,expect",
    [
        (lambda z: z[..., 0] ** 2 - 2.0, lambda z: 2.0 * z, [1.0], [math.sqrt(2.0)]),
        # minimum-norm steps stay on the ray through the start
        (lambda z: np.sum(z * z, axis=-1) - 1.0, lambda z: 2.0 * z, [0.3, 0.4], [0.6, 0.8]),
        (lambda z: z[..., 0] ** 2 + 1.0, lambda z: 2.0 * z, [0.0], (DegenerateGradient, "vanishes")),
        (lambda z: np.sum(z * z, axis=-1) + 1.0, lambda z: 2.0 * z, [10.0, 1.0], (NoConvergence, "plateau")),
        # F is NaN off its chart z > 0; the gradient there is 1, not 0
        (
            lambda z: np.where(z[..., 0] > 0.0, z[..., 0] - 1.0, np.nan),
            lambda z: np.ones_like(z),
            [-1.0],
            (NoConvergence, "F is not finite"),
        ),
    ],
    ids=["scalar-root", "vector-projection", "zero-gradient", "no-root-plateau", "nonfinite-start"],
)
def test_newton(f, grad, z0, expect):
    z, status = _newton(lambda z, _: f(z), lambda z, _: grad(z), [z0], 1e-12, 100)
    if isinstance(expect, tuple):
        error, message = _NEWTON_FAILURES[status[0]]
        assert error is expect[0] and expect[1] in message
        # the single-point projection raises the row's failure: F(x, y) = f(y)
        spec = SymbolSpec(
            m_dim=1,
            n_dim=len(z0),
            f=lambda x, y: f(y),
            grad=lambda x, y: (np.zeros_like(x), grad(y)),
            domain_box=((-20.0, 20.0),) * (1 + len(z0)),
        )
        with pytest.raises(expect[0], match=expect[1]):
            boundary_project(spec, [0.0], z0, tol=1e-12)
    else:
        assert status.tolist() == [0]
        np.testing.assert_allclose(z[0], expect, rtol=1e-10)


def _sequential_newton(f, grad, z, tol, max_iter, halvings):
    """``_newton`` with each rising step halved one length at a time, one
    call of f per halving; appends each accepted halving count to
    ``halvings``."""
    z = np.array(z, dtype=float)
    active = np.arange(z.shape[0])
    val = np.array(f(z, active), dtype=float)
    stall = np.zeros(z.shape[0], dtype=int)
    status = np.zeros(z.shape[0], dtype=np.int8)
    status[~np.isfinite(val)] = 5
    active = active[np.isfinite(val)]

    def drop(mask, code):
        status[active[mask]] = code
        return ~mask

    for _ in range(max_iter):
        active = active[~(np.abs(val[active]) <= tol)]
        if not active.size:
            return z, status
        za, va = z[active], val[active]
        g = grad(za, active)
        g2 = (g**2).sum(axis=-1)
        vanishing = g2 < 1e-24
        if vanishing.any():
            keep = drop(vanishing, 1)
            active, za, va, g, g2 = active[keep], za[keep], va[keep], g[keep], g2[keep]
            if not active.size:
                return z, status
        step = (-va / g2)[:, None] * g
        z_new = za + step
        val_new = np.array(f(z_new, active))
        rise = ~(np.isfinite(val_new) & (np.abs(val_new) < np.abs(va)))
        lam = 1.0
        for k in range(1, 30):
            if not rise.any():
                break
            lam *= 0.5
            rows = np.flatnonzero(rise)
            cand = za[rows] + lam * step[rows]
            cval = f(cand, active[rows])
            dec = np.isfinite(cval) & (np.abs(cval) < np.abs(va[rows]))
            z_new[rows[dec]] = cand[dec]
            val_new[rows[dec]] = cval[dec]
            rise[rows[dec]] = False
            halvings.extend([k] * int(dec.sum()))
        if rise.any():
            keep = drop(rise, 2)
            active, va, z_new, val_new = active[keep], va[keep], z_new[keep], val_new[keep]
        stall[active] = (stall[active] + 1) * (np.abs(val_new) > 0.75 * np.abs(va))
        plateau = stall[active] >= 5
        if plateau.any():
            keep = drop(plateau, 3)
            active, z_new, val_new = active[keep], z_new[keep], val_new[keep]
        z[active] = z_new
        val[active] = val_new
    status[active] = 4
    return z, status


def test_nonfinite_starts_fail_before_any_gradient():
    # F = |z| - 1 off the chart z < 0 is NaN or infinite; those rows fail at
    # their start, and the gradient is taken at the finite rows only
    starts = np.array([[0.5], [np.nan], [np.inf], [2.0], [-np.inf]])

    def f(z, rows):
        return np.where(z[:, 0] < 0.0, np.nan, np.abs(z[:, 0]) - 1.0)

    seen = []

    def grad(z, rows):
        seen.extend(rows.tolist())
        return np.sign(z)

    z, status = _newton(f, grad, starts, 1e-12, 100)
    assert status.tolist() == [0, 5, 5, 0, 5]
    assert set(seen) == {0, 3}
    np.testing.assert_array_equal(z[[1, 2, 4]], starts[[1, 2, 4]])
    assert _NEWTON_FAILURES[5][0] is NoConvergence


def test_batched_halvings_match_one_at_a_time():
    # y-solves of ball(2, 1) rays: those with |x| > 1 have no root, shrink
    # y towards 0 with ever more halvings and stop on a plateau, on a step
    # that no halving decreases, or (from y = 0) on a vanishing gradient;
    # the rising rows try several halvings per call of f, in at most 1,024 rows
    spec = ball(2, 1.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.5, 1.5, (200, 2))
    y = rng.uniform(-1.1, 1.1, (200, 2))
    y[0] = 0.0
    calls = []

    def f(z, rows):
        calls.append(len(z))
        return spec.f(x[rows], z)

    def grad(z, rows):
        return spec.grad(x[rows], z)[1]

    halvings = []
    z_ref, status_ref = _sequential_newton(f, grad, y, 1e-9, 100, halvings)
    assert set(status_ref.tolist()) == {0, 1, 2, 3}
    assert max(halvings) >= 20
    calls.clear()
    z, status = _newton(f, grad, y, 1e-9, 100)
    np.testing.assert_array_equal(status, status_ref)
    np.testing.assert_array_equal(z, z_ref)
    assert 200 < max(calls) <= 1024


@pytest.mark.parametrize("k", [16, 2000])
def test_halving_budget_matches_one_at_a_time(k):
    # y-solves of rootless ball(2, 1) rays (1.05 <= |x| <= 1.5): nearly every
    # step rises, and the rising rows try their halvings in calls of f of at
    # most max(k, 1024) rows. 16 rays try all 29 lengths in one call; 2,000
    # rays, with more than 2,000 / 29 rising, split them over calls
    spec = ball(2, 1.0)
    rng = np.random.default_rng(1)
    angle, radius = rng.uniform(0.0, 2.0 * np.pi, k), rng.uniform(1.05, 1.5, k)
    x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    y = rng.uniform(-1.1, 1.1, (k, 2))
    sizes, lengths = [], []

    def f(z, rows):
        # a row tried at n lengths in one call appears n times in ``rows``
        sizes.append(len(z))
        lengths.append(int(np.bincount(rows).max()))
        return spec.f(x[rows], z)

    def grad(z, rows):
        return spec.grad(x[rows], z)[1]

    halvings = []
    z_ref, status_ref = _sequential_newton(f, grad, y, 1e-9, 100, halvings)
    assert max(halvings) >= 20
    sizes.clear()
    lengths.clear()
    z, status = _newton(f, grad, y, 1e-9, 100)
    np.testing.assert_array_equal(status, status_ref)
    np.testing.assert_array_equal(z, z_ref)
    assert max(sizes) <= max(k, 1024)
    if k == 16:
        assert set(lengths) == {1, 29}
    else:
        assert 29 in lengths and any(1 < n < 29 for n in lengths)


def test_single_point_solve_halves_one_length_per_call():
    # a y-solve of ball(2, 1) at |x| > 1 has no root; in a batch of one its
    # steps take ever more halvings, each in its own call of f, as in the
    # sequential loop
    spec = ball(2, 1.0)
    x = np.array([0.8, 0.7])
    batched, sequential = [], []

    def record(calls):
        def f(z, rows):
            # copies: both solvers later write their accepted points in place
            calls.extend(z.copy())
            return spec.f(x, z)

        return f

    def grad(z, rows):
        return spec.grad(x, z)[1]

    _, status = _newton(record(batched), grad, np.array([[0.3, 0.1]]), 1e-9, 100)
    assert status[0] and _NEWTON_FAILURES[status[0]][0] is NoConvergence
    halvings = []
    _sequential_newton(record(sequential), grad, np.array([[0.3, 0.1]]), 1e-9, 100, halvings)
    assert max(halvings) >= 8
    np.testing.assert_array_equal(batched, sequential)


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


def _one_batch_pool(spec, seed, cap):
    """The in-box boundary points, in draw order, of all ``cap`` rays of
    ``sample_boundary_points`` solved as one batch, and their ray rows."""
    rays = _uniform_in_box(np.random.default_rng(seed), spec.domain_box, (cap,))
    rows, x, y, gx, gy = _project_rays(spec, rays[:, : spec.m_dim], rays[:, spec.m_dim :], move_x=False)
    return rows, _boundary_points(spec, x, y, gx, gy)


def _assert_same_points(pts, reference):
    assert len(pts) == len(reference)
    for p, q in zip(pts, reference):
        for name in ("x", "y", "n1", "n2"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        assert p.residual == q.residual


@pytest.mark.parametrize(
    "spec,count,seed,cap",
    [
        # fewer rays than the first batch of 2 * count
        (ball(2, 1.0), 16, 3, 20),
        # the rays run out with 11 of 64 points found, mid-batch
        (sphere_delta(3, 0.0), 64, 7, 300),
    ],
    ids=["cap-below-first-batch", "runs-dry"],
)
def test_pool_with_few_rays_is_the_one_batch_pool(spec, count, seed, cap):
    pts = sample_boundary_points(spec, count, seed=seed, max_attempts=cap)
    _, reference = _one_batch_pool(spec, seed, cap)
    assert 0 < len(reference) <= count
    _assert_same_points(pts, reference)


def test_pool_filled_at_a_batch_boundary():
    # the batches of count 4 end at rays 8, 24 and 56; the 4th in-box point
    # comes from ray 56, the last of the third batch
    spec = sphere_delta(3, 0.0)
    rows, reference = _one_batch_pool(spec, 32, 160)
    assert rows[3] == 55
    _assert_same_points(sample_boundary_points(spec, 4, seed=32), reference[:4])


def test_pool_without_rays_is_empty():
    assert sample_boundary_points(ball(2, 1.0), 16, max_attempts=0) == []


def test_pool_solves_only_the_rays_it_needs():
    # all 2,560 rays solved as one batch take 59,306 rows of F; the 64th
    # in-box point comes from ray 94, inside the first batch of 128
    spec = ball(2, 1.0)
    rows = []

    def f(x, y):
        rows.append(np.shape(x)[0] if np.ndim(x) > 1 else 1)
        return spec.f(x, y)

    pts = sample_boundary_points(dataclasses.replace(spec, f=f), 64, seed=0)
    assert len(pts) == 64
    assert sum(rows) <= 8000
    # a rising Newton step tries its halvings in one call of F: 23 calls,
    # 40 with one halving per call
    assert len(rows) <= 30


def test_classify_solves_only_the_pool_prefix_it_reads():
    # with the whole 64-point pool solved first this took 4,068 rows of F;
    # the checks read the first 8 points (912 rows)
    spec = ball(2, 1.0)
    rows = []

    def f(x, y):
        rows.append(np.shape(x)[0] if np.ndim(x) > 1 else 1)
        return spec.f(x, y)

    rep = classify(dataclasses.replace(spec, f=f), seed=0)
    assert rep.verdict == TRIANGULAR_MODEL
    assert sum(rows) <= 1500
    # 21 calls of F, 41 with one halving per call
    assert len(rows) <= 25


@pytest.mark.parametrize("spec,seed", [(ball(2, 1.0), 0), (sphere_delta(3, 0.0), 7)], ids=["ball", "sphere3"])
def test_pool_grown_in_steps_is_a_prefix_of_the_whole_pool(spec, seed):
    # a smaller target than before reads the points already read
    pool = _BoundaryPool(spec, 64, seed)
    whole = sample_boundary_points(spec, 64, seed=seed)
    for target, size in ((3, 3), (8, 8), (5, 8), (20, 20), (100, 64)):
        rows = pool.grow(target)
        _assert_same_points(_boundary_points(spec, *rows), whole[:size])


@pytest.mark.parametrize(
    "spec,kwargs,points",
    [
        (ball(2, 1.0), dict(seed=0), 8),
        # degenerate: n1 vanishes at every point of the prefix
        (halfspace(f1="0"), dict(seed=2), 64),
        # no section assembles, so every section group is read
        (ball(2, 1.0), dict(seed=1, points_per_section=1), 64),
    ],
    ids=["ball", "degenerate", "every-group"],
)
def test_pool_points_counts_the_points_read(spec, kwargs, points):
    assert classify(spec, **kwargs).samples["pool_points"] == points


def _newton_batches(monkeypatch):
    """The row counts of the ``_newton`` batches run from now on."""
    batches = []
    newton = geometry._newton

    def counted(f, grad, z, *args):
        batches.append(len(z))
        return newton(f, grad, z, *args)

    monkeypatch.setattr(geometry, "_newton", counted)
    return batches


def test_pool_batch_follows_the_yield(monkeypatch):
    # 4 in-box points in the first 128 rays size the second batch at
    # ceil(60 * 128 / 4) = 1,920 rays; doubling batches took 5 solves
    batches = _newton_batches(monkeypatch)
    spec = sphere_delta(3, 0.0)
    pts = sample_boundary_points(spec, 64, seed=7)
    assert len(batches) <= 2
    _assert_same_points(pts, _reference_pool(spec, 64, 7))


def test_pool_batches_double_until_a_point_is_found(monkeypatch):
    # the first 12 rays find nothing (4, then 8); one point in 12 rays
    # sizes the third batch at 12, and still one in 24 the fourth at 24
    batches = _newton_batches(monkeypatch)
    spec = sphere_delta(3, 0.0)
    pts = sample_boundary_points(spec, 2, seed=5)
    assert batches == [4, 8, 12, 24]
    _assert_same_points(pts, _one_batch_pool(spec, 5, 48)[1][:2])


def test_pool_batches_stop_at_max_attempts(monkeypatch):
    batches = _newton_batches(monkeypatch)
    assert sample_boundary_points(sphere_delta(3, 0.0), 1, seed=1, max_attempts=25) == []
    assert batches == [2, 4, 8, 11]


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

    def test_resolves_an_angle_of_a_billionth(self):
        # the y-normal is (-1, e x2): sections at x2 = -0.9 and 0.9 are
        # atan(0.9 e) - atan(-0.9 e) = 1.8e-9 apart; arccos |u.v| reads 0
        spec = user_symbol("x1-y1+1e-9*x2*y2", 2, 2, [[-1.0, 1.0]] * 4)
        ok, wit = zero_curvature_check_c1(spec, [0.2, 0.3], [[0.2, -0.9], [0.2, 0.9]], tol_angle=1e-10)
        assert not ok and len(wit) == 1
        assert abs(wit[0][2] - 1.8e-9) <= 1e-11
        assert zero_curvature_check_c1(spec, [0.2, 0.3], [[0.2, -0.9], [0.2, 0.9]])[0]

    def test_angles_match_the_pairwise_formula(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5):
            n2 = rng.standard_normal((9, n))
            n2[3] = -2.0 * n2[1] + 1e-12  # nearly the same line, opposite sign
            got = geometry._wide_pairs(n2, 0.0)
            expected = []
            for i in range(9):
                for j in range(i + 1, 9):
                    u = n2[i] / math.sqrt(float(np.sum(n2[i] ** 2)))
                    v = n2[j] / math.sqrt(float(np.sum(n2[j] ** 2)))
                    s = -1.0 if np.sum(u * v) < 0.0 else 1.0
                    ang = 2.0 * float(np.arctan2(math.sqrt(float(np.sum((u - s * v) ** 2))), math.sqrt(float(np.sum((u + s * v) ** 2)))))
                    if ang > 0.0:
                        expected.append((i, j, ang))
            assert got == expected
            # the angle between lines: at most pi / 2, and arccos |u.v| above its floor
            for i, j, ang in got:
                cos = abs(float(np.dot(n2[i], n2[j]))) / np.linalg.norm(n2[i]) / np.linalg.norm(n2[j])
                assert ang <= math.pi / 2 + 1e-15
                if ang > 1e-6:
                    assert abs(ang - math.acos(min(1.0, cos))) <= 1e-9

    def test_non_transverse_sample_raises(self):
        with pytest.raises(NonTransverseSample):
            zero_curvature_check_c1(ball(2, 1.0), [0.0, 0.0], [[0.9, 0.1]])


    def test_samples_match_the_point_by_point_projections(self):
        spec = sphere_delta(2, 0.3)
        y = np.array([0.1, 0.2])
        xs = np.array([[0.5, 0.0], [0.0, 0.5], [-0.4, 0.2]])
        _, wit = zero_curvature_check_c1(spec, y, xs)
        pts = [geometry.boundary_project_x(spec, x0, y) for x0 in xs]
        assert len(wit) == 3
        for (p, q, _), (i, j) in zip(wit, [(0, 1), (0, 2), (1, 2)]):
            _assert_same_points([p, q], [pts[i], pts[j]])

    def test_failed_sample_raises_its_error(self):
        # no x on the unit circle at y = (0.5, 0.5, ...) is reachable from
        # x = 0: the gradient in x vanishes there
        with pytest.raises(DegenerateGradient):
            zero_curvature_check_c1(ball(2, 1.0), [0.0, 0.5], [[0.8, 0.1], [0.0, 0.0]])


class TestMixedHessianCheck:
    def _pts(self, spec, seed=0, count=6):
        return [p for p in sample_boundary_points(spec, count, seed=seed) if transversality_check(p)]

    def _rows(self, spec, seed=0, count=6):
        """The rows (x, y, gx, gy) of ``_pts``."""
        x, y, gx, gy = _BoundaryPool(spec, count, seed).grow(count)
        keep = _transverse(*geometry._unit_normals(gx, gy), TRANSVERSE_TOL)
        return x[keep], y[keep], gx[keep], gy[keep]

    def test_ball_passes_with_zero_violation(self):
        ok, violation = mixed_hessian_check(ball(2, 1.0), *self._rows(ball(2, 1.0)))
        assert ok and violation == 0.0

    def test_halfspace_passes(self):
        ok, violation = mixed_hessian_check(halfspace(), *self._rows(halfspace()))
        assert ok and violation <= 1e-6

    def test_no_rows_pass(self):
        empty = np.empty((0, 2))
        assert mixed_hessian_check(ball(2, 1.0), empty, empty, empty, empty) == (True, 0.0)

    def test_reads_only_the_directions_of_the_gradient_split(self):
        spec = sphere_delta(3, 0.0)
        x, y, gx, gy = self._rows(spec, seed=7, count=12)
        scale = 2.0 ** np.arange(-5, len(x) - 5)[:, None]
        assert mixed_hessian_check(spec, x, y, scale * gx, scale * gy) == mixed_hessian_check(spec, x, y, gx, gy)

    def test_tangent_row_raises(self):
        x, y = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
        with pytest.raises(NonTransverseSample, match=r"x = \[1\. 0\.\]"):
            mixed_hessian_check(ball(2, 1.0), x, y, np.array([[2.0, 0.0]]), np.zeros((1, 2)))

    def test_stacked_bases_match_point_by_point(self):
        spec = sphere_delta(3, 0.0)
        pts = self._pts(spec, seed=7, count=12)
        worst = scale = 0.0
        for pt in pts:
            h = mixed_hessian(spec, pt.x[None], pt.y[None])[0]
            scale = max(scale, float(np.linalg.norm(h, 2)))
            vals = _kernel_basis(pt.n1) @ h @ _kernel_basis(pt.n2).T
            worst = max(worst, float(np.abs(vals).max()))
        assert mixed_hessian_check(spec, *self._rows(spec, seed=7, count=12)) == (worst / scale <= 1e-6, worst / scale)

    def test_sphere_fails_consistently_with_c1(self):
        spec = sphere_delta(2, 0.3)
        x, y, gx, gy = self._rows(spec)
        ok, violation = mixed_hessian_check(spec, x, y, gx, gy)
        assert not ok and violation > 1e-3
        ok_c1, _ = zero_curvature_check_c1(spec, y[0], [x[0] + np.array([0.05, -0.02]), x[0]])
        assert ok_c1 is False


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

    def test_one_point_per_section_is_inconclusive(self):
        rep = classify(ball(2, 1.0), points_per_section=1, seed=1)
        assert rep.verdict == INCONCLUSIVE
        assert rep.samples["sections_used"] == 0
        assert rep.notes == ["could not assemble section pairs for the curvature check"]

    def test_failed_base_point_projection_is_inconclusive(self):
        # at x = (2, 0) the section F = 1 - 4 - |y|^2 has no root, and the
        # Newton step from y = 0 meets a vanishing gradient
        rep = classify(ball(2, 1.0), z0=([2.0, 0.0], [0.0, 0.0]))
        assert rep.verdict == INCONCLUSIVE
        assert rep.notes == ["base point projection failed: gradient vanishes during boundary projection"]

    def test_base_point_outside_the_chart_is_inconclusive(self):
        # |y| = 2 lies outside the hemisphere chart |y| < 1 of sphere_delta,
        # where F is NaN: the projection fails at its start
        rep = classify(sphere_delta(2, 0.3), z0=([0.1, 0.1], [2.0, 0.0]))
        assert rep.verdict == INCONCLUSIVE
        assert rep.notes == [
            "base point projection failed: boundary projection starts where F is not finite (|F| = nan)"
        ]

    def test_verdict_invariant_under_factor_swap(self):
        for spec in (
            ball(2, 1.0),
            sphere_delta(2, 0.3),
            halfspace("x1", "y1**3 + y1"),
            toeplitz_ball(2, 1.0),
            # no y-dependence: no ray along y meets the boundary
            halfspace("x1", "0"),
            halfspace("x1**3+x1", "0"),
        ):
            assert (
                classify(transpose_spec(spec), seed=5).verdict
                == classify(spec, seed=5).verdict
            )
        for f1 in ("x1", "x1**3+x1"):
            rep = classify(halfspace(f1, "0"), seed=5)
            assert rep.verdict == TRIANGULAR_MODEL
            assert rep.notes == ["degenerate case: n2 vanishes at all samples"]


def _transverse_point(pt, tol=TRANSVERSE_TOL):
    """The transversality rule at one point: each normal component has at
    least ``tol`` of the joint normal's length."""
    joint = math.sqrt(float(np.sum(pt.n1**2) + np.sum(pt.n2**2)))
    return bool(np.linalg.norm(pt.n1) >= tol * joint and np.linalg.norm(pt.n2) >= tol * joint)


def _reference_classify(spec, seed, z0=None, sections=8, per=8):
    """``classify`` with its default counts and tolerances, point by point:
    one BoundaryPoint per pool point and per section solve (one
    ``boundary_project_x`` each), the transversality rule and the kernel
    bases of the Hessian check at one point at a time, and each section
    pair's angle by its own 2 atan2(|u - s v|, |u + s v|), s = sign(u.v)
    (numpy's arctan2, whose last digit can differ from math.atan2's).
    Returns (verdict,
    sections_used, hessian_points, hessian_violation, witnesses)."""
    pool = sample_boundary_points(spec, 64, seed=seed)
    if not pool:
        pool = [
            BoundaryPoint(x=p.y, y=p.x, n1=p.n2, n2=p.n1, residual=p.residual)
            for p in sample_boundary_points(transpose_spec(spec), 64, seed=seed)
        ]
    for name in ("n1", "n2"):
        if max(np.linalg.norm(getattr(p, name)) for p in pool) < DEGENERATE_TOL:
            return TRIANGULAR_MODEL, None, None, None, []
    sample_pool = [p for p in pool if _transverse_point(p)]
    if z0 is not None and not _transverse_point(boundary_project(spec, *map(np.asarray, z0))):
        return NON_TRANSVERSE, None, None, None, []
    if z0 is None and not sample_pool:
        return NON_TRANSVERSE, None, None, None, []
    rng = np.random.default_rng([seed, 1])
    used, witnesses = [], []
    for start in range(0, len(sample_pool), sections):
        if used:
            break
        chunk = sample_pool[start : start + sections]
        x_inits = _uniform_in_box(rng, spec.x_box, (len(chunk), per - 1))
        for j, base in enumerate(chunk):
            if start + j >= sections and used:
                break
            kept = []
            for x0 in [*x_inits[j], base.x]:
                try:
                    q = geometry.boundary_project_x(spec, x0, base.y)
                except (NoConvergence, DegenerateGradient):
                    continue
                if all(lo <= t <= hi for t, (lo, hi) in zip(q.x, spec.x_box)) and _transverse_point(q):
                    kept.append(q)
            if len(kept) < 2:
                continue
            used.append(kept)
            for a in range(len(kept)):
                for b in range(a + 1, len(kept)):
                    u, v = (p.n2 / math.sqrt(float(np.sum(p.n2**2))) for p in (kept[a], kept[b]))
                    s = -1.0 if np.sum(u * v) < 0.0 else 1.0
                    ang = 2.0 * float(np.arctan2(math.sqrt(float(np.sum((u - s * v) ** 2))), math.sqrt(float(np.sum((u + s * v) ** 2)))))
                    if ang > ANGLE_TOL:
                        witnesses.append((kept[a], kept[b], ang))
    if not used:
        return INCONCLUSIVE, 0, None, None, []
    c1_ok = not witnesses
    points = [p for kept in used for p in kept]
    if spec.hess_xy is None:
        hessian = (None, None)
        verdict = TRIANGULAR_MODEL if c1_ok else CURVATURE_FAIL
    else:
        worst = scale = 0.0
        for pt in points:
            h = mixed_hessian(spec, pt.x[None], pt.y[None])[0]
            scale = max(scale, float(np.linalg.norm(h, 2)))
            if min(h.shape) > 1:
                worst = max(worst, float(np.abs(_kernel_basis(pt.n1) @ h @ _kernel_basis(pt.n2).T).max()))
        violation = worst / scale if scale else 0.0
        hessian = (len(points), violation)
        c2_ok = violation <= HESSIAN_TOL
        verdict = (TRIANGULAR_MODEL if c1_ok else CURVATURE_FAIL) if c2_ok == c1_ok else INCONCLUSIVE
    return verdict, len(used), *hessian, witnesses[:8]


def _halfspace_config(f1, f2, seed):
    return {"symbol": {"builtin": "halfspace", "params": {"f1": f1, "f2": f2}}, "seed": seed}


# the classify benchmark's configs at benchmark seed 7: the criterion-1
# builtins, the two expression symbols and the base-point config, each at
# two config seeds; then configs that classify cannot decide from its
# first pool points, which the reference reads from the whole pool
_CLASSIFY_JOBS = [(job.name, job.config) for job in workloads.classify(7)] + [
    ("degenerate", _halfspace_config("0", "y1", 2)),
    ("transposed-pool", _halfspace_config("x1", "0", 5)),
    ("no-transverse-point", _halfspace_config("x1", "1e-8*y1", 0)),
    ("no-section-assembles", {"symbol": {"builtin": "ball", "params": {"n": 2}}, "seed": 1, "points_per_section": 1}),
    ("walks-past-first-sections", {"symbol": {"builtin": "sphere_delta", "params": {"n": 3, "delta": 0.0}}, "seed": 532220982}),
    ("non-transverse-base-point", {"symbol": {"builtin": "ball", "params": {"n": 2}}, "seed": 2, "z0": ([1.0, 0.0], [0.0, 0.0])}),
]


@pytest.mark.parametrize("config", [config for _, config in _CLASSIFY_JOBS], ids=[name for name, _ in _CLASSIFY_JOBS])
def test_classify_matches_the_point_by_point_reference(config):
    spec = from_json(config["symbol"])
    per = config.get("points_per_section", 8)
    with np.errstate(all="ignore"):
        rep = classify(spec, z0=config.get("z0"), points_per_section=per, seed=config["seed"])
        verdict, used, points, violation, witnesses = _reference_classify(spec, config["seed"], config.get("z0"), per=per)
    assert rep.verdict == verdict
    assert rep.samples.get("sections_used") == used
    assert rep.samples.get("hessian_points") == points
    assert rep.samples.get("hessian_violation") == violation
    assert len(rep.witnesses) == len(witnesses)
    for (p, q, ang), (p_ref, q_ref, ang_ref) in zip(rep.witnesses, witnesses):
        _assert_same_points([p, q], [p_ref, q_ref])
        assert ang == ang_ref


def test_transversality_check_is_the_row_rule_at_its_threshold():
    # n1 = t e1 is transverse exactly when t >= tol * sqrt(t^2 + |n2|^2);
    # the points step across that threshold one float at a time
    tol = TRANSVERSE_TOL
    for n2 in ([1.0], [0.6, 0.8], [0.3, -0.4, 0.5]):
        n2 = np.array(n2)
        joint2 = float(np.sum(n2**2))
        t_star = tol * math.sqrt(joint2 / (1.0 - tol * tol))
        ts = [t_star]
        for _ in range(4):
            ts = [np.nextafter(ts[0], 0.0), *ts, np.nextafter(ts[-1], 1.0)]
        n1 = np.array([[t, 0.0] for t in ts])
        rows = _transverse(n1, np.tile(n2, (len(ts), 1)), tol)
        assert not rows[0] and rows[-1]
        for t, row in zip(ts, rows):
            pt = BoundaryPoint(x=np.zeros(2), y=np.zeros(len(n2)), n1=np.array([t, 0.0]), n2=n2, residual=0.0)
            assert transversality_check(pt, tol) == row == _transverse_point(pt, tol)
            swapped = dataclasses.replace(pt, n1=pt.n2, n2=pt.n1)
            assert transversality_check(swapped, tol) == row
