import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.errors import ShapeMismatch, ZeroDirection, ZeroVector
from schurlab.geometry import boundary_project, sample_boundary_points, transversality_check
from schurlab.harmonic import (
    _direction_masks,
    directional_hilbert,
    frequency_lattice,
    grid_lp_norm,
    random_trig_polynomial,
    scaling_limit_check,
    solve_T,
    square_function_test,
)
from schurlab.symbols import ball, halfspace, sphere_delta


class TestDirectionalHilbert:
    def test_constant_killed(self):
        f = np.full((8, 8), 2.7, dtype=complex)
        out = directional_hilbert(f, [1.0, 0.0])
        assert np.max(np.abs(out)) < 1e-13

    def test_cosine_two_mode_oracle(self):
        # cos(2 pi x) = (e^{2 pi i x} + e^{-2 pi i x}) / 2; only the +1 mode
        # survives the half-space cut
        n = 16
        x = np.arange(n) / n
        f = np.cos(2 * np.pi * x).astype(complex)
        expected = 0.5 * np.exp(2j * np.pi * x)
        np.testing.assert_allclose(directional_hilbert(f, [1.0]), expected, atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        once = directional_hilbert(f, [0.3, -0.7])
        twice = directional_hilbert(once, [0.3, -0.7])
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            directional_hilbert(np.ones((4, 4), dtype=complex), [0.0, 0.0])

    def test_partition_of_identity(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        for u in ([1.0, 0.0], [0.4, -0.9], [1.0, 1.0]):
            _, zero = _direction_masks(f.shape, u)
            total = (
                directional_hilbert(f, u)
                + directional_hilbert(f, [-c for c in u])
                + np.fft.ifftn(np.fft.fftn(f) * zero)
            )
            assert np.max(np.abs(total - f)) <= 1e-12

    def test_plancherel(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        fhat = np.fft.fftn(f) / f.size
        assert abs(grid_lp_norm(f, 2.0) ** 2 - np.sum(np.abs(fhat) ** 2)) <= 1e-10


class TestGridNorms:
    @pytest.mark.parametrize("p", [1.0, 4.0, 1000.0, np.inf])
    def test_constant_has_norm_its_value(self, p):
        for c in (1e-200, 0.37, 3.0, 1e200):
            assert grid_lp_norm(np.full((7, 5), c), p) == pytest.approx(c, rel=1e-14)

    def test_large_exponent_does_not_underflow(self):
        f = 0.25 * random_trig_polynomial((16, 16), 3, seed=4)
        top = float(np.abs(f).max())
        for p in (1000.0, 1e300):
            norm = grid_lp_norm(f, p)
            assert 0.0 < norm <= top
        assert grid_lp_norm(f, 1e300) == pytest.approx(top, rel=1e-12)

    @pytest.mark.parametrize("n", [49, 98, 103, 64])
    def test_frequency_lattice_is_integer(self, n):
        (freqs,) = frequency_lattice((n,))
        assert np.array_equal(freqs, np.rint(freqs))
        assert freqs.max() == (n - 1) // 2 and freqs.min() == -(n // 2)

    def test_trig_polynomial_keeps_its_top_frequency(self):
        # fftfreq(49, 1 / 49) puts frequency 6 at 6.000000000000002
        spec = np.fft.fft(random_trig_polynomial((49,), 6, seed=1))
        assert np.count_nonzero(np.abs(spec) > 1e-9) == 13


def _riesz_constant_oracle(shape, degree, u, p, include, seed):
    """Brute maximization of ||H_u f||_p / ||f||_p over the mode set."""
    rng = np.random.default_rng(seed)
    best = 0.0
    candidates = [include]
    for _ in range(400):
        candidates.append(random_trig_polynomial(shape, degree, seed=int(rng.integers(2**31))))
    for f in candidates:
        denom = grid_lp_norm(f, p)
        if denom < 1e-12:
            continue
        best = max(best, grid_lp_norm(directional_hilbert(f, u), p) / denom)
    return best


class TestSquareFunction:
    def test_single_direction_riesz_bound(self):
        shape = (16,)
        u = [1.0]
        p = 4.0
        f = random_trig_polynomial(shape, 3, seed=7)
        c = _riesz_constant_oracle(shape, 3, u, p, include=f, seed=8)
        res = square_function_test([f], [u], p, c)
        assert res.passed
        assert res.lhs <= c * res.rhs * (1 + 1e-9)

    def test_equal_directions_reduce_to_single_ratio(self):
        shape = (16, 16)
        u = [0.6, -0.8]
        f = random_trig_polynomial(shape, 2, seed=9)
        single = square_function_test([f], [u], 4.0, 1.0)
        stacked = square_function_test([f, f, f], [u, u, u], 4.0, 1.0)
        assert abs(stacked.lhs / stacked.rhs - single.lhs / single.rhs) <= 1e-10

    def test_zero_functions_pass(self):
        z = np.zeros((8, 8), dtype=complex)
        res = square_function_test([z, z], [[1.0, 0.0], [0.0, 1.0]], 4.0, 1.0)
        assert res.passed and res.lhs == 0.0 and res.rhs == 0.0

    def test_dropping_terms_never_increases_lhs(self):
        shape = (12, 12)
        rng = np.random.default_rng(10)
        fs = [random_trig_polynomial(shape, 2, seed=k) for k in range(4)]
        us = [rng.standard_normal(2) for _ in range(4)]
        full = square_function_test(fs, us, 4.0, 1.0)
        for k in range(4):
            sub = square_function_test(fs[:k] + fs[k + 1 :], us[:k] + us[k + 1 :], 4.0, 1.0)
            assert sub.lhs <= full.lhs + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            square_function_test(
                [np.zeros((4, 4)), np.zeros((8, 8))], [[1, 0], [1, 0]], 2.0, 1.0
            )


class TestSolveT:
    def test_antipodal_pair(self):
        t = solve_T([1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(t.T @ [1.0, 0.0], [-1.0, 0.0], atol=1e-14)

    def test_orthogonal_pair(self):
        t = solve_T([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(t.T @ [1.0, 0.0], [0.0, -1.0], atol=1e-12)
        assert abs(np.linalg.det(t)) > 1e-9

    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            n1 = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            n2 = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            if np.linalg.norm(n1) < 1e-9 or np.linalg.norm(n2) < 1e-9:
                continue
            t = solve_T(n1, n2)
            resid = np.linalg.norm(t.T @ n1 + n2) / np.linalg.norm(n2)
            assert resid <= 1e-10
            assert abs(np.linalg.det(t)) > 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_solve_t_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n1 = rng.standard_normal(d)
        n2 = rng.standard_normal(d)
        if np.linalg.norm(n1) < 1e-6 or np.linalg.norm(n2) < 1e-6:
            return
        t = solve_T(n1, n2)
        assert np.linalg.norm(t.T @ n1 + n2) <= 1e-10 * max(1.0, np.linalg.norm(n2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            solve_T([0.0, 0.0], [1.0, 0.0])


class TestScalingLimit:
    def test_halfspace_exact_at_coarse_epsilon(self):
        spec = halfspace()
        z = boundary_project(spec, [0.4], [0.0])
        t = solve_T(z.n1, z.n2)
        res = scaling_limit_check(spec, z, t, [0.1], samples=2000, seed=12)
        assert res.fraction == 1.0

    def test_ball_agreement_at_fine_epsilon(self):
        spec = ball(2, 1.0)
        z = boundary_project(spec, [0.6, 0.1], [0.1, 0.7])
        t = solve_T(z.n1, z.n2)
        res = scaling_limit_check(spec, z, t, [1e-1, 1e-2, 1e-3], samples=1000, seed=13)
        assert res.fraction >= 0.99

    def test_sphere_agreement_no_curvature_needed(self):
        spec = sphere_delta(2, 0.3)
        z = boundary_project(spec, [0.5, 0.0], [0.0, 0.3])
        t = solve_T(z.n1, z.n2)
        res = scaling_limit_check(spec, z, t, [1e-2, 1e-3], samples=1000, seed=14)
        assert res.fraction >= 0.99

    def test_agreement_nondecreasing_in_epsilon(self):
        for spec in (ball(2, 1.0), sphere_delta(2, 0.3), halfspace()):
            pts = [
                p
                for p in sample_boundary_points(spec, 6, seed=15)
                if transversality_check(p)
            ]
            z = pts[0]
            t = solve_T(z.n1, z.n2)
            res = scaling_limit_check(
                spec, z, t, [1e-1, 1e-2, 1e-3], samples=800, seed=16
            )
            fracs = res.fractions  # index 0 = smallest epsilon
            assert fracs[0] + 1e-12 >= fracs[1] >= fracs[2] - 1e-12

    def test_misaligned_T_rejected(self):
        spec = ball(2, 1.0)
        z = boundary_project(spec, [0.6, 0.1], [0.1, 0.7])
        with pytest.raises(ValueError):
            scaling_limit_check(spec, z, np.eye(2), [1e-3], samples=10, seed=0)

