import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import matcore
from schurlab.errors import InvalidExponent, NonFinite, ShapeMismatch
from schurlab.matcore import (
    _norming,
    multiplier_norm_lower_bound,
    schatten_norm,
    schur_product,
    singular_spectrum,
    svd_factors,
)
from schurlab.multiplier import circulant


class TestSingularSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(singular_spectrum(np.eye(3)), [1.0, 1.0, 1.0])

    def test_rank_one_all_ones(self):
        s = singular_spectrum(np.ones((2, 2)))
        np.testing.assert_allclose(s, [2.0, 0.0], atol=1e-12)

    def test_jordan_block_against_characteristic_polynomial(self):
        # oracle: eigenvalues of A^T A = [[1,1],[1,2]] solve l^2 - 3l + 1 = 0
        lam_plus = (3.0 + math.sqrt(5.0)) / 2.0
        lam_minus = (3.0 - math.sqrt(5.0)) / 2.0
        s = singular_spectrum([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(s, [math.sqrt(lam_plus), math.sqrt(lam_minus)], rtol=1e-12)
        assert abs(s[0] ** 2 + s[1] ** 2 - 3.0) < 1e-12
        assert abs(s[0] * s[1] - 1.0) < 1e-12

    def test_sorted_nonincreasing_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            s = singular_spectrum(a)
            assert s.shape == (3,)
            assert np.all(s[:-1] >= s[1:])
            assert np.all(s >= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            singular_spectrum([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFinite):
            singular_spectrum([[np.inf, 0.0], [0.0, 1.0]])

    def test_reconstruction_contract(self):
        rng = np.random.default_rng(1)
        for shape in [(4, 4), (6, 3), (3, 7)]:
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, s, vh = svd_factors(a)
            resid = np.linalg.norm(a - (u * s) @ vh)
            assert resid <= 1e-10 * np.linalg.norm(a)


class TestSchattenNorm:
    def test_identity_all_p(self):
        for n in (2, 5, 8):
            for p in (1.0, 2.0, 4.0, math.inf):
                expected = 1.0 if math.isinf(p) else n ** (1.0 / p)
                assert abs(schatten_norm(np.eye(n), p) - expected) < 1e-12

    def test_p2_is_frobenius(self):
        # oracle: sqrt of the sum of squared entries
        a = [[1.0, 1.0], [0.0, 1.0]]
        assert abs(schatten_norm(a, 2) - math.sqrt(3.0)) < 1e-14
        rng = np.random.default_rng(2)
        b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert abs(schatten_norm(b, 2) - math.sqrt(np.sum(np.abs(b) ** 2))) < 1e-10

    def test_spectrum_lp_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal((5, 5))
            assert schatten_norm(a, 4) <= schatten_norm(a, 2) + 1e-12

    def test_invalid_exponent(self):
        for p in (0.5, 0.0, -1.0, np.nan):
            with pytest.raises(InvalidExponent):
                schatten_norm(np.eye(2), p)

    def test_triangle_inequality_200_pairs(self):
        rng = np.random.default_rng(4)
        for k in range(200):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = rng.choice([1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
            slack = schatten_norm(a, p) + schatten_norm(b, p) - schatten_norm(a + b, p)
            assert slack >= -1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            qu, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            qv, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for p in (1.0, 2.5, math.inf):
                assert abs(schatten_norm(qu @ a @ qv, p) - schatten_norm(a, p)) < 1e-8


class TestSchurProduct:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        np.testing.assert_array_equal(schur_product(np.ones((3, 4)), a), a)

    def test_zero_annihilates(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(schur_product(np.zeros((2, 3)), a), np.zeros((2, 3)))

    def test_triangular_pattern(self):
        m = np.tril(np.ones((3, 3)))
        out = schur_product(m, np.ones((3, 3)))
        np.testing.assert_array_equal(out.real, np.tril(np.ones((3, 3))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            schur_product(np.ones((2, 2)), np.ones((2, 3)))

    def test_idempotent_symbol_is_projection(self):
        rng = np.random.default_rng(7)
        m = (rng.random((4, 4)) < 0.5).astype(float)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        once = schur_product(m, a)
        np.testing.assert_array_equal(schur_product(m, once), once)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_bilinearity(self, rows, cols, alpha, beta):
        rng = np.random.default_rng(rows * 7 + cols)
        m = rng.standard_normal((rows, cols))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, cols))
        np.testing.assert_allclose(
            schur_product(m, alpha * a + beta * b),
            alpha * schur_product(m, a) + beta * schur_product(m, b),
            atol=1e-9,
        )


def _brute_force_2x2_oracle():
    """Net of random 2x2 contractions plus alternating polish of the best.

    Independent reference for the p=inf multiplier norm of [[1,0],[1,1]].
    """
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(20240601)
    best, best_a = 0.0, None
    chunk = 100_000
    for _ in range(10):  # 1e6-point net, vectorized
        a = rng.standard_normal((chunk, 2, 2)) + 1j * rng.standard_normal((chunk, 2, 2))
        top_num = np.linalg.svd(m[None, :, :] * a, compute_uv=False)[:, 0]
        top_den = np.linalg.svd(a, compute_uv=False)[:, 0]
        ratios = top_num / top_den
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, best_a = float(ratios[k]), a[k]
    a = best_a
    for _ in range(300):
        u, _, vh = np.linalg.svd(m * a)
        z = np.outer(u[:, 0], vh[0, :])
        uw, _, vwh = np.linalg.svd(np.conj(m) * z)
        a = uw @ vwh
    return float(
        np.linalg.svd(m * a, compute_uv=False)[0] / np.linalg.svd(a, compute_uv=False)[0]
    )


class TestMultiplierNormLowerBound:
    def test_p2_binary_symbol_is_exactly_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            m = (rng.random((n, n)) < 0.4).astype(float)
            if not m.any():
                m[0, 0] = 1.0
            v = multiplier_norm_lower_bound(m, 2.0, budget=2, seed=1)
            assert abs(v - 1.0) <= 1e-9

    def test_all_ones_any_p(self):
        m = np.ones((5, 5))
        for p in (1.0, 2.0, 3.0, math.inf):
            assert abs(multiplier_norm_lower_bound(m, p, budget=2, seed=0) - 1.0) <= 1e-9

    def test_2x2_triangular_pinf_against_brute_force(self):
        oracle = _brute_force_2x2_oracle()
        v = multiplier_norm_lower_bound([[1.0, 0.0], [1.0, 1.0]], math.inf, budget=6, seed=0)
        assert 1.0 <= v <= oracle * (1.0 + 1e-9)

    def test_p2_never_exceeds_sup(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            v = multiplier_norm_lower_bound(m, 2.0, budget=3, seed=2)
            assert v <= np.max(np.abs(m)) + 1e-9

    def test_monotone_in_budget_with_nested_seeds(self):
        rng = np.random.default_rng(10)
        m = (rng.random((8, 8)) < 0.5).astype(float)
        vals = [
            multiplier_norm_lower_bound(m, 4.0, budget=b, seed=3) for b in (1, 2, 4, 8)
        ]
        for small, big in zip(vals, vals[1:]):
            assert big >= small - 1e-12

    def test_deterministic_given_seed(self):
        m = np.tril(np.ones((6, 6)))
        a = multiplier_norm_lower_bound(m, 4.0, budget=4, seed=11)
        b = multiplier_norm_lower_bound(m, 4.0, budget=4, seed=11)
        assert a == b

    def test_zero_ascent_steps_keeps_the_best_start(self):
        m = np.tril(np.ones((8, 8)))
        start = multiplier_norm_lower_bound(m, math.inf, budget=2, seed=0, ascent_steps=0)
        ascended = multiplier_norm_lower_bound(m, math.inf, budget=2, seed=0)
        assert 1.0 - 1e-12 <= start <= ascended

    def test_real_symbol_gives_real_witness(self):
        m = np.tril(np.ones((8, 8)))
        for symbol in (m, m.astype(complex)):
            _, witness = multiplier_norm_lower_bound(
                symbol, 4.0, budget=2, seed=0, return_witness=True
            )
            assert np.isrealobj(witness)

    def test_complex_symbol_runs_complex(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        v, witness = multiplier_norm_lower_bound(m, 2.0, budget=2, seed=0, return_witness=True)
        assert np.iscomplexobj(witness)
        assert abs(v - np.max(np.abs(m))) <= 1e-9 * np.max(np.abs(m))

    def test_complex_extra_start_keeps_its_dtype(self):
        m = np.tril(np.ones((8, 8)))
        best, witness = multiplier_norm_lower_bound(
            m, math.inf, budget=1, seed=0, return_witness=True
        )
        v, kept = multiplier_norm_lower_bound(
            m, math.inf, budget=1, seed=0, extra_starts=[1j * witness], ascent_steps=0,
            return_witness=True,
        )
        assert np.iscomplexobj(kept)
        assert abs(v - best) <= 1e-12 * best


# np.linalg.svd calls of the estimate below when every start ascends to the
# step cap (no pruning), with the bound it reaches
UNPRUNED_TRIANGULAR_SVD_CALLS = 422
UNPRUNED_TRIANGULAR_BOUND = 2.1113665466


def _count_calls(monkeypatch, name):
    """Count the calls of np.linalg.<name> ("svd" or "eigh")."""
    calls = []
    func = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_pruned_ascent_saves_svds(monkeypatch):
    """Triangular N = 64, p = inf, budget 4: pruning after the warm-up makes
    at most 75% of the unpruned SVD calls and keeps the bound."""
    calls = _count_calls(monkeypatch, "svd")
    v = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), math.inf, budget=4, seed=0)
    assert len(calls) <= 0.75 * UNPRUNED_TRIANGULAR_SVD_CALLS, len(calls)
    assert v >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6)


@pytest.mark.parametrize("p, most", [(4.0, 240), (math.inf, 130)])
def test_gram_norming_halves_the_svds(p, most, monkeypatch):
    """Triangular N = 64, budget 4: the Gram-product step (even dual
    exponent) and the Gram eigenpair (p = inf dual step) leave about one
    SVD per ascent step (an SVD in every step made 454 calls at p = 4 and
    250 at p = inf), and the bound stays where the SVD steps put it."""
    calls = _count_calls(monkeypatch, "svd")
    v = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), p, budget=4, seed=0)
    assert len(calls) <= most, len(calls)
    if p == 4.0:
        assert abs(v - 1.1910581114990977) <= 1e-12, v
    else:
        assert v >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6), v


@pytest.mark.parametrize("p, most", [(2.0, 0), (4.0, 0), (math.inf, 20)])
def test_ascent_takes_no_svd(p, most, monkeypatch):
    """Triangular N = 64, budget 4: at p in {2, 4} the start norms and both
    steps are Gram products, so the estimate makes no SVD (227 at p = 4
    with an SVD start norm and s^(1/3) step); at p = inf only the 9 start
    norms and the polar steps whose Gram certificate fails take one.  The
    bounds keep their pins."""
    svds = _count_calls(monkeypatch, "svd")
    eighs = _count_calls(monkeypatch, "eigh")
    v = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), p, budget=4, seed=0)
    assert len(svds) <= most, len(svds)
    if p == 2.0:
        assert not eighs and abs(v - 1.0) <= 1e-12, v
    elif p == 4.0:
        assert abs(v - 1.1910581114990977) <= 1e-12, v
    else:
        assert v >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6), v


@pytest.mark.parametrize("p", [math.inf, 3.0])
def test_known_start_norms_take_no_svd(p, monkeypatch):
    """Outside GRAM_DUALS the matrix-unit start (norm 1) and the rank-one
    starts u v^T (norm |u||v|) reach _ascent with their exact S_p norm, so
    only the Gaussian starts take an SVD for it: at p = inf, where the
    scoring step takes none, a budget-4 estimate scored without ascent
    makes 4 SVDs."""
    seen = []
    ascent = matcore._ascent

    def recording(m, mc, a, p, na=None):
        seen.append((a, na))
        return ascent(m, mc, a, p, na)

    monkeypatch.setattr(matcore, "_ascent", recording)
    calls = _count_calls(monkeypatch, "svd")
    multiplier_norm_lower_bound(np.tril(np.ones((16, 16))), p, budget=4, seed=0, ascent_steps=0)
    svds = len(calls)  # before the checks below take their own
    assert svds == 4 or not math.isinf(p), svds
    assert [na is None for _, na in seen] == [False] + [True, False] * 4
    for a, na in seen[::2]:
        assert abs(na - schatten_norm(a, p)) <= 1e-13 * na, (na, schatten_norm(a, p))


@pytest.mark.parametrize("p", [math.inf, 1.0])
def test_rank_one_steps_take_one_eigh_per_start(p, monkeypatch):
    """Triangular N = 64, budget 4: after a start's first rank-one step
    (r = 1: the dual step at p = inf, the primal step at p = 1) the power
    iteration from the previous iterate replaces eigh, unless it reaches
    POWER_CAP.  The S_1 and S_inf norms of a real symbol agree (duality),
    so both keep the p = inf bound."""
    state = {"r": None, "steps": 0, "eighs": 0, "fallbacks": 0}
    norming, power, eigh = matcore._norming, matcore._power_iteration, np.linalg.eigh

    def counting_norming(x, r, rd, previous=None):
        state["r"] = r
        state["steps"] += r == 1.0
        return norming(x, r, rd, previous)

    def counting_power(g, previous):
        v = power(g, previous)
        state["fallbacks"] += v is None
        return v

    def counting_eigh(*args, **kwargs):
        state["eighs"] += state["r"] == 1.0
        return eigh(*args, **kwargs)

    monkeypatch.setattr(matcore, "_norming", counting_norming)
    monkeypatch.setattr(matcore, "_power_iteration", counting_power)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    v = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), p, budget=4, seed=0)
    starts = 1 + 2 * 4
    assert state["eighs"] <= starts + state["fallbacks"], state
    assert state["steps"] >= 5 * starts, state
    assert v >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6), v


def _warm_inputs(rows=10, cols=12):
    """(X, v0) pairs for the warm-started rank-one step."""
    rng = np.random.default_rng(11)

    def unit(v):
        return v / np.linalg.norm(v)

    graded = np.zeros((rows, cols))
    graded[np.arange(rows), np.arange(rows)] = np.arange(rows, 0, -1.0)
    return {
        "real": (rng.standard_normal((rows, cols)), unit(rng.standard_normal(cols))),
        "complex": (  # a rank-one spike opens the spectral gap the power iteration needs
            rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))
            + 3.0 * np.outer(np.ones(rows), np.exp(1j * np.arange(cols))),
            unit(rng.standard_normal(cols) + 1j * rng.standard_normal(cols)),
        ),
        "rank-one": (
            np.outer(rng.standard_normal(rows), rng.standard_normal(cols)),
            unit(rng.standard_normal(cols)),
        ),
        "identity": (np.eye(rows, cols), unit(rng.standard_normal(cols))),
        "orthogonal-start": (graded, np.eye(cols)[1]),  # v0 is orthogonal to the top e_0
    }


def _previous(v0, rows):
    """A rank-one iterate u v0^H, as the ascent passes it."""
    u = np.random.default_rng(3).standard_normal(rows)
    return np.outer(u / np.linalg.norm(u), np.conj(v0))


@pytest.mark.parametrize("name", ["real", "complex", "rank-one", "identity", "orthogonal-start"])
def test_warm_rank_one_step_is_certified(name):
    """_norming(X, 1, inf, previous) keeps ||Y||_1 = 1, reports Re<X, Y>,
    never exceeds ||X||_inf and never ends below |X v0|, also from a start
    orthogonal to the top singular vector, where it stays below ||X||_inf."""
    x, v0 = _warm_inputs()[name]
    y, value = _norming(x, 1.0, math.inf, _previous(v0, x.shape[0]))
    exact = schatten_norm(x, math.inf)
    assert abs(schatten_norm(y, 1.0) - 1.0) <= 1e-12
    assert abs(np.vdot(y, x).real - value) <= 1e-12 * value
    assert value <= exact * (1.0 + 1e-12)
    assert value >= np.linalg.norm(x @ v0) * (1.0 - 1e-13)
    if name == "orthogonal-start":
        assert abs(value - 9.0) <= 1e-12 * 9.0, value  # the second singular value
    elif name in ("rank-one", "identity"):
        assert abs(value - exact) <= 1e-12 * exact, (value, exact)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(10, 12), (12, 10), (64, 64)], ids=["10x12", "12x10", "64x64"])
def test_warm_rank_one_step_from_a_good_start(shape, complex_):
    """From the top right singular vector perturbed by 1e-3 the step ends
    within 1e-10 of ||X||_inf: by the power iteration, or by eigh where it
    reaches POWER_CAP (the complex 64 x 64 case, s_2 / s_1 = 0.96)."""
    rng = np.random.default_rng([shape[0], shape[1], int(complex_)])
    x = rng.standard_normal(shape)
    if complex_:
        x = x + 1j * rng.standard_normal(shape)
    _, s, vh = np.linalg.svd(x)
    v0 = np.conj(vh[0]) + 1e-3 * rng.standard_normal(shape[1])
    y, value = _norming(x, 1.0, math.inf, _previous(v0 / np.linalg.norm(v0), shape[0]))
    assert abs(value - s[0]) <= 1e-10 * s[0], (value, s[0])
    assert abs(schatten_norm(y, 1.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, math.inf])
@pytest.mark.parametrize("c", [1e-150, 1e150])
def test_bound_scales_with_the_symbol(c, p):
    """bound(c M) = c bound(M): the Gram routes scale out the largest entry
    before forming X^H X, which would otherwise overflow or underflow."""
    m = np.tril(np.ones((16, 16)))
    v = multiplier_norm_lower_bound(m, p, budget=2, seed=0)
    assert abs(multiplier_norm_lower_bound(c * m, p, budget=2, seed=0) - c * v) <= 1e-12 * c * v


NORMING_EXPONENTS = [  # (r, dual exponent rd), rd as the estimator passes it
    (1.0, math.inf),
    (4.0 / 3.0, 4.0),
    (1.5, 3.0),
    (2.0, 2.0),
    (3.0, 1.5),
    (4.0, 4.0 / 3.0),
    (math.inf, 1.0),
]


@pytest.mark.parametrize("r, rd", NORMING_EXPONENTS)
@pytest.mark.parametrize("shape", [(6, 6), (7, 5), (5, 7)], ids=["6x6", "7x5", "5x7"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_norming_contract(r, rd, shape, complex_):
    """_norming(X, r, rd) returns Y with ||Y||_r = 1 and Re<X, Y> equal to
    the returned ||X||_rd, on every route (Gram product, Gram eigenpair,
    SVD); the zero matrix has no argmax, also given a previous iterate."""
    rng = np.random.default_rng([len(shape), shape[1], int(complex_)])
    for _ in range(5):
        x = rng.standard_normal(shape)
        if complex_:
            x = x + 1j * rng.standard_normal(shape)
        y, value = _norming(x, r, rd)
        exact = schatten_norm(x, rd)
        assert abs(schatten_norm(y, r) - 1.0) <= 1e-12
        assert abs(np.vdot(y, x).real - exact) <= 1e-12 * exact
        assert abs(value - exact) <= 1e-12 * exact
    assert _norming(np.zeros(shape), r, rd)[0] is None
    assert _norming(np.zeros(shape), r, rd, np.ones(shape))[0] is None


def _degenerate_inputs(n=16):
    rng = np.random.default_rng(5)
    unit = np.zeros((n, n))
    unit[3, 11] = 1.0
    zero_column = rng.standard_normal((n, n))
    zero_column[:, 7] = 0.0
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return {
        "rank-one": np.outer(rng.standard_normal(n), rng.standard_normal(n)),
        "matrix-unit": unit,
        "zero-column": zero_column,
        "graded": q1 @ np.diag(np.logspace(0.0, -12.0, n)) @ q2,
    }


@pytest.mark.parametrize("r", [math.inf, 4.0, 6.0])
@pytest.mark.parametrize("name", ["rank-one", "matrix-unit", "zero-column", "graded"])
def test_norming_certified_on_degenerate_input(r, name):
    """On rank-deficient and ill-conditioned X the Gram eigenbasis routes
    keep ||Y||_r <= 1 and a value Re<X, Y> that never exceeds ||X||_rd and
    falls short of it by at most 1e-9.  At r = inf the graded spectrum
    (singular values 1 down to 1e-12) needs the SVD fallback: its Gram
    eigenbasis gives a Q far from orthonormal."""
    x = _degenerate_inputs()[name]
    rd = 1.0 / (1.0 - 1.0 / r)  # as the estimator passes it
    y, value = _norming(x, r, rd)
    exact = schatten_norm(x, rd)
    assert schatten_norm(y, r) <= 1.0 + 1e-12
    assert value <= exact * (1.0 + 1e-12)
    assert value >= exact * (1.0 - 1e-9), (value, exact)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_circulant_pinf_matches_fourier_algebra_norm(n):
    """For M(i, j) = m(i - j mod N) the S_inf multiplier norm is exactly
    sum |fft(m)| / N (Bozejko-Fendler); the real path must reach it."""
    rng = np.random.default_rng([77, n])
    for _ in range(3):
        m = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        m[int(rng.integers(n))] = 1.0
        exact = float(np.sum(np.abs(np.fft.fft(m))) / n)
        v = multiplier_norm_lower_bound(circulant(m), math.inf, budget=2, seed=n)
        assert v <= exact * (1.0 + 1e-9)
        assert v >= exact * (1.0 - 1e-3), f"N={n}: {v} vs exact {exact}"


def test_norming_large_even_dual_takes_the_svd():
    """At rd = 200 the Gram trace of an all-ones 64 x 64 block, 64^200,
    would overflow; that exponent is normed through the SVD."""
    x = np.ones((64, 64))
    y, value = _norming(x, 200.0 / 199.0, 200.0)
    assert abs(value - 64.0) <= 1e-12 * 64.0
    assert np.all(np.isfinite(y)) and abs(np.vdot(y, x).real - 64.0) <= 1e-12 * 64.0
