import math
import tracemalloc
import warnings

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
)
from schurlab.multiplier import circulant, discretize_symbol, nested_grids, norm_growth_experiment
from schurlab.symbols import ball, sphere_delta, triangular


class TestSchattenNorm:
    def test_jordan_block_against_characteristic_polynomial(self):
        # oracle: eigenvalues of A^T A = [[1,1],[1,2]] solve l^2 - 3l + 1 = 0,
        # so s0 s1 = 1 and s0^2 + s1^2 = 3, hence (s0 + s1)^2 = 5
        a = [[1.0, 1.0], [0.0, 1.0]]
        lam_plus = (3.0 + math.sqrt(5.0)) / 2.0
        assert abs(schatten_norm(a, math.inf) - math.sqrt(lam_plus)) < 1e-12
        assert abs(schatten_norm(a, 1) - math.sqrt(5.0)) < 1e-12

    def test_nonfinite_rejected(self):
        for p in (1, 2, 4, math.inf):
            with pytest.raises(NonFinite):
                schatten_norm([[1.0, np.nan], [0.0, 1.0]], p)
            with pytest.raises(NonFinite):
                schatten_norm([[np.inf, 0.0], [0.0, 1.0]], p)

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


def _top_singular_2x2(a):
    """Largest singular value of each matrix in a batch of 2x2 matrices, in
    closed form: s1^2 = (|A|_F^2 + sqrt(|A|_F^4 - 4 |det A|^2)) / 2."""
    fro = np.sum(a.real**2 + a.imag**2, axis=(1, 2))
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return np.sqrt((fro + np.sqrt(np.maximum(fro**2 - 4.0 * np.abs(det) ** 2, 0.0))) / 2.0)


def _brute_force_2x2_oracle():
    """Net of random 2x2 contractions plus alternating polish of the best.

    Independent reference for the p=inf multiplier norm of [[1,0],[1,1]].
    The net takes its top singular values in closed form, the polish by SVD.
    """
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(20240601)
    best, best_a = 0.0, None
    chunk = 100_000
    for _ in range(10):  # 1e6-point net, vectorized
        a = rng.standard_normal((chunk, 2, 2)) + 1j * rng.standard_normal((chunk, 2, 2))
        ratios = _top_singular_2x2(m[None, :, :] * a) / _top_singular_2x2(a)
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
            for p in (4.0, math.inf, 1.0):
                est = multiplier_norm_lower_bound(symbol, p, budget=2, seed=0, report=True)
                assert np.isrealobj(est.witness)

    def test_complex_symbol_runs_complex(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        est = multiplier_norm_lower_bound(m, 2.0, budget=2, seed=0, report=True)
        assert np.iscomplexobj(est.witness)
        assert abs(est.lower_bound - np.max(np.abs(m))) <= 1e-9 * np.max(np.abs(m))

    def test_complex_extra_start_keeps_its_dtype(self):
        # at p = 4, where the starts ascend; at p in {1, inf} an extra start
        # is only scored, and the scaling loop's witness ties with it
        m = np.tril(np.ones((8, 8)))
        best = multiplier_norm_lower_bound(m, 4.0, budget=1, seed=0, report=True)
        kept = multiplier_norm_lower_bound(
            m, 4.0, budget=1, seed=0, extra_starts=[1j * best.witness], ascent_steps=0,
            report=True,
        )
        assert np.iscomplexobj(kept.witness)
        assert abs(kept.lower_bound - best.lower_bound) <= 1e-12 * best.lower_bound


def _record_ascents(monkeypatch):
    """Wrap matcore._ascent; each start appends {"ratios": the ratio after
    0, 1, ... steps, as far as the estimator took it, "stalled": whether
    the ascent ended by itself (M o A = 0 or a stall)}."""
    runs = []
    ascent = matcore._ascent

    def recording(m, mc, a, p, na=None):
        run = {"ratios": [], "stalled": False}
        runs.append(run)
        for state in ascent(m, mc, a, p, na):
            run["ratios"].append(state[0])
            yield state
        run["stalled"] = True

    monkeypatch.setattr(matcore, "_ascent", recording)
    return runs


def _random_01(seed, n=12):
    return (np.random.default_rng(seed).random((n, n)) < 0.5).astype(float)


@pytest.mark.parametrize("seed", [0, 1])
def test_starts_stop_under_the_step_matched_leader(seed, monkeypatch):
    """Past the warm-up a start ascends only while its ratio is above
    lead[k], the best ratio of the earlier starts after as many steps (a
    start that ended keeps its last ratio); it stops at the first step
    where it is not, or on a stall, or at the cap."""
    runs = _record_ascents(monkeypatch)
    multiplier_norm_lower_bound(np.tril(np.ones((32, 32))), 4.0, budget=6, seed=seed)
    lead = []

    def leader(k):
        return lead[min(k, len(lead) - 1)] if lead else -math.inf

    for run in runs:
        r = run["ratios"]
        steps = len(r) - 1
        assert all(r[k] > leader(k) for k in range(matcore.WARMUP_STEPS, steps))
        assert run["stalled"] or steps == 50 or (
            steps >= matcore.WARMUP_STEPS and r[-1] <= leader(steps)
        ), (steps, r[-1], leader(steps))
        n = max(len(lead), len(r))
        lead = [max(leader(k), r[min(k, steps)]) for k in range(n)]
    steps = [len(run["ratios"]) - 1 for run in runs]
    # both ways out are taken: a start cut at the warm-up, one that goes past it
    assert matcore.WARMUP_STEPS in steps and max(steps) > matcore.WARMUP_STEPS, steps


@pytest.mark.parametrize("p", [4.0, 3.0])
def test_appended_starts_keep_the_steps_of_earlier_ones(p, monkeypatch):
    """A start is judged only against the starts before it, so a larger
    budget leaves every earlier start's step count as it was."""
    runs = _record_ascents(monkeypatch)
    seen = []
    for budget in range(1, 7):
        runs.clear()
        multiplier_norm_lower_bound(np.tril(np.ones((16, 16))), p, budget=budget, seed=2)
        seen.append([len(run["ratios"]) - 1 for run in runs])
    for short, long in zip(seen, seen[1:]):
        assert long[: len(short)] == short, (short, long)


@pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, 3.0], ids=["p4", "p4/3", "p3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bound_never_decreases_with_the_budget(seed, p):
    m = _random_01([seed, 27])
    vals = [multiplier_norm_lower_bound(m, p, budget=b, seed=seed) for b in range(1, 7)]
    assert all(big >= small for small, big in zip(vals, vals[1:])), vals


def _peak(f):
    """The peak of traced allocations (numpy reports its own) while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unbounded_step_cap_ends_on_stalls(monkeypatch):
    """ascent_steps is only compared with, never used as a size: at 10^12
    every start ends on a stall or under the leader, and the peak stays
    that of the default cap."""
    m = np.tril(np.ones((8, 8)))
    runs = _record_ascents(monkeypatch)
    multiplier_norm_lower_bound(m, 4.0, budget=2, seed=0)  # first-call allocations
    capped = _peak(lambda: multiplier_norm_lower_bound(m, 4.0, budget=2, seed=0))
    runs.clear()
    free = _peak(lambda: multiplier_norm_lower_bound(m, 4.0, budget=2, seed=0, ascent_steps=10**12))
    assert runs[0]["stalled"] and max(len(run["ratios"]) for run in runs) < 1000, runs
    assert all(run["stalled"] or len(run["ratios"]) - 1 >= matcore.WARMUP_STEPS for run in runs)
    assert free <= 1.5 * capped, (free, capped)


def test_starts_are_drawn_on_demand():
    """Trial k is drawn when the loop reaches it, so the working set does
    not grow with the budget (drawn up front, 400 starts of 32 x 32 took
    the peak from 0.10 to 3.4 MB)."""
    m = np.tril(np.ones((32, 32)))
    multiplier_norm_lower_bound(m, 4.0, budget=2, seed=0)  # first-call allocations
    few, many = (
        _peak(lambda: multiplier_norm_lower_bound(m, 4.0, budget=b, seed=0, ascent_steps=0))
        for b in (2, 200)
    )
    assert many <= 1.5 * few, (few, many)


# np.linalg.svd calls of the p = 3 estimate below when every start ascends
# to the step cap (no pruning), with the bound it reaches
UNPRUNED_P3_SVD_CALLS = 817
UNPRUNED_P3_BOUND = 1.0779312130494911
# the p = inf bound of the triangular symbol at N = 64 from the unpruned ascent
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
    """Triangular N = 64, p = 3, budget 4: pruning after the warm-up makes
    at most 75% of the unpruned SVD calls and keeps the bound."""
    calls = _count_calls(monkeypatch, "svd")
    v = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), 3.0, budget=4, seed=0)
    assert len(calls) <= 0.75 * UNPRUNED_P3_SVD_CALLS, len(calls)
    assert v >= UNPRUNED_P3_BOUND * (1.0 - 1e-12)


@pytest.mark.parametrize("p, most", [(4.0, 240), (math.inf, 130)])
def test_gram_norming_halves_the_svds(p, most, monkeypatch):
    """Triangular N = 64, budget 4: the Gram-product step (even dual
    exponent) leaves about one SVD per ascent step at p = 4 (an SVD in
    every step made 454 calls), and the scaling loop at p = inf takes SVDs
    only for its witness (the ascent made 250).  The bounds stay where the
    SVD steps put them."""
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
    with an SVD start norm and s^(1/3) step); at p = inf only the scaling
    loop's witness takes them (3: the polar factor and the ratio).  The
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
        assert len(svds) == 3 and v >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6), v


@pytest.mark.parametrize("p", [3.0])
def test_known_start_norms_take_no_svd(p, monkeypatch):
    """Outside GRAM_DUALS the matrix-unit start (norm 1) and the rank-one
    starts u v^T (norm |u||v|) reach _ascent with their exact S_p norm, so
    only the Gaussian starts take an SVD for it."""
    seen = []
    ascent = matcore._ascent

    def recording(m, mc, a, p, na=None):
        seen.append((a, na))
        return ascent(m, mc, a, p, na)

    monkeypatch.setattr(matcore, "_ascent", recording)
    multiplier_norm_lower_bound(np.tril(np.ones((16, 16))), p, budget=4, seed=0, ascent_steps=0)
    assert [na is None for _, na in seen] == [False] + [True, False] * 4
    for a, na in seen[::2]:
        assert abs(na - schatten_norm(a, p)) <= 1e-13 * na, (na, schatten_norm(a, p))


@pytest.mark.parametrize("p", [math.inf, 1.0])
def test_rank_one_steps_take_one_eigh_per_start(p, monkeypatch):
    """Triangular N = 64, budget 4: at p in {1, inf} the scaling loop takes
    the place of the starts and their rank-one norming steps.  It runs from
    one start (d = e = 1) and takes exactly one eigh per step, the Gram eigh
    of A^H A, and no other.  The S_1 and S_inf norms of a real symbol agree
    (duality), so both keep the p = inf bound."""
    eighs = _count_calls(monkeypatch, "eigh")
    est = multiplier_norm_lower_bound(np.tril(np.ones((64, 64))), p, budget=4, seed=0, report=True)
    assert est.iterations >= 5 and len(eighs) == est.iterations, (len(eighs), est)
    assert est.lower_bound >= UNPRUNED_TRIANGULAR_BOUND * (1.0 - 1e-6), est


@pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, math.inf])
@pytest.mark.parametrize("c", [1e-150, 1e150])
def test_bound_scales_with_the_symbol(c, p):
    """bound(c M) = c bound(M): the Gram routes and the scaling loop scale
    out the largest entry before forming X^H X, which would otherwise
    overflow or underflow."""
    m = np.tril(np.ones((16, 16)))
    v = multiplier_norm_lower_bound(m, p, budget=2, seed=0)
    assert abs(multiplier_norm_lower_bound(c * m, p, budget=2, seed=0) - c * v) <= 1e-12 * c * v


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0, math.inf])
def test_complex_symbol_with_a_subnormal_largest_entry(p):
    """numpy divides a complex array by multiplying with 1 / t, which
    overflows for a subnormal t; scaling out such a largest entry still
    gives a finite bound, within the 11 bits that 1e-320 carries of the
    bound of the normal-range symbol."""
    m = np.array([[1j, 1.0], [0.0, 1.0]])
    with np.errstate(under="ignore"):
        tiny = multiplier_norm_lower_bound(1e-320 * m, p, budget=2, seed=0)
    assert math.isfinite(tiny) and tiny > 0.0
    assert abs(tiny / 1e-320 - multiplier_norm_lower_bound(m, p, budget=2, seed=0)) <= 1e-3


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
    SVD, whose r = inf case gives the scaling loop's p = inf witness); the
    zero matrix has no argmax."""
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
    and the r = inf SVD route (the polar factor) keep ||Y||_r <= 1 and a
    value Re<X, Y> that never exceeds ||X||_rd and falls short of it by at
    most 1e-9."""
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


# ---------------------------------------------------------------------------
# The p in {1, inf} scaling loop: every estimate is a bracket
# [lower_bound, upper_bound] whose lower end is the ratio at its witness.
# ---------------------------------------------------------------------------


def _bracket(m, p=math.inf):
    """The Estimate of ``m`` at ``p``, checked against its own witness: the
    lower bound is the ratio there, recomputed by SVD, and it is at most
    the upper bound."""
    est = multiplier_norm_lower_bound(m, p, report=True)
    m = np.asarray(m)
    ratio = schatten_norm(m * est.witness, p) / schatten_norm(est.witness, p)
    assert abs(est.lower_bound - ratio) <= 1e-12 * ratio, (est.lower_bound, ratio)
    assert est.lower_bound <= est.upper_bound, est
    return est


def _symbol_matrix(spec, n):
    gx, gy = nested_grids(spec, [n])[n]
    return discretize_symbol(spec, gx, gy)


@pytest.mark.parametrize("p", [math.inf, 1.0])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_circulant_bracket_closes_at_the_first_step(n, p):
    """D = E = I is optimal for a circulant 0/1 symbol: the loop stops at
    its first step with a bracket around sum |fft(m)| / N of width 1e-12."""
    rng = np.random.default_rng([78, n])
    for _ in range(3):
        m = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        m[int(rng.integers(n))] = 1.0
        exact = float(np.sum(np.abs(np.fft.fft(m))) / n)
        est = _bracket(circulant(m).real, p)
        assert (est.iterations, est.stop) == (1, "gap"), est
        assert est.lower_bound <= exact * (1.0 + 1e-14) and exact <= est.upper_bound, (est, exact)
        assert est.upper_bound - est.lower_bound <= 1e-12 * exact, est


def test_2x2_triangular_bracket_contains_the_exact_value():
    est = _bracket([[1.0, 0.0], [1.0, 1.0]])
    exact = 2.0 / math.sqrt(3.0)
    assert est.lower_bound <= exact * (1.0 + 1e-15) and exact <= est.upper_bound, est
    assert est.stop == "gap" and est.upper_bound <= exact * (1.0 + 2.0 * matcore.GAP_TOL), est


@pytest.mark.parametrize("p", [math.inf, 1.0])
@pytest.mark.parametrize("name", ["all-ones", "block", "complex-rank-one"])
def test_rank_one_symbols_have_norm_one(name, p):
    """A rank-one symbol u v^H with |u_i|, |v_j| in {0, 1} multiplies by
    unitary diagonals: its norm is 1 at every p."""
    rng = np.random.default_rng(4)
    u, v = np.ones(6), np.ones(5)
    if name == "block":
        u[[0, 4]], v[[1, 2]] = 0.0, 0.0
    elif name == "complex-rank-one":
        u, v = np.exp(1j * rng.uniform(0, 6, 6)), np.exp(1j * rng.uniform(0, 6, 5))
    est = _bracket(np.outer(u, np.conj(v)), p)
    assert abs(est.lower_bound - 1.0) <= 1e-12 and 1.0 <= est.upper_bound <= 1.0 + 1e-12, est


def test_zero_rows_and_columns_are_dropped():
    """All-zero rows and columns change neither bound, and the witness is
    zero on them."""
    m = np.tril(np.ones((9, 9)))
    m[3], m[:, 5] = 0.0, 0.0
    est = _bracket(m)
    kept = np.delete(np.delete(m, 3, axis=0), 5, axis=1)
    ref = _bracket(kept)
    assert not est.witness[3].any() and not est.witness[:, 5].any()
    assert abs(est.lower_bound - ref.lower_bound) <= 1e-12 * ref.lower_bound
    assert abs(est.upper_bound - ref.upper_bound) <= 1e-12 * ref.upper_bound


def test_zero_symbol_has_norm_zero():
    est = _bracket(np.zeros((3, 4)) + 0j * np.ones((3, 4)))
    assert (est.lower_bound, est.upper_bound) == (0.0, 0.0)


@pytest.mark.parametrize("p", [1.0, 4.0, math.inf])
def test_zero_symbol_witness_is_the_first_matrix_unit(p):
    est = multiplier_norm_lower_bound(np.zeros((3, 4)), p, budget=2, report=True)
    unit = np.zeros((3, 4))
    unit[0, 0] = 1.0
    assert est.lower_bound == 0.0 and np.array_equal(est.witness, unit), est
    if p == 4.0:
        assert (est.upper_bound, est.iterations, est.stop) == (None, None, None), est
    else:
        assert (est.upper_bound, est.iterations, est.stop) == (0.0, 0, "gap"), est


def _padded(m, rows, cols):
    """``m`` with all-zero rows inserted before the indices ``rows`` and
    all-zero columns before ``cols``."""
    return np.insert(np.insert(m, rows, 0.0, axis=0), cols, 0.0, axis=1)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("spec", [triangular(), sphere_delta(2, 0.3)], ids=["triangular", "sphere"])
def test_zero_padding_keeps_the_bracket_bits(spec, p):
    """At p in {1, inf} the loop runs on the block of M's nonzero rows and
    columns: M padded with zero rows and columns has the bracket of its
    block to the bit, and its witness is the block's, zero-padded."""
    m = _symbol_matrix(spec, 24)
    pad = _padded(m, [0, 5, 5, 24], [3, 17])
    est, ref = _bracket(pad, p), _bracket(m, p)
    assert (est.lower_bound, est.upper_bound, est.iterations, est.stop) == (
        ref.lower_bound, ref.upper_bound, ref.iterations, ref.stop,
    )
    assert np.array_equal(est.witness, _padded(ref.witness, [0, 5, 5, 24], [3, 17]))


@pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, 3.0], ids=["p4", "p4/3", "p3"])
def test_ascent_witness_lives_on_the_support(p):
    """At 1 < p < inf the ascent runs on the support block too: the witness
    is zero on M's all-zero rows and columns, and the S_p ratio at it, by
    SVD of the full matrices, reproduces the bound.  A zero-padded extra
    start is restricted to the block, so it floors the bound."""
    m = _symbol_matrix(ball(2, 1.0), 32)
    rows, cols = m.any(axis=1), m.any(axis=0)
    assert not rows.all() and not cols.all()
    extra = np.random.default_rng(3).standard_normal(m.shape)
    est = multiplier_norm_lower_bound(m, p, budget=2, seed=1, extra_starts=[extra], report=True)
    assert not est.witness[~rows].any() and not est.witness[:, ~cols].any()
    ratio = schatten_norm(m * est.witness, p) / schatten_norm(est.witness, p)
    assert abs(est.lower_bound - ratio) <= 1e-12 * ratio, (est.lower_bound, ratio)
    assert est.lower_bound >= schatten_norm(m * extra, p) / schatten_norm(extra, p)


# eigh calls of the ball(2, 1) p = 4 sweep below when every step took its
# eigh at the full grid size (16, 32, 64)
BALL_P4_EIGH_CALLS = 351


def test_ball_sweep_takes_its_eigh_on_the_support(monkeypatch):
    """ball(2, 1) on the 64-point grids leaves 25 grid points of each factor
    with no partner: every eigh of the p = 4 sweep (the scaling loop's and
    the ascent's) is at most 39 x 39, the N = 64 support, and there are no
    more of them than when they were 64 x 64."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    norm_growth_experiment(ball(2, 1.0), 4.0, [16, 32, 64], seed=0)
    assert max(shapes) == (39, 39), max(shapes)
    assert len(shapes) <= BALL_P4_EIGH_CALLS, len(shapes)


def test_complex_symbol_bracket():
    """A complex symbol runs complex; its bracket closes to the gap and its
    upper bound exceeds the ratio at random test matrices and at the
    witness's transpose-conjugate ascent start."""
    rng = np.random.default_rng(13)
    m = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
    est = _bracket(m)
    assert np.iscomplexobj(est.witness) and est.stop == "gap"
    assert est.upper_bound <= est.lower_bound * (1.0 + 2.0 * matcore.GAP_TOL), est
    for _ in range(20):
        a = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
        assert schatten_norm(m * a, math.inf) <= est.upper_bound * schatten_norm(a, math.inf)


def test_curved_symbol_reaches_the_step_cap():
    """sphere_delta(2, 0.3) at N = 64 closes slowly: the loop stops at
    SCALING_CAP with a bracket of relative width below 1e-5, and the p = 1
    witness d e^T shows the floor holding the scalings."""
    m = _symbol_matrix(sphere_delta(2, 0.3), 64)
    for p in (math.inf, 1.0):
        est = _bracket(m, p)
        assert (est.iterations, est.stop) == (matcore.SCALING_CAP, "cap"), est
        assert est.upper_bound <= est.lower_bound * (1.0 + 1e-5), est
    d, e = est.witness.max(axis=1), est.witness.max(axis=0)
    assert d.min() >= matcore.SCALE_FLOOR * d.max() * (1.0 - 1e-12)
    assert e.min() >= matcore.SCALE_FLOOR * e.max() * (1.0 - 1e-12)


def test_floor_keeps_an_isolated_block():
    """In the direct sum [1] + T_32 the optimal scaling sends the 1 x 1
    block to zero.  The floor keeps its row and column above the rank
    tolerance of the Gram eigh: no division by zero, and no entry of M left
    whole in the certificate's residual (which would add 1 to the upper
    bound).  The norm of a direct sum is the larger of the two norms, so the
    upper bound lies in the certified bracket of T_32 alone."""
    tri = np.tril(np.ones((32, 32)))
    m = np.zeros((33, 33))
    m[0, 0], m[1:, 1:] = 1.0, tri
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _bracket(m)
    ref = _bracket(tri)
    assert est.stop == "gap", (est, ref)
    bracket = (ref.lower_bound * (1.0 - 1e-9), ref.lower_bound * (1.0 + matcore.GAP_TOL) * (1.0 + 1e-9))
    assert bracket[0] <= est.upper_bound <= bracket[1], (est, ref)
    assert est.lower_bound >= ref.lower_bound * (1.0 - 1e-9), (est, ref)


# the p = inf triangular bound at N = 128 (TRIANGULAR_PINF_REFERENCE of
# test_acceptance.py)
TRIANGULAR_N128_BOUND = 2.3207942077


@pytest.mark.parametrize("p", [math.inf, 1.0])
@pytest.mark.parametrize(
    "spec, bound", [(triangular(), TRIANGULAR_N128_BOUND), (ball(2, 1.0), 0.0)],
    ids=["triangular", "ball"],
)
def test_mixing_closes_the_bracket_in_fewer_steps(spec, bound, p):
    """At N = 128 the mixed loop closes the bracket to the gap in at most
    25 steps; the plain update alone took 55 (triangular) and 44 (ball)."""
    est = _bracket(_symbol_matrix(spec, 128), p)
    assert est.stop == "gap" and est.iterations <= 25, est
    assert est.lower_bound >= bound * (1.0 - 1e-6), est


@pytest.mark.parametrize("p", [math.inf, 1.0])
def test_safeguard_keeps_the_bracket_closing(p):
    """sphere_delta(2, 0) at N = 64: mixing without the safeguard stops on
    stall with a relative bracket of 2.9e-3; with it the loop closes to the
    gap."""
    est = _bracket(_symbol_matrix(sphere_delta(2, 0.0), 64), p)
    assert est.stop == "gap" and est.upper_bound <= est.lower_bound * (1.0 + matcore.GAP_TOL), est


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_subnormal_bracket_keeps_its_order(p):
    """The loop runs on the symbol scaled by a power of two, which is exact,
    and scales both bounds back, so the bracket of a subnormal symbol keeps
    lower <= upper; each end is within the 11 bits that 1e-320 carries of
    the bracket of the normal-range symbol."""
    m = np.array([[1j, 1.0], [0.0, 1.0]])
    ref = multiplier_norm_lower_bound(m, p, report=True)
    with np.errstate(under="ignore"):
        tiny = multiplier_norm_lower_bound(1e-320 * m, p, report=True)
    assert tiny.lower_bound <= tiny.upper_bound, tiny
    assert abs(tiny.lower_bound / 1e-320 - ref.lower_bound) <= 1e-3, (tiny, ref)
    assert abs(tiny.upper_bound / 1e-320 - ref.upper_bound) <= 1e-3, (tiny, ref)


@pytest.mark.parametrize(
    "spec, n", [(triangular(), 64), (sphere_delta(2, 0.0), 32), (ball(2, 1.0), 32)],
    ids=["triangular", "sphere", "ball"],
)
def test_p1_and_pinf_agree(spec, n):
    """The S_1 and S_inf multiplier norms are one number (duality): both
    exponents run the same loop, and their lower bounds agree within the
    gap of their shared upper bound."""
    m = _symbol_matrix(spec, n)
    one, inf = _bracket(m, 1.0), _bracket(m, math.inf)
    assert one.upper_bound == inf.upper_bound and one.iterations == inf.iterations
    assert abs(one.lower_bound - inf.lower_bound) <= matcore.GAP_TOL * inf.lower_bound, (one, inf)


def test_scaling_loop_ignores_seed_budget_and_steps():
    m = np.tril(np.ones((16, 16)))
    ref = multiplier_norm_lower_bound(m, math.inf, report=True)
    for kwargs in ({"seed": 5}, {"budget": 1}, {"ascent_steps": 0}):
        est = multiplier_norm_lower_bound(m, math.inf, report=True, **kwargs)
        assert est.lower_bound == ref.lower_bound and est.upper_bound == ref.upper_bound
        assert np.array_equal(est.witness, ref.witness)
