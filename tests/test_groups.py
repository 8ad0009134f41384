import dataclasses
import math

import numpy as np
import pytest

from schurlab import groups
from schurlab.errors import DegenerateBasis, GroupMismatch
from schurlab.groups import (
    AFFINE,
    CYCLIC,
    GROUPS,
    HEISENBERG,
    REAL,
    SL2R,
    SO3,
    LieAlgebraBasis,
    abelian_algebra,
    affine_element,
    boundary_subalgebra_verdict,
    bracket_coords,
    cotlar_pointwise_check,
    cyclic_element,
    expm,
    fourier_multiplier_norm_finite_cyclic,
    group_inv,
    group_op,
    herz_schur_matrix,
    identity,
    lie_algebra,
    named_boundary_field,
    random_element,
    real_element,
    sl2_element,
    so3_element,
    subalgebra_check,
)


def _act0(g) -> float:
    """g . 0 through the group table's line action (NaN at a chart pole)."""
    return float(GROUPS[g.group_id].act(g.coords[None], 0.0, 1e-9)[0])


class TestGroupArithmetic:
    def test_affine_composition(self):
        g = group_op(affine_element(2.0, 3.0), affine_element(0.5, -1.0))
        np.testing.assert_allclose(g.coords, [1.0, 1.0])
        assert _act0(affine_element(2.0, 3.0)) == 3.0

    def test_affine_inverse(self):
        g = affine_element(2.0, 3.0)
        e = group_op(g, group_inv(g))
        np.testing.assert_allclose(e.coords, [1.0, 0.0], atol=1e-14)

    def test_sl2_inverse_thousand_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = random_element(SL2R, rng)
            e = group_op(g, group_inv(g))
            assert np.max(np.abs(e.coords - np.eye(2))) <= 1e-12

    def test_real_acts_by_translation(self):
        assert _act0(real_element(1.7)) == 1.7

    def test_sl2_chart_pole(self):
        g = sl2_element([[0.0, -1.0], [1.0, 0.0]])
        assert math.isnan(_act0(g))

    def test_heisenberg_group_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = random_element(HEISENBERG, rng)
            h = random_element(HEISENBERG, rng)
            k = random_element(HEISENBERG, rng)
            lhs = group_op(group_op(g, h), k)
            rhs = group_op(g, group_op(h, k))
            np.testing.assert_allclose(lhs.coords, rhs.coords, atol=1e-10)
            e = group_op(g, group_inv(g))
            np.testing.assert_allclose(e.coords, np.zeros(3), atol=1e-10)

    def test_so3_constraint_enforced(self):
        with pytest.raises(GroupMismatch):
            so3_element(np.eye(3) * 1.01)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            group_op(real_element(1.0), affine_element(1.0, 0.0))

    def test_cyclic(self):
        g = cyclic_element(5, 8)
        h = cyclic_element(6, 8)
        assert group_op(g, h).coords[0] == 3
        assert group_op(g, group_inv(g)).coords[0] == 0

    def test_sl2_batch_arithmetic_matches_numpy(self):
        grp = GROUPS[SL2R]
        rng = np.random.default_rng(16)
        g, h = (grp.sample(10**4, rng, 0.4, None) for _ in range(2))
        prod, inv = grp.op(g, h), grp.inv(g)
        for got, ref in ((prod, np.matmul(g, h)), (inv, np.linalg.inv(g))):
            # relative to each matrix's largest entry: entries that cancel to
            # about 1e-17 carry no relative digits
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref).max(axis=(1, 2), keepdims=True))
        # each entry is one unit-stride array: the entrywise code reads them so
        for mats in (g, prod, inv, expm(SL2R, rng.uniform(-1.0, 1.0, size=(10**4, 3)))):
            for i, j in np.ndindex(2, 2):
                assert mats[:, i, j].strides == (mats.itemsize,)

    @pytest.mark.parametrize("group_id", sorted(GROUPS))
    def test_results_do_not_depend_on_the_input_layout(self, group_id):
        grp = GROUPS[group_id]
        rng = np.random.default_rng(17)
        g, h = (grp.sample(257, rng, 0.4, 7) for _ in range(2))

        def layouts(x):  # as given, row-major, and batch axis fastest
            fastest = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
            return [x, np.ascontiguousarray(x), fastest]

        def same(results):
            assert len({(r.shape, r.dtype, r.tobytes()) for r in results}) == 1

        same([grp.op(a, b) for a, b in zip(layouts(g), layouts(h))])
        same([grp.inv(a) for a in layouts(g)])
        if grp.act is not None:
            same([grp.act(a, 0.7, 1e-9) for a in layouts(g)])
        if grp.exp is not None:
            mats = expm(group_id, rng.uniform(-1.0, 1.0, size=(257, len(grp.basis))))
            same([grp.coords(a) for a in layouts(mats)])


def _expm_series(z):
    """exp(z) by a truncated Taylor series with scaling and squaring."""
    squarings = max(0, int(np.ceil(np.log2(np.abs(z).sum(axis=0).max() + 1e-300))) + 1)
    a = z / 2.0**squarings
    term = out = np.eye(len(z))
    for k in range(1, 25):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


LIE_GROUPS = [REAL, AFFINE, SL2R, SO3, HEISENBERG]


class TestExponentials:
    @pytest.mark.parametrize("group_id", LIE_GROUPS)
    @pytest.mark.parametrize("scale", [1e-7, 2.0])
    def test_closed_form_matches_series(self, group_id, scale):
        basis = GROUPS[group_id].basis
        rng = np.random.default_rng(9)
        x = rng.standard_normal((200, len(basis)))
        x *= scale / np.linalg.norm(x, axis=1, keepdims=True)
        got = expm(group_id, x)
        for xi, gi in zip(x, got):
            ref = _expm_series(np.tensordot(xi, basis, axes=1))
            assert np.max(np.abs(gi - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        eye = np.eye(basis.shape[-1])
        assert np.max(np.abs(got @ expm(group_id, -x) - eye)) <= 1e-12
        np.testing.assert_array_equal(expm(group_id, np.zeros(len(basis))), eye)

    @pytest.mark.parametrize("scale", [1e-7, 2.0])
    def test_so3_rotations_and_sl2_unimodular(self, scale):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200, 3))
        x *= scale / np.linalg.norm(x, axis=1, keepdims=True)
        r = expm(SO3, x)
        assert np.max(np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(r) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.linalg.det(expm(SL2R, x)) - 1.0)) <= 1e-12

    def test_no_exponential_for_cyclic(self):
        with pytest.raises(GroupMismatch):
            expm(CYCLIC, [1.0])


# Recorded from the scalar, batch and scipy-expm implementations this
# table replaced: seeded draws must not move.
GOLDEN_RANDOM = {
    REAL: [[0.5478467492858172], [-0.9208531449445188]],
    AFFINE: [[2.6386063274554536, -0.9208531449445188], [0.4036507147607301, -1.9338894578858836]],
    SL2R: [
        [[1.15111279607096, -0.18662484078470296], [-0.3721146785746484, 0.9290539087854247]],
        [[0.716511876156383, 0.2604347518831107], [0.34314110600200326, 1.5203737789333824]],
    ],
    SO3: [
        [
            [-0.025743557537600603, 0.7368259557487734, -0.6755921700110318],
            [-0.982117423994666, 0.10744052532448078, 0.15460239003353438],
            [0.1865010314485947, 0.66749085720548, 0.7208837082468322],
        ],
        [
            [0.13946566395649873, -0.9470628418190099, -0.2891734811888393],
            [-0.023750985208669126, -0.2951428035718926, 0.9551579011877244],
            [-0.9899420282414464, -0.12634357579798516, -0.06365596260985873],
        ],
    ],
    HEISENBERG: [
        [0.5478467492858172, -0.9208531449445188, -1.8361059042552212],
        [-1.9338894578858836, 1.2530809568010897, 1.6510223091108869],
    ],
    CYCLIC: [[5, 7], [4, 7]],
}

# the first batch of three Cotlar samples at default_rng(0)
GOLDEN_COTLAR_BATCH = {
    REAL: [[0.5478467492858172], [-0.9208531449445188], [-1.8361059042552212]],
    AFFINE: [
        [2.6386063274554536, -1.9338894578858836],
        [1.2617001766145137, 1.2530809568010897],
        [0.4036507147607301, 1.6510223091108869],
    ],
    SL2R: [
        [[1.098709762745289, -0.3854262299741532], [0.08501049502435122, 0.8803368807588898]],
        [[0.8535985990691116, 0.25396823817191255], [0.1860529024666071, 1.2268665025789527]],
        [[0.6978391976489307, 0.3383192672955739], [0.03575766376241317, 1.450330548948997]],
    ],
}

_R2 = 0.7071067811865476
GOLDEN_VERDICTS = [
    (SL2R, "sgn_c", True, [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], 0.0),
    (SL2R, "m0", False, [[-_R2, 0.49999999999999994, -0.5000000000000001],
                         [-_R2, -0.5000000000000001, 0.49999999999999994]], 0.29337332127291244),
    (SO3, "g11", False, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], 0.09638563035085645),
    (REAL, "t", True, np.zeros((0, 1)), 0.0),
    (AFFINE, "b", True, [[-1.0, 0.0]], 0.0),
    (HEISENBERG, "x", True, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0.0),
]


class TestGoldenValues:
    @pytest.mark.parametrize("group_id", sorted(GOLDEN_RANDOM))
    def test_random_element_draws(self, group_id):
        rng = np.random.default_rng(0)
        got = [random_element(group_id, rng, n=7).coords for _ in range(2)]
        np.testing.assert_allclose(got, GOLDEN_RANDOM[group_id], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("group_id", sorted(GOLDEN_COTLAR_BATCH))
    def test_cotlar_batch_draws(self, group_id):
        got = GROUPS[group_id].sample(3, np.random.default_rng(0), 0.4, None)
        np.testing.assert_allclose(got, GOLDEN_COTLAR_BATCH[group_id], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("group_id, name, passed, hyperplane, ad_defect", GOLDEN_VERDICTS)
    def test_named_field_verdicts(self, group_id, name, passed, hyperplane, ad_defect):
        row = GROUPS[group_id]
        g0 = row.make(np.array(row.g0))
        v = boundary_subalgebra_verdict(group_id, named_boundary_field(group_id, name), g0, seed=0)
        assert v.passed is passed
        expected = np.reshape(hyperplane, v.hyperplane.shape)
        np.testing.assert_allclose(v.hyperplane, expected, rtol=0, atol=1e-12)
        assert abs(v.ad_defect - ad_defect) <= 1e-12


class TestHerzSchur:
    def test_constant_symbol(self):
        grid = [real_element(t) for t in (0.0, 1.0, 2.5)]
        m = herz_schur_matrix(REAL, lambda g: 1.0, grid)
        np.testing.assert_array_equal(m.real, np.ones((3, 3)))

    def test_halfline_symbol_on_sorted_grid_is_strictly_lower(self):
        grid = [real_element(t) for t in np.sort(np.random.default_rng(2).uniform(-3, 3, 8))]
        m = herz_schur_matrix(REAL, lambda g: float(g.coords[0] > 0), grid)
        expected = np.tril(np.ones((8, 8)), k=-1)
        np.testing.assert_array_equal(m.real, expected)

    def test_sl2_m0_against_direct_evaluation(self):
        rng = np.random.default_rng(3)
        grid = [random_element(SL2R, rng) for _ in range(16)]
        m0 = lambda g: 0.5 * (
            1.0
            + np.sign(
                g.coords[0, 0] * g.coords[1, 0] + g.coords[0, 1] * g.coords[1, 1]
            )
        )
        m = herz_schur_matrix(SL2R, m0, grid)
        checked = 0
        for i in range(16):
            for j in range(16):
                prod = grid[i].coords @ np.linalg.inv(grid[j].coords)
                arg = prod[0, 0] * prod[1, 0] + prod[0, 1] * prod[1, 1]
                if abs(arg) < 1e-9:
                    continue  # sign discontinuity (the diagonal): ill-posed
                assert m[i, j] == pytest.approx(0.5 * (1.0 + np.sign(arg)), abs=1e-10)
                checked += 1
        assert checked == 16 * 15

    def test_right_translation_invariance(self):
        # the finite-level pullback invariance: right-translating the grid
        # leaves the Herz-Schur matrix unchanged; permutations conjugate it
        rng = np.random.default_rng(4)
        grid = [random_element(AFFINE, rng) for _ in range(6)]
        g0 = random_element(AFFINE, rng)
        sym = lambda g: float(g.coords[1] > 0)
        m1 = herz_schur_matrix(AFFINE, sym, grid)
        m2 = herz_schur_matrix(AFFINE, sym, [group_op(g, g0) for g in grid])
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        perm = rng.permutation(6)
        m3 = herz_schur_matrix(AFFINE, sym, [grid[k] for k in perm])
        np.testing.assert_allclose(m3, m1[np.ix_(perm, perm)], atol=1e-12)


def _cotlar_reference(group_id, samples, seed, band=1e-9):
    """The integer Cotlar loop: compacts the valid pairs of each chunk and
    compares lhs with t1 + t2 as integers."""
    grp = GROUPS[group_id]

    def act0(g):
        return grp.act(g, 0.0, 1e-9)

    rng = np.random.default_rng(seed)
    failures = 0
    done = 0
    while done < samples:
        k = min(65536, int(1.4 * (samples - done)) + 64)
        g = grp.sample(k, rng, groups._CHART_RADIUS, None)
        h = grp.sample(k, rng, groups._CHART_RADIUS, None)
        alpha = act0(g)
        beta = act0(h)
        gi = grp.inv(g)
        gih = grp.op(gi, h)
        hi = grp.inv(h)
        vals = np.stack([act0(gi), act0(gih), beta, act0(hi)])
        valid = (
            np.isfinite(alpha)
            & np.isfinite(beta)
            & np.all(np.isfinite(vals), axis=0)
            & (np.abs(alpha) > band)
            & (np.abs(beta) > band)
            & (np.abs(alpha - beta) > band)
            & np.all(np.abs(vals) > band, axis=0)
        )
        m_gi, m_gih, m_h, m_hi = (vals[:, valid] > 0.0).astype(int)
        take = min(int(valid.sum()), samples - done)
        m_gi, m_gih, m_h, m_hi = (v[:take] for v in (m_gi, m_gih, m_h, m_hi))
        failures += int(np.sum(m_gi * m_gih != m_h * m_gi + m_hi * m_gih))
        done += take
    return failures


class TestCotlar:
    def test_scalar_cases_by_hand(self):
        # (alpha, beta) = (-1, 2): 1 = 1 + 0; (1, 2): 0 = 0 + 0
        for alpha, beta, expected in [(-1.0, 2.0, (1, 1, 0)), (1.0, 2.0, (0, 0, 0))]:
            g, h = real_element(alpha), real_element(beta)
            gi = group_inv(g)
            m = lambda e: int(_act0(e) > 0)
            lhs = m(gi) * m(group_op(gi, h))
            rhs = m(h) * m(gi) + m(group_inv(h)) * m(group_op(gi, h))
            assert (lhs, m(h) * m(gi), m(group_inv(h)) * m(group_op(gi, h)))[0] == expected[0]
            assert lhs == rhs

    @pytest.mark.parametrize("group_id", [REAL, AFFINE, SL2R])
    def test_no_failures_at_scale(self, group_id):
        assert cotlar_pointwise_check(group_id, samples=100_000, seed=0) == 0

    @pytest.mark.parametrize("group_id", [REAL, AFFINE, SL2R])
    def test_perturbed_action_fails_as_the_reference_counts(self, group_id, monkeypatch):
        # shifting the line action by 0.3 breaks the identity on a share of
        # the pairs: the mask count must equal the integer loop's count,
        # also across the chunk boundary (65_537) and in a cut last chunk
        row = GROUPS[group_id]
        for seed in range(3):
            for samples in (1, 64, 65_537, 200_003):
                assert cotlar_pointwise_check(group_id, samples=samples, seed=seed) == 0
        monkeypatch.setitem(
            GROUPS, group_id,
            dataclasses.replace(row, act=lambda g, t, tol: row.act(g, t, tol) + 0.3),
        )
        counts = {}
        for seed in range(3):
            for samples in (1, 64, 65_537, 200_003):
                got = cotlar_pointwise_check(group_id, samples=samples, seed=seed)
                assert got == _cotlar_reference(group_id, samples, seed)
                counts[seed, samples] = got
        # one pair need not fail; 64 or more always do here
        assert all(n > 0 for (seed, samples), n in counts.items() if samples > 1)
        expected = {REAL: 17_745, AFFINE: 33_816, SL2R: 140_660}[group_id]
        assert counts[0, 200_003] == expected

    def test_affine_against_sign_case_oracle(self):
        # oracle: the six orderings of 0, alpha, beta decide every term
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = random_element(AFFINE, rng)
            h = random_element(AFFINE, rng)
            alpha = _act0(g)
            beta = _act0(h)
            if min(abs(alpha), abs(beta), abs(alpha - beta)) < 1e-9:
                continue
            gi = group_inv(g)
            m = lambda e: int(_act0(e) > 0)
            assert m(gi) == int(alpha < 0)
            assert m(group_op(gi, h)) == int(beta > alpha)
            assert m(h) == int(beta > 0)
            assert m(group_inv(h)) == int(beta < 0)
            lhs = int(alpha < 0 and alpha < beta)
            rhs = int(alpha < 0 < beta) + int(alpha < beta < 0)
            assert lhs == rhs

    def test_unknown_group(self):
        with pytest.raises(GroupMismatch):
            cotlar_pointwise_check(SO3, samples=10)


LIE_GROUPS = sorted(g for g, row in GROUPS.items() if row.basis is not None)


class TestLieAlgebras:
    def test_builtin_tables_satisfy_jacobi(self):
        for alg in [lie_algebra(g) for g in LIE_GROUPS] + [abelian_algebra(4)]:
            c = alg.structure_constants
            assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) <= 1e-10

    @pytest.mark.parametrize("group_id", LIE_GROUPS)
    def test_constants_reproduce_the_basis_brackets(self, group_id):
        b = GROUPS[group_id].basis
        c = lie_algebra(group_id).structure_constants
        for i, j in np.ndindex(len(b), len(b)):
            bracket = b[i] @ b[j] - b[j] @ b[i]
            np.testing.assert_array_equal(bracket, np.tensordot(c[i, j], b, axes=1))

    @pytest.mark.parametrize(
        "group_id,pairs",
        [
            (REAL, {}),
            (AFFINE, {(0, 1): [0, 1]}),  # [A, B] = B
            (SL2R, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}),
            (SO3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]}),
            (HEISENBERG, {(0, 1): [0, 0, 1]}),  # [X, Y] = Z central
        ],
    )
    def test_structure_constants_match_the_named_brackets(self, group_id, pairs):
        c = lie_algebra(group_id).structure_constants
        expected = np.zeros_like(c)
        for (i, j), vec in pairs.items():
            expected[i, j], expected[j, i] = vec, np.negative(vec)
        np.testing.assert_array_equal(c, expected)

    def test_groups_without_a_basis_have_no_algebra(self):
        with pytest.raises(GroupMismatch):
            lie_algebra(CYCLIC)

    def test_invalid_structure_constants_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # not antisymmetric
        with pytest.raises(ValueError):
            LieAlgebraBasis(2, c)

    def test_sl2_brackets(self):
        c = lie_algebra(SL2R).structure_constants
        np.testing.assert_allclose(bracket_coords(c, [1, 0, 0], [0, 1, 0]), [0, 2, 0])
        np.testing.assert_allclose(bracket_coords(c, [0, 1, 0], [0, 0, 1]), [1, 0, 0])

    def test_upper_triangular_sl2_subalgebra(self):
        assert subalgebra_check(lie_algebra(SL2R, [[1, 0, 0], [0, 1, 0]]))

    def test_so3_plane_is_not_subalgebra(self):
        assert not subalgebra_check(lie_algebra(SO3, [[1, 0, 0], [0, 1, 0]]))

    def test_heisenberg_center_containing_plane(self):
        assert subalgebra_check(lie_algebra(HEISENBERG, [[1, 0, 0], [0, 0, 1]]))
        assert subalgebra_check(lie_algebra(HEISENBERG, [[0, 1, 0], [0, 0, 1]]))
        assert subalgebra_check(lie_algebra(HEISENBERG, [[1, 2, 0], [0, 0, 1]]))

    def test_abelian_any_subspace(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            cand = rng.standard_normal((3, 5))
            assert subalgebra_check(abelian_algebra(5, cand))

    def test_degenerate_candidate_rejected(self):
        with pytest.raises(DegenerateBasis):
            subalgebra_check(lie_algebra(SL2R, [[1, 0, 0], [2, 0, 0]]))


class TestBoundaryVerdict:
    def test_sl2_sgn_c_passes(self):
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "sgn_c"), identity(SL2R)
        )
        assert v.passed and v.subalgebra_ok and v.ad_ok
        # the hyperplane is the span of H and E (upper-triangular)
        for row in v.hyperplane:
            assert abs(row[2]) <= 1e-6

    def test_so3_fails(self):
        g0 = so3_element([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        v = boundary_subalgebra_verdict(SO3, named_boundary_field(SO3, "g11"), g0)
        assert not v.passed and not v.subalgebra_ok

    def test_real_halfline_passes_with_trivial_subalgebra(self):
        v = boundary_subalgebra_verdict(
            REAL, named_boundary_field(REAL, "t"), real_element(0.0)
        )
        assert v.passed
        assert v.hyperplane.shape[0] == 0

    def test_heisenberg_first_stratum_passes(self):
        v = boundary_subalgebra_verdict(
            HEISENBERG, named_boundary_field(HEISENBERG, "x"), identity(HEISENBERG)
        )
        assert v.passed

    def test_affine_b_passes(self):
        v = boundary_subalgebra_verdict(
            AFFINE, named_boundary_field(AFFINE, "b"), identity(AFFINE)
        )
        assert v.passed

    def test_sl2_inner_product_symbol_fails_at_identity(self):
        # the boundary hyperplane of a*c + b*d at e is span{H, E - F},
        # which is not closed under the bracket (unlike sgn_c's Borel)
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "m0"), identity(SL2R)
        )
        assert not v.passed and not v.subalgebra_ok

    def test_lines_with_vanishing_derivative_are_skipped(self):
        # omega = x where y < 0.05, else the constant 1: the solve lines
        # through starts with y >= 0.05 have zero derivative
        def omega(g):
            x, y, _ = g.coords
            return float(x) if y < 0.05 else 1.0

        v = boundary_subalgebra_verdict(HEISENBERG, omega, identity(HEISENBERG))
        assert v.passed and not v.notes

    def test_expression_fields_match_named_ones(self):
        rng = np.random.default_rng(8)
        f_named = named_boundary_field(SL2R, "sgn_c")
        f_expr = named_boundary_field(SL2R, "c")
        for _ in range(20):
            g = random_element(SL2R, rng)
            assert f_named(g) == f_expr(g)
        v = boundary_subalgebra_verdict(SL2R, f_expr, identity(SL2R))
        assert v.passed

    def test_unknown_field_rejected(self):
        with pytest.raises(GroupMismatch):
            named_boundary_field(SL2R, "import os")

    def test_verdict_serializes(self):
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "sgn_c"), identity(SL2R)
        )
        blob = v.to_json()
        assert blob["verdict"] == "PASS"


class TestTransference:
    def test_constant_symbol_both_one(self):
        res = fourier_multiplier_norm_finite_cyclic(np.ones(8), 8, 4.0, budget=3, seed=0)
        assert abs(res.fourier_lb - 1.0) <= 1e-12
        assert abs(res.schur_lb - 1.0) <= 1e-9

    def test_delta_symbol_conditional_expectation(self):
        mv = np.zeros(8)
        mv[0] = 1.0
        res = fourier_multiplier_norm_finite_cyclic(mv, 8, 4.0, budget=4, seed=1)
        assert res.fourier_lb <= 1.0 + 1e-12
        assert res.fourier_lb >= 1.0 - 1e-12  # attained at the identity start
        assert res.contract_ok

    def test_half_symbol_contract(self):
        mv = np.zeros(32)
        mv[1:17] = 1.0
        res = fourier_multiplier_norm_finite_cyclic(mv, 32, 4.0, budget=4, seed=2)
        assert res.contract_ok
        assert res.fourier_lb >= 1.0  # single shifts attain sup |m|

    def test_contract_over_random_symbols(self):
        rng = np.random.default_rng(7)
        for n in (8, 16):
            for p in (4.0 / 3.0, 4.0, math.inf):
                mv = (rng.random(n) < 0.5).astype(float)
                res = fourier_multiplier_norm_finite_cyclic(mv, n, p, budget=3, seed=3)
                assert res.fourier_lb <= res.schur_lb * (1.0 + 1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("n", [1, 8, 64, 512])
    def test_endpoint_exponents_are_exact(self, n, p, monkeypatch):
        """At p = 1 and p = inf both bounds equal the Fourier-algebra norm
        sum |fft(m)| / N, and at p = 2 they equal sup |m|; each is attained
        by an exact circulant witness without the estimator, and both bounds
        are the same ratio computed from DFTs, to rounding."""

        def no_estimator(*args, **kwargs):
            raise AssertionError("the estimator ran")

        monkeypatch.setattr(groups, "multiplier_norm_lower_bound", no_estimator)
        half = np.zeros(n)
        half[1 : n // 2 + 1] = 1.0
        delta = np.zeros(n)
        delta[0] = 1.0
        coin = (np.random.default_rng([5, n]).random(n) < 0.5).astype(float)
        for mv in (half, delta, np.zeros(n), coin):
            if p == 2.0:
                exact = float(np.max(np.abs(mv)))
            else:
                exact = float(np.sum(np.abs(np.fft.fft(mv))) / n)
            res = fourier_multiplier_norm_finite_cyclic(mv, n, p, budget=1, seed=0)
            for v in (res.fourier_lb, res.schur_lb):
                if exact == 0.0:
                    assert v == 0.0
                else:
                    assert abs(v - exact) <= 1e-14 * exact, (mv, v, exact)
