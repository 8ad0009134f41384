import dataclasses
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schurlab import groups
from schurlab.errors import DegenerateBasis, GroupMismatch
from schurlab.geometry import _kernel_basis, _newton
from schurlab.groups import (
    AFFINE,
    CYCLIC,
    GROUPS,
    HEISENBERG,
    REAL,
    SL2R,
    SO3,
    _alg_coords,
    boundary_subalgebra_verdict,
    cotlar_pointwise_check,
    expm,
    fourier_multiplier_norm_finite_cyclic,
    herz_schur_matrix,
    named_boundary_field,
    subalgebra_check,
)


def _el(group_id, coords):
    """One element's coordinates, checked by the group row."""
    return GROUPS[group_id].make(np.array(coords, dtype=float))


def _g0(group_id):
    """The group row's default base point (the identity but for so3)."""
    return _el(group_id, GROUPS[group_id].g0)


def _draw(group_id, rng, n=None):
    """One seeded element, the group row's batch of one."""
    return GROUPS[group_id].sample(1, rng, n)[0]


def _op(group_id, g, h):
    return GROUPS[group_id].op(g[None], h[None])[0]


def _inv(group_id, g):
    return GROUPS[group_id].inv(g[None])[0]


def _act0(group_id, g) -> float:
    """g . 0 through the group table's line action (NaN at a chart pole)."""
    return float(GROUPS[group_id].act0(g[None])[0])


def _layouts(x):
    """A batch as given, row-major, and with the batch axis fastest."""
    fastest = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
    return [x, np.ascontiguousarray(x), fastest]


class TestGroupArithmetic:
    def test_affine_composition(self):
        g = _op(AFFINE, _el(AFFINE, [2.0, 3.0]), _el(AFFINE, [0.5, -1.0]))
        np.testing.assert_allclose(g, [1.0, 1.0])
        assert _act0(AFFINE, _el(AFFINE, [2.0, 3.0])) == 3.0

    def test_affine_inverse(self):
        g = _el(AFFINE, [2.0, 3.0])
        e = _op(AFFINE, g, _inv(AFFINE, g))
        np.testing.assert_allclose(e, [1.0, 0.0], atol=1e-14)

    def test_sl2_inverse_thousand_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = _draw(SL2R, rng)
            e = _op(SL2R, g, _inv(SL2R, g))
            assert np.max(np.abs(e - np.eye(2))) <= 1e-12

    def test_real_acts_by_translation(self):
        assert _act0(REAL, _el(REAL, [1.7])) == 1.7

    def test_sl2_chart_pole(self):
        g = _el(SL2R, [[0.0, -1.0], [1.0, 0.0]])
        assert math.isnan(_act0(SL2R, g))

    def test_heisenberg_group_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = _draw(HEISENBERG, rng)
            h = _draw(HEISENBERG, rng)
            k = _draw(HEISENBERG, rng)
            lhs = _op(HEISENBERG, _op(HEISENBERG, g, h), k)
            rhs = _op(HEISENBERG, g, _op(HEISENBERG, h, k))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
            e = _op(HEISENBERG, g, _inv(HEISENBERG, g))
            np.testing.assert_allclose(e, np.zeros(3), atol=1e-10)

    def test_so3_constraint_enforced(self):
        with pytest.raises(GroupMismatch):
            _el(SO3, np.eye(3) * 1.01)

    @pytest.mark.parametrize(
        "group_id, coords",
        [(AFFINE, [0.0, 1.0]), (AFFINE, [-2.0, 1.0]), (SL2R, [[2.0, 0.0], [0.0, 1.0]]), (CYCLIC, [1, 0])],
        ids=["affine-a-zero", "affine-a-negative", "sl2r-det-2", "cyclic-order-0"],
    )
    def test_make_rejects_coordinates_off_the_group(self, group_id, coords):
        with pytest.raises(GroupMismatch):
            _el(group_id, coords)

    def test_make_returns_the_checked_coordinates(self):
        for group_id, row in GROUPS.items():
            if row.g0 is not None:
                np.testing.assert_array_equal(_g0(group_id), row.g0)
        np.testing.assert_array_equal(_el(CYCLIC, [13, 8]), [5, 8])

    def test_cyclic(self):
        g = _el(CYCLIC, [5, 8])
        h = _el(CYCLIC, [6, 8])
        assert _op(CYCLIC, g, h)[0] == 3
        assert _op(CYCLIC, g, _inv(CYCLIC, g))[0] == 0

    def test_elements_of_another_shape_are_rejected(self):
        with pytest.raises(GroupMismatch):
            herz_schur_matrix(AFFINE, lambda c: 1.0, np.zeros((3, 1)))
        with pytest.raises(GroupMismatch):
            boundary_subalgebra_verdict(SL2R, named_boundary_field(SL2R, "c"), _g0(AFFINE))

    def test_cyclic_order_mismatch(self):
        with pytest.raises(GroupMismatch):
            _op(CYCLIC, _el(CYCLIC, [5, 8]), _el(CYCLIC, [5, 7]))

    def test_sl2_batch_arithmetic_matches_numpy(self):
        grp = GROUPS[SL2R]
        rng = np.random.default_rng(16)
        g, h = (grp.sample(10**4, rng, None) for _ in range(2))
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
        g, h = (grp.sample(257, rng, 7) for _ in range(2))

        def same(results):
            assert len({(r.shape, r.dtype, r.tobytes()) for r in results}) == 1

        same([grp.op(a, b) for a, b in zip(_layouts(g), _layouts(h))])
        same([grp.inv(a) for a in _layouts(g)])
        if grp.act0 is not None:
            same([grp.act0(a) for a in _layouts(g)])
        if grp.exp is not None:
            mats = expm(group_id, rng.uniform(-1.0, 1.0, size=(257, len(grp.basis))))
            same([grp.coords(a) for a in _layouts(mats)])


# ---------------------------------------------------------------------------
# The table kernels against the formulas they replaced, entry for entry
# ---------------------------------------------------------------------------


def _matrix_formula(rows) -> np.ndarray:
    n = len(rows)
    batch = np.broadcast_shapes(*(np.shape(e) for row in rows for e in row))
    out = np.empty((n, n) + batch).transpose(tuple(range(2, len(batch) + 2)) + (0, 1))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e
    return out


def _sl2_exp_formula(x):
    xh, xe, xf = x[..., 0], x[..., 1], x[..., 2]
    disc = xh * xh + xe * xf
    s = np.sqrt(np.abs(disc))
    cosv = np.where(disc >= 0, np.cosh(s), np.cos(s))
    with np.errstate(invalid="ignore", divide="ignore"):
        sincv = np.where(s > 1e-8, np.where(disc >= 0, np.sinh(s), np.sin(s)) / s, 1.0)
    return _matrix_formula([[cosv + sincv * xh, sincv * xe], [sincv * xf, cosv - sincv * xh]])


def _projective_act_formula(g, t, pole_tol):
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    den = c * t + d
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (a * t + b) / den
    return np.where(np.abs(den) < pole_tol * (1.0 + np.abs(c) + np.abs(d)), np.nan, val)


def _sl2_inv_formula(g):
    return _matrix_formula([[g[..., 1, 1], -g[..., 0, 1]], [-g[..., 1, 0], g[..., 0, 0]]])


def _sl2_op_formula(g, h):
    return g[..., :, :1] * h[..., :1, :] + g[..., :, 1:] * h[..., 1:, :]


def _affine_sample_formula(k, rng, radius, n):
    return np.stack([rng.uniform(0.25, 4.0, size=k), rng.uniform(-2.0, 2.0, size=k)], axis=-1)


def _affine_op_formula(g, h):
    return np.stack([g[..., 0] * h[..., 0], g[..., 0] * h[..., 1] + g[..., 1]], axis=-1)


def _affine_inv_formula(g):
    return np.stack([1.0 / g[..., 0], -g[..., 1] / g[..., 0]], axis=-1)


def _assert_same_entries(got, ref):
    """Equal shapes and equal values, NaN where the reference has NaN, and
    equal bits: the sign of every zero too."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _sl2_algebra_batch():
    """Seeded sl2r algebra coordinates with disc < 0 and disc >= 0 rows,
    rows with s <= 1e-8, exact zeros and one entry that is -0.0."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, size=(509, 3))
    special = [
        [0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [1e-10, 0.0, 0.0],
        [0.0, 3e-9, -2e-9],
        [0.0, 0.7, 0.0],  # disc exactly 0
        [0.0, 0.5, -0.5],  # disc < 0
        [0.3, 0.0, 0.0],  # disc > 0
        [0.2, 0.6, -0.1],
    ]
    return np.concatenate((x, special))


def _sl2_group_batch():
    """Group elements from the batch above, plus a chart pole (c t + d = 0
    at t = 0) and rows with exact zeros."""
    g = _sl2_exp_formula(_sl2_algebra_batch())
    extra = np.array([[[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[-1.0, -0.0], [0.0, -1.0]]])
    return np.concatenate((g, extra))


class TestTableKernels:
    def test_sl2_exp_matches_the_formula(self):
        x = _sl2_algebra_batch()
        assert (x[:, 0] ** 2 + x[:, 1] * x[:, 2] < 0).any() and (x[:, 0] ** 2 + x[:, 1] * x[:, 2] >= 0).any()
        for batch in (x, np.ascontiguousarray(x.T).T, x[:-1].reshape(4, 129, 3), x[5], x[:0]):
            _assert_same_entries(groups._sl2_exp(batch), _sl2_exp_formula(batch))
        # more entries than one slice of the exponential
        big = np.random.default_rng(24).uniform(-0.4, 0.4, size=(3, 2 * groups._SLICE + 3)).T
        _assert_same_entries(groups._sl2_exp(big), _sl2_exp_formula(big))

    def test_sl2_inv_op_and_act_match_the_formulas(self):
        g = _sl2_group_batch()
        h = g[::-1]
        _assert_same_entries(groups._sl2_inv(g), _sl2_inv_formula(g))
        _assert_same_entries(groups._sl2_op(g, h), _sl2_op_formula(g, h))
        _assert_same_entries(groups._sl2_op(g[:1], h), _sl2_op_formula(g[:1], h))
        _assert_same_entries(groups._sl2_op(g[:7, None], h[None, :9]), _sl2_op_formula(g[:7, None], h[None, :9]))
        _assert_same_entries(groups._sl2_op(g[0], h[1]), _sl2_op_formula(g[0], h[1]))
        _assert_same_entries(groups._sl2_inv(g[0]), _sl2_inv_formula(g[0]))
        act0 = GROUPS[SL2R].act0
        for batch in (g, g[0], g[-3]):  # the batch, and one unbatched element, the pole too
            got, ref = act0(batch), _projective_act_formula(batch, 0.0, 1e-9)
            assert got.shape == ref.shape
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            # b / d against (a 0 + b) / (c 0 + d): a 0 + b is +0.0 where
            # b = -0.0, so a zero's sign may differ.  A zero action value
            # is never a valid Cotlar pair, and every other value has its bits
            assert np.array_equal(got, ref, equal_nan=True)
            nonzero = ref != 0.0
            assert np.array_equal(np.signbit(got[nonzero]), np.signbit(ref[nonzero]))
        assert np.isnan(act0(g)[-3]) and np.isnan(act0(g)).sum() == 1
        one = np.array([[1.0, -0.0], [0.0, 1.0]])  # b = -0.0: act0 reads -0.0, the formula +0.0
        assert np.signbit(act0(one)) and not np.signbit(_projective_act_formula(one, 0.0, 1e-9))

    def test_sl2_op_and_inv_match_the_formulas_on_every_layout(self):
        # the layouts of test_results_do_not_depend_on_the_input_layout.  Each
        # entry of an inverse is one unit-stride array, the batch axis fastest;
        # a product keeps the layout of its inputs
        rng = np.random.default_rng(17)
        g, h = (GROUPS[SL2R].sample(257, rng, 7) for _ in range(2))
        for a, b in zip(_layouts(g), _layouts(h)):
            prod, inv = groups._sl2_op(a, b), groups._sl2_inv(a)
            _assert_same_entries(prod, _sl2_op_formula(a, b))
            _assert_same_entries(inv, _sl2_inv_formula(a))
            assert prod.strides == a.strides
            for i, j in np.ndindex(2, 2):
                assert inv[:, i, j].strides == (inv.itemsize,)

    def test_affine_row_matches_the_formulas(self):
        row = GROUPS[AFFINE]
        for seed in range(3):
            got = row.sample(257, np.random.default_rng(seed), None)
            _assert_same_entries(got, _affine_sample_formula(257, np.random.default_rng(seed), 0.4, None))
        g = np.concatenate((got, [[1.0, 0.0], [2.0, -0.0], [0.5, 1.0]]))
        h = g[::-1]
        _assert_same_entries(row.op(g, h), _affine_op_formula(g, h))
        _assert_same_entries(row.op(g[:5, None], h[None, :6]), _affine_op_formula(g[:5, None], h[None, :6]))
        _assert_same_entries(row.inv(g), _affine_inv_formula(g))


LINE_GROUPS = [REAL, AFFINE, SL2R]


def _line_sample_formula(group_id, k, rng):
    """The samplers of the line-action rows as uniform calls, as they drew
    before the coordinate draw was split from the element map."""
    if group_id == REAL:
        return rng.uniform(-2.0, 2.0, size=(k, 1))
    if group_id == AFFINE:
        return _affine_sample_formula(k, rng, 0.4, None)
    return expm(SL2R, rng.uniform(-0.4, 0.4, size=(3, k)).T)


class TestSplitSampler:
    @pytest.mark.parametrize("group_id", LINE_GROUPS)
    def test_buffered_slices_build_the_sampled_elements(self, group_id):
        # the Cotlar check's path: g then h drawn into two reused buffers,
        # chunk after chunk, and built slice by slice
        box = GROUPS[group_id].sample
        for k in (1, 3, 8_191, 8_192, 65_536, 65_537):
            _assert_same_entries(box(k, np.random.default_rng(k), None),
                                 _line_sample_formula(group_id, k, np.random.default_rng(k)))
            rng, ref = np.random.default_rng(k), np.random.default_rng(k)
            bufs = np.full((2, len(box.lims) * 65_537 + 5), np.nan)
            for _ in range(2):
                for buf in bufs:
                    x = box.draw(k, rng, buf)
                    assert np.shares_memory(x, buf)
                    got = [box.build(x[:, lo : lo + groups._SLICE]) for lo in range(0, k, groups._SLICE)]
                    _assert_same_entries(np.concatenate(got), _line_sample_formula(group_id, k, ref))

    @pytest.mark.parametrize("group_id", LINE_GROUPS)
    def test_draw_has_the_bits_of_uniform(self, group_id):
        # random(out=) and the in-place map to [lo, hi) against numpy's uniform
        box = GROUPS[group_id].sample
        for k in (1, 70_000):
            rng, ref = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(2):
                got = box.draw(k, rng, np.empty(len(box.lims) * k + 3))
                _assert_same_entries(got, np.stack([ref.uniform(lo, hi, size=k) for lo, hi in box.lims]))
                _assert_same_entries(box.draw(k, rng), np.stack([ref.uniform(lo, hi, size=k) for lo, hi in box.lims]))


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
        got = [_draw(group_id, rng, n=7) for _ in range(2)]
        np.testing.assert_allclose(got, GOLDEN_RANDOM[group_id], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("group_id", sorted(GOLDEN_COTLAR_BATCH))
    def test_cotlar_batch_draws(self, group_id):
        got = GROUPS[group_id].sample(3, np.random.default_rng(0), None)
        np.testing.assert_allclose(got, GOLDEN_COTLAR_BATCH[group_id], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("group_id, name, passed, hyperplane, ad_defect", GOLDEN_VERDICTS)
    def test_named_field_verdicts(self, group_id, name, passed, hyperplane, ad_defect):
        v = boundary_subalgebra_verdict(group_id, named_boundary_field(group_id, name), _g0(group_id), seed=0)
        assert v.passed is passed
        expected = np.reshape(hyperplane, v.hyperplane.shape)
        np.testing.assert_allclose(v.hyperplane, expected, rtol=0, atol=1e-12)
        assert abs(v.ad_defect - ad_defect) <= 1e-12


def _sequential_verdict(group_id, omega, g0, seed, tol=1e-9, ad_samples=32, radius=0.1):
    """``boundary_subalgebra_verdict`` point by point: the field at one
    element per call, one chart-gradient direction at a time, one
    one-row ``_newton`` solve per Ad-sample line in draw order, and one
    least-squares solve per Ad matrix.  Returns (passed, subalgebra_ok,
    ad_ok, hyperplane, boundary_residual, ad_defect, notes)."""
    grp = GROUPS[group_id]
    d = len(grp.basis)

    def at(c):
        return float(omega(c[None])[0])

    def f_alg(z):
        return at(grp.op(g0[None], grp.coords(expm(group_id, z[None])))[0])

    w = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1e-6
        w[i] = (f_alg(e) - f_alg(-e)) / 2e-6
    w_hat = w / float(np.linalg.norm(w))
    hyper = _kernel_basis(w_hat)
    sub_ok = subalgebra_check(grp.basis, hyper, tol)
    ad_defect, ad_ok, notes = 0.0, True, []
    if hyper.shape[0]:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(hyper.T)
        proj = q @ q.T
        a = grp.basis.reshape(d, -1).T
        found = 0
        for _ in range(20 * ad_samples):
            if found == ad_samples:
                break
            v = rng.uniform(-radius, radius, size=d)
            v = v - np.dot(v, w_hat) * w_hat

            def fline(t, v=v):
                return f_alg(v + t[0] * w_hat)

            def dline(t):
                return np.array([(fline(t + 1e-7) - fline(t - 1e-7)) / 2e-7])

            z, status = _newton(
                lambda zs, _: np.array([fline(zs[0])]), lambda zs, _: dline(zs[0])[None], np.zeros((1, 1)), 1e-12, 60
            )
            if status[0]:
                continue
            t = z[0, 0]
            x = expm(group_id, (v + t * w_hat)[None])[0]
            for row in hyper:
                ad = x @ np.tensordot(row, grp.basis, axes=1) @ np.linalg.inv(x)
                coords = np.linalg.lstsq(a, ad.ravel(), rcond=None)[0]
                nrm = float(np.linalg.norm(coords))
                if nrm >= 1e-14:
                    ad_defect = max(ad_defect, float(np.linalg.norm(coords - proj @ coords)) / nrm)
            found += 1
        if found:
            ad_ok = ad_defect <= 100.0 * max(tol, 1e-9)
        else:
            notes.append("no boundary points found near the identity")
            ad_ok = False
    return bool(sub_ok and ad_ok), bool(sub_ok), ad_ok, hyper, abs(at(g0)), ad_defect, notes


_VERDICT_FIELDS = [(g, name) for g, name, *_ in GOLDEN_VERDICTS] + [(HEISENBERG, "x-1.25*y")]


class TestBatchedVerdict:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("group_id, name", _VERDICT_FIELDS, ids=[f"{g}-{n}" for g, n in _VERDICT_FIELDS])
    def test_equals_the_sequential_verdict(self, group_id, name, seed):
        omega = named_boundary_field(group_id, name)
        v = boundary_subalgebra_verdict(group_id, omega, _g0(group_id), seed=seed)
        passed, sub_ok, ad_ok, hyper, residual, ad_defect, notes = _sequential_verdict(
            group_id, omega, _g0(group_id), seed
        )
        assert (v.passed, v.subalgebra_ok, v.ad_ok, v.notes) == (passed, sub_ok, ad_ok, notes)
        np.testing.assert_array_equal(v.hyperplane, hyper)
        assert v.boundary_residual == residual
        assert v.ad_defect == ad_defect

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_skipped_lines_match_the_sequential_verdict(self, seed):
        # m0 where the entry b is below 0.02, else the constant 1: the lines
        # through starts with b >= 0.02 have zero derivative and are
        # skipped, so later batches supply the samples, and which samples
        # are used moves ad_defect
        m0 = GROUPS[SL2R].fields["m0"]

        def omega(c):
            return np.where(c[..., 0, 1] < 0.02, m0(c), 1.0)

        v = boundary_subalgebra_verdict(SL2R, omega, _g0(SL2R), seed=seed)
        ref = _sequential_verdict(SL2R, omega, _g0(SL2R), seed)
        assert (v.passed, v.subalgebra_ok, v.ad_ok, v.ad_defect, v.notes) == (*ref[:3], ref[5], ref[6])

    @pytest.mark.parametrize("expr", ["1", "2+0*a", "pi"])
    def test_constant_expression_field_is_one_value_per_row(self, expr):
        field = named_boundary_field(AFFINE, expr)
        c = GROUPS[AFFINE].sample(5, np.random.default_rng(0), None)
        got = field(c)
        assert got.shape == (5,)
        np.testing.assert_array_equal(got, [float(field(row[None])[0]) for row in c])

    @pytest.mark.parametrize("group_id", sorted(g for g, row in GROUPS.items() if row.fields))
    def test_fields_map_a_batch_row_by_row(self, group_id):
        c = GROUPS[group_id].sample(7, np.random.default_rng(2), None)
        for name, field in GROUPS[group_id].fields.items():
            got = field(c)
            assert got.shape == (7,)
            np.testing.assert_array_equal(got, [field(row[None])[0] for row in c])


class TestHerzSchur:
    def test_constant_symbol(self):
        grid = np.array([[0.0], [1.0], [2.5]])
        m = herz_schur_matrix(REAL, lambda c: 1.0, grid)
        np.testing.assert_array_equal(m.real, np.ones((3, 3)))

    def test_halfline_symbol_on_sorted_grid_is_strictly_lower(self):
        grid = np.sort(np.random.default_rng(2).uniform(-3, 3, 8))[:, None]
        m = herz_schur_matrix(REAL, lambda c: c[..., 0] > 0, grid)
        expected = np.tril(np.ones((8, 8)), k=-1)
        np.testing.assert_array_equal(m.real, expected)

    def test_sl2_m0_against_direct_evaluation(self):
        rng = np.random.default_rng(3)
        grid = np.array([_draw(SL2R, rng) for _ in range(16)])
        m0 = lambda c: 0.5 * (1.0 + np.sign(c[..., 0, 0] * c[..., 1, 0] + c[..., 0, 1] * c[..., 1, 1]))
        m = herz_schur_matrix(SL2R, m0, grid)
        checked = 0
        for i in range(16):
            for j in range(16):
                prod = grid[i] @ np.linalg.inv(grid[j])
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
        grid = np.array([_draw(AFFINE, rng) for _ in range(6)])
        g0 = _draw(AFFINE, rng)
        sym = lambda c: c[..., 1] > 0
        m1 = herz_schur_matrix(AFFINE, sym, grid)
        m2 = herz_schur_matrix(AFFINE, sym, np.array([_op(AFFINE, g, g0) for g in grid]))
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        perm = rng.permutation(6)
        m3 = herz_schur_matrix(AFFINE, sym, grid[perm])
        np.testing.assert_allclose(m3, m1[np.ix_(perm, perm)], atol=1e-12)

    def test_one_call_matches_the_double_loop_on_256_affine_elements(self):
        grid = GROUPS[AFFINE].sample(256, np.random.default_rng(11), None)
        sym = lambda c: np.exp(1j * c[..., 1]) * (c[..., 0] > 1.0)
        m = herz_schur_matrix(AFFINE, sym, grid)
        ref = np.zeros((256, 256), dtype=complex)
        for i in range(256):
            for j in range(256):
                ref[i, j] = sym(_op(AFFINE, grid[i], _inv(AFFINE, grid[j])))
        np.testing.assert_array_equal(m, ref)


def _cotlar_reference(group_id, samples, seed, band=1e-9):
    """The integer Cotlar loop: compacts the valid pairs of each chunk and
    compares lhs with t1 + t2 as integers."""
    grp = GROUPS[group_id]

    act0 = grp.act0
    rng = np.random.default_rng(seed)
    failures = 0
    done = 0
    while done < samples:
        k = min(65536, int(1.4 * (samples - done)) + 64)
        g = grp.sample(k, rng, None)
        h = grp.sample(k, rng, None)
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
            g, h = _el(REAL, [alpha]), _el(REAL, [beta])
            gi = _inv(REAL, g)
            m = lambda e: int(_act0(REAL, e) > 0)
            gih = _op(REAL, gi, h)
            lhs = m(gi) * m(gih)
            rhs = m(h) * m(gi) + m(_inv(REAL, h)) * m(gih)
            assert (lhs, m(h) * m(gi), m(_inv(REAL, h)) * m(gih))[0] == expected[0]
            assert lhs == rhs

    @pytest.mark.parametrize("group_id", [REAL, AFFINE, SL2R])
    def test_no_failures_at_scale(self, group_id):
        assert cotlar_pointwise_check(group_id, samples=100_000, seed=0) == 0

    @pytest.mark.parametrize("group_id", [REAL, AFFINE, SL2R])
    def test_perturbed_action_fails_as_the_reference_counts(self, group_id, monkeypatch):
        # shifting the line action by 0.3 breaks the identity on a share of
        # the pairs: the mask count must equal the integer loop's count,
        # also at and across a slice boundary (8_192, 8_193), across the
        # chunk boundary (65_537) and in a cut last chunk
        row = GROUPS[group_id]
        for seed in range(3):
            for samples in (1, 64, 8_192, 8_193, 65_537, 200_003):
                assert cotlar_pointwise_check(group_id, samples=samples, seed=seed) == 0
        monkeypatch.setitem(
            GROUPS, group_id,
            dataclasses.replace(row, act0=lambda g: row.act0(g) + 0.3),
        )
        counts = {}
        for seed in range(3):
            for samples in (1, 64, 8_192, 8_193, 65_537, 200_003):
                got = cotlar_pointwise_check(group_id, samples=samples, seed=seed)
                assert got == _cotlar_reference(group_id, samples, seed)
                counts[seed, samples] = got
        # one pair need not fail; 64 or more always do here
        assert all(n > 0 for (seed, samples), n in counts.items() if samples > 1)
        expected = {REAL: 17_745, AFFINE: 33_816, SL2R: 140_660}[group_id]
        assert counts[0, 200_003] == expected

    def test_working_set_does_not_grow_with_samples(self):
        # two draw buffers sized by the first chunk, and elements that live
        # for one slice: the sl2r peak of numpy allocations, which numpy
        # reports to tracemalloc, is that of one chunk however many follow
        def peak(samples):
            tracemalloc.start()
            try:
                cotlar_pointwise_check(SL2R, samples=samples, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cotlar_pointwise_check(SL2R, samples=1)  # first-call allocations
        mib = 2**20
        one_chunk, many = peak(65_537), peak(10**6)
        assert many <= 1.1 * one_chunk and many <= 6 * mib
        # one part chunk, within 10% of the 1.72 MiB that held whole chunks
        # of elements
        assert peak(8_192) <= 1.1 * 1.72 * mib

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults")
    def test_first_check_in_a_process_keeps_its_heap(self):
        # a fresh process, as a cotlar CLI run is: the slices' temporaries
        # must stay on the heap from slice to slice, not be handed back and
        # faulted in again (about 24,800 faults without that, 10,500 when
        # whole chunks were drawn, about 1,300 with it)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import resource; from schurlab.groups import cotlar_pointwise_check; "
            "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "cotlar_pointwise_check('sl2r', 10**6, 0); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 5000

    def test_affine_against_sign_case_oracle(self):
        # oracle: the six orderings of 0, alpha, beta decide every term
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = _draw(AFFINE, rng)
            h = _draw(AFFINE, rng)
            alpha = _act0(AFFINE, g)
            beta = _act0(AFFINE, h)
            if min(abs(alpha), abs(beta), abs(alpha - beta)) < 1e-9:
                continue
            gi = _inv(AFFINE, g)
            m = lambda e: int(_act0(AFFINE, e) > 0)
            assert m(gi) == int(alpha < 0)
            assert m(_op(AFFINE, gi, h)) == int(beta > alpha)
            assert m(h) == int(beta > 0)
            assert m(_inv(AFFINE, h)) == int(beta < 0)
            lhs = int(alpha < 0 and alpha < beta)
            rhs = int(alpha < 0 < beta) + int(alpha < beta < 0)
            assert lhs == rhs

    def test_unknown_group(self):
        with pytest.raises(GroupMismatch):
            cotlar_pointwise_check(SO3, samples=10)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_is_not_a_pass(self, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            cotlar_pointwise_check(REAL, samples=samples)

    def test_a_band_that_rejects_every_pair_raises(self):
        # |alpha| <= 2 on the real sampling box, so band 10 leaves no valid
        # pair: the check raises after 65536 drawn pairs instead of drawing forever
        with pytest.raises(ValueError, match="none of the first"):
            cotlar_pointwise_check(REAL, 10, band=10.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_low_yield_band_still_counts(self, seed):
        # at band 1.9 a pair is valid when alpha and beta lie beyond 1.9 on
        # opposite sides: 1 pair in 800, so the first 78-pair chunk mostly
        # holds none, and the check must keep drawing
        assert cotlar_pointwise_check(REAL, 10, seed=seed, band=1.9) == 0
        assert _cotlar_reference(REAL, 10, seed, band=1.9) == 0

    @pytest.mark.parametrize("group_id", LINE_GROUPS)
    def test_the_check_does_not_write_through_the_action_values(self, group_id, monkeypatch):
        # act0 is a view of the coordinates on real and affine: the check
        # must read it only, so read-only values give the same count
        row = GROUPS[group_id]

        def read_only(g):
            v = row.act0(g)
            v.flags.writeable = False
            return v

        monkeypatch.setitem(GROUPS, group_id, dataclasses.replace(row, act0=read_only))
        assert cotlar_pointwise_check(group_id, samples=20_000, seed=1) == 0


LIE_GROUPS = sorted(g for g, row in GROUPS.items() if row.basis is not None)


def _brackets(basis):
    """Commutators [B_i, B_j] (d, d, n, n) of a table's basis matrices."""
    return basis[:, None] @ basis[None] - basis[None] @ basis[:, None]


class TestLieAlgebras:
    @pytest.mark.parametrize("group_id", LIE_GROUPS)
    def test_constants_reproduce_the_basis_brackets(self, group_id):
        # the structure constants c_ij = coordinates of [B_i, B_j] rebuild
        # every bracket: each table basis spans an algebra closed under it.
        # _alg_coords solves least squares, exact to rounding
        b = GROUPS[group_id].basis
        brackets = _brackets(b)
        c = _alg_coords(brackets, b)
        np.testing.assert_allclose(np.tensordot(c, b, axes=1), brackets, rtol=0, atol=1e-14)

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
        b = GROUPS[group_id].basis
        c = _alg_coords(_brackets(b), b)
        expected = np.zeros_like(c)
        for (i, j), vec in pairs.items():
            expected[i, j], expected[j, i] = vec, np.negative(vec)
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-14)

    def test_sl2_brackets(self):
        h, e, f = GROUPS[SL2R].basis
        np.testing.assert_allclose(_alg_coords(h @ e - e @ h, GROUPS[SL2R].basis), [0, 2, 0])  # [H, E] = 2E
        np.testing.assert_allclose(_alg_coords(e @ f - f @ e, GROUPS[SL2R].basis), [1, 0, 0])  # [E, F] = H

    def test_upper_triangular_sl2_subalgebra(self):
        assert subalgebra_check(GROUPS[SL2R].basis, [[1, 0, 0], [0, 1, 0]])

    def test_so3_plane_is_not_subalgebra(self):
        assert not subalgebra_check(GROUPS[SO3].basis, [[1, 0, 0], [0, 1, 0]])

    def test_heisenberg_center_containing_plane(self):
        b = GROUPS[HEISENBERG].basis
        assert subalgebra_check(b, [[1, 0, 0], [0, 0, 1]])
        assert subalgebra_check(b, [[0, 1, 0], [0, 0, 1]])
        assert subalgebra_check(b, [[1, 2, 0], [0, 0, 1]])

    def test_abelian_any_subspace(self):
        diagonal = np.array([np.diag(e) for e in np.eye(5)])  # commuting matrix units
        rng = np.random.default_rng(6)
        for _ in range(5):
            cand = rng.standard_normal((3, 5))
            assert subalgebra_check(diagonal, cand)

    def test_degenerate_candidate_rejected(self):
        with pytest.raises(DegenerateBasis):
            subalgebra_check(GROUPS[SL2R].basis, [[1, 0, 0], [2, 0, 0]])


class TestBoundaryVerdict:
    def test_sl2_sgn_c_passes(self):
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "sgn_c"), _g0(SL2R)
        )
        assert v.passed and v.subalgebra_ok and v.ad_ok
        # the hyperplane is the span of H and E (upper-triangular)
        for row in v.hyperplane:
            assert abs(row[2]) <= 1e-6

    def test_so3_fails(self):
        g0 = _el(SO3, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        v = boundary_subalgebra_verdict(SO3, named_boundary_field(SO3, "g11"), g0)
        assert not v.passed and not v.subalgebra_ok

    def test_real_halfline_passes_with_trivial_subalgebra(self):
        v = boundary_subalgebra_verdict(
            REAL, named_boundary_field(REAL, "t"), _el(REAL, [0.0])
        )
        assert v.passed
        assert v.hyperplane.shape[0] == 0

    def test_heisenberg_first_stratum_passes(self):
        v = boundary_subalgebra_verdict(
            HEISENBERG, named_boundary_field(HEISENBERG, "x"), _g0(HEISENBERG)
        )
        assert v.passed

    def test_affine_b_passes(self):
        v = boundary_subalgebra_verdict(
            AFFINE, named_boundary_field(AFFINE, "b"), _g0(AFFINE)
        )
        assert v.passed

    def test_sl2_inner_product_symbol_fails_at_identity(self):
        # the boundary hyperplane of a*c + b*d at e is span{H, E - F},
        # which is not closed under the bracket (unlike sgn_c's Borel)
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "m0"), _g0(SL2R)
        )
        assert not v.passed and not v.subalgebra_ok

    def test_lines_with_vanishing_derivative_are_skipped(self):
        # omega = x where y < 0.05, else the constant 1: the solve lines
        # through starts with y >= 0.05 have zero derivative
        def omega(c):
            return np.where(c[..., 1] < 0.05, c[..., 0], 1.0)

        v = boundary_subalgebra_verdict(HEISENBERG, omega, _g0(HEISENBERG))
        assert v.passed and not v.notes

    def test_expression_fields_match_named_ones(self):
        rng = np.random.default_rng(8)
        f_named = named_boundary_field(SL2R, "sgn_c")
        f_expr = named_boundary_field(SL2R, "c")
        g = GROUPS[SL2R].sample(20, rng, None)
        np.testing.assert_array_equal(f_named(g), f_expr(g))
        v = boundary_subalgebra_verdict(SL2R, f_expr, _g0(SL2R))
        assert v.passed

    def test_unknown_field_rejected(self):
        with pytest.raises(GroupMismatch):
            named_boundary_field(SL2R, "import os")

    def test_verdict_serializes(self):
        v = boundary_subalgebra_verdict(
            SL2R, named_boundary_field(SL2R, "sgn_c"), _g0(SL2R)
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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_near_max_symbol_gives_finite_ordered_bounds(self, p):
        # a constant symbol c gives M o A = c A: both norms are c = 1e308,
        # whose unscaled DFTs (3e308) overflow
        res = fourier_multiplier_norm_finite_cyclic(np.full(3, 1e308), 3, p, budget=2, seed=0)
        assert math.isfinite(res.fourier_lb) and math.isfinite(res.schur_lb) and res.contract_ok
        assert res.fourier_lb == pytest.approx(1e308, rel=1e-12)
        assert res.schur_lb == pytest.approx(1e308, rel=1e-12)

    def test_starts_are_drawn_on_demand(self):
        # both sides draw trial k when their loop reaches it: drawn up
        # front, budget 200 took the N = 16 peak from 0.07 to 1.0 MB
        mv = (np.random.default_rng(11).random(16) < 0.5).astype(float)

        def peak(budget):
            tracemalloc.start()
            try:
                fourier_multiplier_norm_finite_cyclic(mv, 16, 4.0, budget=budget, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fourier_multiplier_norm_finite_cyclic(mv, 16, 4.0, budget=2, seed=0)  # first-call allocations
        few, many = peak(2), peak(200)
        assert many <= 1.5 * few, (few, many)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 3.0, math.inf])
    def test_bounds_scale_exactly_with_the_symbol(self, p):
        # m and 2^j m run on the same scaled symbol
        mv = np.random.default_rng(9).standard_normal(6)
        base = fourier_multiplier_norm_finite_cyclic(mv, 6, p, budget=2, seed=1)
        for j in (-40, 3, 1020):
            res = fourier_multiplier_norm_finite_cyclic(np.ldexp(mv, j), 6, p, budget=2, seed=1)
            assert (res.fourier_lb, res.schur_lb) == (np.ldexp(base.fourier_lb, j), np.ldexp(base.schur_lb, j))

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
