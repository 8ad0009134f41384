"""Lie groups behind the package's idempotent symbols.

Group arithmetic for the built-in groups, Herz-Schur matrices, the
pointwise Cotlar identity for actions on the line, the codimension-1
Lie-subalgebra boundary criterion, and Fourier <-> Schur transference on
finite cyclic groups.

Every group is one row of ``GROUPS``: batched sampling, product and
inverse on coordinate arrays, plus the line action and the closed-form
exponential where the group has them.  A single ``GroupElement`` is a
batch of one.

The projective group is represented only through its fractional-linear
chart near the identity: poles are rejected, and samples stay inside the
branch where the chart action preserves the order of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ChartOverflow,
    DegenerateBasis,
    DegenerateGradient,
    ExpressionError,
    GroupMismatch,
    NoConvergence,
)
from .geometry import _kernel_basis, _newton_one
from .matcore import multiplier_norm_lower_bound, schatten_norm
from .multiplier import circulant
from .symbols import parse_expression

__all__ = [
    "GROUPS",
    "GroupElement",
    "real_element",
    "affine_element",
    "sl2_element",
    "so3_element",
    "heisenberg_element",
    "cyclic_element",
    "identity",
    "group_op",
    "group_inv",
    "act_on_line",
    "random_element",
    "expm",
    "herz_schur_matrix",
    "cotlar_pointwise_check",
    "LieAlgebraBasis",
    "bracket_coords",
    "subalgebra_check",
    "sl2_algebra",
    "so3_algebra",
    "heisenberg_algebra",
    "abelian_algebra",
    "affine_algebra",
    "SubalgebraVerdict",
    "boundary_subalgebra_verdict",
    "named_boundary_field",
    "TransferenceResult",
    "fourier_multiplier_norm_finite_cyclic",
]

REAL = "real"
AFFINE = "affine"
SL2R = "sl2r"
SO3 = "so3"
HEISENBERG = "heisenberg"
CYCLIC = "cyclic"

MAX_CYCLIC_ORDER = 512  # largest order the transference check accepts

_CONSTRAINT_TOL = 1e-10

# branch-safe sampling radius of the sl2r exponential coordinates: inside
# it the chart action at the relevant points stays on one
# order-preserving branch
_CHART_RADIUS = 0.4


@dataclass(frozen=True)
class GroupElement:
    group_id: str
    coords: np.ndarray

    def __repr__(self):
        return f"GroupElement({self.group_id}, {np.array2string(self.coords, precision=6)})"


def real_element(t: float) -> GroupElement:
    return GroupElement(REAL, np.array([float(t)]))


def affine_element(a: float, b: float) -> GroupElement:
    if not a > 0:
        raise GroupMismatch("affine elements need a > 0")
    return GroupElement(AFFINE, np.array([float(a), float(b)]))


def sl2_element(mat) -> GroupElement:
    m = np.asarray(mat, dtype=float)
    if m.shape != (2, 2) or abs(np.linalg.det(m) - 1.0) > _CONSTRAINT_TOL:
        raise GroupMismatch("sl2r elements are 2x2 with det 1")
    return GroupElement(SL2R, m)


def so3_element(mat) -> GroupElement:
    m = np.asarray(mat, dtype=float)
    if (
        m.shape != (3, 3)
        or np.max(np.abs(m.T @ m - np.eye(3))) > _CONSTRAINT_TOL
        or abs(np.linalg.det(m) - 1.0) > _CONSTRAINT_TOL
    ):
        raise GroupMismatch("so3 elements are 3x3 rotations")
    return GroupElement(SO3, m)


def heisenberg_element(x: float, y: float, z: float) -> GroupElement:
    return GroupElement(HEISENBERG, np.array([float(x), float(y), float(z)]))


def _order(n) -> int:
    if n is None or n < 1:
        raise GroupMismatch("the cyclic group needs an order n >= 1")
    return int(n)


def cyclic_element(k: int, n: int) -> GroupElement:
    n = _order(n)
    return GroupElement(CYCLIC, np.array([int(k) % n, n]))
# ---------------------------------------------------------------------------
# Lie algebra machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Structure constants c[i][j][k] with [X_i, X_j] = sum_k c[i][j][k] X_k
    and a candidate subspace given by coordinate vectors (rows)."""

    dim: int
    structure_constants: np.ndarray
    candidate_subspace: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must have shape (d, d, d)")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-10:
            raise ValueError("structure constants are not antisymmetric")
        jac = _jacobi_defect(c)
        if jac > 1e-10:
            raise ValueError(f"Jacobi identity violated by {jac:.3e}")
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(
            self, "candidate_subspace", np.atleast_2d(np.asarray(self.candidate_subspace, dtype=float))
        )


def _jacobi_defect(c: np.ndarray) -> float:
    # [[x, y], z] components via double contraction of the constants
    t1 = np.einsum("ijm,mkl->ijkl", c, c)  # [[i, j], k]
    defect = t1 + np.einsum("jkm,mil->jkil", c, c).transpose(2, 0, 1, 3) + np.einsum(
        "kim,mjl->kijl", c, c
    ).transpose(1, 2, 0, 3)
    return float(np.max(np.abs(defect))) if c.size else 0.0


def bracket_coords(structure_constants: np.ndarray, u, v) -> np.ndarray:
    """[u, v] in basis coordinates."""
    return np.einsum("i,j,ijk->k", np.asarray(u, dtype=float), np.asarray(v, dtype=float), structure_constants)


def subalgebra_check(basis: LieAlgebraBasis, tol: float = 1e-9) -> bool:
    """True iff the candidate subspace is closed under the bracket.

    Brackets of the (normalized) candidate vectors are projected onto the
    orthogonal complement of the subspace; closure requires every residual
    norm <= tol.  Raises DegenerateBasis for dependent candidates.
    """
    s = np.atleast_2d(np.asarray(basis.candidate_subspace, dtype=float))
    if s.size == 0 or s.shape[0] == 0:
        return True  # the zero subalgebra
    if s.shape[1] != basis.dim:
        raise ValueError("candidate vectors have the wrong dimension")
    sv = np.linalg.svd(s, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise DegenerateBasis("candidate subspace vectors are linearly dependent")
    norms = np.linalg.norm(s, axis=1)
    s = s / norms[:, None]
    q, _ = np.linalg.qr(s.T)  # columns span the subspace
    proj = q @ q.T
    for i in range(s.shape[0]):
        for j in range(i + 1, s.shape[0]):
            w = bracket_coords(basis.structure_constants, s[i], s[j])
            resid = w - proj @ w
            if float(np.linalg.norm(resid)) > tol:
                return False
    return True


def _structure_from_table(dim, entries):
    c = np.zeros((dim, dim, dim))
    for (i, j), vec in entries.items():
        c[i, j, :] = vec
        c[j, i, :] = [-v for v in vec]
    return c


def sl2_algebra(candidate=None) -> LieAlgebraBasis:
    """Basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    c = _structure_from_table(
        3,
        {
            (0, 1): (0.0, 2.0, 0.0),
            (0, 2): (0.0, 0.0, -2.0),
            (1, 2): (1.0, 0.0, 0.0),
        },
    )
    return LieAlgebraBasis(3, c, candidate if candidate is not None else np.zeros((0, 3)))


def so3_algebra(candidate=None) -> LieAlgebraBasis:
    """Basis (L1, L2, L3): [L_i, L_j] = eps_ijk L_k."""
    c = _structure_from_table(
        3,
        {
            (0, 1): (0.0, 0.0, 1.0),
            (1, 2): (1.0, 0.0, 0.0),
            (2, 0): (0.0, 1.0, 0.0),
        },
    )
    return LieAlgebraBasis(3, c, candidate if candidate is not None else np.zeros((0, 3)))


def heisenberg_algebra(candidate=None) -> LieAlgebraBasis:
    """Basis (X, Y, Z): [X, Y] = Z central."""
    c = _structure_from_table(3, {(0, 1): (0.0, 0.0, 1.0)})
    return LieAlgebraBasis(3, c, candidate if candidate is not None else np.zeros((0, 3)))


def abelian_algebra(n: int, candidate=None) -> LieAlgebraBasis:
    return LieAlgebraBasis(
        n, np.zeros((n, n, n)), candidate if candidate is not None else np.zeros((0, n))
    )


def affine_algebra(candidate=None) -> LieAlgebraBasis:
    """Basis (A, B): [A, B] = B (the ax+b algebra)."""
    c = _structure_from_table(2, {(0, 1): (0.0, 1.0)})
    return LieAlgebraBasis(2, c, candidate if candidate is not None else np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------


def _matrix(rows) -> np.ndarray:
    """Square matrices (..., n, n) from n rows of n entries, each an array
    of the batch shape or a scalar."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=float) for row in rows for e in row))
    n = len(rows)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (n, n))


def _nilpotent_exp(basis):
    # z^3 = 0 for the real line and the Heisenberg group
    def exp(x):
        z = np.tensordot(x, basis, axes=1)
        return np.eye(basis.shape[-1]) + z + 0.5 * (z @ z)

    return exp


def _affine_exp(x):
    a, b = x[..., 0], x[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(a == 0.0, 1.0, np.expm1(a) / a)
    return _matrix([[np.exp(a), b * ratio], [0.0, 1.0]])


def _sl2_exp(x):
    xh, xe, xf = x[..., 0], x[..., 1], x[..., 2]
    disc = xh * xh + xe * xf
    s = np.sqrt(np.abs(disc))
    cosv = np.where(disc >= 0, np.cosh(s), np.cos(s))
    with np.errstate(invalid="ignore", divide="ignore"):
        sincv = np.where(s > 1e-8, np.where(disc >= 0, np.sinh(s), np.sin(s)) / s, 1.0)
    return _matrix([[cosv + sincv * xh, sincv * xe], [sincv * xf, cosv - sincv * xh]])


def _so3_exp(w):
    # Rodrigues: I + sin(t)/t K + (1 - cos t)/t^2 K^2 with t = |w|, written
    # with sinc so that small angles lose no digits
    k = np.tensordot(w, _SO3_BASIS, axes=1)
    t = np.linalg.norm(w, axis=-1)[..., None, None]
    return np.eye(3) + np.sinc(t / np.pi) * k + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (k @ k)


def _projective_act(g, t, pole_tol):
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    den = c * t + d
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (a * t + b) / den
    return np.where(np.abs(den) < pole_tol * (1.0 + np.abs(c) + np.abs(d)), np.nan, val)


def _sl2_inv(g):
    return _matrix([[g[..., 1, 1], -g[..., 0, 1]], [-g[..., 1, 0], g[..., 0, 0]]])


def _cyclic_op(g, h):
    if np.any(g[..., 1] != h[..., 1]):
        raise GroupMismatch("cyclic elements from different orders")
    return np.stack([(g[..., 0] + h[..., 0]) % g[..., 1], g[..., 1]], axis=-1)


def _cyclic_sample(k, rng, radius, n):
    n = _order(n)
    return np.stack([rng.integers(0, n, size=k), np.full(k, n)], axis=-1)


_REAL_BASIS = np.array([[[0.0, 1.0], [0.0, 0.0]]])
_AFFINE_BASIS = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
_SL2_BASIS = np.array(  # H, E, F
    [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
)
_SO3_BASIS = np.array(  # L1, L2, L3: L_i v = e_i x v
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
_HEISENBERG_BASIS = np.array(  # X, Y, Z
    [
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
_WHOLE_MATRIX = (slice(None), slice(None))


@dataclass(frozen=True)
class Group:
    """One row of the group table.

    Batched functions take and return arrays with a leading batch axis;
    one element's coordinates have shape ``shape``.  ``sample(k, rng,
    radius, n)`` draws k seeded elements (``radius`` bounds the sl2r
    exponential coordinates, ``n`` is the cyclic order); ``act(g, t,
    pole_tol)`` is the line action, NaN at chart poles.  Only the matrix
    Lie groups have ``exp`` (algebra coordinates (..., d) to group
    matrices), ``basis`` (d, n, n), ``entries`` (where the coordinates
    sit in the group matrix), chart variables, named boundary fields
    (functions of coordinates) and a default base point ``g0``.
    """

    shape: tuple
    make: Callable  # one element's coordinates -> validated GroupElement
    unit: Callable  # cyclic order (ignored elsewhere) -> identity coordinates
    sample: Callable
    op: Callable
    inv: Callable
    act: Optional[Callable] = None
    exp: Optional[Callable] = None
    basis: Optional[np.ndarray] = None
    entries: tuple = ()
    algebra: Optional[Callable] = None
    chart_vars: Optional[tuple] = None
    fields: dict = field(default_factory=dict)
    g0: Optional[tuple] = None

    def coords(self, mats) -> np.ndarray:
        """Coordinates of group matrices."""
        return mats[(Ellipsis,) + self.entries]


GROUPS = {
    REAL: Group(
        shape=(1,),
        make=lambda c: real_element(c[0]),
        unit=lambda n: np.zeros(1),
        sample=lambda k, rng, radius, n: rng.uniform(-2.0, 2.0, size=(k, 1)),
        op=lambda g, h: g + h,
        inv=lambda g: -g,
        act=lambda g, t, pole_tol: g[..., 0] + t,
        exp=_nilpotent_exp(_REAL_BASIS),
        basis=_REAL_BASIS,
        entries=([0], [1]),
        algebra=lambda: abelian_algebra(1),
        chart_vars=("t",),
        fields={"t": lambda c: c[0]},
        g0=(0.0,),
    ),
    AFFINE: Group(
        shape=(2,),
        make=lambda c: affine_element(c[0], c[1]),
        unit=lambda n: np.array([1.0, 0.0]),
        sample=lambda k, rng, radius, n: np.stack(
            [rng.uniform(0.25, 4.0, size=k), rng.uniform(-2.0, 2.0, size=k)], axis=-1
        ),
        op=lambda g, h: np.stack(
            [g[..., 0] * h[..., 0], g[..., 0] * h[..., 1] + g[..., 1]], axis=-1
        ),
        inv=lambda g: np.stack([1.0 / g[..., 0], -g[..., 1] / g[..., 0]], axis=-1),
        act=lambda g, t, pole_tol: g[..., 0] * t + g[..., 1],
        exp=_affine_exp,
        basis=_AFFINE_BASIS,
        entries=([0, 0], [0, 1]),
        algebra=affine_algebra,
        chart_vars=("a", "b"),
        fields={"b": lambda c: c[1]},
        g0=(1.0, 0.0),
    ),
    SL2R: Group(
        shape=(2, 2),
        make=sl2_element,
        unit=lambda n: np.eye(2),
        sample=lambda k, rng, radius, n: expm(
            SL2R, rng.uniform(-radius, radius, size=(3, k)).T
        ),
        op=lambda g, h: g @ h,
        inv=_sl2_inv,
        act=_projective_act,
        exp=_sl2_exp,
        basis=_SL2_BASIS,
        entries=_WHOLE_MATRIX,
        algebra=sl2_algebra,
        chart_vars=("a", "b", "c", "d"),
        fields={
            "sgn_c": lambda c: c[1, 0],
            "m0": lambda c: c[0, 0] * c[1, 0] + c[0, 1] * c[1, 1],
        },
        g0=((1.0, 0.0), (0.0, 1.0)),
    ),
    SO3: Group(
        shape=(3, 3),
        make=so3_element,
        unit=lambda n: np.eye(3),
        sample=lambda k, rng, radius, n: expm(
            SO3, rng.uniform(-math.pi / 2, math.pi / 2, size=(k, 3))
        ),
        op=lambda g, h: g @ h,
        inv=lambda g: np.swapaxes(g, -1, -2).copy(),
        exp=_so3_exp,
        basis=_SO3_BASIS,
        entries=_WHOLE_MATRIX,
        algebra=so3_algebra,
        chart_vars=tuple(f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
        fields={"g11": lambda c: c[0, 0]},
        g0=((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ),
    HEISENBERG: Group(
        shape=(3,),
        make=lambda c: heisenberg_element(c[0], c[1], c[2]),
        unit=lambda n: np.zeros(3),
        sample=lambda k, rng, radius, n: rng.uniform(-2.0, 2.0, size=(k, 3)),
        op=lambda g, h: np.stack(
            [
                g[..., 0] + h[..., 0],
                g[..., 1] + h[..., 1],
                g[..., 2] + h[..., 2] + g[..., 0] * h[..., 1],
            ],
            axis=-1,
        ),
        inv=lambda g: np.stack(
            [-g[..., 0], -g[..., 1], -g[..., 2] + g[..., 0] * g[..., 1]], axis=-1
        ),
        exp=_nilpotent_exp(_HEISENBERG_BASIS),
        basis=_HEISENBERG_BASIS,
        entries=([0, 1, 0], [1, 2, 2]),
        algebra=heisenberg_algebra,
        chart_vars=("x", "y", "z"),
        fields={"x": lambda c: c[0]},
        g0=(0.0, 0.0, 0.0),
    ),
    CYCLIC: Group(
        shape=(2,),
        make=lambda c: cyclic_element(c[0], c[1]),
        unit=lambda n: np.array([0, _order(n)]),
        sample=_cyclic_sample,
        op=_cyclic_op,
        inv=lambda g: np.stack([-g[..., 0] % g[..., 1], g[..., 1]], axis=-1),
    ),
}

_LACKS = {
    "act": "has no line action",
    "exp": "is not a Lie group here",
    "chart_vars": "has no chart coordinates here",
}


def _group(group_id, needs: Optional[str] = None) -> Group:
    """The table row of ``group_id``; GroupMismatch when it is unknown or
    lacks the attribute ``needs``."""
    grp = GROUPS.get(group_id) if isinstance(group_id, str) else None
    if grp is None:
        raise GroupMismatch(f"unknown group {group_id!r}")
    if needs is not None and getattr(grp, needs) is None:
        raise GroupMismatch(f"group {group_id!r} {_LACKS[needs]}")
    return grp


def expm(group_id: str, x) -> np.ndarray:
    """Closed-form exponential of the algebra element with coordinates
    ``x`` (..., d) in the group's basis, as group matrices (..., n, n)."""
    return _group(group_id, "exp").exp(np.asarray(x, dtype=float))


def identity(group_id: str, n: Optional[int] = None) -> GroupElement:
    return GroupElement(group_id, _group(group_id).unit(n))


def group_op(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.group_id != h.group_id:
        raise GroupMismatch(f"{g.group_id} vs {h.group_id}")
    return GroupElement(g.group_id, _group(g.group_id).op(g.coords[None], h.coords[None])[0])


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(g.group_id, _group(g.group_id).inv(g.coords[None])[0])


def act_on_line(g: GroupElement, t: float, pole_tol: float = 1e-9) -> float:
    """The group's action on the real line.

    Translation for the real line, t -> a t + b for the affine group, and
    the fractional-linear chart for sl2r (ChartOverflow at poles).
    """
    val = float(_group(g.group_id, "act").act(g.coords[None], float(t), pole_tol)[0])
    if math.isnan(val):
        raise ChartOverflow(f"fractional-linear pole at t = {t}")
    return val


def random_element(
    group_id: str, rng, radius: float = _CHART_RADIUS, n: Optional[int] = None
) -> GroupElement:
    """Coordinate-box uniform sample (for sl2r: exponential coordinates in
    a branch-safe box)."""
    return GroupElement(group_id, _group(group_id).sample(1, rng, radius, n)[0])


def herz_schur_matrix(group_id: str, m: Callable, grid: Sequence[GroupElement]) -> np.ndarray:
    """Matrix M[i, j] = m(g_i g_j^{-1}) over a finite grid of elements."""
    grid = list(grid)
    k = len(grid)
    out = np.zeros((k, k), dtype=complex)
    invs = [group_inv(g) for g in grid]
    for j in range(k):
        for i in range(k):
            if grid[i].group_id != group_id:
                raise GroupMismatch(f"grid element from {grid[i].group_id!r}")
            out[i, j] = m(group_op(grid[i], invs[j]))
    return out


# ---------------------------------------------------------------------------
# Pointwise Cotlar identity for half-line symbols of line actions
# ---------------------------------------------------------------------------


def cotlar_pointwise_check(
    group_id: str,
    samples: int = 100_000,
    seed: int = 0,
    band: float = 1e-9,
) -> int:
    """Count violations of the pointwise Cotlar identity.

    With m = chi_{g . 0 > 0}, checks
    m(g^-1) m(g^-1 h) = m(h) m(g^-1) + m(h^-1) m(g^-1 h)
    on seeded samples, rejecting the measure-zero sets alpha = 0, beta = 0,
    alpha = beta (band 1e-9) and chart poles.  Contract: 0 failures.
    """
    grp = _group(group_id, "act")

    def act0(g):
        return grp.act(g, 0.0, 1e-9)

    rng = np.random.default_rng(seed)
    failures = 0
    done = 0
    while done < samples:
        k = min(65536, int(1.4 * (samples - done)) + 64)
        g = grp.sample(k, rng, _CHART_RADIUS, None)
        h = grp.sample(k, rng, _CHART_RADIUS, None)
        alpha = act0(g)
        beta = act0(h)
        gi = grp.inv(g)
        gih = grp.op(gi, h)
        hi = grp.inv(h)
        vals = np.stack([act0(gi), act0(gih), act0(h), act0(hi)])
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


# ---------------------------------------------------------------------------
# Boundary subalgebra criterion
# ---------------------------------------------------------------------------


def _alg_coords(mat, basis) -> np.ndarray:
    a = basis.reshape(len(basis), -1).T
    sol, *_ = np.linalg.lstsq(a, np.asarray(mat, dtype=float).ravel(), rcond=None)
    return sol


@dataclass
class SubalgebraVerdict:
    passed: bool
    subalgebra_ok: bool
    ad_ok: bool
    hyperplane: np.ndarray
    boundary_residual: float
    ad_defect: float
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "subalgebra_ok": self.subalgebra_ok,
            "ad_ok": self.ad_ok,
            "hyperplane": [list(map(float, row)) for row in np.atleast_2d(self.hyperplane)],
            "boundary_residual": self.boundary_residual,
            "ad_defect": self.ad_defect,
            "notes": self.notes,
        }


def boundary_subalgebra_verdict(
    group_id: str,
    omega_f: Callable[[GroupElement], float],
    g0: GroupElement,
    tol: float = 1e-9,
    ad_samples: int = 32,
    radius: float = 0.1,
    seed: int = 0,
) -> SubalgebraVerdict:
    """Test whether the boundary {omega_f = 0} is locally g0 exp(h) for a
    codimension-1 Lie subalgebra h.

    The tangent hyperplane at g0, pulled to the identity by left
    translation (exponential coordinates), is the only candidate; the
    verdict runs the bracket-closure check on it and verifies
    Ad-invariance at boundary points sampled near the identity of the
    translated domain.
    """
    grp = _group(group_id, "exp")
    if g0.group_id != group_id:
        raise GroupMismatch(f"base point from {g0.group_id!r}, not {group_id!r}")
    d = len(grp.basis)
    base_res = abs(float(omega_f(g0)))

    def f_alg(zvec) -> float:
        x = grp.coords(expm(group_id, zvec))
        return float(omega_f(GroupElement(group_id, grp.op(g0.coords[None], x[None])[0])))

    h_fd = 1e-6
    w = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h_fd
        w[i] = (f_alg(e) - f_alg(-e)) / (2.0 * h_fd)
    wn = float(np.linalg.norm(w))
    if wn < 1e-10:
        raise DegenerateGradient("omega field has vanishing chart gradient at g0")
    w_hat = w / wn

    hyper = _kernel_basis(w_hat)

    alg = grp.algebra()
    sub_ok = subalgebra_check(
        LieAlgebraBasis(d, alg.structure_constants, hyper), tol
    )

    ad_defect = 0.0
    ad_ok = True
    notes = []
    if hyper.shape[0] > 0:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(hyper.T)
        proj = q @ q.T
        h_line = 1e-7  # central-difference step of the line derivative
        found = 0
        attempts = 0
        while found < ad_samples and attempts < 20 * ad_samples:
            attempts += 1
            v = rng.uniform(-radius, radius, size=d)
            v = v - np.dot(v, w_hat) * w_hat  # start on the tangent hyperplane

            def fline(t):
                return f_alg(v + t[0] * w_hat)

            def dline(t):
                return np.array([(fline(t + h_line) - fline(t - h_line)) / (2.0 * h_line)])

            try:
                t_star = _newton_one(fline, dline, np.zeros(1), 1e-12, 60)[0]
            except (NoConvergence, DegenerateGradient):
                continue
            x = expm(group_id, v + t_star * w_hat)
            x_inv = np.linalg.inv(x)
            for row in hyper:
                ad = x @ np.tensordot(row, grp.basis, axes=1) @ x_inv
                coords = _alg_coords(ad, grp.basis)
                nrm = float(np.linalg.norm(coords))
                if nrm < 1e-14:
                    continue
                resid = coords - proj @ coords
                ad_defect = max(ad_defect, float(np.linalg.norm(resid)) / nrm)
            found += 1
        if found == 0:
            notes.append("no boundary points found near the identity")
            ad_ok = False
        else:
            ad_ok = ad_defect <= max(tol, 1e-9) * 100.0
    passed = bool(sub_ok and ad_ok)
    return SubalgebraVerdict(
        passed=passed,
        subalgebra_ok=bool(sub_ok),
        ad_ok=bool(ad_ok),
        hyperplane=hyper,
        boundary_residual=base_res,
        ad_defect=ad_defect,
        notes=notes,
    )


def expression_boundary_field(group_id: str, expr: str) -> Callable[[GroupElement], float]:
    """Boundary-defining field from an expression in the group's chart
    variables, ``GROUPS[group_id].chart_vars``."""
    fn = parse_expression(expr, _group(group_id, "chart_vars").chart_vars)

    def field(g: GroupElement) -> float:
        return float(fn(list(np.asarray(g.coords, dtype=float).ravel())))

    return field


def named_boundary_field(group_id: str, name: str) -> Callable[[GroupElement], float]:
    """Predefined boundary-defining fields selectable from configs;
    anything not in the table is parsed as a chart-coordinate expression."""
    named = _group(group_id).fields.get(name)
    if named is not None:
        return lambda g: float(named(g.coords))
    try:
        return expression_boundary_field(group_id, name)
    except ExpressionError as exc:
        raise GroupMismatch(
            f"no field {name!r} for group {group_id!r} and it does not parse "
            f"as a chart expression: {exc}"
        ) from exc

# ---------------------------------------------------------------------------
# Fourier <-> Schur transference on finite cyclic groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferenceResult:
    fourier_lb: float
    schur_lb: float
    n: int
    p: float

    @property
    def contract_ok(self) -> bool:
        return self.fourier_lb <= self.schur_lb * (1.0 + 1e-9)


def _vec_lp(v, p) -> float:
    mag = np.abs(v)
    if np.isinf(p):
        return float(mag.max())
    top = float(mag.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sum((mag / top) ** p) ** (1.0 / p))


def fourier_multiplier_norm_finite_cyclic(
    m,
    n: int,
    p,
    budget: int = 8,
    seed: int = 0,
) -> TransferenceResult:
    """Lower bounds for the Fourier multiplier T_m on L_p(Z_N) and the
    Herz-Schur multiplier M(i, j) = m(i - j mod N) on S_p.

    Circulants diagonalize in the Fourier basis, so the Fourier side only
    needs vector norms of DFTs.  At p = inf and p = 1 both norms equal the
    Fourier-algebra norm sum |fft(m)| / N (Bozejko-Fendler), and one
    circulant witness attains it: at p = inf the one whose DFT is
    conj(phase(fft(m)[-j])), which puts sum |fft(m)| / N in entry 0 of
    fft(m c); at p = 1 the identity of the Fourier side, fft(c) = e_0.
    Both bounds are then ratios at that witness and the estimator is
    skipped.  Otherwise the best circulant witness is forwarded to the
    Schur estimator, which makes fourier_lb <= schur_lb hold by
    construction (the Fourier action is the restriction of the Schur
    action to circulants).
    """
    if n < 1 or n > MAX_CYCLIC_ORDER:
        raise ValueError(f"group order must be in [1, {MAX_CYCLIC_ORDER}]")
    mv = np.asarray(m, dtype=complex)
    if mv.shape != (n,):
        raise ValueError(f"symbol must have length {n}")
    p = float(p)
    idx = np.arange(n)
    schur_symbol = mv[(idx[:, None] - idx[None, :]) % n]

    def fourier_ratio(c):
        denom = _vec_lp(np.fft.fft(c), p)
        return _vec_lp(np.fft.fft(mv * c), p) / denom if denom else 0.0

    if np.isinf(p) or p == 1.0:
        if np.isinf(p):
            fm = np.fft.fft(mv)[-idx % n]
            fc = np.conj(np.divide(fm, np.abs(fm), out=np.ones(n, dtype=complex), where=fm != 0))
        else:
            fc = (idx == 0).astype(complex)
        c = np.fft.ifft(fc)
        a = circulant(c)
        return TransferenceResult(
            fourier_lb=fourier_ratio(c),
            schur_lb=schatten_norm(schur_symbol * a, p) / schatten_norm(a, p),
            n=n,
            p=p,
        )

    starts = [np.zeros(n, dtype=complex)]
    starts[0][0] = 1.0  # identity of the group algebra
    shift = np.zeros(n, dtype=complex)
    shift[int(np.argmax(np.abs(mv)))] = 1.0  # best single shift lambda(g)
    starts.append(shift)
    starts.append(np.ones(n, dtype=complex) / n)
    for k in range(budget):
        rng = np.random.default_rng([seed, 211, k])
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    best_ratio, best_c = 0.0, starts[0]
    for c in starts:
        ratio = fourier_ratio(c)
        if ratio > best_ratio:
            best_ratio, best_c = ratio, c

    schur_lb = multiplier_norm_lower_bound(
        schur_symbol,
        p,
        budget=budget,
        seed=seed,
        extra_starts=[circulant(best_c)],
    )
    return TransferenceResult(fourier_lb=best_ratio, schur_lb=float(schur_lb), n=n, p=p)
