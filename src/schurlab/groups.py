"""Lie groups behind the package's idempotent symbols.

Group arithmetic for the built-in groups, Herz-Schur matrices, the
pointwise Cotlar identity for actions on the line, the codimension-1
Lie-subalgebra boundary criterion, and Fourier <-> Schur transference on
finite cyclic groups.

Every group is one row of ``GROUPS``: batched sampling, product and
inverse on coordinate arrays, plus the line action, the closed-form
exponential and the Lie algebra basis where the group has them.  Elements
are coordinate arrays: one element has the row's ``shape``, and a batch
of elements has leading batch axes.

The projective group is represented only through its fractional-linear
chart near the identity: poles are rejected, and samples stay inside the
branch where the chart action preserves the order of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateBasis, DegenerateGradient, ExpressionError, GroupMismatch
from .geometry import _kernel_basis, _newton
from .matcore import _ldexp, _schatten_from_sv, multiplier_norm_lower_bound
from .multiplier import circulant
from .symbols import parse_expression

__all__ = [
    "GROUPS",
    "expm",
    "herz_schur_matrix",
    "cotlar_pointwise_check",
    "subalgebra_check",
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
MAX_COTLAR_SAMPLES = 10**8  # most pairs the cotlar command checks, which bounds its run time
_COTLAR_CHUNK = 65536  # most pairs the Cotlar check draws at once
# most entries the Cotlar check and the sl2r exponential work on at once:
# float64 temporaries of 64 KB stay in L2 and come from the heap, where a
# 512 KB one is mapped afresh and page-faults on its first writes
_SLICE = 8192

_CONSTRAINT_TOL = 1e-10

# branch-safe sampling radius of the sl2r exponential coordinates: inside
# it the chart action at the relevant points stays on one
# order-preserving branch
_CHART_RADIUS = 0.4


def _order(n) -> int:
    if n is None or n < 1:
        raise GroupMismatch("the cyclic group needs an order n >= 1")
    return int(n)


def _checked(c, ok, message):
    """The coordinates c, or GroupMismatch(message) unless ``ok``."""
    if not ok:
        raise GroupMismatch(message)
    return c


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------


def _entries(shape, batch) -> np.ndarray:
    """An empty batch of elements, shape ``batch + shape``, whose entries
    are each contiguous: the batch axes vary fastest, so entrywise code
    reads and writes unit-stride arrays."""
    n, m = len(shape), len(batch)
    out = np.empty(tuple(shape) + tuple(batch))
    return out.transpose(tuple(range(n, n + m)) + tuple(range(n)))


def _matrix(rows) -> np.ndarray:
    """Square matrices (..., n, n) from n rows of n entries, each an array
    of the batch shape or a scalar, laid out by ``_entries``."""
    batch = np.broadcast_shapes(*(np.shape(e) for row in rows for e in row))
    out = _entries((len(rows), len(rows)), batch)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e
    return out


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
    # X^2 = disc I, so exp(X) = cosh(s) I + sinh(s)/s X with s = sqrt(|disc|)
    # where disc >= 0, and cos and sin replace cosh and sinh where disc < 0.
    # The trigonometric pair costs several times the hyperbolic one, so it
    # runs only at the disc < 0 entries.  Runs in slices of _SLICE entries
    flat = x.reshape(-1, 3)
    out = _entries((2, 2), flat.shape[:1])
    for lo in range(0, len(flat), _SLICE):
        xh, xe, xf = flat[lo : lo + _SLICE].T
        disc = xh * xh
        disc += xe * xf
        s = np.abs(disc)
        np.sqrt(s, out=s)
        cosv, sincv = np.cosh(s), np.sinh(s)
        neg = np.flatnonzero(disc < 0)  # an index array: a boolean mask costs more
        s_neg = s[neg]
        cosv[neg] = np.cos(s_neg)
        sincv[neg] = np.sin(s_neg)
        with np.errstate(invalid="ignore", divide="ignore"):
            sincv /= s
        sincv[~(s > 1e-8)] = 1.0
        sh = sincv * xh
        m = out[lo : lo + _SLICE]
        np.add(cosv, sh, out=m[:, 0, 0])
        np.multiply(sincv, xe, out=m[:, 0, 1])
        np.multiply(sincv, xf, out=m[:, 1, 0])
        np.subtract(cosv, sh, out=m[:, 1, 1])
    return out.reshape(x.shape[:-1] + (2, 2))


def _so3_exp(w):
    # Rodrigues: I + sin(t)/t K + (1 - cos t)/t^2 K^2 with t = |w|, written
    # with sinc so that small angles lose no digits
    k = np.tensordot(w, _SO3_BASIS, axes=1)
    t = np.linalg.norm(w, axis=-1)[..., None, None]
    return np.eye(3) + np.sinc(t / np.pi) * k + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (k @ k)


def _projective_act(g, t, pole_tol):
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    den = c * t
    den += d
    tol = np.abs(c)  # pole_tol (1 + |c| + |d|)
    tol += 1.0
    tol += np.abs(d)
    tol *= pole_tol
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.asarray(a * t)  # an array even for one element and a scalar t
        val += b
        val /= den
    val[np.abs(den) < tol] = np.nan
    return val


def _sl2_inv(g):
    return _matrix([[g[..., 1, 1], -g[..., 0, 1]], [-g[..., 1, 0], g[..., 0, 0]]])


def _sl2_op(g, h):
    # g[i, 0] h[0, j] + g[i, 1] h[1, j] as two broadcast outer products, which
    # keep the inputs' layout; a stacked g @ h makes one BLAS call per pair
    return g[..., :, :1] * h[..., :1, :] + g[..., :, 1:] * h[..., 1:, :]


def _affine_op(g, h):
    # (a, b)(a', b') = (a a', a b' + b)
    out = _entries((2,), np.broadcast_shapes(g.shape[:-1], h.shape[:-1]))
    np.multiply(g[..., 0], h[..., 0], out=out[..., 0])
    b = out[..., 1]
    np.multiply(g[..., 0], h[..., 1], out=b)
    b += g[..., 1]
    return out


def _affine_inv(g):
    # (a, b)^-1 = (1 / a, -b / a)
    out = _entries((2,), g.shape[:-1])
    np.divide(1.0, g[..., 0], out=out[..., 0])
    b = out[..., 1]
    np.negative(g[..., 1], out=b)
    b /= g[..., 0]
    return out


def _cyclic_op(g, h):
    if np.any(g[..., 1] != h[..., 1]):
        raise GroupMismatch("cyclic elements from different orders")
    return np.stack([(g[..., 0] + h[..., 0]) % g[..., 1], g[..., 1]], axis=-1)


def _cyclic_sample(k, rng, n):
    n = _order(n)
    return np.stack([rng.integers(0, n, size=k), np.full(k, n)], axis=-1)


class _Box:
    """A line-action row's sampler: coordinates drawn uniformly in the box
    ``lims`` ((lo, hi) each), mapped to elements (k, *shape) by ``build``."""

    def __init__(self, lims, build):
        self.lims, self.build = lims, build

    def draw(self, k, rng, out=None) -> np.ndarray:
        # k points (d, k) with the bits of rng.uniform(lo, hi, k), in ``out`` if given
        d = len(self.lims)
        x = (np.empty(d * k) if out is None else out[: d * k]).reshape(d, k)
        rng.random(out=x)
        for row, (lo, hi) in zip(x, self.lims):
            row *= hi - lo  # lo + (hi - lo) u, as uniform computes it
            row += lo
        return x

    def __call__(self, k, rng, n):
        return self.build(self.draw(k, rng))


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

    Batched functions take and return arrays with leading batch axes;
    one element's coordinates have shape ``shape``.  ``make`` checks one
    element's coordinates (GroupMismatch off the group) and returns
    them.  ``sample(k, rng, n)`` draws k seeded elements (``n`` is the
    cyclic order; the sl2r exponential coordinates stay within
    ``_CHART_RADIUS``); ``act(g, t, pole_tol)`` is the line action, NaN at
    chart poles.  Only the matrix Lie groups have ``exp`` (algebra
    coordinates (..., d) to group matrices), ``basis`` (d, n, n), the
    algebra's only description: its commutators are the bracket,
    ``entries`` (where the coordinates sit in the group matrix), chart
    variables, named boundary fields (coordinate batches (k, *shape) to
    values (k,)) and a default base point ``g0``.

    The sl2r and affine exponentials, sl2r's ``inv``, and affine's
    ``op`` and ``inv`` write their results entry by entry into
    ``_entries`` arrays: the usual shape (k, *shape), with each entry
    contiguous and the batch axes fastest, so that entrywise code reads
    unit-stride arrays; sl2r's ``op`` keeps that layout.  Every function
    accepts any memory order.  A row with a line action samples through a
    ``_Box``: a coordinate draw composed with a map to elements, two parts
    the Cotlar check calls apart.
    """

    shape: tuple
    make: Callable
    sample: Callable
    op: Callable
    inv: Callable
    act: Optional[Callable] = None
    exp: Optional[Callable] = None
    basis: Optional[np.ndarray] = None
    entries: tuple = ()
    chart_vars: Optional[tuple] = None
    fields: dict = field(default_factory=dict)
    g0: Optional[tuple] = None

    def coords(self, mats) -> np.ndarray:
        """Coordinates of group matrices."""
        return mats[(Ellipsis,) + self.entries]


GROUPS = {
    REAL: Group(
        shape=(1,),
        make=lambda c: c,
        sample=_Box(((-2.0, 2.0),), np.transpose),
        op=lambda g, h: g + h,
        inv=lambda g: -g,
        act=lambda g, t, pole_tol: g[..., 0] + t,
        exp=_nilpotent_exp(_REAL_BASIS),
        basis=_REAL_BASIS,
        entries=([0], [1]),
        chart_vars=("t",),
        fields={"t": lambda c: c[..., 0]},
        g0=(0.0,),
    ),
    AFFINE: Group(
        shape=(2,),
        make=lambda c: _checked(c, c[0] > 0, "affine elements need a > 0"),
        sample=_Box(((0.25, 4.0), (-2.0, 2.0)), np.transpose),
        op=_affine_op,
        inv=_affine_inv,
        act=lambda g, t, pole_tol: g[..., 0] * t + g[..., 1],
        exp=_affine_exp,
        basis=_AFFINE_BASIS,
        entries=([0, 0], [0, 1]),
        chart_vars=("a", "b"),
        fields={"b": lambda c: c[..., 1]},
        g0=(1.0, 0.0),
    ),
    SL2R: Group(
        shape=(2, 2),
        make=lambda m: _checked(
            m, abs(np.linalg.det(m) - 1.0) <= _CONSTRAINT_TOL, "sl2r elements are 2x2 with det 1"
        ),
        sample=_Box(((-_CHART_RADIUS, _CHART_RADIUS),) * 3, lambda x: _sl2_exp(x.T)),
        op=_sl2_op,
        inv=_sl2_inv,
        act=_projective_act,
        exp=_sl2_exp,
        basis=_SL2_BASIS,
        entries=_WHOLE_MATRIX,
        chart_vars=("a", "b", "c", "d"),
        fields={
            "sgn_c": lambda c: c[..., 1, 0],
            "m0": lambda c: c[..., 0, 0] * c[..., 1, 0] + c[..., 0, 1] * c[..., 1, 1],
        },
        g0=((1.0, 0.0), (0.0, 1.0)),
    ),
    SO3: Group(
        shape=(3, 3),
        make=lambda m: _checked(
            m,
            np.max(np.abs(m.T @ m - np.eye(3))) <= _CONSTRAINT_TOL
            and abs(np.linalg.det(m) - 1.0) <= _CONSTRAINT_TOL,
            "so3 elements are 3x3 rotations",
        ),
        sample=lambda k, rng, n: expm(
            SO3, rng.uniform(-math.pi / 2, math.pi / 2, size=(k, 3))
        ),
        op=lambda g, h: g @ h,
        inv=lambda g: np.swapaxes(g, -1, -2).copy(),
        exp=_so3_exp,
        basis=_SO3_BASIS,
        entries=_WHOLE_MATRIX,
        chart_vars=tuple(f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
        fields={"g11": lambda c: c[..., 0, 0]},
        g0=((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ),
    HEISENBERG: Group(
        shape=(3,),
        make=lambda c: c,
        sample=lambda k, rng, n: rng.uniform(-2.0, 2.0, size=(k, 3)),
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
        chart_vars=("x", "y", "z"),
        fields={"x": lambda c: c[..., 0]},
        g0=(0.0, 0.0, 0.0),
    ),
    CYCLIC: Group(
        shape=(2,),
        make=lambda c: np.array([int(c[0]) % _order(c[1]), _order(c[1])]),
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


def herz_schur_matrix(group_id: str, m: Callable, grid) -> np.ndarray:
    """Matrix M[i, j] = m(g_i g_j^{-1}) over the coordinate batch ``grid``
    (k, *shape), from one call of ``m`` on the (k, k) batch of products."""
    grp = _group(group_id)
    grid = np.asarray(grid)
    if grid.shape[1:] != grp.shape:
        raise GroupMismatch(f"grid of shape {grid.shape} is not a batch of {group_id!r} elements")
    out = np.empty((len(grid), len(grid)), dtype=complex)
    out[...] = m(grp.op(grid[:, None], grp.inv(grid)[None]))
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
    on ``samples`` seeded pairs (g, h), rejecting the measure-zero sets
    alpha = g . 0 = 0, beta = h . 0 = 0, alpha = beta, any other action
    value within ``band`` of 0 (band 1e-9) and chart poles.

    Pairs are drawn in chunks of at most _COTLAR_CHUNK, g before h, and
    each chunk is evaluated in consecutive slices of at most _SLICE pairs
    in draw order, which keeps the temporaries small: g and h are drawn
    into two reused buffers and built slice by slice.  The check stops once
    ``samples`` valid pairs are counted, so the last slice counts only its
    first valid pairs.

    The symbol values are boolean masks.  With t1 = m(h) m(g^-1) and
    t2 = m(h^-1) m(g^-1 h), a pair fails when lhs != t1 + t2.  That is
    lhs xor t1 xor t2, since t1 and t2 both hold only when lhs is 1, and
    then the xor is 1 too.  Contract: 0 failures.
    """
    grp = _group(group_id, "act")
    box = grp.sample

    def act0(g):
        return grp.act(g, 0.0, 1e-9)

    def count(xg, xh, left):
        # (valid pairs taken, at most left, failures) on one slice; g is freed before h is built
        g = box.build(xg)
        alpha, gi = act0(g), grp.inv(g)
        del g
        h = box.build(xh)
        v_gih = act0(grp.op(gi, h))
        beta, v_gi, v_hi = act0(h), act0(gi), act0(grp.inv(h))
        valid = np.abs(alpha - beta) > band
        for v in (alpha, beta, v_gi, v_gih, v_hi):  # finite, off the band
            size = np.abs(v)
            valid &= size > band
            valid &= size < np.inf
        n_valid = int(np.count_nonzero(valid))
        take = min(n_valid, left)
        if take < n_valid:  # the last slice counts its first take valid pairs
            valid[np.flatnonzero(valid)[take] :] = False
        m_gi, m_gih, m_h, m_hi = v_gi > 0.0, v_gih > 0.0, beta > 0.0, v_hi > 0.0
        fails = (m_gi & m_gih) ^ (m_h & m_gi) ^ (m_hi & m_gih)
        return take, int(np.count_nonzero(fails & valid))

    rng = np.random.default_rng(seed)
    failures = done = 0
    # two draw buffers of the first, longest chunk serve them all.  An untouched
    # block of their size, freed first, raises glibc's mmap and trim thresholds,
    # so the heap keeps the slices' temporaries from slice to slice
    shape = (2, len(box.lims) * min(_COTLAR_CHUNK, int(1.4 * samples) + 64))
    np.empty(shape)
    buf_g, buf_h = np.empty(shape)
    while done < samples:
        k = min(_COTLAR_CHUNK, int(1.4 * (samples - done)) + 64)
        xg, xh = box.draw(k, rng, buf_g), box.draw(k, rng, buf_h)
        for lo in range(0, k, _SLICE):
            take, fails = count(xg[:, lo : lo + _SLICE], xh[:, lo : lo + _SLICE], samples - done)
            failures += fails
            done += take
            if done == samples:
                break
    return failures


# ---------------------------------------------------------------------------
# Boundary subalgebra criterion
# ---------------------------------------------------------------------------


def _alg_coords(mats, basis) -> np.ndarray:
    """Basis coordinates (..., d) of the algebra matrices ``mats``
    (..., n, n), by least squares."""
    a = basis.reshape(len(basis), -1).T
    b = mats.reshape(-1, a.shape[0]).T
    return np.linalg.lstsq(a, b, rcond=None)[0].T.reshape(mats.shape[:-2] + (len(basis),))


def _off_plane(coords, rows):
    """Norms (...) of the coordinate vectors ``coords`` (..., d) and of
    their parts off the span of ``rows`` (k, d), through the orthogonal
    projector of one QR.  Vector products are matmuls of vector shapes:
    they round as numpy's 1-D dot, so a batch gives the bits of its rows."""
    q, _ = np.linalg.qr(rows.T)  # columns span the plane
    proj = q @ q.T
    coords = coords[..., None]
    resid = coords - proj @ coords
    nrm = np.sqrt(np.swapaxes(coords, -1, -2) @ coords)[..., 0, 0]
    off = np.sqrt(np.swapaxes(resid, -1, -2) @ resid)[..., 0, 0]
    return nrm, off


def subalgebra_check(basis, candidate, tol: float = 1e-9) -> bool:
    """True iff the candidate rows (k, d), coordinates over the algebra's
    basis matrices ``basis`` (d, n, n), span a subspace closed under the
    bracket.

    The rows are normalized to s, and the commutators H_i H_j - H_j H_i
    of their matrices H = s . basis, formed in one broadcast, are read back
    in basis coordinates; closure requires each commutator's part off the
    candidate plane to have norm <= tol.  Raises DegenerateBasis for
    dependent candidates.
    """
    basis = np.asarray(basis, dtype=float)
    s = np.atleast_2d(np.asarray(candidate, dtype=float))
    if s.size == 0:
        return True  # the zero subalgebra
    if s.shape[1] != len(basis):
        raise ValueError("candidate vectors have the wrong dimension")
    sv = np.linalg.svd(s, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise DegenerateBasis("candidate subspace vectors are linearly dependent")
    s = s / np.linalg.norm(s, axis=1)[:, None]
    h = np.tensordot(s, basis, axes=1)
    brackets = h[:, None] @ h[None] - h[None] @ h[:, None]
    return bool(_off_plane(_alg_coords(brackets, basis), s)[1].max() <= tol)


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
    omega_f: Callable[[np.ndarray], np.ndarray],
    g0,
    tol: float = 1e-9,
    ad_samples: int = 32,
    radius: float = 0.1,
    seed: int = 0,
) -> SubalgebraVerdict:
    """Test whether the boundary {omega_f = 0} is locally g0 exp(h) for a
    codimension-1 Lie subalgebra h.

    ``omega_f`` maps coordinate batches (k, *shape) to values (k,), and
    ``g0`` is one element's coordinates.  ``g0`` must lie on the boundary
    {omega_f = 0}: off it, the verdict judges the level set through g0,
    not the boundary (``boundary_residual`` reports |omega_f(g0)|).

    The tangent hyperplane at g0, pulled to the identity by left
    translation (exponential coordinates), is the only candidate; the
    verdict runs the bracket-closure check on it and verifies
    Ad-invariance at boundary points sampled near the identity of the
    translated domain.  Those points solve F(v + t w) = 0 along the
    normal w from starts v drawn on the hyperplane; up to
    ``20 * ad_samples`` starts are drawn, solved in draw order in
    ``_newton`` batches of ``ad_samples``, and the first ``ad_samples``
    that converge are used.
    """
    grp = _group(group_id, "exp")
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != grp.shape:
        raise GroupMismatch(f"base point of shape {g0.shape} is not a {group_id!r} element")
    d = len(grp.basis)
    base_res = abs(float(omega_f(g0[None])[0]))

    def f_alg(z):
        """omega_f at g0 exp(z) for each row z (j, d) of algebra coordinates."""
        return omega_f(grp.op(g0[None], grp.coords(expm(group_id, z))))

    h_fd = 1e-6
    e = h_fd * np.eye(d)
    vals = f_alg(np.concatenate((e, -e)))
    w = (vals[:d] - vals[d:]) / (2.0 * h_fd)
    if not (np.isfinite(w).all() and math.isfinite(base_res)):
        raise DegenerateGradient("omega field is not finite near g0")
    wn = float(np.linalg.norm(w))
    if wn < 1e-10:
        raise DegenerateGradient("omega field has vanishing chart gradient at g0")
    w_hat = w / wn

    hyper = _kernel_basis(w_hat)

    sub_ok = subalgebra_check(grp.basis, hyper, tol)

    ad_defect, ad_ok, notes = 0.0, True, []
    if hyper.shape[0] > 0:
        v = np.random.default_rng(seed).uniform(-radius, radius, size=(20 * ad_samples, d))
        # starts on the tangent hyperplane.  Vector products in this check
        # are matmuls of vector shapes: they round as numpy's 1-D dot, so
        # the batched verdict equals the line-by-line one
        v = v - (v[:, None] @ w_hat[:, None])[:, 0] * w_hat
        h_line = 1e-7  # central-difference step of the line derivative

        def fline(starts, t):
            """F at starts + t w_hat, row by row."""
            return f_alg(starts + t * w_hat)

        def dline(starts, t):
            ends = fline(np.concatenate((starts, starts)), np.concatenate((t + h_line, t - h_line)))
            return ((ends[: len(t)] - ends[len(t) :]) / (2.0 * h_line))[:, None]

        points = np.empty((0, d))
        for first in range(0, len(v), ad_samples):
            if len(points) >= ad_samples:
                break
            starts = v[first : first + ad_samples]
            t, status = _newton(
                lambda t, rows: fline(starts[rows], t),
                lambda t, rows: dline(starts[rows], t),
                np.zeros((len(starts), 1)),
                1e-12,
                60,
            )
            ok = status == 0
            points = np.concatenate((points, starts[ok] + t[ok] * w_hat))
        points = points[:ad_samples]
        if len(points):
            x = expm(group_id, points)
            ad = x[:, None] @ np.tensordot(hyper, grp.basis, axes=1)[None] @ np.linalg.inv(x)[:, None]
            # (samples, rows of hyper) norms of Ad_x H and of its part off h
            nrm, off = _off_plane(_alg_coords(ad, grp.basis), hyper)
            ad_defect = float(np.max(off / nrm, where=nrm >= 1e-14, initial=0.0))
            ad_ok = bool(ad_defect <= max(tol, 1e-9) * 100.0)
        else:
            notes.append("no boundary points found near the identity")
            ad_ok = False
    return SubalgebraVerdict(
        passed=sub_ok and ad_ok, subalgebra_ok=sub_ok, ad_ok=ad_ok, hyperplane=hyper,
        boundary_residual=base_res, ad_defect=ad_defect, notes=notes,
    )


def expression_boundary_field(group_id: str, expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary-defining field from an expression in the group's chart
    variables, ``GROUPS[group_id].chart_vars``: coordinate batches
    (..., *shape) to values (...), a constant expression broadcast."""
    grp = _group(group_id, "chart_vars")
    fn = parse_expression(expr, grp.chart_vars)

    def field(c):
        c = np.asarray(c, dtype=float)
        batch = c.shape[: c.ndim - len(grp.shape)]
        flat = c.reshape(batch + (-1,))
        return np.broadcast_to(fn([flat[..., i] for i in range(flat.shape[-1])]), batch)

    return field


def named_boundary_field(group_id: str, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Predefined boundary-defining fields selectable from configs;
    anything not in the table is parsed as a chart-coordinate expression.
    Both map coordinate batches (k, *shape) to values (k,)."""
    named = _group(group_id).fields.get(name)
    if named is not None:
        return named
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
    needs vector norms of DFTs.  At a circulant witness A = circulant(c)
    the two bounds are the same ratio: M o A = circulant(m c), and the
    singular values of circulant(v) are |fft(v)|, so ||M o A||_p / ||A||_p
    = ||fft(m c)||_p / ||fft(c)||_p.  At p = inf and p = 1 both norms equal
    the Fourier-algebra norm sum |fft(m)| / N (Bozejko-Fendler), and one
    circulant witness attains it: at p = inf the one whose DFT is
    conj(phase(fft(m)[-j])), which puts sum |fft(m)| / N in entry 0 of
    fft(m c); at p = 1 the identity of the Fourier side, fft(c) = e_0.  At
    p = 2 both norms equal sup |m|, attained by the single shift c = e_k at
    k = argmax |m|.  These three exponents return that ratio for both
    bounds and skip the estimator.  Otherwise the best circulant witness is
    forwarded to the Schur estimator, which makes fourier_lb <= schur_lb
    hold by construction (the Fourier action is the restriction of the
    Schur action to circulants).
    """
    if n < 1 or n > MAX_CYCLIC_ORDER:
        raise ValueError(f"group order must be in [1, {MAX_CYCLIC_ORDER}]")
    mv = np.asarray(m, dtype=complex)
    if mv.shape != (n,):
        raise ValueError(f"symbol must have length {n}")
    p = float(p)
    idx = np.arange(n)
    # both bounds are homogeneous in m: they run on m / 2^k, exact for the
    # power of two 2^k just above max |m|, so no DFT of a near-max m
    # overflows, and are scaled back
    k = int(np.frexp(np.abs(mv).max())[1])
    mv = _ldexp(mv, -k)

    def fourier_ratio(c):
        denom = _schatten_from_sv(np.abs(np.fft.fft(c)), p)
        return _schatten_from_sv(np.abs(np.fft.fft(mv * c)), p) / denom if denom else 0.0

    if p in (1.0, 2.0) or np.isinf(p):
        if np.isinf(p):
            fm = np.fft.fft(mv)[-idx % n]
            fc = np.conj(np.divide(fm, np.abs(fm), out=np.ones(n, dtype=complex), where=fm != 0))
            c = np.fft.ifft(fc)
        elif p == 1.0:
            c = np.fft.ifft((idx == 0).astype(complex))
        else:
            c = (idx == int(np.argmax(np.abs(mv)))).astype(complex)
        ratio = float(np.ldexp(fourier_ratio(c), k))
        return TransferenceResult(fourier_lb=ratio, schur_lb=ratio, n=n, p=p)

    def starts():  # drawn when the loop reaches them
        yield (idx == 0).astype(complex)  # identity of the group algebra
        yield (idx == int(np.argmax(np.abs(mv)))).astype(complex)  # best single shift lambda(g)
        yield np.ones(n, dtype=complex) / n
        for j in range(budget):
            rng = np.random.default_rng([seed, 211, j])
            yield rng.standard_normal(n) + 1j * rng.standard_normal(n)

    # max keeps the first start of the largest ratio
    best_ratio, best_c = max(((fourier_ratio(c), c) for c in starts()), key=lambda t: t[0])

    schur_lb = multiplier_norm_lower_bound(
        circulant(mv),
        p,
        budget=budget,
        seed=seed,
        extra_starts=[circulant(best_c)],
    )
    return TransferenceResult(
        fourier_lb=float(np.ldexp(best_ratio, k)), schur_lb=float(np.ldexp(schur_lb, k)), n=n, p=p
    )
