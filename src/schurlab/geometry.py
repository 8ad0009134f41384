"""Boundary geometry and the domain classification pipeline.

Implements boundary-point solving, the transversality test, the
zero-curvature checks (tangent-comparison form for C^1 data and the mixed
Hessian form for C^2 data), and the combined classifier that sorts a
domain into TRIANGULAR_MODEL / CURVATURE_FAIL / NON_TRANSVERSE /
INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateGradient,
    NoConvergence,
    NonTransverseSample,
)
from .symbols import (
    BoundaryPoint,
    SymbolSpec,
    gradient,
    mixed_hessian,
    transpose_spec,
)

__all__ = [
    "TRIANGULAR_MODEL",
    "CURVATURE_FAIL",
    "NON_TRANSVERSE",
    "INCONCLUSIVE",
    "ClassificationReport",
    "boundary_project",
    "boundary_project_x",
    "transversality_check",
    "sample_boundary_points",
    "zero_curvature_check_c1",
    "mixed_hessian_check",
    "classify",
]

TRIANGULAR_MODEL = "TRIANGULAR_MODEL"
CURVATURE_FAIL = "CURVATURE_FAIL"
NON_TRANSVERSE = "NON_TRANSVERSE"
INCONCLUSIVE = "INCONCLUSIVE"

BOUNDARY_TOL = 1e-9
TRANSVERSE_TOL = 1e-6
ANGLE_TOL = 1e-4
HESSIAN_TOL = 1e-6
DEGENERATE_TOL = 1e-9
# largest rays x coordinates batch the classify command accepts (a ball(1)
# classify at the cap peaked at 378 MB RSS on a 2-vCPU x86-64 host)
MAX_RAY_ENTRIES = 1 << 22
# entries (slot pairs x axes) per chunk of the section pair scan: with
# 1,500 points in one sphere_delta(2, 0) section, chunks of 2^22 entries
# peaked at 195 MB RSS, 2^16 at 41 MB, and the 2^16 chunks scanned all
# pairs of 6,000 rows no slower (2-vCPU x86-64 host)
_PAIR_CHUNK = 1 << 16


def _unit_normals(gx, gy):
    """The normal split (n1, n2) at each row: the gradient split (gx, gy)
    of the row divided by its joint length."""
    nrm = np.sqrt((gx**2).sum(axis=-1) + (gy**2).sum(axis=-1))[:, None]
    return gx / nrm, gy / nrm


def _row_norms(a):
    """The Euclidean length of each row (last axis) of a, as
    np.linalg.norm(a, axis=-1) computes it."""
    return np.sqrt((a * a).sum(axis=-1))


def _boundary_points(spec, x, y, gx, gy) -> list:
    """BoundaryPoints at the rows of x (k, m), y (k, n) with the gradient
    split (gx, gy) there."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    n1, n2 = _unit_normals(gx, gy)
    residual = np.abs(spec.f(x, y))
    return [
        BoundaryPoint(x=x[i], y=y[i], n1=n1[i], n2=n2[i], residual=float(residual[i]))
        for i in range(x.shape[0])
    ]


# why a row of ``_newton`` stopped, by its status code; 0 is converged
_NEWTON_FAILURES = (
    None,
    (DegenerateGradient, "gradient vanishes during boundary projection"),
    (NoConvergence, "boundary projection cannot decrease |F|"),
    (NoConvergence, "boundary projection plateaued away from a root"),
    (NoConvergence, "boundary projection stalled at |F| = {:.3e}"),
    (NoConvergence, "boundary projection starts where F is not finite (|F| = {:.3e})"),
)


def _newton(f, grad, z, tol, max_iter):
    """Damped Newton for the scalar equations f(z_i) = 0, one per row z_i
    of the batch z (k, d).

    ``f(zs, rows)`` and ``grad(zs, rows)`` evaluate the batch rows ``rows``
    (which may repeat) at the points zs (j, d), returning (j,) and (j, d).
    Each row takes minimum-norm Newton steps -f / |grad f|^2 * grad f; a
    step that does not decrease |f| is replaced by the longest of its
    halvings 2^-1 ... 2^-29 that does.  The rising rows try their next
    halvings together, as many per call of f as keep the call to
    max(k, 1024) rows: all 29 in one call while at most 35 rows rise, but
    one at a time for a batch of one (k = 1).
    Returns (z, status): status[i] is 0 where row i converged, else the
    index into ``_NEWTON_FAILURES`` of why it stopped: a vanishing
    gradient, no decrease of |f|, a plateau, ``max_iter`` steps, or a
    non-finite f at its start.
    """
    z = np.array(z, dtype=float)
    active = np.arange(z.shape[0])
    val = np.array(f(z, active), dtype=float)
    stall = np.zeros(z.shape[0], dtype=int)
    status = np.zeros(z.shape[0], dtype=np.int8)
    # every accepted iterate is finite, so only a start can leave f's domain
    finite = np.isfinite(val)
    status[~finite] = 5
    active = active[finite]
    budget = max(z.shape[0], 1024) if z.shape[0] > 1 else 1

    def drop(mask, code):
        """Fail the active rows in ``mask``; returns the mask of the others."""
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
        val_new = np.array(f(z_new, active), dtype=float)
        rise = ~(np.isfinite(val_new) & (np.abs(val_new) < np.abs(va)))
        rows = np.flatnonzero(rise)
        done = 0
        while rows.size and done < 29:
            lams = 0.5 ** np.arange(done + 1, min(29, done + budget // rows.size) + 1)
            done += lams.size
            cand = za[rows, None] + lams[:, None] * step[rows, None]
            cval = np.reshape(f(cand.reshape(-1, z.shape[1]), np.repeat(active[rows], lams.size)), cand.shape[:2])
            dec = np.isfinite(cval) & (np.abs(cval) < np.abs(va[rows, None]))
            hit = dec.any(axis=1)
            first = dec[hit].argmax(axis=1)
            z_new[rows[hit]] = cand[hit, first]
            val_new[rows[hit]] = cval[hit, first]
            rise[rows[hit]] = False
            rows = rows[~hit]
        if rows.size:
            keep = drop(rise, 2)
            active, va, z_new, val_new = active[keep], va[keep], z_new[keep], val_new[keep]
        # Newton contracts fast near a simple root; a plateau means the
        # equation has no root to find
        stall[active] = (stall[active] + 1) * (np.abs(val_new) > 0.75 * np.abs(va))
        plateau = stall[active] >= 5
        if plateau.any():
            keep = drop(plateau, 3)
            active, z_new, val_new = active[keep], z_new[keep], val_new[keep]
        z[active] = z_new
        val[active] = val_new
    status[active] = 4
    return z, status


def boundary_project(
    spec: SymbolSpec,
    x,
    y_init,
    tol: float = BOUNDARY_TOL,
    max_iter: int = 100,
) -> BoundaryPoint:
    """Project y_init onto the section boundary {y : F(x, y) = 0}.

    Damped Newton along the d_y F direction (``_newton``).  Raises
    NoConvergence after ``max_iter`` iterations and DegenerateGradient at
    gradient-free points.
    """
    return _project_all(spec, np.asarray(x)[None], np.asarray(y_init)[None], False, tol, max_iter)[0]


def boundary_project_x(
    spec: SymbolSpec,
    x_init,
    y,
    tol: float = BOUNDARY_TOL,
    max_iter: int = 100,
) -> BoundaryPoint:
    """Project x_init onto {x : F(x, y) = 0} (the other factor fixed)."""
    return _project_all(spec, np.asarray(x_init)[None], np.asarray(y)[None], True, tol, max_iter)[0]


def _solve_rays(spec: SymbolSpec, x, y, move_x: bool, tol=BOUNDARY_TOL, max_iter=100):
    """Damped Newton (``_newton``) on F along y, or along x with
    ``move_x``, from every row of x (k, m), y (k, n) in one batch.
    Returns (x, y, status) with the solved rows in place."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def split(z, rows):
        """(x, y) at the batch rows ``rows`` with the moving factor z."""
        return (z, y[rows]) if move_x else (x[rows], z)

    def f(z, rows):
        val = spec.f(*split(z, rows))
        # a constant F evaluates to a scalar
        return val if np.ndim(val) else np.full(rows.shape, val)

    def grad(z, rows):
        gx, gy, degenerate = gradient(spec, *split(z, rows))
        return np.where(degenerate[:, None], 0.0, gx if move_x else gy)

    z, status = _newton(f, grad, x if move_x else y, tol, max_iter)
    return (z, y, status) if move_x else (x, z, status)


def _project_all(spec, x, y, move_x, tol=BOUNDARY_TOL, max_iter=100) -> list:
    """BoundaryPoints solved from every row of x (k, m), y (k, n)
    (``_solve_rays``); raises the NoConvergence or DegenerateGradient of
    the first row whose solve fails or whose gradient vanishes at its
    solution."""
    x, y, status = _solve_rays(spec, x, y, move_x, tol, max_iter)
    if status.any():
        i = int(np.flatnonzero(status)[0])
        error, message = _NEWTON_FAILURES[status[i]]
        raise error(message.format(abs(float(spec.f(x[i], y[i])))))
    gx, gy, degenerate = gradient(spec, x, y)
    if degenerate.any():
        i = int(degenerate.argmax())
        raise DegenerateGradient(f"gradient vanishes at the boundary point ({x[i]}, {y[i]})")
    return _boundary_points(spec, x, y, gx, gy)


def _project_rays(spec: SymbolSpec, x, y, move_x: bool):
    """``_solve_rays`` from every row of x (k, m), y (k, n).

    Returns (rows, x, y, gx, gy): the rows, in order, whose solve converged
    inside the domain box with a nonvanishing gradient there, and their
    solutions and gradient splits.
    """
    x, y, status = _solve_rays(spec, x, y, move_x)
    z = x if move_x else y
    box = np.asarray(spec.x_box if move_x else spec.y_box, dtype=float)
    rows = np.flatnonzero(status == 0)
    rows = rows[((box[:, 0] <= z[rows]) & (z[rows] <= box[:, 1])).all(axis=1)]
    xs, ys = x[rows], y[rows]
    gx, gy, degenerate = gradient(spec, xs, ys)
    keep = ~degenerate
    return rows[keep], xs[keep], ys[keep], gx[keep], gy[keep]


def _transverse(n1, n2, tol):
    """Mask of the rows of the normal split n1 (k, m), n2 (k, n) whose
    components both carry at least ``tol`` of the joint normal's length."""
    s1, s2 = (n1**2).sum(axis=-1), (n2**2).sum(axis=-1)
    floor = tol * np.sqrt(s1 + s2)
    return (np.sqrt(s1) >= floor) & (np.sqrt(s2) >= floor)


def transversality_check(pt: BoundaryPoint, tol: float = TRANSVERSE_TOL) -> bool:
    """True iff both normal components carry at least ``tol`` of the
    joint normal's length (``_transverse`` at the one point)."""
    return bool(_transverse(np.atleast_2d(pt.n1), np.atleast_2d(pt.n2), tol)[0])


def _uniform_in_box(rng, box, size):
    """An array of ``size`` points uniform in the box, drawn point by
    point and axis by axis, with the bits of
    ``rng.uniform(box[:, 0], box[:, 1], size + (d,))``."""
    box = np.asarray(box, dtype=float)
    u = rng.random(tuple(size) + (box.shape[0],))
    u *= box[:, 1] - box[:, 0]  # lo + (hi - lo) u, as uniform computes it
    u += box[:, 0]
    return u


class _BoundaryPool:
    """The boundary rows (x, y, gx, gy) of ``sample_boundary_points``,
    solved only as far as they are read.

    All ``max_attempts`` (default ``40 * count``) rays are drawn at once;
    ``grow`` solves them in draw order.  With ``transposed`` the rays are
    those of the transposed symbol, which move x, and the rows are given
    in the symbol's own order."""

    def __init__(self, spec, count, seed, max_attempts=None, transposed=False):
        self.spec = transpose_spec(spec) if transposed else spec
        self.count = count
        self.transposed = transposed
        cap = max_attempts if max_attempts is not None else 40 * count
        self.rays = _uniform_in_box(np.random.default_rng(seed), self.spec.domain_box, (cap,))
        m, n = self.spec.m_dim, self.spec.n_dim
        self.rows = [np.empty((0, m)), np.empty((0, n)), np.empty((0, m)), np.empty((0, n))]
        self.solved = 0
        self.size = 0  # the points read so far

    def grow(self, target):
        """The first ``target`` points (at most ``count``, and never fewer
        than read before), solving rays until they are found or the rays
        run out.  Each batch holds as many rays as the yield so far says
        the missing points take, ceil(missing * solved / found); while no
        point is found, twice the missing points, then twice the batch
        before."""
        target = min(max(target, self.size), self.count)
        found = len(self.rows[0])
        batch = 2 * (target - found)
        m = self.spec.m_dim
        while found < target and self.solved < len(self.rays):
            if found:
                batch = -(-(target - found) * self.solved // found)
            chunk = self.rays[self.solved : self.solved + batch]
            _, *rows = _project_rays(self.spec, chunk[:, :m], chunk[:, m:], move_x=False)
            self.rows = [np.concatenate(pair) for pair in zip(self.rows, rows)]
            found = len(self.rows[0])
            self.solved += len(chunk)
            batch *= 2
        x, y, gx, gy = (r[:target] for r in self.rows)
        self.size = len(x)
        return (y, x, gy, gx) if self.transposed else (x, y, gx, gy)


def sample_boundary_points(
    spec: SymbolSpec,
    count: int,
    seed: int = 0,
    max_attempts: Optional[int] = None,
) -> list:
    """Boundary points from random rays: draw (x, y_init) uniformly in the
    domain box and project y.  Non-converging draws are skipped.

    All ``max_attempts`` (default ``40 * count``) rays are drawn at once and
    solved in draw order, in ``_newton`` batches, until ``count`` in-box
    points are found; the first ``count``, in draw order, are kept.  The
    first batch has ``2 * count`` rays.  Each later batch has as many as
    the yield so far says the missing points take,
    ceil((count - found) * solved / found), or twice the batch before
    while no point is found.  The batch sizes do not change which points
    are kept.  ``classify`` reads a prefix of the same points, grown in
    steps (``_BoundaryPool``).
    """
    return _boundary_points(spec, *_BoundaryPool(spec, count, seed, max_attempts).grow(count))


def _wide_pairs(n2, kept, tol_angle, limit=None) -> list:
    """The first ``limit`` (default: all) pairs (section, i, j, angle) of
    rows i < j of one section of n2 (sections, k, n), in row-major order,
    whose lines are more than ``tol_angle`` apart; only the rows that
    ``kept`` (sections, k) marks take part.

    The angle between the lines of unit rows u and v is
    2 atan2(|u - s v|, |u + s v|) with s = sign(u . v): it keeps its
    digits down to rounding, where arccos |u . v| reads 0 below about
    1.5e-8.  The pairs are evaluated in chunks of at most
    max(_PAIR_CHUNK, k n) entries (whole sections, or rows of one section
    against the rows from the chunk's first on), and the scan ends with
    the chunk that holds the ``limit``-th pair, so the list is empty
    exactly when no pair is wide."""
    sections, k, n = n2.shape
    u = n2 / _row_norms(n2)[..., None]
    rows = max(1, _PAIR_CHUNK // max(k * n, 1))
    if rows >= k:  # whole sections
        step = rows // k
        chunks = [(s, s + step, 0, k) for s in range(0, sections, step)]
    else:
        chunks = [(s, s + 1, i, min(i + rows, k)) for s in range(sections) for i in range(0, k, rows)]
    pairs = []
    for s0, s1, i0, i1 in chunks:
        a, b = u[s0:s1, i0:i1, None], u[s0:s1, None, i0:]
        # u - s v and u + s v are u - v and u + v, swapped where s = -1
        neg = (a * b).sum(axis=-1) < 0.0
        minus, plus = _row_norms(a - b), _row_norms(a + b)
        angle = 2.0 * np.arctan2(np.where(neg, plus, minus), np.where(neg, minus, plus))
        wide = (angle > tol_angle) & kept[s0:s1, i0:i1, None] & kept[s0:s1, None, i0:]
        wide &= np.arange(i0, i1)[:, None] < np.arange(i0, k)
        s, i, j = (h[: None if limit is None else limit - len(pairs)] for h in np.nonzero(wide))
        pairs += zip((s + s0).tolist(), (i + i0).tolist(), (j + i0).tolist(), angle[s, i, j].tolist())
        if len(pairs) == limit:
            break
    return pairs


def zero_curvature_check_c1(
    spec: SymbolSpec,
    y,
    x_samples,
    tol_angle: float = ANGLE_TOL,
    transverse_tol: float = TRANSVERSE_TOL,
):
    """Tangent-comparison form of the zero-curvature condition at a common y.

    Each x sample is projected onto the section boundary {x : F(x, y) = 0};
    the section tangent space there is ker d_y F(x, .), so the sections'
    tangents at y agree exactly when the unit normals n2(x_i, y) are pairwise
    parallel up to sign.  Returns (ok, witnesses) where witnesses list the
    offending pairs as (point_i, point_j, angle).
    """
    x0 = np.asarray(x_samples, dtype=float).reshape(-1, spec.m_dim)
    y = np.broadcast_to(np.asarray(y, dtype=float), (len(x0), spec.n_dim))
    pts = _project_all(spec, x0, y, move_x=True)
    n1 = np.reshape([pt.n1 for pt in pts], (len(pts), spec.m_dim))
    n2 = np.reshape([pt.n2 for pt in pts], (len(pts), spec.n_dim))
    tangent = ~_transverse(n1, n2, transverse_tol)
    if tangent.any():
        raise NonTransverseSample(f"sample at x = {pts[int(tangent.argmax())].x} is not transverse")
    pairs = _wide_pairs(n2[None], np.ones((1, len(n2)), bool), tol_angle)
    witnesses = [(pts[i], pts[j], angle) for _, i, j, angle in pairs]
    return not witnesses, witnesses


def _kernel_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the hyperplane orthogonal to v, or of
    each hyperplane orthogonal to a row of v (k, d) by one stacked SVD."""
    return np.linalg.svd(v[..., None, :])[2][..., 1:, :]


def mixed_hessian_check(spec: SymbolSpec, x, y, gx, gy, tol: float = HESSIAN_TOL):
    """C^2 form of the zero-curvature condition.

    At each boundary row of x (k, m), y (k, n) with gradient split
    (gx, gy), evaluates |u^t H_xy v| over orthonormal bases u of ker d_x F
    and v of ker d_y F; passes iff the maximum across all rows is
    <= tol * max ||H_xy||.  Returns (ok, max_violation) with the violation
    already normalized by the Hessian scale.
    """
    if not len(x):
        return True, 0.0
    n1, n2 = _unit_normals(gx, gy)
    tangent = ~_transverse(n1, n2, TRANSVERSE_TOL)
    if tangent.any():
        raise NonTransverseSample(f"point at x = {x[int(tangent.argmax())]} is not transverse")
    h = mixed_hessian(spec, x, y)
    scale = float(np.linalg.norm(h, 2, axis=(1, 2)).max())
    if scale == 0.0:
        return True, 0.0
    worst = 0.0
    if min(h.shape[1:]) > 1:  # else one factor is 1-dimensional: nothing to test
        bu = _kernel_basis(n1)
        bv = _kernel_basis(n2)
        worst = float(np.abs(bu @ h @ np.swapaxes(bv, 1, 2)).max())
    rel = worst / scale
    return rel <= tol, rel


@dataclass
class ClassificationReport:
    """Outcome of the classification pipeline with witness data."""

    verdict: str
    symbol_id: str
    witnesses: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    seed: int = 0
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "symbol_id": self.symbol_id,
            "witnesses": [
                {
                    "x1": list(w[0].x),
                    "y": list(w[0].y),
                    "x2": list(w[1].x),
                    "angle": w[2],
                }
                for w in self.witnesses
            ],
            "tolerances": self.tolerances,
            "samples": self.samples,
            "seed": self.seed,
            "notes": self.notes,
        }


def classify(
    spec: SymbolSpec,
    z0=None,
    boundary_samples: int = 64,
    sections: int = 8,
    points_per_section: int = 8,
    seed: int = 0,
    tol_angle: float = ANGLE_TOL,
    hessian_tol: float = HESSIAN_TOL,
    transverse_tol: float = TRANSVERSE_TOL,
) -> ClassificationReport:
    """Classify the domain at (a neighborhood of) a boundary point.

    Pipeline: sample boundary points by random rays (along y, or along x
    when no y ray meets the boundary); detect the degenerate one-sided
    cases (a normal component vanishing identically), which admit the
    triangular model for trivial reasons; report NON_TRANSVERSE when the
    base point is not transverse; otherwise run the tangent-comparison check
    across sections through common y values (those of the first ``sections``
    transverse pool points, or of further ones until one section has two
    points) and, when exact second derivatives exist, the mixed-Hessian
    check at the same points.  Agreeing
    checks produce TRIANGULAR_MODEL / CURVATURE_FAIL; disagreement yields
    INCONCLUSIVE with diagnostics.

    ``boundary_samples`` caps the pool; its rays are solved only as far as
    these steps read it: to ``min(sections, boundary_samples)`` points,
    and further only while a normal component vanishes at every point
    read, or a section group (with no ``z0``, a first transverse point)
    lies past the transverse points read.  What is read is always the
    start of the whole pool, so the report is the whole pool's;
    ``samples["pool_points"]`` counts the points read.
    """
    report = ClassificationReport(
        verdict=INCONCLUSIVE,
        symbol_id=spec.symbol_id,
        tolerances={
            "angle": tol_angle,
            "hessian": hessian_tol,
            "transverse": transverse_tol,
            "boundary": BOUNDARY_TOL,
            "degenerate": DEGENERATE_TOL,
        },
        samples={
            "boundary": boundary_samples,
            "sections": sections,
            "points_per_section": points_per_section,
        },
        seed=seed,
    )

    # the pool, its sections and their checks work on rows (x, y, gx, gy);
    # BoundaryPoints are made only for the witnesses.
    # The pool is read as a prefix, grown only where the prefix could
    # decide differently from the whole pool; rows of ``_newton`` are
    # solved independently, so every prefix is one of the whole pool's.
    group = max(sections, 1)

    def grow(target):
        rows = pool.grow(target)
        report.samples["pool_points"] = len(rows[0])
        return rows

    def transverse_points(need):
        """x and y of the transverse points of the pool, grown until
        ``need`` of them are transverse or it holds no more points."""
        target = 0
        while True:
            x, y, gx, gy = grow(target)
            transverse = _transverse(*_unit_normals(gx, gy), transverse_tol)
            missing = need - int(transverse.sum())
            if missing <= 0 or len(x) < target:  # enough, or no more points
                return x[transverse], y[transverse]
            target = len(x) + missing

    pool = _BoundaryPool(spec, boundary_samples, seed)
    if not len(grow(group)[0]):
        # rays move y only, so an F without y-dependence has no pool; the
        # transposed symbol's rays move x
        pool = _BoundaryPool(spec, boundary_samples, seed, transposed=True)
    x, y, gx, gy = grow(group)
    if not len(x):
        report.notes.append("no boundary points found in the domain box")
        return report

    n1, n2 = _unit_normals(gx, gy)
    if min(_row_norms(n1).max(), _row_norms(n2).max()) < DEGENERATE_TOL:
        # a component vanishing on the prefix may not vanish on the pool
        n1, n2 = _unit_normals(*grow(boundary_samples)[2:])
    if _row_norms(n1).max() < DEGENERATE_TOL:
        report.verdict = TRIANGULAR_MODEL
        report.notes.append("degenerate case: n1 vanishes at all samples")
        return report
    if _row_norms(n2).max() < DEGENERATE_TOL:
        report.verdict = TRIANGULAR_MODEL
        report.notes.append("degenerate case: n2 vanishes at all samples")
        return report

    if z0 is not None:
        x0, y0 = z0
        try:
            base = boundary_project(spec, np.asarray(x0, float), np.asarray(y0, float))
        except (NoConvergence, DegenerateGradient) as exc:
            report.notes.append(f"base point projection failed: {exc}")
            return report
        if not transversality_check(base, transverse_tol):
            report.verdict = NON_TRANSVERSE
            report.notes.append("base point is not transverse")
            return report
    elif not len(transverse_points(group)[0]):
        report.verdict = NON_TRANSVERSE
        report.notes.append("no transverse boundary point among samples")
        return report

    rng = np.random.default_rng([seed, 1])
    per = points_per_section
    # the sections of a group of up to ``sections`` transverse pool points
    # are solved as one batch; past the first group only until one section
    # assembles, and only that section is used.  A group is read once the
    # pool holds all of it, so its size, and the x starts drawn for it, are
    # those of the whole pool.
    start = 0
    while True:
        # a walk past the first group doubles the pool it reads, so it
        # grows the pool a few times and not once per group
        pool_x, pool_y = transverse_points(max(start + group, 2 * start))
        if start >= len(pool_x):
            report.samples["sections_used"] = 0
            report.notes.append("could not assemble section pairs for the curvature check")
            return report
        cx, cy = pool_x[start : start + sections], pool_y[start : start + sections]
        x_inits = np.concatenate(
            (_uniform_in_box(rng, spec.x_box, (len(cx), per - 1)), cx[:, None]), axis=1
        ).reshape(-1, spec.m_dim)
        rows, x, y, gx, gy = _project_rays(spec, x_inits, np.repeat(cy, per, axis=0), move_x=True)
        n1, n2 = _unit_normals(gx, gy)
        transverse = _transverse(n1, n2, transverse_tol)
        assembled = np.bincount(rows[transverse] // per, minlength=len(cx)) >= 2
        if start >= sections:
            assembled &= np.cumsum(assembled) == 1
        if assembled.any():
            break
        start += group
    report.samples["sections_used"] = int(assembled.sum())

    # the used rows in (section, point) slots, checked in one pass
    kept = transverse & assembled[rows // per]
    slots = np.ones((len(cx) * per, spec.n_dim))
    slots[rows[kept]] = n2[kept]
    in_slot = np.zeros(len(slots), bool)
    in_slot[rows[kept]] = True
    pairs = _wide_pairs(slots.reshape(len(cx), per, -1), in_slot.reshape(len(cx), per), tol_angle, 8)
    c1_ok = not pairs
    for s, i, j, angle in pairs:
        ab = np.searchsorted(rows, [s * per + i, s * per + j])
        p, q = _boundary_points(spec, x[ab], y[ab], gx[ab], gy[ab])
        report.witnesses.append((p, q, angle))
    x, y, gx, gy = x[kept], y[kept], gx[kept], gy[kept]

    c2_ok = None
    if spec.hess_xy is not None:
        c2_ok, violation = mixed_hessian_check(spec, x, y, gx, gy, hessian_tol)
        report.samples["hessian_points"] = len(x)
        report.samples["hessian_violation"] = violation

    if c2_ok is None or c2_ok == c1_ok:
        report.verdict = TRIANGULAR_MODEL if c1_ok else CURVATURE_FAIL
    else:
        report.verdict = INCONCLUSIVE
        report.notes.append(
            f"tangent-comparison check ({c1_ok}) disagrees with mixed-Hessian check ({c2_ok})"
        )
    return report
