"""Boundary geometry and the domain classification pipeline.

Implements boundary-point solving, the transversality test, the
zero-curvature checks (tangent-comparison form for C^1 data and the mixed
Hessian form for C^2 data), local normal-form charts, verification of
triangular factorizations, and the combined classifier that sorts a domain
into TRIANGULAR_MODEL / CURVATURE_FAIL / NON_TRANSVERSE / INCONCLUSIVE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateGradient,
    NoConvergence,
    NonTransverse,
    NonTransverseSample,
)
from .symbols import (
    BoundaryPoint,
    SymbolSpec,
    gradient,
    mixed_hessian,
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
    "NormalFormChart",
    "normal_form_chart",
    "triangular_factorization_check",
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


def _make_boundary_point(spec, x, y) -> BoundaryPoint:
    gx, gy = gradient(spec, x, y)
    nrm = math.sqrt(float(np.sum(gx**2) + np.sum(gy**2)))
    return BoundaryPoint(
        x=np.array(x, dtype=float),
        y=np.array(y, dtype=float),
        n1=gx / nrm,
        n2=gy / nrm,
        residual=abs(float(spec.f(np.asarray(x, float), np.asarray(y, float)))),
    )


def _newton(f, grad, z, tol, max_iter):
    """Damped Newton for the scalar equation f(z) = 0 over a vector z.

    Each step is the minimum-norm Newton step -f / |grad f|^2 * grad f,
    halved up to 30 times until |f| decreases.  Raises NoConvergence after
    ``max_iter`` steps and DegenerateGradient where the gradient vanishes.
    """
    z = np.array(z, dtype=float)
    val = float(f(z))
    stall = 0
    for _ in range(max_iter):
        if abs(val) <= tol:
            return z
        g = grad(z)
        g2 = float(np.sum(g**2))
        if g2 < 1e-24:
            raise DegenerateGradient("gradient vanishes during boundary projection")
        step = -val / g2 * g
        lam = 1.0
        for _ in range(30):
            z_new = z + lam * step
            val_new = float(f(z_new))
            if np.isfinite(val_new) and abs(val_new) < abs(val):
                break
            lam *= 0.5
        else:
            raise NoConvergence("boundary projection cannot decrease |F|")
        # Newton contracts fast near a simple root; a plateau means the
        # equation has no root to find
        stall = stall + 1 if abs(val_new) > 0.75 * abs(val) else 0
        if stall >= 5:
            raise NoConvergence("boundary projection plateaued away from a root")
        z, val = z_new, val_new
    raise NoConvergence(f"boundary projection stalled at |F| = {abs(val):.3e}")


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
    x = np.asarray(x, dtype=float)
    y = _newton(lambda y: spec.f(x, y), lambda y: gradient(spec, x, y)[1], y_init, tol, max_iter)
    return _make_boundary_point(spec, x, y)


def boundary_project_x(
    spec: SymbolSpec,
    x_init,
    y,
    tol: float = BOUNDARY_TOL,
    max_iter: int = 100,
) -> BoundaryPoint:
    """Project x_init onto {x : F(x, y) = 0} (the other factor fixed)."""
    y = np.asarray(y, dtype=float)
    x = _newton(lambda x: spec.f(x, y), lambda x: gradient(spec, x, y)[0], x_init, tol, max_iter)
    return _make_boundary_point(spec, x, y)


def transversality_check(pt: BoundaryPoint, tol: float = TRANSVERSE_TOL) -> bool:
    """True iff both normal components carry at least ``tol`` of the
    joint normal's length."""
    joint = math.sqrt(float(np.sum(pt.n1**2) + np.sum(pt.n2**2)))
    return (
        float(np.linalg.norm(pt.n1)) >= tol * joint
        and float(np.linalg.norm(pt.n2)) >= tol * joint
    )


def _random_in_box(rng, box):
    return np.array([rng.uniform(lo, hi) for lo, hi in box])


def sample_boundary_points(
    spec: SymbolSpec,
    count: int,
    seed: int = 0,
    max_attempts: Optional[int] = None,
) -> list:
    """Boundary points from random rays: draw (x, y_init) uniformly in the
    domain box and project y.  Non-converging draws are skipped."""
    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    cap = max_attempts if max_attempts is not None else 40 * count
    while len(pts) < count and attempts < cap:
        attempts += 1
        x = _random_in_box(rng, spec.x_box)
        y0 = _random_in_box(rng, spec.y_box)
        try:
            pt = boundary_project(spec, x, y0)
        except (NoConvergence, DegenerateGradient):
            continue
        if _in_box_arr(pt.y, spec.y_box):
            pts.append(pt)
    return pts


def _in_box_arr(v, box):
    return all(lo <= t <= hi for t, (lo, hi) in zip(v, box))


def _angle_between_lines(u, v) -> float:
    """Angle between the lines spanned by unit vectors u, v (sign ignored)."""
    c = abs(float(np.dot(u, v)))
    return math.acos(min(1.0, c))


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
    y = np.asarray(y, dtype=float)
    pts = []
    for x0 in x_samples:
        pt = boundary_project_x(spec, x0, y)
        if not transversality_check(pt, transverse_tol):
            raise NonTransverseSample(f"sample at x = {pt.x} is not transverse")
        pts.append(pt)
    witnesses = _section_witnesses(pts, tol_angle)
    return not witnesses, witnesses


def _section_witnesses(pts, tol_angle):
    """The pairs (point_i, point_j, angle), i < j, whose unit normals n2
    span lines more than ``tol_angle`` apart."""
    units = [pt.n2 / np.linalg.norm(pt.n2) for pt in pts]
    witnesses = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            ang = _angle_between_lines(units[i], units[j])
            if ang > tol_angle:
                witnesses.append((pts[i], pts[j], ang))
    return witnesses


def _kernel_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the hyperplane orthogonal to v."""
    d = v.shape[0]
    if d == 1:
        return np.zeros((0, 1))
    _, _, vh = np.linalg.svd(v.reshape(1, -1))
    return vh[1:]


def mixed_hessian_check(
    spec: SymbolSpec,
    pts,
    tol: float = HESSIAN_TOL,
):
    """C^2 form of the zero-curvature condition.

    For each boundary point, evaluates |u^t H_xy v| over orthonormal bases
    u of ker d_x F and v of ker d_y F; passes iff the maximum across all
    points is <= tol * max ||H_xy||.  Returns (ok, max_violation) with the
    violation already normalized by the Hessian scale.
    """
    worst = 0.0
    scale = 0.0
    for pt in pts:
        if not transversality_check(pt):
            raise NonTransverseSample(f"point at x = {pt.x} is not transverse")
        h = mixed_hessian(spec, pt.x, pt.y)
        hnorm = float(np.linalg.norm(h, 2))
        scale = max(scale, hnorm)
        bu = _kernel_basis(pt.n1)
        bv = _kernel_basis(pt.n2)
        if bu.shape[0] == 0 or bv.shape[0] == 0:
            continue  # one factor is 1-dimensional: nothing to test
        vals = np.abs(bu @ h @ bv.T)
        worst = max(worst, float(vals.max()))
    if scale == 0.0:
        return True, 0.0
    rel = worst / scale
    return rel <= tol, rel


@dataclass(frozen=True)
class NormalFormChart:
    """Local product chart straightening the boundary to {x1 = g(x~, y)}.

    ``phi``/``psi`` map original coordinates into the chart, ``g`` is
    evaluated in chart coordinates and satisfies g(0, y) = y1, and
    ``surface_point`` reconstructs the original boundary point from
    (x~, y) chart data.
    """

    phi: Callable
    phi_inv: Callable
    psi: Callable
    psi_inv: Callable
    g: Callable
    surface_point: Callable
    radius: float


def normal_form_chart(
    spec: SymbolSpec,
    z0: BoundaryPoint,
    radius: Optional[float] = None,
    tol: float = BOUNDARY_TOL,
) -> NormalFormChart:
    """Build the normal-form chart around a transverse boundary point.

    The x chart is an isometry moving the x-normal onto e1, so the boundary
    becomes a graph x1' = h(x~', y) solved pointwise by Newton.  The y chart
    is y' = (h(0, y), P (y - y0)) for a fixed complement P, which forces
    g(0, y') = y'_1 by construction.  All evaluations are per-point
    implicit solves; NoConvergence propagates from points outside the
    chart's reach.
    """
    if not transversality_check(z0):
        raise NonTransverse("normal form requires a transverse base point")
    x0 = np.array(z0.x, dtype=float)
    y0 = np.array(z0.y, dtype=float)
    m = spec.m_dim

    # orthogonal Q with Q n1_unit = e1
    n1u = z0.n1 / np.linalg.norm(z0.n1)
    q = _rotation_to_e1(n1u)

    def phi(x):
        return q @ (np.asarray(x, dtype=float) - x0)

    def phi_inv(xc):
        return x0 + q.T @ np.asarray(xc, dtype=float)

    def h(x_tail, y):
        """Solve F(phi_inv((t, x_tail)), y) = 0 for t near 0."""
        x_tail = np.asarray(x_tail, dtype=float)
        y = np.asarray(y, dtype=float)

        def fval(t):
            return spec.f(phi_inv(np.concatenate((t, x_tail))), y)

        def fder(t):
            gx, _ = gradient(spec, phi_inv(np.concatenate((t, x_tail))), y)
            return (q @ gx)[:1]

        return float(_newton(fval, fder, np.zeros(1), tol, 100)[0])

    # direction of d_y h(0, .) at y0, from the implicit relation
    gx0, gy0 = gradient(spec, x0, y0)
    ft = float((q @ gx0)[0])
    w = -gy0 / ft
    wn = float(np.linalg.norm(w))
    if wn < 1e-12:
        raise DegenerateGradient("boundary section has no y-dependence at base point")
    w_hat = w / wn
    comp = _kernel_basis(w_hat)  # (n-1) x n rows

    def psi(y):
        y = np.asarray(y, dtype=float)
        return np.concatenate(([h(np.zeros(m - 1), y)], comp @ (y - y0)))

    def psi_inv(yc):
        yc = np.asarray(yc, dtype=float)
        s, tail = float(yc[0]), yc[1:]
        base = y0 + comp.T @ tail

        def fval(t):
            return h(np.zeros(m - 1), base + t[0] * w_hat) - s

        def fder(t):
            yy = base + t[0] * w_hat
            gx, gy = gradient(spec, phi_inv(np.concatenate(([h(np.zeros(m - 1), yy)], np.zeros(m - 1)))), yy)
            return np.array([np.dot(-gy / float((q @ gx)[0]), w_hat)])

        t_star = _newton(fval, fder, np.zeros(1), tol, 100)[0]
        return base + t_star * w_hat

    def g(x_tail, yc):
        return h(x_tail, psi_inv(yc))

    def surface_point(x_tail, yc):
        y = psi_inv(yc)
        t = h(x_tail, y)
        return phi_inv(np.concatenate(([t], np.asarray(x_tail, dtype=float)))), y

    if radius is None:
        radius = 0.05 * (1.0 + float(np.linalg.norm(np.concatenate([x0, y0]))))
    return NormalFormChart(
        phi=phi,
        phi_inv=phi_inv,
        psi=psi,
        psi_inv=psi_inv,
        g=g,
        surface_point=surface_point,
        radius=radius,
    )


def _rotation_to_e1(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping unit vector u to e1 (Householder based)."""
    d = u.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = u - e1
    vn = float(np.linalg.norm(v))
    if vn < 1e-14:
        return np.eye(d)
    v = v / vn
    return np.eye(d) - 2.0 * np.outer(v, v)


def triangular_factorization_check(
    spec: SymbolSpec,
    f1: Callable,
    f2: Callable,
    samples: int = 4096,
    seed: int = 0,
    band: float = 1e-9,
) -> bool:
    """Verify chi_Sigma(x, y) == [f1(x) > f2(y)] on random samples.

    Points within ``band`` of either zero set ({F = 0} or {f1 = f2}) are
    excluded, as are points where F is undefined.
    """
    rng = np.random.default_rng(seed)
    agree = True
    for _ in range(samples):
        x = _random_in_box(rng, spec.x_box)
        y = _random_in_box(rng, spec.y_box)
        fval = float(spec.f(x, y))
        if not np.isfinite(fval) or abs(fval) <= band:
            continue
        split = float(f1(x)) - float(f2(y))
        if abs(split) <= band:
            continue
        if (fval > 0.0) != (split > 0.0):
            agree = False
            break
    return agree


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

    Pipeline: sample boundary points by random rays; detect the degenerate
    one-sided cases (a normal component vanishing identically), which admit
    the triangular model for trivial reasons; report NON_TRANSVERSE when the
    base point is not transverse; otherwise run the tangent-comparison check
    across sections through common y values (those of the first ``sections``
    transverse pool points, or of further ones until one section has two
    points) and, when exact second
    derivatives exist, the mixed-Hessian check at the same points.  Agreeing
    checks produce TRIANGULAR_MODEL / CURVATURE_FAIL; disagreement yields
    INCONCLUSIVE with diagnostics.
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

    pool = sample_boundary_points(spec, boundary_samples, seed=seed)
    if not pool:
        report.notes.append("no boundary points found in the domain box")
        return report

    max_n1 = max(float(np.linalg.norm(p.n1)) for p in pool)
    max_n2 = max(float(np.linalg.norm(p.n2)) for p in pool)
    if max_n1 < DEGENERATE_TOL:
        report.verdict = TRIANGULAR_MODEL
        report.notes.append("degenerate case: n1 vanishes at all samples")
        return report
    if max_n2 < DEGENERATE_TOL:
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
    else:
        transverse_pool = [p for p in pool if transversality_check(p, transverse_tol)]
        if not transverse_pool:
            report.verdict = NON_TRANSVERSE
            report.notes.append("no transverse boundary point among samples")
            return report
        pool = transverse_pool

    rng = np.random.default_rng([seed, 1])
    c1_ok = True
    used_sections = 0
    transverse_pts = []
    sample_pool = [p for p in pool if transversality_check(p, transverse_tol)]
    for k, pt in enumerate(sample_pool):
        if k >= sections and used_sections:
            break
        x_inits = [_random_in_box(rng, spec.x_box) for _ in range(points_per_section - 1)]
        x_inits.append(pt.x)
        kept = []
        for x0 in x_inits:
            try:
                q = boundary_project_x(spec, x0, pt.y)
            except (NoConvergence, DegenerateGradient):
                continue
            if _in_box_arr(q.x, spec.x_box) and transversality_check(q, transverse_tol):
                kept.append(q)
        if len(kept) < 2:
            continue
        used_sections += 1
        transverse_pts.extend(kept)
        witnesses = _section_witnesses(kept, tol_angle)
        if witnesses:
            c1_ok = False
            report.witnesses.extend(witnesses[: 8 - len(report.witnesses)])
    report.samples["sections_used"] = used_sections
    if used_sections == 0:
        report.notes.append("could not assemble section pairs for the curvature check")
        return report

    c2_available = spec.hess_xy is not None
    c2_ok = None
    if c2_available and transverse_pts:
        c2_ok, violation = mixed_hessian_check(spec, transverse_pts, hessian_tol)
        report.samples["hessian_points"] = len(transverse_pts)
        report.samples["hessian_violation"] = violation

    if c2_ok is None or c2_ok == c1_ok:
        report.verdict = TRIANGULAR_MODEL if c1_ok else CURVATURE_FAIL
    else:
        report.verdict = INCONCLUSIVE
        report.notes.append(
            f"tangent-comparison check ({c1_ok}) disagrees with mixed-Hessian check ({c2_ok})"
        )
    return report
