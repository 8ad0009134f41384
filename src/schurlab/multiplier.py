"""Discretized Schur multipliers and norm-growth experiments.

Symbols are restricted to finite grids (one per factor), which can only
decrease multiplier norms; nested low-discrepancy grids plus witness
carry-over make the resulting lower bounds monotone in the grid size.
Also houses symbol pullbacks under product reparametrizations and the
weighted compression of circulants with its exact intertwining property.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NegativeWeight, OutOfDomain, ShapeInvalid, ShapeMismatch
from .matcore import _check_exponent, as_dense, multiplier_norm_lower_bound
from .symbols import SymbolSpec, indicator_values

__all__ = [
    "halton_sequence",
    "factor_grid",
    "nested_grids",
    "discretize_symbol",
    "NormGrowthRecord",
    "norm_growth_experiment",
    "records_to_csv",
    "CSV_HEADER",
    "RECORD_FIELDS",
    "Reparam",
    "componentwise_reparam",
    "pullback_symbol",
    "circulant",
    "fourier_multiplier_circulant",
    "compression_jp",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_GRID_SIZE = 2048  # largest grid size N the norms command accepts
MAX_GRID_DIM = len(_PRIMES)  # largest factor dimension a Halton grid covers


def _van_der_corput(count: int, base: int) -> np.ndarray:
    out = np.zeros(count)
    for i in range(count):
        f, r, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def halton_sequence(count: int, dim: int) -> np.ndarray:
    """First ``count`` Halton points in [0, 1)^dim (prefix-nested)."""
    return np.stack([_van_der_corput(count, _PRIMES[d]) for d in range(dim)], axis=-1)


def factor_grid(box, count: int) -> np.ndarray:
    """Halton points scaled into the box of one factor; axis d uses the
    d-th prime, so equal-dimension factors share identical grids."""
    pts = halton_sequence(count, len(box))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + pts * (hi - lo)


def nested_grids(spec: SymbolSpec, sizes: Sequence[int]):
    """Per-size (grid_x, grid_y) pairs, nested by prefix."""
    top = max(sizes)
    gx = factor_grid(spec.x_box, top)
    gy = factor_grid(spec.y_box, top)
    return {n: (gx[:n], gy[:n]) for n in sizes}


def discretize_symbol(spec: SymbolSpec, grid_x, grid_y) -> np.ndarray:
    """0/1 matrix M[i, j] = chi_Sigma(grid_x[i], grid_y[j])."""
    gx = np.atleast_2d(np.asarray(grid_x, dtype=float))
    gy = np.atleast_2d(np.asarray(grid_y, dtype=float))
    if gx.shape[1] != spec.m_dim or gy.shape[1] != spec.n_dim:
        raise ShapeMismatch(
            f"grid dims {(gx.shape[1], gy.shape[1])} vs factors {(spec.m_dim, spec.n_dim)}"
        )
    for g, box in ((gx, spec.x_box), (gy, spec.y_box)):
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        if np.any(g < lo) or np.any(g > hi):
            raise OutOfDomain("grid points outside the domain box")
    vals = indicator_values(spec, gx[:, None, :], gy[None, :, :])
    if np.any(np.isnan(vals)):
        raise OutOfDomain("symbol undefined at some grid points")
    return vals


@dataclass(frozen=True)
class NormGrowthRecord:
    symbol_id: str
    p: float
    n: int
    lower_bound: float
    upper_bound: float  # certified: the scaling loop's, interpolated at 1 < p < inf
    iterations: int  # scaling-loop steps (0 at p = 2, where no loop runs)
    stop: str  # why the scaling loop stopped: gap, stall or cap
    trials: int
    seed: int
    wall_ms: int


# a record's fields after (symbol_id, p, N), in report order; wall_ms is last
RECORD_FIELDS = ("lower_bound", "upper_bound", "iterations", "stop", "trials", "seed", "wall_ms")
CSV_HEADER = ",".join(("symbol_id", "p", "N") + RECORD_FIELDS)


def records_to_csv(records) -> str:
    """One CSV row per record."""
    lines = [CSV_HEADER]
    for r in records:
        p = "inf" if np.isinf(r.p) else repr(float(r.p))
        cells = [r.symbol_id, p, r.n] + [getattr(r, k) for k in RECORD_FIELDS]
        lines.append(",".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def norm_growth_experiment(
    spec: SymbolSpec,
    p,
    sizes: Sequence[int],
    budget: int = 6,
    seed: int = 0,
    ascent_steps: int = 50,
):
    """Multiplier-norm brackets on nested grids of increasing size.

    The best witness found at each size is zero-padded into the next
    (larger grids contain the smaller ones as leading prefixes), so the
    reported lower bounds never decrease with N.  At 1 < p < inf, p != 2,
    each size first runs the scaling loop at the nearer end (p = inf above
    2, p = 1 below), whose witness is the first extra start, ahead of the
    carried one.  The loop's certified S_inf (= S_1) bound U gives the
    Riesz-Thorin upper bound sup|M|^(1 - theta) U^theta, theta = |1 - 2/p|,
    between the exact S_2 norm sup|M| and U; at p = 2 the bracket is
    [sup|M|, sup|M|] and no loop runs.  A record's ``trials`` counts the
    estimator's starts: the matrix unit, the loop's witness, the carried
    witness (after the first size) and ``2 * budget`` seeded starts; at p
    in {1, inf}, where the scaling loop replaces the starts, its witness and
    the carried one; at p = 2 all but the loop's witness.  The zero symbol
    scores no seeded start, so its ``trials`` count none.
    """
    sizes = list(sizes)
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    p = _check_exponent(p)
    theta = abs(1.0 - 2.0 / p)  # 1 at p in {1, inf}, 0 at p = 2
    grids = nested_grids(spec, sizes)
    records = []
    prev_witness = None
    for n in sizes:
        gx, gy = grids[n]
        m = discretize_symbol(spec, gx, gy)
        t0 = time.perf_counter()
        extra, loop = [], None
        if 0.0 < theta < 1.0:
            loop = multiplier_norm_lower_bound(m, np.inf if p > 2.0 else 1.0, report=True)
            extra.append(loop.witness)
        if prev_witness is not None:
            pad = np.zeros(m.shape, dtype=prev_witness.dtype)
            pad[: prev_witness.shape[0], : prev_witness.shape[1]] = prev_witness
            extra.append(pad)
        est = multiplier_norm_lower_bound(
            m,
            p,
            budget=budget,
            seed=seed,
            extra_starts=extra,
            ascent_steps=ascent_steps,
            report=True,
        )
        loop = est if loop is None else loop  # at p in {1, inf} the estimate is the loop
        sup = float(np.abs(m).max())
        if theta == 0.0:
            upper, iterations, stop = sup, 0, "gap"
        else:
            upper = sup ** (1.0 - theta) * loop.upper_bound**theta
            iterations, stop = loop.iterations, loop.stop
        upper = max(upper, float(est.lower_bound))  # where rounding inverts them; still an upper bound
        wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
        prev_witness = est.witness
        records.append(
            NormGrowthRecord(
                symbol_id=spec.symbol_id,
                p=p,
                n=n,
                lower_bound=float(est.lower_bound),
                upper_bound=upper,
                iterations=iterations,
                stop=stop,
                trials=1 + len(extra) + (2 * budget if est.stop is None and m.any() else 0),
                seed=seed,
                wall_ms=wall_ms,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reparam:
    """A reparametrization of one factor.

    ``fn`` maps batched points (..., d) -> (..., d); ``jac`` maps them to
    the Jacobians (..., d, d) (used to transport derivatives, on batches
    of points in the boundary solvers);
    ``inverse`` maps points back (used to transport the domain box).  When
    ``inverse`` is missing the map must be componentwise monotone so the
    box can be transported by bisection.
    """

    fn: Callable
    jac: Optional[Callable] = None
    inverse: Optional[Callable] = None


def componentwise_reparam(fns, dfns=None, inverses=None) -> Reparam:
    """Reparam acting separately on each coordinate by the scalar maps
    ``fns`` (with optional derivatives and inverses)."""
    fns = list(fns)
    d = len(fns)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        return np.stack([fns[i](pts[..., i]) for i in range(d)], axis=-1)

    jac = None
    if dfns is not None:
        dlist = list(dfns)

        def jac(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.zeros(pts.shape + (d,))
            for i in range(d):
                out[..., i, i] = dlist[i](pts[..., i])
            return out

    inverse = None
    if inverses is not None:
        ilist = list(inverses)

        def inverse(pts):
            pts = np.asarray(pts, dtype=float)
            return np.stack([ilist[i](pts[..., i]) for i in range(d)], axis=-1)

    return Reparam(fn=fn, jac=jac, inverse=inverse)


def _transport_box(reparam: Reparam, box):
    """Preimage of the box under the reparametrization."""
    if reparam.inverse is not None:
        los = reparam.inverse(np.array([b[0] for b in box], dtype=float))
        his = reparam.inverse(np.array([b[1] for b in box], dtype=float))
        return tuple(
            (min(float(a), float(b)), max(float(a), float(b))) for a, b in zip(los, his)
        )
    # componentwise monotone fallback: all 2d endpoints are bisected together,
    # each along its axis through the box centre, inside a range widened by 4
    # box widths; once no midpoint lies strictly inside its interval, further
    # halvings would not move any endpoint
    edges = np.array(box, dtype=float)  # (d, 2)
    d = edges.shape[0]
    rows, axis = np.arange(2 * d), np.repeat(np.arange(d), 2)
    target = edges.ravel()  # lo_0, hi_0, lo_1, ...
    span = (edges[:, 1] - edges[:, 0])[axis]
    a, b = edges[axis, 0] - 4.0 * span, edges[axis, 1] + 4.0 * span
    centre = 0.5 * (edges[:, 0] + edges[:, 1])

    def f(t):
        pts = np.tile(centre, (2 * d, 1))
        pts[rows, axis] = t
        return np.asarray(reparam.fn(pts), dtype=float)[rows, axis]

    sign = np.where(f(b) >= f(a), 1.0, -1.0)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not np.any((a < mid) & (mid < b)):
            break
        below = sign * (f(mid) - target) < 0.0
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    t = 0.5 * (a + b)
    return tuple((float(min(x, y)), float(max(x, y))) for x, y in zip(t[0::2], t[1::2]))


def pullback_symbol(
    spec: SymbolSpec,
    reparam_x: Reparam,
    reparam_y: Reparam,
    box=None,
) -> SymbolSpec:
    """The symbol with F' = F o (rx x ry).

    Since each map touches a single factor, classification verdicts and
    (up to estimator noise on transported grids) multiplier norms are
    invariant.  Gradients and mixed Hessians transport through the
    Jacobians when both the base spec and the reparametrizations provide
    exact derivatives.
    """
    base_f, base_grad, base_hess = spec.f, spec.grad, spec.hess_xy
    rx, ry = reparam_x.fn, reparam_y.fn

    def f(x, y):
        return base_f(rx(x), ry(y))

    grad = None
    if base_grad is not None and reparam_x.jac is not None and reparam_y.jac is not None:

        def grad(x, y):
            gx, gy = base_grad(rx(x), ry(y))
            jx = reparam_x.jac(np.asarray(x, dtype=float))
            jy = reparam_y.jac(np.asarray(y, dtype=float))
            return (
                np.einsum("...ji,...j->...i", jx, np.asarray(gx, dtype=float)),
                np.einsum("...ji,...j->...i", jy, np.asarray(gy, dtype=float)),
            )

    hess = None
    if base_hess is not None and reparam_x.jac is not None and reparam_y.jac is not None:

        def hess(x, y):
            h = np.asarray(base_hess(rx(x), ry(y)), dtype=float)
            jx = reparam_x.jac(np.asarray(x, dtype=float))
            jy = reparam_y.jac(np.asarray(y, dtype=float))
            return np.swapaxes(jx, -1, -2) @ h @ jy

    if box is None:
        box = _transport_box(reparam_x, spec.x_box) + _transport_box(reparam_y, spec.y_box)
    return SymbolSpec(
        m_dim=spec.m_dim,
        n_dim=spec.n_dim,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=tuple(tuple(b) for b in box),
        builtin=None,
        params={"pullback_of": spec.symbol_id},
        symbol_id=f"pullback({spec.symbol_id})",
    )


# ---------------------------------------------------------------------------
# Circulants and the weighted compression
# ---------------------------------------------------------------------------


def circulant(coeffs) -> np.ndarray:
    """Circulant matrix X[j, k] = c[(j - k) mod N] from coefficients c."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.shape[0]
    j = np.arange(n)
    return c[(j[:, None] - j[None, :]) % n]


def _is_circulant(x, tol: float = 1e-12) -> bool:
    xx = as_dense(x)
    if xx.shape[0] != xx.shape[1]:
        return False
    rebuilt = circulant(xx[:, 0])
    scale = max(1.0, float(np.abs(xx).max()))
    return bool(np.max(np.abs(xx - rebuilt)) <= tol * scale)


def fourier_multiplier_circulant(x, m) -> np.ndarray:
    """The Fourier multiplier on Z_N: scale the coefficient of each shift
    lambda(g) by m(g)."""
    xx = as_dense(x)
    if not _is_circulant(xx):
        raise ShapeInvalid("fourier multiplier needs a circulant input")
    c = xx[:, 0]  # the coefficient c(g) of each shift
    mv = np.asarray(m, dtype=complex)
    if mv.shape != c.shape:
        raise ShapeMismatch(f"symbol length {mv.shape} vs group size {c.shape}")
    return circulant(mv * c)


def compression_jp(x, phi, psi, p) -> np.ndarray:
    """Weighted compression diag(phi^(1/p)) X diag(psi^(1/p)) of a circulant.

    Intertwines exactly with multipliers: applying the Fourier multiplier m
    before compressing equals compressing first and then applying the Schur
    multiplier with symbol M(i, j) = m((i - j) mod N).
    """
    xx = as_dense(x)
    if not _is_circulant(xx):
        raise ShapeInvalid("compression is defined for circulant matrices")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != (xx.shape[0],) or psi.shape != (xx.shape[0],):
        raise ShapeMismatch("weight vectors must match the matrix size")
    if np.any(phi < 0.0) or np.any(psi < 0.0):
        raise NegativeWeight("weights must be entrywise nonnegative")
    p = float(p)
    if np.isinf(p):
        wl = (phi > 0).astype(float)
        wr = (psi > 0).astype(float)
    else:
        wl = phi ** (1.0 / p)
        wr = psi ** (1.0 / p)
    return wl[:, None] * xx * wr[None, :]
