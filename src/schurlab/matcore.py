"""Dense linear algebra core.

Singular spectra, Schatten p-norms, entrywise (Schur) products, and a
randomized lower-bound estimator for the norm of a Schur multiplier acting
on Schatten classes.  Everything operates on plain 2-D numpy arrays, real or
complex; real input stays real, so its SVDs run in real arithmetic.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidExponent, NonFinite, ShapeInvalid, ShapeMismatch

__all__ = [
    "as_dense",
    "singular_spectrum",
    "svd_factors",
    "schatten_norm",
    "schur_product",
    "multiplier_norm_lower_bound",
]


def as_dense(a) -> np.ndarray:
    """Validate ``a`` as a dense 2-D matrix with finite entries: float
    when ``a`` has a real dtype, complex otherwise."""
    m = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeInvalid(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def singular_spectrum(a) -> np.ndarray:
    """Singular values of ``a``, sorted nonincreasing.

    Length is min(rows, cols) and every value is >= 0.
    """
    m = as_dense(a)
    return np.linalg.svd(m, compute_uv=False)


def svd_factors(a):
    """Full thin SVD ``(u, s, vh)`` with ``a ~ (u * s) @ vh``.

    The reconstruction residual is within 1e-10 * ||a||_F (LAPACK dense
    SVD meets this on the matrix sizes this package targets).
    """
    m = as_dense(a)
    return np.linalg.svd(m, full_matrices=False)


def _check_exponent(p) -> float:
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponent(f"exponent must be a real in [1, inf], got {p!r}") from exc
    if np.isnan(p) or p < 1.0:
        raise InvalidExponent(f"exponent must be >= 1 or inf, got {p}")
    return p


def _schatten_from_sv(s: np.ndarray, p: float) -> float:
    if s.size == 0:
        return 0.0
    top = float(s.max())  # s[0] for sorted singular values
    if np.isinf(p):
        return top
    if top == 0.0:
        return 0.0
    # factor out the top value to avoid overflow for large p
    return top * float(np.sum((s / top) ** p) ** (1.0 / p))


def schatten_norm(a, p) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)^(1/p).

    ``p = 2`` is the Frobenius norm, ``p = inf`` the operator norm.
    """
    p = _check_exponent(p)
    m = as_dense(a)
    if p == 2.0:
        return float(np.linalg.norm(m))
    return _schatten_from_sv(np.linalg.svd(m, compute_uv=False), p)


def schur_product(m, a) -> np.ndarray:
    """Entrywise product of two matrices of the same shape."""
    mm = as_dense(m)
    aa = as_dense(a)
    if mm.shape != aa.shape:
        raise ShapeMismatch(f"shape {mm.shape} vs {aa.shape}")
    return mm * aa


# ---------------------------------------------------------------------------
# Randomized lower bounds for multiplier norms.
#
# The norm of A -> M o A on S_p is bounded below by ||M o A||_p / ||A||_p for
# any test matrix A.  Starting from a deterministic matrix unit at the largest
# |M| entry, any extra starts, and seeded Gaussian and rank-one draws, each
# start is scored and then refined by alternating duality ascent on the
# bilinear form Re<Z, M o A> over unit balls ||A||_p <= 1, ||Z||_q <= 1.  Both
# half-steps are the same exact maximization (the norming map of S_q, then of
# S_p), so the form increases monotonically; the reported value is always the
# plain ratio at the best iterate and hence a genuine lower bound.  A real
# witness is also a complex one, so running real symbols in real arithmetic
# still bounds the complex S_p norm from below.
#
# The norming map picks its route from the exponent alone, and it takes an
# SVD only where no Gram route applies.  With G = X^H X, formed after the
# largest entry of X is scaled to 1:
# - When the dual exponent r' is an even integer 2k in GRAM_DUALS (the dual
#   step at p = 4, the primal step at p = 4/3, both steps at p = 2), the
#   argmax is proportional to X G^(k-1) and ||X||_r'^r' = tr G^k: k matrix
#   products.  Since 1 <= tr G^k <= (rows * cols)^(k + 1), a small k cannot
#   overflow (at r' = 200 an all-ones 64 x 64 block would).  The start norm
#   ||A||_p at p in GRAM_DUALS is the same trace.
# - At r = 1 (the dual step at p = inf, the primal step at p = 1) the argmax
#   is the rank-one u v^H built from the top eigenvector v of G.  Given the
#   same side's previous iterate u0 v0^H, v comes from a power iteration on
#   G started at v0: it stops once v^H G v gains less than POWER_TOL
#   relative.  That quotient never decreases, so the value never falls
#   below |X v0|, which bounds the previous step's form Re(u0^H X v0).
#   At a start's first step, when G v0 = 0 and after POWER_CAP iterations,
#   v comes from eigh.  The value t |Xv| for a unit v never exceeds ||X||,
#   however accurate v is.
# - At r = inf (the polar step at p = inf, the dual step at p = 1) and at
#   r = 2k in GRAM_DUALS (the s^(1/3) step at p = 4, the dual step at
#   p = 4/3), one eigh of G gives V and B = X V = U S.  Columns of B below
#   numpy's matrix_rank tolerance are dropped.  At r = 2k, Y = U s^(r'-1) V^H
#   is divided by (tr (Y^H Y)^k)^(1/r), so ||Y||_r = 1 by products whatever
#   the accuracy of eigh.  At r = inf, Y = Q V^H with Q = B / |B| is divided
#   by sqrt(1 + ||Q^H Q - I||_F), which bounds ||Q||.  When that defect
#   exceeds sqrt(eps) the step takes the SVD instead: G cannot resolve
#   singular values of X below sqrt(eps) ||X||, and a polar factor formed
#   from it loses accuracy on an ill-conditioned X (Higham 1986).
# Every Gram route returns the value Re<X, Y> (on the first two it is the
# trace and |Xv| the products already give), which by Holder never exceeds
# ||X||_r', so every ratio stays a lower bound.  The sum of |B|^r' is not
# used: over an inexact eigenbasis it can exceed ||X||_r' when r' < 2
# (Schur-Horn).  Other exponents (p = 3, 1.5, ...), the fallback and the
# start norm at p outside GRAM_DUALS take a thin SVD, except for the matrix
# unit (norm 1) and the rank-one starts u v^T (norm |u||v|).
#
# Starts are pruned by successive halving.  Every start gets WARMUP_STEPS
# ascent steps; after them, only a start whose ratio ranks among the best
# SURVIVORS of the starts up to it (in start order, earlier starts winning
# ties) ascends on to the step cap.  A start is judged only against earlier
# starts, so a larger budget, which only appends starts, never changes the
# fate of an earlier one, and the bound never decreases with the budget.
# The scores and best iterates of pruned starts still count.  On the
# triangular symbol all random starts reach the same p = inf value to about
# 1e-7, so ascending more than the best two of them wastes SVDs.
# ---------------------------------------------------------------------------

WARMUP_STEPS = 4  # ascent steps every start gets before it is judged
SURVIVORS = 2  # starts that ascend past the warm-up rank in the top SURVIVORS
GRAM_DUALS = (2.0, 4.0, 6.0, 8.0)  # dual exponents normed by Gram products
POWER_TOL = 1e-12  # relative gain of v^H G v below which the power iteration stops
POWER_CAP = 60  # power iterations before the rank-one step falls back to eigh


def _gram_power(x, g, k):
    """(X G^(k-1), tr G^k) for G = X^H X given as ``g``; tr G^k = ||X||_2k^2k."""
    y = x
    for _ in range(k - 1):
        y = y @ g
    return y, float(np.vdot(x, y).real)


def _power_iteration(g, previous):
    """Unit v from a power iteration on G started at the right factor v0 of
    the rank-one ``previous`` = u0 v0^H; None when G v0 = 0 or after
    POWER_CAP iterations without a stall.  On a positive semidefinite G the
    Rayleigh quotient v^H G v never decreases (Chebyshev's sum inequality
    over the spectral weights of v)."""
    v = np.conj(previous[np.argmax(np.abs(previous)) // previous.shape[1]])  # a row is u0_i v0^H
    v = v / np.linalg.norm(v)
    w = g @ v
    lam = np.vdot(v, w).real
    if not lam > 0.0:
        return None
    for _ in range(POWER_CAP):
        v = w / np.linalg.norm(w)
        w = g @ v
        lam, last = np.vdot(v, w).real, lam
        if lam <= last * (1.0 + POWER_TOL):
            return v
    return None


def _norming(x, r, rd, previous=None):
    """argmax Y of Re<X, Y> over the unit ball ||Y||_r <= 1, and the value
    Re<X, Y> at it, which is ||X||_rd up to rounding and never exceeds it.
    ``rd`` is the dual exponent of ``r`` (passed exactly, so that an even
    ``rd`` is recognised); Y is None when X = 0.  At r = 1, ``previous``
    (the same side's last iterate, or None) starts a power iteration."""
    if r == 1.0 or np.isinf(r) or r in GRAM_DUALS or rd in GRAM_DUALS:
        t = float(np.abs(x).max())  # scale out the largest entry, as _schatten_from_sv does
        if t == 0.0:
            return None, 0.0
        xs = x / t
        g = np.conj(xs.T) @ xs
        if r == 1.0:  # the top right singular vector is the top eigenvector of G
            v = None if previous is None else _power_iteration(g, previous)
            if v is None:
                v = np.linalg.eigh(g)[1][:, -1]
            xv = xs @ v
            n = float(np.linalg.norm(xv))
            return np.outer(xv / n, np.conj(v)), t * n
        if rd in GRAM_DUALS:  # X G^(k-1) = U s^(rd-1) V^H for rd = 2k
            y, trace = _gram_power(xs, g, int(rd) // 2)
            return y / trace ** (1.0 - 1.0 / rd), t * trace ** (1.0 / rd)
        eps = np.finfo(float).eps
        v = np.linalg.eigh(g)[1]  # B = X V = U S up to the accuracy of eigh
        b = xs @ v
        nb = np.linalg.norm(b, axis=0)
        keep = nb > nb.max() * max(x.shape) * eps  # numpy's matrix_rank tolerance
        b, nb, vh = b[:, keep], nb[keep], np.conj(v[:, keep].T)
        if np.isinf(r):  # polar factor Q V^H, its norm bounded by ||Q^H Q - I||
            q = b / nb
            e = float(np.linalg.norm(np.conj(q.T) @ q - np.eye(nb.size)))
            y = (q @ vh) / np.sqrt(1.0 + e) if e <= np.sqrt(eps) else None
        else:  # U s^(rd-1) V^H, divided by ||Y||_r from its Gram trace
            y = (b * (nb / nb.max()) ** (rd - 2.0)) @ vh
            y = y / _gram_power(y, np.conj(y.T) @ y, int(r) // 2)[1] ** (1.0 / r)
        if y is not None:
            return y, t * float(np.vdot(y, xs).real)
    # the SVD route, also taken when Q above is too far from orthonormal
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0:
        return None, 0.0
    if np.isinf(r):
        return u @ vh, _schatten_from_sv(s, rd)
    w = (s / s[0]) ** (1.0 / (r - 1.0))  # s^(rd-1)
    return (u * (w / np.sum(w**r) ** (1.0 / r))) @ vh, _schatten_from_sv(s, rd)


def _ascent(m, mc, a, p, na=None, rel_tol=1e-7):
    """Score start ``a``, then ascend; yields (best ratio, best test matrix)
    after the score and after every step.  ``na`` is ||a||_p when known
    exactly (it saves the SVD at p outside GRAM_DUALS).  Stops when M o A = 0
    or after two steps without a relative gain of ``rel_tol``."""
    q = 1.0 / (1.0 - 1.0 / p) if p > 1.0 else np.inf
    if p in GRAM_DUALS:  # tr G^(p/2), exact up to rounding
        na = _norming(a, q, p)[1]
    elif na is None:
        na = _schatten_from_sv(np.linalg.svd(a, compute_uv=False), p)
    if na == 0.0:
        yield 0.0, a
        return
    a = a / na  # ||a||_p == 1 from here on
    z, best_r = _norming(m * a, q, p)
    best_a = a
    yield best_r, best_a
    stall, previous = 0, None  # the start is no iterate of the primal side
    while z is not None and stall < 2:
        a, _ = _norming(mc * z, p, q, previous)  # nonzero: Re<conj(M) o Z, A> = ||M o A||_p
        z, r = _norming(m * a, q, p, z)
        previous = a
        stall = 0 if r > best_r * (1.0 + rel_tol) else stall + 1
        if r > best_r:
            best_r, best_a = r, a
        yield best_r, best_a


def _advance(run, steps, state):
    """Take at most ``steps`` more states from ``run``; return the last one."""
    for state in itertools.islice(run, max(steps, 0)):
        pass
    return state


def multiplier_norm_lower_bound(
    m,
    p,
    budget: int = 8,
    seed: int = 0,
    *,
    extra_starts=(),
    ascent_steps: int = 50,
    return_witness: bool = False,
):
    """Lower bound for the S_p -> S_p norm of the Schur multiplier with
    symbol ``m``.

    Maximizes ||M o A||_p / ||A||_p over, in this start order, a
    deterministic matrix unit at argmax |M|, any ``extra_starts``, and
    ``budget`` seeded Gaussian and rank-one starts.  Each start is scored
    and ascended for WARMUP_STEPS steps of alternating duality ascent; only
    a start that ranks in the top SURVIVORS of the starts up to it goes on
    to the ``ascent_steps`` cap (0 keeps the best start).  A symbol with no
    imaginary part runs in real arithmetic: its matrix unit and its seeded
    starts are real.  Otherwise they are complex Gaussian.  Extra starts
    keep their own dtype.  Trial k draws from the substream (seed, k), so
    enlarging the budget with a fixed seed only appends starts and never
    lowers the bound.  The result never exceeds the true multiplier norm;
    at p = 2 the matrix-unit start attains the exact value sup |M|.
    """
    mm = as_dense(m)
    if not mm.imag.any():
        mm = mm.real
    p = _check_exponent(p)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows, cols = mm.shape

    def draw(rng, shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if np.iscomplexobj(mm) else x

    unit = np.zeros((rows, cols), dtype=mm.dtype)
    unit[np.unravel_index(int(np.argmax(np.abs(mm))), mm.shape)] = 1.0
    starts = [(unit, 1.0)]  # (start, its S_p norm when known exactly)
    for a in extra_starts:
        a = as_dense(a)
        if a.shape != mm.shape:
            raise ShapeMismatch(f"extra start shape {a.shape} vs {mm.shape}")
        starts.append((a, None))
    for k in range(budget):
        rng = np.random.default_rng([seed, k])
        starts.append((draw(rng, (rows, cols)), None))
        u, v = draw(rng, rows), draw(rng, cols)
        starts.append((np.outer(u, v), float(np.linalg.norm(u) * np.linalg.norm(v))))

    mc = np.conj(mm)
    warm = []  # ratio of each earlier start after its warm-up
    best, best_a = 0.0, unit
    for a, na in starts:
        run = _ascent(mm, mc, a, p, na)
        r, a = _advance(run, 1 + min(WARMUP_STEPS, ascent_steps), None)
        survives = sum(w >= r for w in warm) < SURVIVORS
        warm.append(r)
        if survives:
            r, a = _advance(run, ascent_steps - WARMUP_STEPS, (r, a))
        if r > best:
            best, best_a = r, a
    if return_witness:
        return best, best_a
    return best
