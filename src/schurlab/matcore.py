"""Dense linear algebra core.

Schatten p-norms, entrywise (Schur) products, and a lower-bound
estimator for the norm of a Schur multiplier acting on Schatten classes.
Everything operates on plain 2-D numpy arrays, real or complex; real
input stays real, so its SVDs run in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidExponent, NonFinite, ShapeInvalid, ShapeMismatch

__all__ = [
    "as_dense",
    "schatten_norm",
    "schur_product",
    "multiplier_norm_lower_bound",
    "Estimate",
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
# Lower bounds for multiplier norms.
#
# The norm of A -> M o A on S_p is bounded below by ||M o A||_p / ||A||_p for
# any test matrix A.  At every p the estimate runs on the block of M's
# nonzero rows and columns: M o A never reads A off that block, and the
# nonzero singular values of A and M o A are those of their blocks, so
# restricting a test matrix to it can only raise its ratio.  A symbol with
# full support is used as it is, and the witness is zero-padded back to the
# full shape.  At 1 < p < inf, starting from a deterministic matrix
# unit at the largest |M| entry, any extra starts, and seeded Gaussian and
# rank-one draws, each start is scored and then refined by alternating
# duality ascent on the bilinear form Re<Z, M o A> over unit balls
# ||A||_p <= 1, ||Z||_q <= 1: both half-steps are the norming map (of S_q,
# then of S_p), so the form never decreases.  A real witness is also a
# complex one, so real symbols run in real arithmetic.
#
# The norming map takes an SVD only where no Gram route applies.  With
# G = X^H X, formed after the largest entry of X is scaled to 1:
# - when the dual exponent r' is 2k in GRAM_DUALS, the argmax is
#   proportional to X G^(k-1) and ||X||_r'^r' = tr G^k (also the start norm
#   at p in GRAM_DUALS); at r' = 200 an all-ones 64 x 64 block would overflow;
# - at r = 2k in GRAM_DUALS, one eigh of G gives B = X V = U S (_gram_eig),
#   and Y = U s^(r'-1) V^H is divided by (tr (Y^H Y)^k)^(1/r).  The value
#   Re<X, Y> never exceeds ||X||_r' (Holder); sum |B|^r' can (Schur-Horn).
# Other exponents and start norms take a thin SVD, except for the matrix
# unit (norm 1) and the rank-one starts u v^T (norm |u||v|).
#
# Starts are pruned against a step-matched leader (successive halving,
# Jamieson and Talwalkar, AISTATS 2016): lead[k] is the best ratio any
# earlier start had after k steps, where a start that stalled or was pruned
# keeps its last ratio for every later k.  A start stops at the first step
# k >= WARMUP_STEPS where its ratio is not above lead[k] (earlier starts win
# ties).  A larger budget only appends starts, so it never changes the steps
# of an earlier one, and the bound never decreases with the budget.
#
# At p in {1, inf}, where the norm is one number (duality), a diagonal-
# scaling loop brackets it instead.  With A = diag(d) M diag(e) = U S V^H
# for positive d, e (M has no all-zero row or column):
# - M = X Y^H with X = D^-1 U S^(1/2), Y = E^-1 V S^(1/2), so ||S_M|| is at
#   most max_i |x_i| max_j |y_j| (Haagerup; Paulsen, Completely Bounded Maps
#   and Operator Algebras (2002), Thm 8.7), where |x_i|^2 = |A^H|_ii / d_i^2
#   and |y_j|^2 = |A|_jj / e_j^2;
# - ||A||_1 / (|d||e|) is the ratio at d e^T on S_1, and at most the ratio
#   at conj(U V^H) on S_inf, since d^T (M o conj(U V^H)) e = ||A||_1.
# Each step takes one eigh of A^H A; its plain update moves d *= X / mean X,
# e *= Y / mean Y for the diagonals X_ii = |x_i|^2, Y_jj = |y_j|^2, which all
# equal the lower bound at a stationary point.  SCALE_FLOOR keeps every row
# and column of A above the rank tolerance of _gram_eig.  The loop steps to
# the Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 49 (2011)) of the
# plain updates of the last ANDERSON_DEPTH + 1 iterates, taken in
# (log d, log e).  A mixed iterate that does not lower the best upper bound
# ends the mixing: the loop steps instead to the plain update of the
# iterate before it, and takes plain updates only from there (unguarded
# mixing stalls on curved symbols); the discarded iterate still counts as a
# step.  The reported lower bound is the ratio, by SVD, at the witness of
# the best lower iterate; the upper bound of the best upper iterate adds the
# largest row norm of the residual R = M - X Y^H, which bounds ||S_R||
# (factor R = R I).
# ---------------------------------------------------------------------------

WARMUP_STEPS = 4  # ascent steps every start gets before it is judged
GRAM_DUALS = (2.0, 4.0, 6.0, 8.0)  # dual exponents normed by Gram products
GAP_TOL = 1e-6  # relative gap between the bounds that stops the scaling loop
SCALING_STALL = 15  # scaling steps with neither bound improving before it stops
ANDERSON_DEPTH = 5  # earlier scaling iterates mixed into each step
SCALING_CAP = 300  # most scaling steps
SCALE_FLOOR = 1e-5  # smallest entry of d and e, relative to their largest


@dataclass(frozen=True)
class Estimate:
    """The ratio at a witness; at p in {1, inf} also the scaling loop's
    certified upper bound, step count and stop reason (gap, stall or cap)."""

    lower_bound: float
    witness: np.ndarray
    upper_bound: Optional[float] = None
    iterations: Optional[int] = None
    stop: Optional[str] = None


def _divided(x, t):
    """x / t for a real t > 0.  numpy divides a complex array by multiplying
    with 1 / t, which overflows for a subnormal t and gives inf + nan j; only
    there does the division go through the real view, so that every other t
    keeps numpy's bits."""
    if np.isinf(1.0 / t):
        return (np.ascontiguousarray(x).view(float) / t).view(x.dtype)
    return x / t


def _gram_power(x, g, k):
    """(X G^(k-1), tr G^k) for G = X^H X given as ``g``; tr G^k = ||X||_2k^2k."""
    y = x
    for _ in range(k - 1):
        y = y @ g
    return y, float(np.vdot(x, y).real)


def _gram_eig(x):
    """(B = X V = U S, its column norms nb, V) from one eigh of X^H X (X != 0),
    without the columns below numpy's matrix_rank tolerance."""
    v = np.linalg.eigh(np.conj(x.T) @ x)[1]
    b = x @ v
    nb = np.linalg.norm(b, axis=0)
    keep = nb > nb.max() * max(x.shape) * np.finfo(float).eps
    return b[:, keep], nb[keep], v[:, keep]


def _norming(x, r, rd):
    """argmax Y of Re<X, Y> over the unit ball ||Y||_r <= 1 (1 <= r <= inf),
    and the value Re<X, Y> at it, which is ||X||_rd up to rounding and never
    exceeds it.  ``rd`` is the dual exponent of ``r`` (passed exactly, so
    that an even ``rd`` is recognised); Y is None when X = 0."""
    if r in GRAM_DUALS or rd in GRAM_DUALS:
        t = float(np.abs(x).max())  # scale out the largest entry, as _schatten_from_sv does
        if t == 0.0:
            return None, 0.0
        xs = _divided(x, t)
        if rd in GRAM_DUALS:  # X G^(k-1) = U s^(rd-1) V^H for rd = 2k
            y, trace = _gram_power(xs, np.conj(xs.T) @ xs, int(rd) // 2)
            return y / trace ** (1.0 - 1.0 / rd), t * trace ** (1.0 / rd)
        b, nb, v = _gram_eig(xs)  # U s^(rd-1) V^H, divided by ||Y||_r from its Gram trace
        y = (b * (nb / nb.max()) ** (rd - 2.0)) @ np.conj(v.T)
        y = y / _gram_power(y, np.conj(y.T) @ y, int(r) // 2)[1] ** (1.0 / r)
        return y, t * float(np.vdot(y, xs).real)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0:
        return None, 0.0
    # s^(rd-1), scaled; at r = 1 (rd = inf) the top singular pairs
    w = (s / s[0]) ** (1.0 / (r - 1.0)) if r > 1.0 else np.where(s == s[0], 1.0, 0.0)
    return (u * (w / np.sum(w**r) ** (1.0 / r))) @ vh, _schatten_from_sv(s, rd)


def _ascent(m, mc, a, p, na=None, rel_tol=1e-7):
    """Score start ``a``, then ascend (1 < p < inf); yields (best ratio, best
    test matrix) after the score and after every step.  ``na`` is ||a||_p
    when known exactly (it saves the SVD at p outside GRAM_DUALS).  Stops
    when M o A = 0 or after two steps without a relative gain of ``rel_tol``."""
    q = 1.0 / (1.0 - 1.0 / p)
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
    stall = 0
    while z is not None and stall < 2:
        a, _ = _norming(mc * z, p, q)  # nonzero: Re<conj(M) o Z, A> = ||M o A||_p
        z, r = _norming(m * a, q, p)
        stall = 0 if r > best_r * (1.0 + rel_tol) else stall + 1
        if r > best_r:
            best_r, best_a = r, a
        yield best_r, best_a


def _support(x):
    """The index of the block of the rows and columns of ``x`` that hold a
    nonzero entry, or None when all of them do."""
    rows, cols = x.any(axis=1), x.any(axis=0)
    return None if rows.all() and cols.all() else np.ix_(rows, cols)


def _ratio(m, a, p):
    """||M o A||_p / ||A||_p, both by SVD of the block of A's nonzero rows and
    columns (M o A is zero off it, and both keep their nonzero singular
    values there); 0 at A = 0."""
    keep = _support(a)
    if keep is not None:
        m, a = m[keep], a[keep]
    na = _schatten_from_sv(np.linalg.svd(a, compute_uv=False), p)
    return _schatten_from_sv(np.linalg.svd(m * a, compute_uv=False), p) / na if na else 0.0


def _ldexp(x, k):
    """x * 2^k, exact unless it underflows; a complex x goes through its
    real view (and 2.0**k itself would overflow for k > 1023)."""
    return np.ldexp(np.ascontiguousarray(x).view(float), k).view(x.dtype)


def _scaled(d, e):
    """d and e floored at SCALE_FLOOR times their largest entry and
    normalized to unit length."""
    d, e = (np.maximum(f, SCALE_FLOOR * f.max()) for f in (d, e))
    return d / np.linalg.norm(d), e / np.linalg.norm(e)


def _anderson(history, n):
    """The Anderson-mixed (d, e) of the pairs (u, g) = (log (d, e), log of its
    plain update) in ``history``: exp(g_k - dG gamma) for the least-squares
    gamma of dF gamma = f_k, f = g - u, with the first ``n`` coordinates d."""
    u, g = (np.array(h).T for h in zip(*history))
    f = g - u
    w = g[:, -1] - np.diff(g) @ np.linalg.lstsq(np.diff(f), f[:, -1], rcond=None)[0]
    # each half shifted to a largest entry of 0: _scaled normalizes anyway, and exp cannot overflow
    return _scaled(*(np.exp(h - h.max()) for h in (w[:n], w[n:])))


def _scaling_bracket(m, p):
    """The p in {1, inf} bracket of the scaling loop (see the comment above)
    for an M with no all-zero row or column, as an Estimate; its witness is
    conj(U V^H) at p = inf and d e^T at p = 1.  It runs on M / 2^k, exact
    for the power of two 2^k just above max |M|, and scales both bounds
    back, which keeps them in order for a subnormal M."""
    k = int(np.frexp(np.abs(m).max())[1])  # M = 2^k M2 with max |M2| in [1/2, 1), exactly
    ms = _ldexp(m, -k)
    d, e = (np.full(n, n**-0.5) for n in ms.shape)
    best_low, best_up, stall, stop = (0.0,), (np.inf,), 0, "cap"
    history, mixed = [], False  # Anderson pairs, None once mixing is off; (d, e) mixed
    for steps in range(1, SCALING_CAP + 1):
        b, nb, v = _gram_eig(d[:, None] * ms * e)
        x, y = (np.abs(b) ** 2 @ (1.0 / nb)) / d**2, (np.abs(v) ** 2 @ nb) / e**2
        low, up = nb.sum(), np.sqrt(x.max() * y.max())  # |d| = |e| = 1
        lowered = up < best_up[0]
        stall = stall + 1 if low <= best_low[0] and not lowered else 0
        if low > best_low[0]:
            best_low = (low, d, e)
        if lowered:
            best_up = (up, d, e, b, nb, v)
        gap = best_up[0] <= best_low[0] * (1.0 + GAP_TOL)
        if gap or stall >= SCALING_STALL:
            stop = "gap" if gap else "stall"
            break
        if mixed and not lowered:  # safeguard: plain updates from the iterate before, for good
            history, mixed, stall = None, False, 0
            d, e = plain
            continue
        plain = _scaled(d * x / x.mean(), e * y / y.mean())
        if history is not None:
            pair = tuple(np.log(np.concatenate(f)) for f in ((d, e), plain))
            history = history[-ANDERSON_DEPTH:] + [pair]
            mixed = len(history) > 1
        d, e = _anderson(history, len(d)) if mixed else plain
    _, d, e, b, nb, v = best_up
    fx, fy = b / np.sqrt(nb) / d[:, None], v * np.sqrt(nb) / e[:, None]  # M = X Y^H + R
    row = [np.linalg.norm(f, axis=1).max() for f in (fx, fy, ms - fx @ np.conj(fy.T))]
    _, d, e = best_low
    if np.isinf(p):  # conj of the polar factor U V^H, the S_inf-norming Y of A
        witness = np.conj(_norming(d[:, None] * ms * e, np.inf, 1.0)[0])
    else:
        witness = np.outer(d, e).astype(ms.dtype)
    low, up = _ratio(ms, witness, p), float(row[0] * row[1] + row[2])
    return Estimate(float(np.ldexp(low, k)), witness, float(np.ldexp(up, k)), steps, stop)


def multiplier_norm_lower_bound(
    m,
    p,
    budget: int = 8,
    seed: int = 0,
    *,
    extra_starts=(),
    ascent_steps: int = 50,
    report: bool = False,
):
    """Lower bound for the S_p -> S_p norm of the Schur multiplier with
    symbol ``m``; with ``report`` the Estimate, which holds the witness.

    At p in {1, inf} the bound is the ratio at the witness of the scaling
    loop, which also certifies an upper bound; ``budget``, ``seed`` and
    ``ascent_steps`` change nothing there.  At other p the starts are, in
    order, a matrix unit at argmax |M|, any ``extra_starts``, and ``budget``
    seeded Gaussian and rank-one starts (real for a symbol with no
    imaginary part; trial k draws from the substream (seed, k) when the
    loop reaches it, so a larger budget only appends starts).  Each is
    scored and ascended for at least WARMUP_STEPS steps, and then for as
    long as its ratio stays above the best ratio any earlier start had
    after as many steps, up to the ``ascent_steps`` cap (0 keeps the best
    start).  At every p the ratio at each extra start (which keeps its own
    dtype) floors the bound, which never exceeds the true multiplier norm;
    at p = 2 the matrix-unit start attains the exact value sup |M|.  Both
    branches run on the block of M's nonzero rows and columns, to which
    every start is restricted (the seeded ones are drawn at full shape
    first); the witness is zero off it.
    """
    mm = as_dense(m)
    if not mm.imag.any():
        mm = mm.real
    p = _check_exponent(p)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    extras = [as_dense(a) for a in extra_starts]
    for a in extras:
        if a.shape != mm.shape:
            raise ShapeMismatch(f"extra start shape {a.shape} vs {mm.shape}")
    scaling = p == 1.0 or np.isinf(p)
    if not mm.any():  # the matrix unit at (0, 0) is a witness of the norm 0
        unit = np.zeros_like(mm)
        unit[0, 0] = 1.0
        est = Estimate(0.0, unit, 0.0, 0, "gap") if scaling else Estimate(0.0, unit)
        return est if report else 0.0
    keep, block = _support(mm), mm
    if keep is not None:
        block, extras = mm[keep], [a[keep] for a in extras]
    if scaling:
        est = _scaling_bracket(block, p)
        for a in extras:
            r = _ratio(block, a, p)
            if r > est.lower_bound:
                est = replace(est, lower_bound=r, witness=a)
        if est.upper_bound < est.lower_bound:  # by rounding; a raised upper bound is still one
            est = replace(est, upper_bound=est.lower_bound)
    else:
        def draw(rng, shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if np.iscomplexobj(mm) else x

        def starts():  # (start, its S_p norm when known), the seeded ones drawn at full shape
            unit = np.zeros(block.shape, dtype=block.dtype)
            unit[np.unravel_index(int(np.argmax(np.abs(block))), block.shape)] = 1.0
            yield unit, 1.0
            yield from ((a, None) for a in extras)
            for k in range(budget):
                rng = np.random.default_rng([seed, k])
                a = draw(rng, mm.shape)
                yield (a if keep is None else a[keep]), None
                u, v = (draw(rng, n) for n in mm.shape)
                if keep is not None:  # |u_b||v_b| stays the exact norm
                    u, v = u[keep[0][:, 0]], v[keep[1][0]]
                yield np.outer(u, v), float(np.linalg.norm(u) * np.linalg.norm(v))

        est = _best_start(block, p, starts(), ascent_steps)
    if keep is not None:
        witness = np.zeros(mm.shape, dtype=est.witness.dtype)
        witness[keep] = est.witness
        est = replace(est, witness=witness)
    return est if report else est.lower_bound


def _best_start(m, p, starts, ascent_steps):
    """The Estimate of the best ratio the ascents of ``starts`` reach under
    the step-matched leader (see the comment above), at 1 < p < inf."""
    mc = np.conj(m)
    lead = [-np.inf]  # best ratio of the earlier starts after k steps; lead[-1] after more
    best, best_a = 0.0, None
    for a, na in starts:
        ratios = []
        for k, (r, a) in enumerate(_ascent(m, mc, a, p, na)):
            ratios.append(r)
            if k >= ascent_steps or (k >= WARMUP_STEPS and r <= lead[min(k, len(lead) - 1)]):
                break
        n = max(len(lead), len(ratios))  # both held at their last ratio out to n
        lead = list(map(max, *(f + f[-1:] * (n - len(f)) for f in (lead, ratios))))
        if best_a is None or r > best:
            best, best_a = r, a
    return Estimate(best, best_a)
