"""Directional Hilbert transforms and the square-function machinery on
periodic grids.

Functions live on the periodic unit cube sampled on a uniform lattice;
the DFT index set is the symmetric integer frequency lattice.  The
directional transform keeps the open half-space of frequencies with
positive inner product against the direction, kills the orthogonal
hyperplane, and discards the rest, so H_u + H_{-u} + P_0 = Id holds
exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonTransverse, ShapeMismatch, ZeroDirection, ZeroVector
from .geometry import transversality_check
from .matcore import _schatten_from_sv
from .symbols import BoundaryPoint, SymbolSpec, indicator_values

__all__ = [
    "frequency_lattice",
    "directional_hilbert",
    "grid_lp_norm",
    "vector_lp_norm",
    "SquareFunctionResult",
    "square_function_test",
    "random_trig_polynomial",
    "solve_T",
    "ScalingLimitResult",
    "scaling_limit_check",
]

_TIE_TOL = 1e-9
MAX_SQUAREFN_ENTRIES = 1 << 22  # largest terms * prod(shape) the squarefn command accepts


def frequency_lattice(shape) -> list:
    """Integer frequency arrays (one per axis, fftfreq layout).

    Rounded, because fftfreq scales by 1 / (n * (1 / n)), which exceeds 1
    for some n (49, 98, 103, ...): on 49 points frequency 6 came out as
    6.000000000000002 and failed a |xi| <= 6 test.
    """
    return [np.rint(np.fft.fftfreq(n, d=1.0 / n)) for n in shape]


def _direction_masks(shape, u, tie_shape=None):
    u = np.asarray(u, dtype=float)
    un = float(np.linalg.norm(u))
    if un < 1e-12:
        raise ZeroDirection("direction vector is numerically zero")
    if len(shape) != u.shape[0]:
        raise ShapeMismatch(f"grid rank {len(shape)} vs direction dim {u.shape[0]}")
    freqs = frequency_lattice(shape)
    dot = np.zeros(shape)
    for axis, f in enumerate(freqs):
        reshape = [1] * len(shape)
        reshape[axis] = -1
        dot = dot + f.reshape(reshape) * u[axis]
    # tie tolerance scaled by |u| and the radius of the lattice of tie_shape
    # (default: the grid's own); the largest |frequency| on an axis of n is n // 2
    radius = sum(n // 2 for n in (shape if tie_shape is None else tie_shape))
    tol = _TIE_TOL * un * (1.0 + radius)
    pos = dot > tol
    zero = np.abs(dot) <= tol
    return pos, zero


def directional_hilbert(f: np.ndarray, u, tie_shape=None) -> np.ndarray:
    """Fourier projection onto frequencies with <xi, u> > 0.

    Frequencies with <xi, u> = 0 (within a tie tolerance) are annihilated.
    The tolerance grows with the lattice radius of ``tie_shape``, by default
    the shape of ``f``.
    """
    f = np.asarray(f, dtype=complex)
    pos, _ = _direction_masks(f.shape, u, tie_shape)
    spec = np.fft.fftn(f)
    return np.fft.ifftn(spec * pos)


def grid_lp_norm(f: np.ndarray, p: float) -> float:
    """L_p norm by the plain Riemann sum on the uniform unit-cube grid.

    That is the l_p norm of the N grid values, scaled by N^(-1/p) (1 at
    p = inf).  The l_p norm factors out max|f| before taking powers, so
    neither a large p nor a small max|f| underflows to 0.
    """
    mag = np.abs(np.asarray(f)).ravel()
    return _schatten_from_sv(mag, p) / mag.size ** (1.0 / p)


def vector_lp_norm(fs, p: float) -> float:
    """L_p norm of the pointwise square function (sum |f_j|^2)^(1/2)."""
    stack = np.stack([np.abs(np.asarray(f)) ** 2 for f in fs])
    return grid_lp_norm(np.sqrt(np.sum(stack, axis=0)), p)


@dataclass(frozen=True)
class SquareFunctionResult:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def square_function_test(fs, us, p, c, tie_shape=None) -> SquareFunctionResult:
    """Compare the square functions of (H_{u_j} f_j) and (f_j) in L_p.

    Passes iff ||(sum |H_{u_j} f_j|^2)^(1/2)||_p <= c * ||(sum |f_j|^2)^(1/2)||_p
    up to a 1e-9 relative slack.  ``tie_shape`` is passed to
    ``directional_hilbert``.
    """
    fs = [np.asarray(f, dtype=complex) for f in fs]
    if len(fs) != len(us):
        raise ShapeMismatch("need one direction per function")
    if not fs:
        raise ShapeMismatch("need at least one function")
    shape = fs[0].shape
    if any(f.shape != shape for f in fs):
        raise ShapeMismatch("grid functions must share one shape")
    transformed = [directional_hilbert(f, u, tie_shape) for f, u in zip(fs, us)]
    lhs = vector_lp_norm(transformed, p)
    rhs = vector_lp_norm(fs, p)
    return SquareFunctionResult(
        lhs=lhs,
        rhs=rhs,
        constant=float(c),
        passed=bool(lhs <= float(c) * rhs * (1.0 + 1e-9)),
    )


def random_trig_polynomial(shape, degree: int, seed: int = 0, real: bool = False) -> np.ndarray:
    """Random trigonometric polynomial with frequencies |xi_i| <= degree."""
    # every lattice frequency has |xi_i| <= n // 2, so a larger degree keeps
    # the same mask, and one beyond the float range cannot be compared
    degree = min(degree, max(shape) // 2)
    rng = np.random.default_rng(seed)
    spec = np.zeros(shape, dtype=complex)
    freqs = frequency_lattice(shape)
    mask = np.ones(shape, dtype=bool)
    for axis, f in enumerate(freqs):
        reshape = [1] * len(shape)
        reshape[axis] = -1
        mask &= np.abs(f.reshape(reshape)) <= degree
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    out = np.fft.ifftn(spec)
    return out.real.astype(complex) if real else out


def _householder(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reflection mapping unit vector a to unit vector b (the identity
    when they agree)."""
    v = a - b
    vn = float(np.linalg.norm(v))
    if vn < 1e-14:
        return np.eye(a.shape[0])
    v = v / vn
    return np.eye(a.shape[0]) - 2.0 * np.outer(v, v)


def solve_T(n1, n2) -> np.ndarray:
    """An invertible T with T^t n1 = -n2.

    Built as an isometry aligning n1 with -n2 plus a rank-one correction
    fixing the length along n1; |det T| = |n2| / |n1|.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    if n1.shape != n2.shape:
        raise ShapeMismatch(f"normal components have shapes {n1.shape} vs {n2.shape}")
    a1 = float(np.linalg.norm(n1))
    a2 = float(np.linalg.norm(n2))
    if a1 < 1e-12 or a2 < 1e-12:
        raise ZeroVector("both normal components must be nonzero")
    a = n1 / a1
    b = -n2 / a2
    s = a2 / a1
    tt = _householder(a, b) + (s - 1.0) * np.outer(b, a)  # scales the a-direction only
    return tt.T


@dataclass(frozen=True)
class ScalingLimitResult:
    epsilons: tuple
    fractions: tuple
    fraction: float
    excluded: int


def scaling_limit_check(
    spec: SymbolSpec,
    z: BoundaryPoint,
    t_matrix,
    epsilons: Sequence[float],
    samples: int = 1000,
    seed: int = 0,
    band: float = 1e-6,
) -> ScalingLimitResult:
    """Agreement of chi_Sigma(x + eps T xi, y + eps eta) with the halfspace
    limit (1 + sgn<n2, eta - xi>) / 2 as eps -> 0.

    Gaussian (xi, eta) samples within ``band`` of the hyperplane
    <n2, eta - xi> = 0, or where the symbol is undefined, are excluded.
    Returns per-epsilon agreement fractions; ``fraction`` is the one at the
    smallest epsilon.
    """
    if not transversality_check(z):
        raise NonTransverse("scaling limit requires a transverse base point")
    t_matrix = np.asarray(t_matrix, dtype=float)
    resid = float(np.linalg.norm(t_matrix.T @ z.n1 + z.n2))
    if resid > 1e-9:
        raise ValueError(f"T does not align the normals: residual {resid:.3e}")
    eps_list = sorted(float(e) for e in epsilons)
    if not eps_list:
        raise ValueError("need at least one epsilon")
    rng = np.random.default_rng(seed)
    n = spec.n_dim
    xi = rng.standard_normal((samples, n))
    eta = rng.standard_normal((samples, n))
    margin = (eta - xi) @ z.n2
    keep = np.abs(margin) >= band
    predicted = margin > 0.0

    fractions = []
    excluded = int(samples - keep.sum())
    for eps in sorted(eps_list, reverse=True):
        xs = z.x[None, :] + eps * xi @ t_matrix.T
        ys = z.y[None, :] + eps * eta
        vals = indicator_values(spec, xs, ys)
        valid = keep & ~np.isnan(vals)
        total = int(valid.sum())
        if total == 0:
            fractions.append(0.0)
            continue
        hits = int(np.sum((vals[valid] > 0.5) == predicted[valid]))
        fractions.append(hits / total)
    fractions = fractions[::-1]  # index 0 = smallest epsilon
    return ScalingLimitResult(
        epsilons=tuple(eps_list),
        fractions=tuple(fractions),
        fraction=fractions[0],
        excluded=excluded,
    )

