"""Idempotent symbols chi_Sigma for smooth domains Sigma in a product chart.

A symbol is described by a scalar field F on R^m x R^n with Sigma = {F > 0}
and boundary {F = 0}.  Built-in families cover the domains the package
classifies and probes; user symbols are ingested as restricted expression
trees, never as arbitrary code.

All scalar fields are vectorized: x and y may carry leading batch axes, the
coordinate axis is the last one.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateGradient,
    ExpressionError,
    OutOfDomain,
    RequiresC2,
)

__all__ = [
    "SymbolSpec",
    "BoundaryPoint",
    "ball",
    "sphere_delta",
    "halfspace",
    "toeplitz_ball",
    "triangular",
    "user_symbol",
    "from_json",
    "to_json",
    "evaluate_symbol",
    "indicator_values",
    "gradient",
    "gradient_rows",
    "mixed_hessian",
    "unit_normal_split",
    "transpose_spec",
    "parse_expression",
]

BUILTIN_IDS = ("ball", "sphere_delta", "halfspace", "toeplitz_ball", "triangular")


@dataclass(frozen=True)
class SymbolSpec:
    """An idempotent symbol: Sigma = {(x, y) : F(x, y) > 0}.

    ``f`` maps batched coordinate arrays (..., m_dim), (..., n_dim) to (...),
    and ``grad``, when present, maps them to the exact pair
    ((..., m_dim), (..., n_dim)); the boundary solvers call both on
    batches.  ``hess_xy``, when present, is exact at a single point.
    Without them central differences are used.  ``domain_box`` lists
    (lo, hi) per axis, the m_dim x-axes first.
    """

    m_dim: int
    n_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain_box: tuple
    grad: Optional[Callable] = None
    hess_xy: Optional[Callable] = None
    builtin: Optional[str] = None
    params: dict = field(default_factory=dict)
    symbol_id: str = "symbol"

    def __post_init__(self):
        if self.m_dim < 1 or self.n_dim < 1:
            raise ValueError("factor dimensions must be >= 1")
        if len(self.domain_box) != self.m_dim + self.n_dim:
            raise ValueError("domain_box must list one (lo, hi) pair per axis")
        for lo, hi in self.domain_box:
            if not (lo < hi):
                raise ValueError("domain_box intervals must be nonempty")

    @property
    def x_box(self):
        return self.domain_box[: self.m_dim]

    @property
    def y_box(self):
        return self.domain_box[self.m_dim :]


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the boundary {F = 0} with its normal split.

    ``(n1, n2)`` is the jointly normalized gradient of F, pointing towards
    Sigma = {F > 0}.
    """

    x: np.ndarray
    y: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    residual: float


# ---------------------------------------------------------------------------
# Expression parser (restricted AST whitelist)
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "atan": np.arctan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_CMPOPS = {
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
}


def parse_expression(src: str, variables: tuple) -> Callable:
    """Compile an arithmetic expression into a vectorized callable.

    Grammar: numbers, the named ``variables``, ``pi``/``e``, binary
    ``+ - * / **``, unary ``-``/``+``, comparisons ``< <= > >=`` (valued
    0/1), and the functions sin, cos, tan, asin, acos, atan, sinh, cosh,
    tanh, exp, log, sqrt, abs.  Anything else raises ExpressionError.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc}") from exc
    names = {name: i for i, name in enumerate(variables)}

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                val = float(node.value)
                return lambda args: val
            raise ExpressionError(f"constant {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id in names:
                idx = names[node.id]
                return lambda args: args[idx]
            if node.id in _ALLOWED_CONSTS:
                val = _ALLOWED_CONSTS[node.id]
                return lambda args: val
            raise ExpressionError(f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
            lhs, rhs = build(node.left), build(node.right)
            return lambda args: op(lhs(args), rhs(args))
        if isinstance(node, ast.UnaryOp):
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda args: -operand(args)
            if isinstance(node.op, ast.UAdd):
                return operand
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise ExpressionError("chained comparisons not allowed")
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                raise ExpressionError(f"comparison {type(node.ops[0]).__name__} not allowed")
            lhs, rhs = build(node.left), build(node.comparators[0])
            return lambda args: op(lhs(args), rhs(args)).astype(float)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ExpressionError("only whitelisted function calls allowed")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError("functions take exactly one positional argument")
            fn = _ALLOWED_FUNCS[node.func.id]
            arg = build(node.args[0])
            return lambda args: fn(arg(args))
        raise ExpressionError(f"syntax {type(node).__name__} not allowed in expressions")

    return build(tree)


# ---------------------------------------------------------------------------
# Built-in symbol families
# ---------------------------------------------------------------------------


def _axes(arr, dim):
    return [np.asarray(arr)[..., i] for i in range(dim)]


def ball(n: int, r: float = 1.0, box=None) -> SymbolSpec:
    """Sigma = {|x|^2 + |y|^2 < R^2} in R^n x R^n."""
    r = float(r)

    def f(x, y):
        return r**2 - np.sum(np.asarray(x) ** 2, axis=-1) - np.sum(np.asarray(y) ** 2, axis=-1)

    def grad(x, y):
        return -2.0 * np.asarray(x, dtype=float), -2.0 * np.asarray(y, dtype=float)

    def hess(x, y):
        return np.zeros((n, n))

    if box is None:
        box = tuple((-1.1 * r, 1.1 * r) for _ in range(2 * n))
    return SymbolSpec(
        m_dim=n,
        n_dim=n,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=tuple(tuple(b) for b in box),
        builtin="ball",
        params={"n": n, "R": r},
        symbol_id=f"ball(n={n},R={_num(r)})",
    )


def _chart_lift(u):
    """Orthographic chart point u (|u| < 1) -> height sqrt(1 - |u|^2)."""
    u = np.asarray(u, dtype=float)
    sq = 1.0 - np.sum(u**2, axis=-1)
    return np.sqrt(np.maximum(sq, 0.0)), sq


def sphere_delta(n: int, delta: float, box=None) -> SymbolSpec:
    """Sigma = {<x, y> > delta} for x, y on the n-sphere, in orthographic
    hemisphere charts.

    Chart coordinates u, v in R^n with |u|, |v| < 1 lift to
    (u, sqrt(1 - |u|^2)); the default box keeps samples strictly inside
    the chart.
    """
    delta = float(delta)

    def f(u, v):
        su, squ = _chart_lift(u)
        sv, sqv = _chart_lift(v)
        val = np.sum(np.asarray(u) * np.asarray(v), axis=-1) + su * sv - delta
        outside = (squ <= 0.0) | (sqv <= 0.0)
        return np.where(outside, np.nan, val)

    def grad(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        su, squ = _chart_lift(u)
        sv, sqv = _chart_lift(v)
        outside = (squ <= 0.0) | (sqv <= 0.0)
        su_safe = np.where(outside, 1.0, su)
        sv_safe = np.where(outside, 1.0, sv)
        gu = v - (sv_safe / su_safe)[..., None] * u
        gv = u - (su_safe / sv_safe)[..., None] * v
        bad = outside[..., None]
        return np.where(bad, np.nan, gu), np.where(bad, np.nan, gv)

    def hess(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        su, squ = _chart_lift(u)
        sv, sqv = _chart_lift(v)
        if squ <= 0.0 or sqv <= 0.0:
            raise OutOfDomain("point outside the hemisphere chart")
        return np.eye(n) + np.outer(u, v) / (su * sv)

    if box is None:
        w = 0.95 / math.sqrt(n)
        box = tuple((-w, w) for _ in range(2 * n))
    return SymbolSpec(
        m_dim=n,
        n_dim=n,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=tuple(tuple(b) for b in box),
        builtin="sphere_delta",
        params={"n": n, "delta": delta},
        symbol_id=f"sphere_delta(n={n},delta={_num(delta)})",
    )


def halfspace(f1: str = "x1", f2: str = "y1", m_dim: int = 1, n_dim: int = 1, box=None) -> SymbolSpec:
    """Sigma = {f1(x) > f2(y)} for expressions f1 in x1..xm, f2 in y1..yn.

    The degenerate right-projection case is f1 = "0".
    """
    xvars = tuple(f"x{i+1}" for i in range(m_dim))
    yvars = tuple(f"y{i+1}" for i in range(n_dim))
    e1 = parse_expression(f1, xvars)
    e2 = parse_expression(f2, yvars)

    def f(x, y):
        a = e1(_axes(x, m_dim))
        b = e2(_axes(y, n_dim))
        return np.asarray(a, dtype=float) - np.asarray(b, dtype=float)

    if box is None:
        box = tuple((-2.0, 2.0) for _ in range(m_dim + n_dim))
    return SymbolSpec(
        m_dim=m_dim,
        n_dim=n_dim,
        f=f,
        domain_box=tuple(tuple(b) for b in box),
        builtin="halfspace",
        params={"f1": f1, "f2": f2, "m_dim": m_dim, "n_dim": n_dim},
        symbol_id=f"halfspace(f1={f1},f2={f2})",
    )


def toeplitz_ball(n: int, r: float = 1.0, box=None) -> SymbolSpec:
    """Sigma = {|x - y| < R} in R^n x R^n (a Toeplitz band domain)."""
    r = float(r)

    def f(x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return r**2 - np.sum(d**2, axis=-1)

    def grad(x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return -2.0 * d, 2.0 * d

    def hess(x, y):
        return 2.0 * np.eye(n)

    if box is None:
        box = tuple((-1.5 * r, 1.5 * r) for _ in range(2 * n))
    return SymbolSpec(
        m_dim=n,
        n_dim=n,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=tuple(tuple(b) for b in box),
        builtin="toeplitz_ball",
        params={"n": n, "R": r},
        symbol_id=f"toeplitz_ball(n={n},R={_num(r)})",
    )


def triangular(box=None) -> SymbolSpec:
    """Sigma = {x - y + 1/2 > 0} in R x R.

    On integer grids 1..N this discretizes to the triangular projection
    pattern chi_{j >= k} (the half offset puts the diagonal inside Sigma).
    """

    def f(x, y):
        return np.asarray(x)[..., 0] - np.asarray(y)[..., 0] + 0.5

    def grad(x, y):
        shp = np.shape(np.asarray(x)[..., 0])
        return (
            np.broadcast_to(np.array([1.0]), shp + (1,)).copy(),
            np.broadcast_to(np.array([-1.0]), shp + (1,)).copy(),
        )

    def hess(x, y):
        return np.zeros((1, 1))

    if box is None:
        box = ((0.0, 1024.0), (0.0, 1024.0))
    return SymbolSpec(
        m_dim=1,
        n_dim=1,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=tuple(tuple(b) for b in box),
        builtin="triangular",
        params={},
        symbol_id="triangular",
    )


def user_symbol(expr: str, m_dim: int, n_dim: int, box, symbol_id=None) -> SymbolSpec:
    """Symbol from an expression in x1..xm, y1..yn; derivatives by finite
    differences."""
    xvars = tuple(f"x{i+1}" for i in range(m_dim))
    yvars = tuple(f"y{i+1}" for i in range(n_dim))
    fn = parse_expression(expr, xvars + yvars)

    def f(x, y):
        return np.asarray(fn(_axes(x, m_dim) + _axes(y, n_dim)), dtype=float)

    return SymbolSpec(
        m_dim=m_dim,
        n_dim=n_dim,
        f=f,
        domain_box=tuple(tuple(b) for b in box),
        builtin=None,
        params={"expr": expr},
        symbol_id=symbol_id or f"expr({expr})",
    )


def _num(v):
    fv = float(v)
    return int(fv) if fv == int(fv) else fv


_BUILTIN_FACTORY = {
    "ball": lambda params, box: ball(int(params["n"]), params.get("R", 1.0), box),
    "sphere_delta": lambda params, box: sphere_delta(int(params["n"]), params["delta"], box),
    "halfspace": lambda params, box: halfspace(
        params.get("f1", "x1"),
        params.get("f2", "y1"),
        int(params.get("m_dim", 1)),
        int(params.get("n_dim", 1)),
        box,
    ),
    "toeplitz_ball": lambda params, box: toeplitz_ball(int(params["n"]), params.get("R", 1.0), box),
    "triangular": lambda params, box: triangular(box),
}


def from_json(obj: dict) -> SymbolSpec:
    """Build a SymbolSpec from the JSON symbol schema.

    Schema: {"m_dim": int, "n_dim": int, "builtin": str|null,
    "params": {...}, "expr": str|null, "box": [[lo, hi], ...]}.
    """
    builtin = obj.get("builtin")
    box = obj.get("box")
    if box is not None:
        box = tuple((float(lo), float(hi)) for lo, hi in box)
    if builtin is not None:
        if builtin not in _BUILTIN_FACTORY:
            raise ExpressionError(f"unknown builtin {builtin!r}")
        return _BUILTIN_FACTORY[builtin](obj.get("params") or {}, box)
    expr = obj.get("expr")
    if expr is None:
        raise ExpressionError("symbol needs either 'builtin' or 'expr'")
    if box is None:
        raise ExpressionError("user symbols require an explicit 'box'")
    return user_symbol(expr, int(obj["m_dim"]), int(obj["n_dim"]), box)


def to_json(spec: SymbolSpec) -> dict:
    """Serialize a builtin or expression symbol back to the JSON schema."""
    expr = None if spec.builtin else spec.params.get("expr")
    if spec.builtin is None and expr is None:
        raise ExpressionError("symbol with opaque callable is not serializable")
    return {
        "m_dim": spec.m_dim,
        "n_dim": spec.n_dim,
        "builtin": spec.builtin,
        "params": dict(spec.params),
        "expr": expr,
        "box": [list(b) for b in spec.domain_box],
    }


# ---------------------------------------------------------------------------
# Evaluation and derivatives
# ---------------------------------------------------------------------------


def _in_box(point, box, slack=0.0) -> bool:
    point = np.asarray(point, dtype=float)
    for t, (lo, hi) in zip(point, box):
        w = slack * (hi - lo)
        if t < lo - w or t > hi + w:
            return False
    return True


def check_in_domain(spec: SymbolSpec, x, y, slack=0.0):
    if not _in_box(x, spec.x_box, slack) or not _in_box(y, spec.y_box, slack):
        raise OutOfDomain(
            f"point ({np.asarray(x)}, {np.asarray(y)}) outside domain box of {spec.symbol_id}"
        )


def evaluate_symbol(spec: SymbolSpec, x, y) -> int:
    """chi_Sigma(x, y): 1 iff F(x, y) > 0, else 0."""
    check_in_domain(spec, x, y)
    val = float(spec.f(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    if math.isnan(val):
        raise OutOfDomain("symbol undefined at this point")
    return int(val > 0.0)


def indicator_values(spec: SymbolSpec, xs, ys) -> np.ndarray:
    """Vectorized chi_Sigma over paired batches xs (..., m), ys (..., n).

    Points where F is undefined (NaN) evaluate to NaN so callers can
    exclude them.  No domain-box enforcement here; that is the scalar
    entry point's job.
    """
    vals = spec.f(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    vals = np.asarray(vals, dtype=float)
    out = (vals > 0.0).astype(float)
    out = np.where(np.isnan(vals), np.nan, out)
    return out


def _fd_gradient(spec, x, y, h):
    """Central differences of F in every coordinate, row by row: x (k, m),
    y (k, n), steps h (k,)."""
    gx = np.zeros(x.shape)
    gy = np.zeros(y.shape)
    for i in range(spec.m_dim):
        e = np.zeros(x.shape)
        e[:, i] = h
        gx[:, i] = (spec.f(x + e, y) - spec.f(x - e, y)) / (2.0 * h)
    for j in range(spec.n_dim):
        e = np.zeros(y.shape)
        e[:, j] = h
        gy[:, j] = (spec.f(x, y + e) - spec.f(x, y - e)) / (2.0 * h)
    return gx, gy


def gradient_rows(spec: SymbolSpec, x, y, fd_step: float = 1e-5):
    """Gradient split (d_x F, d_y F) at each row of x (k, m), y (k, n).

    Returns (gx, gy, degenerate): analytic when the spec provides one,
    otherwise central differences with step fd_step * (1 + |(x, y)|) per
    row.  ``degenerate`` flags the rows whose full gradient has norm
    < 1e-12 or is not finite (not a submersion point).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.grad is not None:
        gx, gy = spec.grad(x, y)
        gx = np.asarray(gx, dtype=float)
        gy = np.asarray(gy, dtype=float)
    else:
        scale = 1.0 + np.sqrt(np.sum(x**2, axis=-1) + np.sum(y**2, axis=-1))
        gx, gy = _fd_gradient(spec, x, y, fd_step * scale)
    nrm = np.sqrt(np.sum(gx**2, axis=-1) + np.sum(gy**2, axis=-1))
    return gx, gy, ~np.isfinite(nrm) | (nrm < 1e-12)


def gradient(spec: SymbolSpec, x, y, fd_step: float = 1e-5):
    """Gradient split (d_x F, d_y F) at one point (x, y), by
    ``gradient_rows``.  Raises DegenerateGradient when the full gradient
    has norm < 1e-12 (not a submersion point).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx, gy, degenerate = gradient_rows(spec, x[None], y[None], fd_step)
    if degenerate[0]:
        nrm = math.sqrt(float(np.sum(gx**2) + np.sum(gy**2)))
        raise DegenerateGradient(f"|grad F| = {nrm:g} at ({x}, {y})")
    return gx[0], gy[0]


def mixed_hessian(spec: SymbolSpec, x, y, fd_step: float = 1e-4) -> np.ndarray:
    """Matrix of mixed second derivatives (d^2 F / dx_j dy_k), shape (m, n).

    Analytic when available; else differentiates the analytic gradient, or
    falls back to a 4-point cross stencil on F.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check_in_domain(spec, x, y, slack=0.01)
    m, n = spec.m_dim, spec.n_dim
    if spec.hess_xy is not None:
        h = np.asarray(spec.hess_xy(x, y), dtype=float)
        if h.shape != (m, n):
            raise ValueError(f"analytic hessian has shape {h.shape}, expected {(m, n)}")
        return h
    scale = 1.0 + math.sqrt(float(np.sum(x**2) + np.sum(y**2)))
    if spec.grad is not None:
        # d/dx_j of (d_y F): first-order FD of the exact gradient
        h = fd_step * scale
        out = np.zeros((m, n))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            _, gp = spec.grad(x + e, y)
            _, gm = spec.grad(x - e, y)
            out[j, :] = (np.asarray(gp, dtype=float) - np.asarray(gm, dtype=float)) / (2.0 * h)
        if not np.all(np.isfinite(out)):
            raise RequiresC2("second derivatives not evaluable around this point")
        return out
    h = fd_step * scale
    out = np.zeros((m, n))
    for j in range(m):
        ex = np.zeros(m)
        ex[j] = h
        for k in range(n):
            ey = np.zeros(n)
            ey[k] = h
            out[j, k] = (
                spec.f(x + ex, y + ey)
                - spec.f(x + ex, y - ey)
                - spec.f(x - ex, y + ey)
                + spec.f(x - ex, y - ey)
            ) / (4.0 * h * h)
    if not np.all(np.isfinite(out)):
        raise RequiresC2("second derivatives not evaluable around this point")
    return out


def unit_normal_split(spec: SymbolSpec, x, y):
    """Jointly normalized gradient (n1, n2); points towards Sigma."""
    gx, gy = gradient(spec, x, y)
    nrm = math.sqrt(float(np.sum(gx**2) + np.sum(gy**2)))
    return gx / nrm, gy / nrm


def transpose_spec(spec: SymbolSpec) -> SymbolSpec:
    """The symbol with factors swapped: F'(x, y) = F(y, x)."""
    base_f = spec.f
    base_grad = spec.grad
    base_hess = spec.hess_xy

    def f(x, y):
        return base_f(y, x)

    grad = None
    if base_grad is not None:

        def grad(x, y):
            gx, gy = base_grad(y, x)
            return gy, gx

    hess = None
    if base_hess is not None:

        def hess(x, y):
            return np.asarray(base_hess(y, x)).T

    return replace(
        spec,
        m_dim=spec.n_dim,
        n_dim=spec.m_dim,
        f=f,
        grad=grad,
        hess_xy=hess,
        domain_box=spec.y_box + spec.x_box,
        builtin=None,
        params={"transpose_of": spec.symbol_id},
        symbol_id=f"transpose({spec.symbol_id})",
    )
