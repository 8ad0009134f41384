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
    "indicator_values",
    "gradient",
    "mixed_hessian",
    "transpose_spec",
    "parse_expression",
]

@dataclass(frozen=True)
class SymbolSpec:
    """An idempotent symbol: Sigma = {(x, y) : F(x, y) > 0}.

    ``f`` maps batched coordinate arrays (..., m_dim), (..., n_dim) to (...),
    and ``grad``, when present, maps them to the exact pair
    ((..., m_dim), (..., n_dim)); the boundary solvers call both on
    batches.  ``hess_xy``, when present, maps rows (k, m_dim), (k, n_dim)
    to the exact mixed Hessians (k, m_dim, n_dim).  Without them central
    differences are used.  ``domain_box`` lists
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
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError("domain_box intervals must be nonempty with a finite width")

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
        return r**2 - (np.asarray(x) ** 2).sum(axis=-1) - (np.asarray(y) ** 2).sum(axis=-1)

    def grad(x, y):
        return -2.0 * np.asarray(x, dtype=float), -2.0 * np.asarray(y, dtype=float)

    def hess(x, y):
        return np.zeros((len(x), n, n))

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
    sq = 1.0 - (u**2).sum(axis=-1)
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
        val = (np.asarray(u) * np.asarray(v)).sum(axis=-1) + su * sv - delta
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
        if np.any((squ <= 0.0) | (sqv <= 0.0)):
            raise OutOfDomain("point outside the hemisphere chart")
        return np.eye(n) + u[:, :, None] * v[:, None, :] / (su * sv)[:, None, None]

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
        return r**2 - (d**2).sum(axis=-1)

    def grad(x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return -2.0 * d, 2.0 * d

    def hess(x, y):
        return np.broadcast_to(2.0 * np.eye(n), (len(x), n, n))

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
        return np.zeros((len(x), 1, 1))

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


MAX_AXES = 104_857  # geometry.MAX_RAY_ENTRIES // 40: the smallest classify batch fits it

def _whole(obj: dict, key: str, default=None) -> int:
    """The integer field ``key`` of obj (``default`` when absent): an int
    or an integral float; anything else raises ExpressionError."""
    value = obj.get(key, default)
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ExpressionError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float: an int or a float; anything else (a bool, a
    string, an int beyond the float range) raises ExpressionError."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ExpressionError(f"{what} must be a number, got {value!r}")


# builtin -> ((m_dim, n_dim) read from its params, factory of (params, its
# dims, box))
_BUILTINS = {
    "ball": (
        lambda params: (_whole(params, "n"),) * 2,
        lambda params, dims, box: ball(dims[0], _real(params.get("R", 1.0), "'R'"), box),
    ),
    "sphere_delta": (
        lambda params: (_whole(params, "n"),) * 2,
        lambda params, dims, box: sphere_delta(dims[0], _real(params.get("delta"), "'delta'"), box),
    ),
    "halfspace": (
        lambda params: (_whole(params, "m_dim", 1), _whole(params, "n_dim", 1)),
        lambda params, dims, box: halfspace(params.get("f1", "x1"), params.get("f2", "y1"), *dims, box),
    ),
    "toeplitz_ball": (
        lambda params: (_whole(params, "n"),) * 2,
        lambda params, dims, box: toeplitz_ball(dims[0], _real(params.get("R", 1.0), "'R'"), box),
    ),
    "triangular": (lambda params: (1, 1), lambda params, dims, box: triangular(box)),
}


def from_json(obj: dict) -> SymbolSpec:
    """Build a SymbolSpec from the JSON symbol schema.

    Schema: {"m_dim": int, "n_dim": int, "builtin": str|null,
    "params": {...}, "expr": str|null, "box": [[lo, hi], ...]}.
    The integer fields (an expression's m_dim and n_dim, a builtin's n,
    m_dim and n_dim) take ints or integral floats; the real fields (R,
    delta and the box bounds) take ints or floats.  A symbol of more than
    MAX_AXES axes is rejected before it is built.
    """
    builtin = obj.get("builtin")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ExpressionError(f"'params' must be an object, got {params!r}")
    if builtin is not None and builtin not in _BUILTINS:
        raise ExpressionError(f"unknown builtin {builtin!r}")
    expr = obj.get("expr")
    if builtin is None and expr is None:
        raise ExpressionError("symbol needs either 'builtin' or 'expr'")
    if builtin is not None:
        dims = _BUILTINS[builtin][0](params)
    else:
        dims = (_whole(obj, "m_dim"), _whole(obj, "n_dim"))
    if sum(dims) > MAX_AXES:
        raise ExpressionError(f"symbol has {sum(dims)} axes, more than {MAX_AXES}")
    box = obj.get("box")
    if box is not None:
        box = tuple((_real(lo, "a box bound"), _real(hi, "a box bound")) for lo, hi in box)
    if builtin is not None:
        return _BUILTINS[builtin][1](params, dims, box)
    if box is None:
        raise ExpressionError("user symbols require an explicit 'box'")
    return user_symbol(expr, *dims, box)


# ---------------------------------------------------------------------------
# Evaluation and derivatives
# ---------------------------------------------------------------------------


def indicator_values(spec: SymbolSpec, xs, ys) -> np.ndarray:
    """Vectorized chi_Sigma over paired batches xs (..., m), ys (..., n).

    Points where F is undefined (NaN) evaluate to NaN so callers can
    exclude them.  The result has the broadcast shape of the two batches,
    also where F ignores a factor or is constant.  The domain box is not
    enforced.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    vals = np.asarray(spec.f(xs, ys), dtype=float)
    vals = np.broadcast_to(vals, np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))
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


def gradient(spec: SymbolSpec, x, y, fd_step: float = 1e-5):
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
        scale = 1.0 + np.sqrt((x**2).sum(axis=-1) + (y**2).sum(axis=-1))
        gx, gy = _fd_gradient(spec, x, y, fd_step * scale)
    nrm = np.sqrt((gx**2).sum(axis=-1) + (gy**2).sum(axis=-1))
    return gx, gy, ~np.isfinite(nrm) | (nrm < 1e-12)


def mixed_hessian(spec: SymbolSpec, x, y, fd_step: float = 1e-4) -> np.ndarray:
    """Mixed second derivatives (d^2 F / dx_j dy_k) at each row of
    x (k, m), y (k, n), shape (k, m, n).

    Analytic when the spec has ``hess_xy``, else a 4-point cross stencil
    on F with step fd_step * (1 + |(x, y)|) per row.  Raises OutOfDomain
    when a row lies outside the domain box widened by 1% of each width.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    box = np.asarray(spec.domain_box, dtype=float)
    slack = 0.01 * (box[:, 1] - box[:, 0])
    pts = np.concatenate((x, y), axis=1)
    outside = np.any((pts < box[:, 0] - slack) | (pts > box[:, 1] + slack), axis=1)
    if outside.any():
        i = int(outside.argmax())
        raise OutOfDomain(f"point ({x[i]}, {y[i]}) outside domain box of {spec.symbol_id}")
    k, m, n = len(x), spec.m_dim, spec.n_dim
    if spec.hess_xy is not None:
        h = np.asarray(spec.hess_xy(x, y), dtype=float)
        if h.shape != (k, m, n):
            raise ValueError(f"analytic hessian has shape {h.shape}, expected {(k, m, n)}")
        return h
    h = fd_step * (1.0 + np.sqrt((x**2).sum(axis=-1) + (y**2).sum(axis=-1)))
    out = np.zeros((k, m, n))
    for j in range(m):
        ex = np.zeros((k, m))
        ex[:, j] = h
        for i in range(n):
            ey = np.zeros((k, n))
            ey[:, i] = h
            out[:, j, i] = (
                spec.f(x + ex, y + ey)
                - spec.f(x + ex, y - ey)
                - spec.f(x - ex, y + ey)
                + spec.f(x - ex, y - ey)
            ) / (4.0 * h * h)
    if not np.all(np.isfinite(out)):
        raise RequiresC2("second derivatives not evaluable around this point")
    return out


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
            return np.swapaxes(base_hess(y, x), -1, -2)

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
