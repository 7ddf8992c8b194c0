"""Manufactured Poisson problems and region-average goal functionals.

Each problem carries the exact solution, its gradient, and the closed-form
source f = -laplace(u) on [-1,1]^2 with homogeneous Dirichlet data.  The
sources were derived with a computer algebra system and are guarded by a
finite-difference Laplacian test in the suite.

The steep factor exp(1 - y^-4) and all its derivative combinations underflow
long before |y| reaches 0.19, so fields of the e2 family return 0 outside
that band instead of evaluating negative powers of y near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fespace import EVALUATION_DEGREE, Solution, _element_blocks, _evaluation_pass, _quad_columns, _value_columns, quadrature

# below this |y|, 1 - y^-4 < log(smallest normal double) and exp underflows
_Y_CUTOFF = 0.19


@dataclass
class Problem:
    name: str
    u_exact: object
    grad_u_exact: object
    f: object


@dataclass
class Functional:
    """Region average J(u) = |R|^-1 int_R u over an axis-aligned rectangle.

    A region without positive extent in x and in y (zero area, or inverted
    bounds) has no average and is rejected here.
    """

    name: str
    region: tuple  # (xmin, xmax, ymin, ymax)
    area: float = field(init=False)

    def __post_init__(self):
        x0, x1, y0, y1 = self.region
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"functional {self.name}: region {self.region} has no positive area")
        self.area = (x1 - x0) * (y1 - y0)

    def contains(self, x, y):
        x0, x1, y0, y1 = self.region
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


# --- e1: u = sin(pi x) sin(2 pi y) -----------------------------------------

def _u1_sin(x, y):
    return np.sin(np.pi * x) * np.sin(2 * np.pi * y)


def _grad_u1_sin(x, y):
    return (
        np.pi * np.cos(np.pi * x) * np.sin(2 * np.pi * y),
        2 * np.pi * np.sin(np.pi * x) * np.cos(2 * np.pi * y),
    )


def _f1_sin(x, y):
    return 5 * np.pi**2 * np.sin(np.pi * x) * np.sin(2 * np.pi * y)


# --- e2 (and e4): u = 50 (1-x^2)(1-y^2) exp(1 - y^-4) -----------------------
#
# Negative powers of y are products of s = 1/(y*y), never `**`: numpy's pow
# is an order of magnitude slower on negative bases, and the products make
# every field exactly even or odd in y, as the formulas are.

def _inv_square(y, out=None):
    s = np.multiply(y, y, out=out)
    return np.reciprocal(s, out=s)


def _exp_factor(y):
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    mask = np.abs(y) >= _Y_CUTOFF
    t = y[mask]
    _inv_square(t, out=t)
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    out[mask] = np.exp(t, out=t)
    return out


def _u2_steep(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u = 50.0 * (1 - x**2) * (1 - y**2)
    u *= _exp_factor(y)
    return u


def _grad_u2_steep(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    E = _exp_factor(y)
    gx = -100.0 * x * (1 - y**2) * E
    gy = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    mask = np.abs(y) >= _Y_CUTOFF
    ym = np.broadcast_to(y, gy.shape)[mask]
    xm = np.broadcast_to(x, gy.shape)[mask]
    Em = np.broadcast_to(E, gy.shape)[mask]
    s = _inv_square(ym)
    y5 = s * s
    y5 /= ym
    gy[mask] = 50.0 * (1 - xm**2) * Em * (-2 * ym + 4 * (1 - ym**2) * y5)
    return gx, gy


def _f2_steep(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    mask = np.abs(y) >= _Y_CUTOFF
    ym = np.broadcast_to(y, out.shape)[mask]
    xm = np.broadcast_to(x, out.shape)[mask]
    s = _inv_square(ym)
    y4 = s * s
    y6 = y4 * s
    y10 = y4 * y4
    y10 *= s
    w = 1 - ym**2
    E = np.exp(1.0 - y4)
    uyy_over = 16 * w * y10 - 20 * w * y6 - 16 * y4 - 2
    out[mask] = 100.0 * w * E - 50.0 * (1 - xm**2) * E * uyy_over
    return out


# --- e3: u = (1-x^2)^2 (1-y^2)^2 / (k x^2 + 0.1), k = 4 ---------------------

_K_ANISO = 4.0


def _g_rat(x):
    q = _K_ANISO * x**2 + 0.1
    return (1 - x**2) ** 2 / q


def _g_rat_dd(x):
    k = _K_ANISO
    q = k * x**2 + 0.1
    return (
        (12 * x**2 - 4) / q
        + 16 * k * x**2 * (1 - x**2) / q**2
        - 2 * k * (1 - x**2) ** 2 / q**2
        + 8 * k**2 * x**2 * (1 - x**2) ** 2 / q**3
    )


def _u3_aniso(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _g_rat(x) * (1 - y**2) ** 2


def _grad_u3_aniso(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = _K_ANISO
    q = k * x**2 + 0.1
    gprime = -4 * x * (1 - x**2) / q - 2 * k * x * (1 - x**2) ** 2 / q**2
    return gprime * (1 - y**2) ** 2, _g_rat(x) * (-4 * y * (1 - y**2))


def _f3_aniso(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return -(_g_rat_dd(x) * (1 - y**2) ** 2 + _g_rat(x) * (12 * y**2 - 4))


_PROBLEMS = {
    "e1": Problem("e1", _u1_sin, _grad_u1_sin, _f1_sin),
    "e2": Problem("e2", _u2_steep, _grad_u2_steep, _f2_steep),
    "e3": Problem("e3", _u3_aniso, _grad_u3_aniso, _f3_aniso),
    "e4": Problem("e4", _u2_steep, _grad_u2_steep, _f2_steep),
}

_FUNCTIONALS = {
    "j1": Functional("j1", (-1.0, 1.0, -1.0, 1.0)),
    "j2": Functional("j2", (-1.0, 1.0, -0.05, 0.05)),
    "j3": Functional("j3", (-0.5, 0.0, 0.7, 1.0)),
}


def catalog():
    """The cataloged problems e1, e2, e3, e4 (e4 shares e2's solution)."""
    return [_PROBLEMS[k] for k in ("e1", "e2", "e3", "e4")]


def get_problem(name: str) -> Problem:
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; expected one of {sorted(_PROBLEMS)}")


def get_functional(name: str) -> Functional:
    try:
        return _FUNCTIONALS[name]
    except KeyError:
        raise ValueError(f"unknown functional {name!r}; expected one of {sorted(_FUNCTIONALS)}")


def eval_functional(functional: Functional, u, mesh=None) -> float:
    """Region average of u by degree-8 characteristic quadrature, in double.

    u is either a Solution (its mesh is used) or a callable field, in which
    case a mesh must be supplied.  Diagnostic arithmetic always runs in
    double regardless of a Solution's storage precision.  The sums run as
    in _goal_and_l2_errors, so J(e) is the difference of two calls.
    """
    if isinstance(u, Solution):
        mesh = u.space.mesh
    elif mesh is None:
        raise ValueError("a mesh is required to evaluate a plain field")
    rule = quadrature(EVALUATION_DEGREE)
    integral = np.zeros(mesh.n_elements)
    for block in _element_blocks(mesh.n_elements):
        values = _value_columns(u, rule, block) if isinstance(u, Solution) else None
        part = integral[block]  # a view, summed in place
        for x, y, wdet in _quad_columns(mesh, rule, block):
            vals = next(values) if values else np.asarray(u(x, y), dtype=np.float64)
            part += (wdet * functional.contains(x, y)) * vals
    return float(np.sum(integral) / functional.area)


def _goal_and_l2_errors(functional: Functional, u_exact, u_h: Solution):
    """(J(e), L2 error of u_h) from one degree-8 evaluation of u_exact and u_h."""
    l2, int_exact, int_h = _evaluation_pass(u_h, u_exact, functional.contains)
    return float(int_exact / functional.area) - float(int_h / functional.area), l2


def functional_error(functional: Functional, u_exact, u_h: Solution) -> float:
    """J(e) = J(u_exact) - J(u_h), both by quadrature on u_h's mesh."""
    return _goal_and_l2_errors(functional, u_exact, u_h)[0]
