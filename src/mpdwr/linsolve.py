"""Precision-generic Jacobi-preconditioned conjugate gradients.

One identical solver serves every precision and every dual-solve approach so
that cross-approach timing comparisons are not confounded by solver choice.
Vectors live in the precision's container (``p.sparse_dtype``) and every
vector operation is rounded to the precision (the identity at single and
double); scalars are held at the precision itself.  For binary16 the
matrix holds binary32 sums of binary16 element contributions, the vectors
hold binary16 values in float32, each matrix-vector product and vector
operation runs in binary32 and is rounded to binary16, and the dot product
is numpy's float16 dot (``scalar._half_dot``), so the iterates are the
bytes native float16 arrays would give.  The solution comes back at the
precision's dtype.

Convergence is measured on the recursively updated residual, the standard
CG practice; the attainable true-residual floor grows like eps * n and
would make the tight default tolerance unreachable on fine meshes.

A start vector ``x0`` turns a solve into a refinement of a known
approximation, for instance a lower-precision solution of the same system
(iterative refinement in the sense of Carson and Higham, SISC 2018): the
initial residual b - A x0 is formed at the solve precision and CG corrects
x0 until ||r|| / ||b|| <= tol, the same stopping rule as a cold start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .scalar import Precision, _half_dot, _rounder, precision, round_to


@dataclass
class SolveReport:
    iterations: int
    final_relative_residual: float
    wall_time: float
    precision: Precision
    tol: float
    n: int
    true_residual: float = float("nan")  # ||b - Ax|| in double, set by callers


class PCGError(RuntimeError):
    """Solve failure; carries the best iterate seen and its report."""

    def __init__(self, message, x, report):
        super().__init__(message)
        self.x = x
        self.report = report


def default_tol(p: Precision) -> float:
    """100 x machine epsilon: drives the residual to the precision floor."""
    return 100.0 * p.eps


def pcg(A, b, p, tol=None, maxit=None, x0=None):
    """Solve the SPD system A x = b at precision p.

    Returns (x, SolveReport).  Raises PCGError when maxit is exceeded or a
    non-finite value appears.  b = 0 returns x = 0 after zero iterations.
    x0, if given, is rounded to p and used as the start vector; a start
    vector that already meets the tolerance is returned after zero
    iterations.  Without x0 the iteration starts from zero.  A is used at
    p.sparse_dtype, the dtype assembly stores it at; x (and PCGError.x)
    comes back at p.dtype.
    """
    p = precision(p)
    n = A.shape[0]
    if tol is None:
        tol = default_tol(p)
    if maxit is None:
        maxit = 10 * n
    dt, vt = p.dtype, p.sparse_dtype
    rnd = _rounder(p)  # rounds a container array to p in place
    dot = np.dot if vt == dt else _half_dot
    A = A.astype(vt, copy=False)

    t0 = time.perf_counter()
    b = round_to(np.asarray(b), p).astype(vt, copy=False)
    bnorm = np.linalg.norm(b.astype(np.float64))
    if bnorm == 0.0:
        report = SolveReport(0, 0.0, time.perf_counter() - t0, p, tol, n)
        return np.zeros(n, dtype=dt), report

    dinv = round_to(1.0 / A.diagonal().astype(np.float64), p).astype(vt, copy=False)

    def matvec(v):
        return rnd(A @ v)

    # ||r|| is formed in double; below double through one reused buffer
    r64 = None if dt == np.float64 else np.empty(n)

    def relative_residual(r):
        if r64 is not None:
            np.copyto(r64, r)
            r = r64
        return float(np.sqrt(np.dot(r, r)) / bnorm)

    best_res = np.inf
    if x0 is None:
        x = np.zeros(n, dtype=vt)
        r = b.copy()
    else:
        x = round_to(np.asarray(x0), p).astype(vt)
        r = rnd(b - matvec(x))
        best_res = relative_residual(r)
        if best_res <= tol:
            return x.astype(dt, copy=False), SolveReport(0, best_res, time.perf_counter() - t0, p, tol, n)
    z = rnd(dinv * r)
    d = z.copy()
    rho = dt.type(dot(r, z))

    # r, z, d are updated in place; x is a new array each iteration, so that
    # best_x can hold on to an earlier iterate without a copy
    step = np.empty_like(d)
    best_x = x.copy()
    it = 0
    while it < maxit:
        q = matvec(d)
        dq = dt.type(dot(d, q))
        if not np.isfinite(dq) or dq <= 0:
            report = SolveReport(it, float(best_res), time.perf_counter() - t0, p, tol, n)
            raise PCGError(f"breakdown: d.Ad = {dq} at iteration {it}", best_x.astype(dt, copy=False), report)
        alpha = dt.type(rho / dq)
        x = rnd(x + rnd(np.multiply(alpha, d, out=step)))
        r -= rnd(np.multiply(alpha, q, out=step))
        rnd(r)
        it += 1
        relres = relative_residual(r)
        if not np.isfinite(relres):
            report = SolveReport(it, float(best_res), time.perf_counter() - t0, p, tol, n)
            raise PCGError(f"non-finite residual at iteration {it}", best_x.astype(dt, copy=False), report)
        if relres < best_res:
            best_res = relres
            best_x = x
        if relres <= tol:
            report = SolveReport(it, relres, time.perf_counter() - t0, p, tol, n)
            return x.astype(dt, copy=False), report
        rnd(np.multiply(dinv, r, out=z))
        rho_new = dt.type(dot(r, z))
        beta = dt.type(rho_new / rho)
        rho = rho_new
        d *= beta
        rnd(d)
        d += z
        rnd(d)

    report = SolveReport(it, float(best_res), time.perf_counter() - t0, p, tol, n)
    raise PCGError(
        f"PCG did not reach tol {tol:g} in {maxit} iterations "
        f"(best relative residual {best_res:g})",
        best_x.astype(dt, copy=False),
        report,
    )
