import numpy as np
import pytest
import scipy.sparse as sparse

from mpdwr.assembly import apply_dirichlet, assemble_load, assemble_stiffness
from mpdwr.driver import initial_mesh, solve_primal
from mpdwr.fespace import build_space
from mpdwr.linsolve import PCGError, default_tol, pcg
from mpdwr.problems import get_problem
from mpdwr.scalar import DOUBLE, HALF, SINGLE


def test_identity_one_iteration():
    A = sparse.identity(5, format="csr")
    b = np.arange(1.0, 6.0)
    x, rep = pcg(A, b, DOUBLE)
    assert rep.iterations == 1
    assert np.allclose(x, b)


def test_two_by_two_oracle():
    # [[4,1],[1,3]] x = (1,2): direct solve gives (1/11, 7/11)
    A = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, rep = pcg(A, b, DOUBLE)
    assert np.allclose(x, [1 / 11, 7 / 11], atol=1e-12)
    assert rep.final_relative_residual <= rep.tol


def test_zero_rhs():
    A = sparse.identity(4, format="csr")
    x, rep = pcg(A, np.zeros(4), SINGLE)
    assert rep.iterations == 0
    assert not x.any()
    assert x.dtype == np.float32


def test_default_tolerances():
    assert default_tol(DOUBLE) == pytest.approx(100 * np.finfo(np.float64).eps)
    assert default_tol(SINGLE) == pytest.approx(100 * np.finfo(np.float32).eps)


def test_maxit_error_carries_best_iterate():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((30, 30))
    A = sparse.csr_matrix(M @ M.T + 30 * np.eye(30))
    b = rng.standard_normal(30)
    with pytest.raises(PCGError) as err:
        pcg(A, b, DOUBLE, tol=1e-30, maxit=3)
    assert err.value.x.shape == (30,)
    assert err.value.report.iterations == 3
    assert np.isfinite(err.value.report.final_relative_residual)


def test_report_fields():
    A = sparse.identity(3, format="csr", dtype=np.float32)
    x, rep = pcg(A, np.ones(3, np.float32), SINGLE)
    assert rep.precision is SINGLE
    assert rep.n == 3
    assert rep.wall_time >= 0.0


def test_zero_bc_patch():
    # u = 0 on the boundary of a pure-Dirichlet problem with f = 0
    prob_zero = lambda x, y: 0.0 * x
    mesh = initial_mesh(1)
    sp = build_space(mesh, 1, "double")
    A = assemble_stiffness(sp)
    F = assemble_load(sp, prob_zero)
    A, F = apply_dirichlet(A, F, sp.boundary_dofs)
    x, rep = pcg(A, F, DOUBLE)
    assert rep.iterations == 0
    assert not x.any()


def test_single_vs_double_coefficient_gap():
    # loose cross-precision agreement bound on a moderate mesh
    prob = get_problem("e1")
    mesh = initial_mesh(2)
    u_s, _ = solve_primal(mesh, prob, "single")
    u_d, _ = solve_primal(mesh, prob, "double")
    rel = np.linalg.norm(u_s.coefficients.astype(np.float64) - u_d.coefficients)
    rel /= np.linalg.norm(u_d.coefficients)
    assert rel <= 1e-3


def test_poisson_solve_meets_tolerance():
    prob = get_problem("e2")
    mesh = initial_mesh(2)
    for p in ("single", "double"):
        u, rep = solve_primal(mesh, prob, p)
        assert rep.final_relative_residual <= rep.tol


def test_deterministic_solve():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u1, _ = solve_primal(mesh, prob, "single")
    u2, _ = solve_primal(mesh, prob, "single")
    assert u1.coefficients.tobytes() == u2.coefficients.tobytes()


def pcg_reference(A, b, p, x0=None):
    """Jacobi-PCG loop, success path only (the pre-warm-start code, plus
    x0), on numpy arrays at p's own dtype: binary16 runs on numpy's float16
    arithmetic, and every rounding is numpy's astype, so the reference
    shares no rounding code with pcg."""
    dt = p.dtype

    def rnd(v):
        return np.asarray(v).astype(dt)

    b = rnd(b)
    bnorm = np.linalg.norm(b.astype(np.float64))
    dinv = rnd(1.0 / A.diagonal().astype(np.float64))
    tol = default_tol(p)
    if x0 is None:
        x = np.zeros(A.shape[0], dtype=dt)
        r = b.copy()
    else:
        x = rnd(x0)
        r = rnd(b - rnd(A @ x))
        if np.linalg.norm(r.astype(np.float64)) / bnorm <= tol:
            return x, 0
    z = rnd(dinv * r)
    d = z.copy()
    rho = dt.type(np.dot(r, z))
    it = 0
    while True:
        q = rnd(A @ d)
        alpha = dt.type(rho / dt.type(np.dot(d, q)))
        x = rnd(x + alpha * d)
        r = rnd(r - alpha * q)
        it += 1
        if np.linalg.norm(r.astype(np.float64)) / bnorm <= tol:
            return x, it
        z = rnd(dinv * r)
        rho_new = dt.type(np.dot(r, z))
        beta = dt.type(rho_new / rho)
        rho = rho_new
        d = rnd(z + beta * d)


def _poisson_system(p, level=2):
    sp = build_space(initial_mesh(level), 1, p)
    A, F = apply_dirichlet(assemble_stiffness(sp), assemble_load(sp, get_problem("e3").f), sp.boundary_dofs)
    return A, F


@pytest.mark.parametrize("p", [HALF, SINGLE, DOUBLE])
def test_cold_start_bit_identical_to_reference(p):
    A, F = _poisson_system(p)
    x, rep = pcg(A, F, p, x0=None)
    x_ref, it_ref = pcg_reference(A, F, p)
    assert rep.iterations == it_ref
    assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()


@pytest.fixture(scope="module")
def half_level5():
    return _poisson_system(HALF, level=5)


def test_half_level5_with_subnormal_load_bit_identical_to_reference(half_level5):
    A, F = half_level5
    assert A.dtype == np.float32 and F.dtype == np.float16
    nonzero = F[F != 0]
    subnormal = np.abs(nonzero) < np.finfo(np.float16).smallest_normal
    assert 0.03 < subnormal.mean() < 0.2  # 4.8 % of the nonzero load entries (1,560 of 32,509)
    x, rep = pcg(A, F, HALF)
    x_ref, it_ref = pcg_reference(A, F, HALF)
    assert rep.iterations == it_ref == 132
    assert x.dtype == np.float16 and x.tobytes() == x_ref.tobytes()


def test_half_warm_start_bit_identical_to_reference(half_level5):
    A, F = half_level5
    x0 = 0.5 * pcg(A, F, HALF)[0].astype(np.float64)
    x, rep = pcg(A, F, HALF, x0=x0)
    x_ref, it_ref = pcg_reference(A, F, HALF, x0=x0)
    assert 0 < rep.iterations == it_ref
    assert x.dtype == np.float16 and x.tobytes() == x_ref.tobytes()


def test_warm_start_from_solution_stops_at_once():
    A, F = _poisson_system(DOUBLE)
    x, _ = pcg(A, F, DOUBLE)
    x2, rep = pcg(A, F, DOUBLE, x0=x)
    assert rep.iterations <= 1
    assert rep.final_relative_residual <= rep.tol
    assert np.linalg.norm(x2 - x) <= 1e-12 * np.linalg.norm(x)


def test_warm_start_from_single_solution():
    A, F = _poisson_system(DOUBLE)
    x_s, _ = pcg(*_poisson_system(SINGLE), SINGLE)
    _, cold = pcg(A, F, DOUBLE, tol=1e-8)
    x, warm = pcg(A, F, DOUBLE, tol=1e-8, x0=x_s)
    assert x.dtype == np.float64
    assert warm.final_relative_residual <= warm.tol
    assert warm.iterations < cold.iterations
