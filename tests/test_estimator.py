import numpy as np
import pytest

from mpdwr.assembly import assemble_load, assemble_stiffness
from mpdwr.driver import dual_solve_mpdwr, initial_mesh, solve_primal
from mpdwr.estimator import (
    IndicatorField,
    dwr_indicator,
    element_l2_norms,
    estimate_Je,
    galerkin_probe,
    residual_indicator,
)
from mpdwr.fespace import Solution, build_space, interpolate, zero_solution
from mpdwr.mesh import element_areas, element_diameters, global_refine, unit_square_template
from mpdwr.problems import get_functional, get_problem
from tests.test_mesh import two_triangle_square


def test_indicator_field_total():
    m = unit_square_template()
    ind = IndicatorField(m, np.full(m.n_elements, 2.0))
    assert ind.total == pytest.approx(2.0 * np.sqrt(m.n_elements))


def test_residual_indicator_zero_data():
    m = global_refine(unit_square_template())
    u0 = zero_solution(build_space(m, 1, "double"))
    ind = residual_indicator(u0, lambda x, y: 0.0 * x)
    assert not ind.values.any()


def test_residual_indicator_constant_source_no_jumps():
    # u_h = 0, f = c: eta_K = h_K |c| sqrt(|K|)
    m = global_refine(unit_square_template())
    u0 = zero_solution(build_space(m, 1, "double"))
    c = 3.0
    ind = residual_indicator(u0, lambda x, y: np.full_like(x, c))
    expect = element_diameters(m) * c * np.sqrt(element_areas(m))
    assert np.allclose(ind.values, expect, rtol=1e-12)


def test_residual_indicator_single_edge_jump_hand_value():
    # piecewise-linear kink across the diagonal of the unit square:
    # u = 0 on one side, rising on the other; f = 0
    m = two_triangle_square()
    sp = build_space(m, 1, "double")
    # vertices: (0,0),(1,0),(1,1),(0,1); diagonal (0,0)-(1,1)
    # u = 0 at all vertices except u(1,0) = 1: on triangle (2,0,1) the
    # gradient is (1,-1); on triangle (0,2,3) it is (0,0)
    u = Solution(sp, np.array([0.0, 1.0, 0.0, 0.0]))
    ind = residual_indicator(u, lambda x, y: 0.0 * x)
    # jump of n.grad across the diagonal: n = (1,-1)/sqrt(2),
    # [n.grad u] = (1,-1).(1,-1)/sqrt(2) = sqrt(2); h_E = sqrt(2)
    # eta_K^2 = 0.5 * h_E * int_E jump^2 = 0.5 * sqrt(2) * (2*sqrt(2)) = 2
    expect = np.sqrt(2.0)
    assert np.allclose(ind.values, expect, rtol=1e-12)


def test_residual_indicator_scaling():
    # multiplying f and u_h by alpha scales every eta_K by |alpha|
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "double")
    base = residual_indicator(u, prob.f)
    alpha = 2.0
    u2 = Solution(u.space, alpha * u.coefficients)
    scaled = residual_indicator(u2, lambda x, y: alpha * prob.f(x, y))
    assert np.allclose(scaled.values, alpha * base.values, rtol=1e-12)


def test_residual_indicator_rejects_p2():
    m = unit_square_template()
    u = zero_solution(build_space(m, 2, "double"))
    with pytest.raises(ValueError):
        residual_indicator(u, lambda x, y: 0.0 * x)


def test_galerkin_probe_zero_test_function():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "double")
    z = zero_solution(build_space(mesh, 1, "double"))
    assert galerkin_probe(u, z, prob.f) == 0.0


def test_galerkin_probe_same_precision_decays():
    prob = get_problem("e1")
    mesh = initial_mesh(0)
    mags = []
    for _ in range(3):
        mesh = global_refine(mesh)
        u, _ = solve_primal(mesh, prob, "double")
        mags.append(abs(galerkin_probe(u, u, prob.f)))
    assert mags[2] < mags[1] < mags[0]
    assert mags[0] / mags[2] >= 10.0


def test_galerkin_probe_mixed_separation():
    prob = get_problem("e1")
    mesh = initial_mesh(3)
    u_dd, _ = solve_primal(mesh, prob, "double")
    u_f, _ = solve_primal(mesh, prob, "single")
    same = abs(galerkin_probe(u_dd, u_dd, prob.f))
    mixed = abs(galerkin_probe(u_dd, u_f, prob.f))
    assert mixed >= 1e3 * same


def test_galerkin_probe_deterministic():
    prob = get_problem("e2")
    mesh = initial_mesh(1)
    u_dd, _ = solve_primal(mesh, prob, "double")
    u_f, _ = solve_primal(mesh, prob, "single")
    a = galerkin_probe(u_dd, u_f, prob.f)
    b = galerkin_probe(u_dd, u_f, prob.f)
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_galerkin_probe_mesh_mismatch():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "double")
    other = zero_solution(build_space(global_refine(mesh), 1, "double"))
    with pytest.raises(ValueError):
        galerkin_probe(u, other, prob.f)


def test_estimate_je_zero_dual():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "single")
    z = zero_solution(build_space(mesh, 1, "double"))
    assert estimate_Je(u, z, prob.f) == 0.0


def test_estimate_je_dense_oracle_replay():
    # (f, w) - a(u_h, w) recomputed with dense degree-8 assembly in double
    prob, func = get_problem("e1"), get_functional("j1")
    mesh = two_triangle_square()
    mesh = global_refine(mesh)  # 8 elements
    u, _ = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "double")
    got = estimate_Je(u, w, prob.f)

    sp = build_space(mesh, 1, "double")
    F8 = assemble_load(sp, prob.f, exactness=8).astype(np.float64)
    A = assemble_stiffness(sp).toarray()  # P1 gradients are constant
    uu = u.coefficients.astype(np.float64)
    ww = w.coefficients.astype(np.float64)
    brute = float(F8 @ ww - uu @ A @ ww)
    assert abs(got - brute) <= 1e-12


def test_estimate_je_degenerate_same_precision():
    # same precision and degree for primal and dual: the estimate collapses
    # to solver-noise scale, the regime the precision split avoids
    prob, func = get_problem("e1"), get_functional("j1")
    mesh = initial_mesh(2)
    u, rep = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "single")
    sp = u.space
    F = assemble_load(sp, prob.f).astype(np.float64)
    scale = np.linalg.norm(F) * np.linalg.norm(w.coefficients.astype(np.float64))
    assert abs(estimate_Je(u, w, prob.f)) <= 10 * rep.tol * scale


def test_estimate_je_mixed_exceeds_degenerate():
    prob, func = get_problem("e3"), get_functional("j1")
    mesh = initial_mesh(2)
    u_single, _ = solve_primal(mesh, prob, "single")
    w_double, _ = dual_solve_mpdwr(mesh, func, "double")
    w_single, _ = dual_solve_mpdwr(mesh, func, "single")
    mixed = abs(estimate_Je(u_single, w_double, prob.f))
    # mixed-precision pairing carries the precision-gap signal
    assert mixed > 0.0


def test_dwr_indicator_zero_weight():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "single")
    res = residual_indicator(u, prob.f)
    z = zero_solution(build_space(mesh, 1, "double"))
    assert not dwr_indicator(res, z).values.any()


def test_dwr_indicator_unit_weight():
    # w = 1 everywhere: eta_DWR,K = eta_K sqrt(|K|) for the value weight
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "single")
    res = residual_indicator(u, prob.f)
    sp = build_space(mesh, 1, "double")
    ones = Solution(sp, np.ones(sp.n_dofs))
    ind = dwr_indicator(res, ones, "value")
    assert np.allclose(ind.values, res.values * np.sqrt(element_areas(mesh)), rtol=1e-12)
    # gradient weight of a constant vanishes
    assert not dwr_indicator(res, ones, "gradient").values.any()


def test_dwr_indicator_unknown_weight():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u, _ = solve_primal(mesh, prob, "single")
    res = residual_indicator(u, prob.f)
    w, _ = dual_solve_mpdwr(mesh, get_functional("j1"), "double")
    with pytest.raises(ValueError):
        dwr_indicator(res, w, "energy")


@pytest.mark.parametrize("weight", ["value", "gradient"])
def test_dwr_indicator_locality_j3(weight):
    # top-decile indicator elements concentrate near Omega_3
    prob, func = get_problem("e4"), get_functional("j3")
    mesh = initial_mesh(3)
    u, _ = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "double")
    ind = dwr_indicator(residual_indicator(u, prob.f), w, weight)
    order = np.argsort(-ind.values)
    top = order[: max(1, mesh.n_elements // 10)]
    cent = mesh.vertices[mesh.elements[top]].mean(axis=1)
    x0, x1, y0, y1 = func.region
    dx = np.maximum(np.maximum(x0 - cent[:, 0], cent[:, 0] - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - cent[:, 1], cent[:, 1] - y1), 0.0)
    dist = np.hypot(dx, dy)
    assert (dist <= 0.3).mean() >= 0.5


def test_dwr_indicator_nonnegative():
    prob, func = get_problem("e3"), get_functional("j2")
    mesh = initial_mesh(2)
    u, _ = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "double")
    for weight in ("value", "gradient"):
        ind = dwr_indicator(residual_indicator(u, prob.f), w, weight)
        assert (ind.values >= 0.0).all()
        assert ind.total**2 == pytest.approx(float((ind.values**2).sum()), rel=1e-12)
