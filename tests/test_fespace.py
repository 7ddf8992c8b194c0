from math import factorial

import numpy as np
import pytest

from mpdwr.fespace import (
    basis_values,
    build_space,
    interpolate,
    l2_error,
    quad_points_physical,
    quadrature,
    solution_values,
)
from mpdwr.mesh import global_refine, unit_square_template
from mpdwr.problems import get_problem
from tests.test_mesh import count_edges, two_triangle_square

SUPPORTED_DEGREES = (1, 2, 3, 4, 5, 6, 8)


@pytest.mark.parametrize("deg", SUPPORTED_DEGREES)
def test_quadrature_weights_sum_to_half(deg):
    rule = quadrature(deg)
    assert abs(rule.weights.sum() - 0.5) <= 1e-15


@pytest.mark.parametrize("deg", SUPPORTED_DEGREES)
def test_quadrature_beta_integral_oracle(deg):
    # int_T x^a y^b dA = a! b! / (a+b+2)! on the reference triangle
    rule = quadrature(deg)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float(np.sum(rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b))
            assert abs(got - exact) <= 5e-15, (deg, a, b)


def test_quadrature_degree_one_is_centroid():
    rule = quadrature(1)
    assert rule.points.shape == (1, 3)
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3])
    assert rule.weights[0] == pytest.approx(0.5)


def test_quadrature_linear_moment():
    # int_T x dA = 1/6 for every rule
    for deg in SUPPORTED_DEGREES:
        rule = quadrature(deg)
        assert float(np.sum(rule.weights * rule.points[:, 1])) == pytest.approx(1 / 6, abs=1e-15)


def test_quadrature_degree8_quartic_product():
    # oracle value 4!4!/10! (= 1/6300)
    rule = quadrature(8)
    got = float(np.sum(rule.weights * rule.points[:, 1] ** 4 * rule.points[:, 2] ** 4))
    assert abs(got - factorial(4) * factorial(4) / factorial(10)) <= 1e-14


def test_quadrature_unsupported_degree():
    with pytest.raises(ValueError):
        quadrature(7)


def test_build_space_p1_two_triangles():
    m = two_triangle_square()
    sp = build_space(m, 1, "double")
    assert sp.n_dofs == 4
    assert sorted(sp.boundary_dofs.tolist()) == [0, 1, 2, 3]


def test_build_space_p2_two_triangles():
    m = two_triangle_square()
    assert count_edges(m) == 5
    sp = build_space(m, 2, "double")
    assert sp.n_dofs == 4 + 5
    # the diagonal midpoint is the only interior dof
    assert len(sp.boundary_dofs) == 8


def test_build_space_bad_degree():
    with pytest.raises(ValueError):
        build_space(two_triangle_square(), 3, "double")


def test_dof_maps_identical_across_precisions():
    m = global_refine(unit_square_template())
    for degree in (1, 2):
        s_single = build_space(m, degree, "single")
        s_double = build_space(m, degree, "double")
        assert s_single.n_dofs == s_double.n_dofs
        assert s_single.element_dof_map.tobytes() == s_double.element_dof_map.tobytes()
        assert s_single.boundary_dofs.tobytes() == s_double.boundary_dofs.tobytes()
        assert s_single.mesh is s_double.mesh


def test_nodal_basis_duality():
    # the reference basis is nodal: phi_j(node k) = delta_jk at the three
    # vertices and the three edge midpoints (a,b), (b,c), (c,a)
    nodes = np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]
    )
    for degree, nloc in ((1, 3), (2, 6)):
        assert np.array_equal(basis_values(degree, nodes[:nloc]), np.eye(nloc))
    # and the affine image of local node k of element e is the coordinate
    # of its global DoF element_dof_map[e, k]
    m = global_refine(two_triangle_square())
    v = m.vertices[m.elements]  # (ne, 3, 2)
    for degree, nloc in ((1, 3), (2, 6)):
        sp = build_space(m, degree, "double")
        image = np.einsum("kj,ejd->ekd", nodes[:nloc], v)
        assert np.array_equal(image, sp.dof_coords[sp.element_dof_map])


def test_partition_of_unity():
    m = global_refine(unit_square_template())
    rule = quadrature(4)
    for degree in (1, 2):
        sp = build_space(m, degree, "double")
        from mpdwr.fespace import Solution

        ones = Solution(sp, np.ones(sp.n_dofs))
        vals = solution_values(ones, rule)
        assert np.allclose(vals, 1.0, atol=1e-14)


def test_eval_reproduces_linear():
    # the P1 interpolant of a linear field is the field itself, so its
    # values at the quadrature points are g there
    m = global_refine(unit_square_template())
    sp = build_space(m, 1, "double")
    g = lambda x, y: x + 2 * y
    rule = quadrature(4)
    pts, _ = quad_points_physical(m, rule)
    vals = solution_values(interpolate(sp, g), rule)
    assert np.allclose(vals, g(pts[..., 0], pts[..., 1]), atol=1e-13)


def test_eval_p2_reproduces_quadratic():
    m = global_refine(unit_square_template())
    sp = build_space(m, 2, "double")
    rule = quadrature(8)
    pts, _ = quad_points_physical(m, rule)
    vals = solution_values(interpolate(sp, lambda x, y: x**2), rule)
    assert np.allclose(vals, pts[..., 0] ** 2, atol=1e-12)


def test_interpolate_zero_field():
    sp = build_space(unit_square_template(), 1, "single")
    u = interpolate(sp, lambda x, y: 0.0 * x)
    assert not u.coefficients.any()
    assert u.coefficients.dtype == np.float32


def test_interpolate_u1_vanishes_on_boundary():
    prob = get_problem("e3")
    sp = build_space(global_refine(unit_square_template()), 1, "double")
    u = interpolate(sp, prob.u_exact)
    assert np.allclose(u.coefficients[sp.boundary_dofs], 0.0, atol=1e-14)


def test_interpolation_error_rate():
    # ||g - I_h g||_L2 = O(h^2) under global refinement
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    m = unit_square_template()
    errs, ns = [], []
    for _ in range(4):
        sp = build_space(m, 1, "double")
        errs.append(l2_error(interpolate(sp, g), g))
        ns.append(sp.n_dofs)
        m = global_refine(m)
    rate = -2 * np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 1.8 <= rate <= 2.2


def test_basis_values_partition_reference():
    rule = quadrature(8)
    for degree in (1, 2):
        phi = basis_values(degree, rule.points)
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-14)


def test_solution_text_export(tmp_path):
    from mpdwr.fespace import Solution, save_solution_text

    sp = build_space(two_triangle_square(), 1, "single")
    u = interpolate(sp, lambda x, y: x + y)
    path = tmp_path / "sol.txt"
    save_solution_text(u, path)
    lines = path.read_text().splitlines()
    n, prec = lines[0].split()
    assert int(n) == sp.n_dofs
    assert prec == "single"
    assert len(lines) == 1 + sp.n_dofs
    assert float(lines[1]) == float(u.coefficients[0])
