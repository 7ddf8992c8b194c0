"""Peak memory of the quadrature passes, in ne-length float64 columns.

Every per-element quadrature pass runs over blocks of at most
fespace.ELEMENT_BLOCK elements, one quadrature point at a time: it holds
its (ne,) outputs and a fixed number of block-length temporaries, never an
(elements x points) array or an (ne, nloc, nloc) temporary.  Stiffness
assembly writes each block's local rows, at the sparse dtype, straight
into their slots of the CSR data array, next to int32 column indices; the
Dirichlet elimination masks A's CSR arrays.  The bounds are the peaks that
tracemalloc records for this code on a mesh of about 100k elements, with
15 % or more margin (8 % for the half load at P2, whose element vectors
are binary16 values in float32 containers): l2_error 10.0 columns at P1
and 11.3 at P2; assemble_stiffness 20.4/73.1, 18.8/62.5 and 30.2/102.0;
apply_dirichlet 6.4/41.2 (half and single) and 9.9/64.1; assemble_load
6.0/6.9, 7.2/8.5 and 8.5/11.0 (P1/P2 in half, single and double);
element_h1_seminorms 10.7 and element_l2_norms 7.7; estimate_Je 18.7;
residual_indicator 30.2.  Each pass over the whole mesh at once fails its
bound (l2_error 24 and 27, stiffness 44, 72, 141 and 223, load 17 to 31,
the element norms 28 and 20, estimate_Je 48, the residual indicator's
(edges, 2) arrays 37.7); so do the degree-8 points as one (ne, 16, 2)
array, 32 columns, the int64 index scatter, the int32 COO scatter
(stiffness 28.1/94.3, 28.3/94.6 and 38.6/130.2) and the COO Dirichlet
round trip (18.1/118.4 and 21.6/141.2), and the stacked element geometry
the load and the solution gradients formed before they took the
affine-map columns (double load 9.2/11.7, element_h1_seminorms 12.0,
estimate_Je 22.0).
"""

import tracemalloc

import numpy as np
import pytest

from mpdwr.assembly import apply_dirichlet, assemble_load, assemble_stiffness
from mpdwr.driver import initial_mesh
from mpdwr.estimator import element_h1_seminorms, element_l2_norms, estimate_Je, residual_indicator
from mpdwr.fespace import Solution, build_space, l2_error
from mpdwr.mesh import bisect_marked
from mpdwr.problems import get_problem


@pytest.fixture(scope="module")
def mesh():
    m = initial_mesh(5)
    m = bisect_marked(m, np.flatnonzero(m.vertices[m.elements, 1].mean(axis=1) > 0))
    assert 90_000 < m.n_elements < 130_000
    return m


def peak_columns(m, fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * m.n_elements)


def solution(m, degree, p):
    space = build_space(m, degree, p)
    coeffs = np.random.default_rng(0).standard_normal(space.n_dofs).astype(space.precision.dtype)
    return Solution(space, coeffs)


def test_evaluation_pass_streams_points(mesh):
    prob = get_problem("e2")
    for degree in (1, 2):
        u = solution(mesh, degree, "single")
        assert peak_columns(mesh, lambda: l2_error(u, prob.u_exact)) < 13.5, degree


def test_residual_indicator_streams_points(mesh):
    u = solution(mesh, 1, "single")
    assert peak_columns(mesh, lambda: residual_indicator(u, get_problem("e2").f)) < 35


@pytest.mark.parametrize(
    "degree, p, bound",
    [(1, "half", 24), (1, "single", 22), (1, "double", 35), (2, "half", 85), (2, "single", 72), (2, "double", 118)],
    ids=["1-half", "1-single", "1-double", "2-half", "2-single", "2-double"],  # a bound is not part of a test's name
)
def test_stiffness_assembly_bounded(mesh, degree, p, bound):
    space = build_space(mesh, degree, p)
    assert peak_columns(mesh, lambda: assemble_stiffness(space)) < bound


@pytest.mark.parametrize("p, bounds", [("single", (7.5, 48)), ("double", (11.5, 74))], ids=["single", "double"])
def test_dirichlet_elimination_bounded(mesh, p, bounds):
    for degree, bound in zip((1, 2), bounds):
        space = build_space(mesh, degree, p)
        A, F = assemble_stiffness(space), np.zeros(space.n_dofs, dtype=space.precision.dtype)
        assert peak_columns(mesh, lambda: apply_dirichlet(A, F, space.boundary_dofs)) < bound, degree


@pytest.mark.parametrize("p, bound", [("half", 7.5), ("single", 10), ("double", 12.7)], ids=["half", "single", "double"])
def test_load_assembly_bounded(mesh, p, bound):
    f = get_problem("e2").f
    for degree in (1, 2):
        space = build_space(mesh, degree, p)
        assert peak_columns(mesh, lambda: assemble_load(space, f)) < bound, degree


def test_element_norms_and_goal_estimate_bounded(mesh):
    u, w = solution(mesh, 1, "single"), solution(mesh, 1, "double")
    assert peak_columns(mesh, lambda: element_h1_seminorms(w)) < 12.5
    assert peak_columns(mesh, lambda: element_l2_norms(w)) < 9
    assert peak_columns(mesh, lambda: estimate_Je(u, w, get_problem("e2").f)) < 21.5
