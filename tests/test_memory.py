"""Peak memory of the quadrature passes, in ne-length float64 columns.

The evaluation pass and the residual indicator stream quadrature points:
each holds a fixed number of (ne,) arrays at a time, not (elements x
points) ones, and stiffness assembly scatters int32 indices.  The bounds
are the peaks that tracemalloc records for this code on a mesh of about
100k elements (l2_error 24 columns at P1 and 27 at P2, residual_indicator
37.7, assemble_stiffness 44, 72, 141 and 223), with 15 % or more margin.
The degree-8 points as one (ne, 16, 2) array are 32 columns and the
degree-4 ones 12, so one such array fails the test; so does the int64
index scatter (61, 88, 210 and 292 columns).
"""

import tracemalloc

import numpy as np
import pytest

from mpdwr.assembly import assemble_stiffness
from mpdwr.driver import initial_mesh
from mpdwr.estimator import residual_indicator
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
        assert peak_columns(mesh, lambda: l2_error(u, prob.u_exact)) < 36, degree


def test_residual_indicator_streams_points(mesh):
    u = solution(mesh, 1, "single")
    assert peak_columns(mesh, lambda: residual_indicator(u, get_problem("e2").f)) < 44


@pytest.mark.parametrize("degree, p, bound", [(1, "single", 51), (1, "double", 82), (2, "single", 162), (2, "double", 256)])
def test_stiffness_assembly_bounded(mesh, degree, p, bound):
    space = build_space(mesh, degree, p)
    assert peak_columns(mesh, lambda: assemble_stiffness(space)) < bound
