"""Bit-identity of the geometry and assembly kernels against references.

The reference functions below are the straightforward einsum, batched
matmul and ``np.unique(axis=0)`` formulations the kernels replace.  Every
kernel must reproduce their bytes exactly, at every precision, so that
adaptive runs keep producing the same meshes and the same error trails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpdwr import assembly
from mpdwr.driver import initial_mesh
from mpdwr.fespace import (
    ASSEMBLY_DEGREE,
    EVALUATION_DEGREE,
    Solution,
    basis_gradients,
    basis_values,
    build_space,
    element_transforms,
    quad_points_physical,
    quadrature,
    solution_gradients,
)
from mpdwr.mesh import bisect_marked, edge_table
from mpdwr.problems import eval_functional, functional_error, get_functional, get_problem
from mpdwr.scalar import round_to


# --- references ---------------------------------------------------------------

def ref_edge_table(mesh):
    elems = mesh.elements
    ne = elems.shape[0]
    raw = np.stack(
        [elems[:, [0, 1]], elems[:, [1, 2]], elems[:, [2, 0]]], axis=1
    ).reshape(-1, 2)
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    eids = inverse[order]
    first = np.ones(eids.shape[0], dtype=bool)
    first[1:] = eids[1:] != eids[:-1]
    slot = np.where(first, 0, 1)
    edge_to_elem = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    edge_local = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    edge_to_elem[eids, slot] = np.repeat(np.arange(ne, dtype=np.int64), 3)[order]
    edge_local[eids, slot] = np.tile(np.arange(3, dtype=np.int64), ne)[order]
    return edges, inverse.reshape(ne, 3), edge_to_elem, edge_local


def ref_quad_points(mesh, rule):
    a, J, det, _ = element_transforms(mesh)
    pts = a[:, None, :] + np.einsum("eij,qj->eqi", J, rule.points[:, 1:])
    return pts, rule.weights[None, :] * det[:, None]


def ref_solution_gradients(u, rule):
    _, _, _, invJT = element_transforms(u.space.mesh)
    gref = basis_gradients(u.space.degree, rule.points)
    gphys = np.einsum("eab,qib->eqia", invJT, gref)
    local = u.coefficients.astype(np.float64)[u.space.element_dof_map]
    return np.einsum("eqia,ei->eqa", gphys, local)


def ref_stiffness(space):
    p = space.precision
    rule = quadrature(ASSEMBLY_DEGREE)
    _, _, det, invJT = assembly._element_geometry(space)
    gref = round_to(basis_gradients(space.degree, rule.points), p)
    w = round_to(rule.weights, p)
    local = np.zeros((space.mesh.n_elements, space.ndof_local, space.ndof_local), dtype=p.dtype)
    for q in range(rule.points.shape[0]):
        g = np.einsum("eab,ib->eia", invJT, gref[q])
        contrib = np.einsum("eia,eja->eij", g, g)
        local += (w[q] * det)[:, None, None] * contrib
    return assembly._to_csr(space, round_to(local, p).astype(p.sparse_dtype))


def ref_load_and_functional(space, f, functional):
    p = space.precision
    a, J, det, _ = assembly._element_geometry(space)
    out = []
    for degree, weight in ((ASSEMBLY_DEGREE, f), (EVALUATION_DEGREE, functional.contains)):
        rule = quadrature(degree)
        phi = round_to(basis_values(space.degree, rule.points), p)
        w = round_to(rule.weights, p)
        ref = round_to(rule.points[:, 1:], p)
        local = np.zeros((space.mesh.n_elements, space.ndof_local), dtype=p.dtype)
        for q in range(rule.points.shape[0]):
            x = a + J @ ref[q]
            fq = round_to(np.asarray(weight(x[:, 0], x[:, 1])), p)
            local += ((w[q] * det) * fq)[:, None] * phi[q][None, :]
        vec = np.zeros(space.n_dofs, dtype=p.dtype)
        np.add.at(vec, space.element_dof_map.ravel(), local.ravel())
        out.append(vec)
    return round_to(out[0], p), round_to(round_to(1.0 / functional.area, p) * out[1], p)


# --- helpers ------------------------------------------------------------------

def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def same_csr(A, B):
    return all(same_bytes(getattr(A, k), getattr(B, k)) for k in ("indptr", "indices", "data"))


def random_bisections(seed, rounds):
    """Level-1 mesh bisected `rounds` times at random element subsets."""
    rng = np.random.default_rng(seed)
    m = initial_mesh(1)
    for _ in range(rounds):
        k = int(rng.integers(1, max(2, m.n_elements // 4)))
        m = bisect_marked(m, rng.choice(m.n_elements, size=k, replace=False))
    return m


def random_solution(m, degree, seed):
    space = build_space(m, degree, "double")
    coeffs = np.random.default_rng(seed).standard_normal(space.n_dofs)
    return Solution(space, coeffs)


def check_mesh_kernels(m, seed=0):
    et = edge_table(m)
    for got, want in zip((et.edges, et.elem_to_edge, et.edge_to_elem, et.edge_local), ref_edge_table(m)):
        assert same_bytes(got, want)
    for degree in (4, 8):
        rule = quadrature(degree)
        for got, want in zip(quad_points_physical(m, rule), ref_quad_points(m, rule)):
            assert same_bytes(got, want)
    for degree in (1, 2):
        u = random_solution(m, degree, seed)
        for rule_degree in (1, 4, 8):
            rule = quadrature(rule_degree)
            assert same_bytes(solution_gradients(u, rule), ref_solution_gradients(u, rule))


def check_assembly(m):
    f, functional = get_problem("e3").f, get_functional("j3")
    for degree in (1, 2):
        for prec in ("half", "single", "double"):
            space = build_space(m, degree, prec)
            assert same_csr(assembly.assemble_stiffness(space), ref_stiffness(space)), (degree, prec)
            load, func = ref_load_and_functional(space, f, functional)
            assert same_bytes(assembly.assemble_load(space, f), load), (degree, prec)
            assert same_bytes(assembly.assemble_functional(space, functional), func), (degree, prec)


# --- tests --------------------------------------------------------------------

@pytest.fixture(scope="module")
def level4():
    return initial_mesh(4)


def test_mesh_kernels_level4(level4):
    check_mesh_kernels(level4)


def test_assembly_level4(level4):
    check_assembly(level4)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_kernels_random_bisections(seed, rounds):
    m = random_bisections(seed, rounds)
    check_mesh_kernels(m, seed)
    check_assembly(m)


def test_functional_error_matches_two_evaluations(level4):
    prob, func = get_problem("e3"), get_functional("j2")
    u = random_solution(level4, 1, 3)
    want = eval_functional(func, prob.u_exact, level4) - eval_functional(func, u)
    assert functional_error(func, prob.u_exact, u) == want

