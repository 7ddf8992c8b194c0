"""Bit-identity of the geometry and assembly kernels against references.

The reference functions below are the straightforward einsum, batched
matmul and ``np.unique(axis=0)`` formulations the kernels replace, plus
frozen copies of the per-precision Jacobian code and of the orthogonality
probe from before the geometry moved into ``fespace.element_transforms``,
and of the areas, element norms and degree-2 node coordinates from before
they moved onto ``mesh.affine_maps`` and ``mesh.prolong``, and of the
(elements x points) evaluation passes and the int64 COO scatter from
before the passes streamed quadrature points, of the residual indicator's
(edges, 2) jump arrays and the element diameters' (ne, 3, 2) gather, and
of the COO Dirichlet round trip that the masked CSR elimination replaced.  Every kernel must
reproduce their bytes exactly, at every precision, on the dyadic meshes
this code makes (template plus midpoint bisection), so that adaptive runs
keep producing the same meshes and the same error trails, also when the
quadrature passes run over many small blocks of elements.
Off dyadic geometry the point coordinates of the load can round differently
from the batched-matmul reference; there the double load is held to a few
ulp instead.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from mpdwr import assembly, fespace
from mpdwr.driver import initial_mesh
from mpdwr.fespace import (
    ASSEMBLY_DEGREE,
    EVALUATION_DEGREE,
    Solution,
    _inverse_transpose,
    basis_gradients,
    basis_values,
    build_space,
    element_transforms,
    interpolate,
    quad_points_physical,
    quadrature,
    solution_gradients,
    solution_values,
)
from mpdwr.estimator import (
    _element_mean_f,
    element_h1_seminorms,
    element_l2_norms,
    estimate_Je,
    galerkin_probe,
    residual_indicator,
)
from mpdwr.mesh import bisect_marked, edge_table, element_diameters, min_element_volume, signed_areas
from mpdwr.problems import Functional, _goal_and_l2_errors, eval_functional, functional_error, get_functional, get_problem
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
    edge_to_elem[eids, slot] = np.repeat(np.arange(ne, dtype=np.int64), 3)[order]
    return edges, inverse.reshape(ne, 3), edge_to_elem


def ref_element_geometry(space):
    p = space.precision
    verts = round_to(space.mesh.vertices, p)
    v = verts[space.mesh.elements]
    a = v[:, 0]
    J = np.stack([v[:, 1] - a, v[:, 2] - a], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0):
        raise ValueError("degenerate element: non-positive Jacobian determinant")
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1]
    invJT[:, 0, 1] = -J[:, 1, 0]
    invJT[:, 1, 0] = -J[:, 0, 1]
    invJT[:, 1, 1] = J[:, 0, 0]
    invJT = invJT / det[:, None, None]
    return a, J, det, invJT


def ref_galerkin_probe(u_h, v_h, f):
    p = v_h.space.precision
    rule = quadrature(EVALUATION_DEGREE)
    mesh = v_h.space.mesh
    verts = round_to(mesh.vertices, p)
    tri = verts[mesh.elements]
    origin = tri[:, 0]
    J = np.stack([tri[:, 1] - origin, tri[:, 2] - origin], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1]
    invJT[:, 0, 1] = -J[:, 1, 0]
    invJT[:, 1, 0] = -J[:, 0, 1]
    invJT[:, 1, 1] = J[:, 0, 0]
    invJT = invJT / det[:, None, None]
    phi = round_to(basis_values(v_h.space.degree, rule.points), p)
    gref_u = round_to(basis_gradients(u_h.space.degree, rule.points), p)
    gref_v = round_to(basis_gradients(v_h.space.degree, rule.points), p)
    w = round_to(rule.weights, p)
    ref = round_to(rule.points[:, 1:], p)
    cu = round_to(u_h.coefficients.astype(np.float64), p)[u_h.space.element_dof_map]
    cv = round_to(v_h.coefficients.astype(np.float64), p)[v_h.space.element_dof_map]
    load = np.zeros(mesh.n_elements, dtype=p.dtype)
    energy = np.zeros(mesh.n_elements, dtype=p.dtype)
    for q in range(rule.points.shape[0]):
        x = origin + J @ ref[q]
        fq = round_to(np.asarray(f(x[:, 0], x[:, 1])), p)
        vq = cv @ phi[q]
        load += (w[q] * det) * fq * vq
        gu = np.einsum("eab,ib->eia", invJT, gref_u[q])
        gv = np.einsum("eab,ib->eia", invJT, gref_v[q])
        du = np.einsum("eia,ei->ea", gu, cu)
        dv = np.einsum("eia,ei->ea", gv, cv)
        energy += (w[q] * det) * (du * dv).sum(axis=1)
    return float(np.cumsum(load)[-1]) - float(np.cumsum(energy)[-1])


def ref_quad_points(mesh, rule):
    a, J, det, _ = element_transforms(mesh)
    pts = a[:, None, :] + np.einsum("eij,qj->eqi", J, rule.points[:, 1:])
    return pts, rule.weights[None, :] * det[:, None]


def ref_det(mesh):
    v = mesh.vertices[mesh.elements]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def ref_values(u, rule):
    phi = basis_values(u.space.degree, rule.points)
    return u.coefficients.astype(np.float64)[u.space.element_dof_map] @ phi.T


def ref_gradients(u, rule):
    _, _, _, invJT = element_transforms(u.space.mesh)
    gref = basis_gradients(u.space.degree, rule.points)
    local = u.coefficients.astype(np.float64)[u.space.element_dof_map]
    out = np.zeros((local.shape[0], gref.shape[0], 2))
    for q in range(gref.shape[0]):
        if q > 0 and np.array_equal(gref[q], gref[q - 1]):
            out[:, q] = out[:, q - 1]
            continue
        for i, (g0, g1) in enumerate(gref[q]):
            gphys = invJT[:, :, 0] * g0 + invJT[:, :, 1] * g1
            gphys *= local[:, i, None]
            out[:, q] += gphys
    return out


def ref_element_norms(w):
    rule = quadrature(ASSEMBLY_DEGREE)
    wdet = rule.weights[None, :] * ref_det(w.space.mesh)[:, None]
    vals = ref_values(w, rule)
    grads = ref_gradients(w, rule)
    return np.sqrt(np.sum(wdet * vals**2, axis=1)), np.sqrt(np.sum(wdet * (grads**2).sum(axis=2), axis=1))


def ref_element_mean_f(m, f):
    pts, wdet = ref_quad_points(m, quadrature(ASSEMBLY_DEGREE))
    fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=np.float64)
    areas = wdet.sum(axis=1)
    return (wdet * fvals).sum(axis=1) / areas, areas


def ref_element_diameters(mesh):
    v = mesh.vertices[mesh.elements]
    l0 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
    l1 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
    l2 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
    return np.maximum(np.maximum(l0, l1), l2)


def ref_residual_indicator(u_h, f):
    m = u_h.space.mesh
    fbar, areas = ref_element_mean_f(m, f)
    eta_sq = ref_element_diameters(m) ** 2 * fbar**2 * areas
    grads = ref_solution_gradients(u_h, quadrature(1))[:, 0, :]
    et = edge_table(m)
    interior = (et.edge_to_elem >= 0).all(axis=1)
    eL = et.edge_to_elem[interior, 0]
    eR = et.edge_to_elem[interior, 1]
    tang = m.vertices[et.edges[interior, 1]] - m.vertices[et.edges[interior, 0]]
    hE = np.linalg.norm(tang, axis=1)
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / hE[:, None]
    jump = ((grads[eL] - grads[eR]) * normal).sum(axis=1)
    contrib = 0.5 * hE * (hE * jump**2)
    np.add.at(eta_sq, eL, contrib)
    np.add.at(eta_sq, eR, contrib)
    return np.sqrt(eta_sq)


def point_sums(t):
    """Per-element sums of an (ne, nq) array over the points in order,
    starting from zero: the order of the streamed passes."""
    out = np.zeros(t.shape[0])
    for q in range(t.shape[1]):
        out += t[:, q]
    return out


def ref_goal_and_l2(functional, exact, u):
    rule = quadrature(EVALUATION_DEGREE)
    pts, wdet = ref_quad_points(u.space.mesh, rule)
    exact_vals = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=np.float64)
    u_vals = ref_values(u, rule)
    l2 = float(np.sqrt(np.sum(point_sums(wdet * (exact_vals - u_vals) ** 2))))
    weights = wdet * functional.contains(pts[..., 0], pts[..., 1])
    int_exact, int_u = np.sum(point_sums(weights * exact_vals)), np.sum(point_sums(weights * u_vals))
    return float(int_exact / functional.area) - float(int_u / functional.area), l2


def ref_estimate_je(u_h, w, f):
    rule = quadrature(EVALUATION_DEGREE)
    pts, wdet = ref_quad_points(u_h.space.mesh, rule)
    load = np.sum(point_sums(wdet * f(pts[..., 0], pts[..., 1]) * ref_values(w, rule)))
    energy = np.sum(point_sums(wdet * (ref_gradients(u_h, rule) * ref_gradients(w, rule)).sum(axis=2)))
    return float(load - energy)


def ref_to_csr(space, local):
    dof = space.element_dof_map
    nloc = dof.shape[1]
    rows = np.repeat(dof, nloc, axis=1).ravel()
    cols = np.tile(dof, (1, nloc)).ravel()
    A = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)).tocsr()
    A.sum_duplicates()
    return A


def ref_apply_dirichlet(A, rhs, bdofs):
    bmask = np.zeros(A.shape[0], dtype=bool)
    bmask[bdofs] = True
    coo = A.tocoo()
    keep = ~(bmask[coo.row] | bmask[coo.col])
    rows = np.concatenate([coo.row[keep], bdofs])
    cols = np.concatenate([coo.col[keep], bdofs])
    vals = np.concatenate([coo.data[keep], np.ones(bdofs.size, dtype=A.dtype)])
    A2 = sparse.coo_matrix((vals, (rows, cols)), shape=A.shape).tocsr()
    A2.sum_duplicates()
    rhs2 = rhs.copy()
    rhs2[bdofs] = 0
    return A2, rhs2


def ref_p2_dof_coords(mesh):
    edges = edge_table(mesh).edges
    return np.vstack([mesh.vertices, 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])


def ref_solution_gradients(u, rule):
    _, _, _, invJT = element_transforms(u.space.mesh)
    gref = basis_gradients(u.space.degree, rule.points)
    gphys = np.einsum("eab,qib->eqia", invJT, gref)
    local = u.coefficients.astype(np.float64)[u.space.element_dof_map]
    return np.einsum("eqia,ei->eqa", gphys, local)


def ref_stiffness(space):
    p = space.precision
    rule = quadrature(ASSEMBLY_DEGREE)
    _, _, det, invJT = ref_element_geometry(space)
    gref = round_to(basis_gradients(space.degree, rule.points), p)
    w = round_to(rule.weights, p)
    local = np.zeros((space.mesh.n_elements, space.ndof_local, space.ndof_local), dtype=p.dtype)
    for q in range(rule.points.shape[0]):
        g = np.einsum("eab,ib->eia", invJT, gref[q])
        contrib = np.einsum("eia,eja->eij", g, g)
        local += (w[q] * det)[:, None, None] * contrib
    return ref_to_csr(space, round_to(local, p).astype(p.sparse_dtype))


def ref_load_and_functional(space, f, functional):
    p = space.precision
    a, J, det, _ = ref_element_geometry(space)
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
    return A.shape == B.shape and all(same_bytes(getattr(A, k), getattr(B, k)) for k in ("indptr", "indices", "data"))


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
    for got, want in zip((et.edges, et.elem_to_edge, et.edge_to_elem), ref_edge_table(m)):
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
            if rule_degree > 1:  # a one-point reference product goes to gemv
                assert same_bytes(solution_values(u, rule), ref_values(u, rule))


def check_mesh_geometry(m):
    """The areas, element norms and P2 node coordinates against their
    formulations from before the shared affine-map kernel, the streamed
    evaluation passes against their (elements x points) formulations and
    the residual indicator against its (edges, 2) one, all to the byte.
    The whole-mesh sums of J(e), the L2 error and the goal-error estimate
    are held to the byte against references that sum each element's
    points in order: a tolerance relative to |load| + |energy| misses the
    cancellation between elements and fails on a few random meshes."""
    assert same_bytes(signed_areas(m), 0.5 * ref_det(m))
    assert same_bytes(element_diameters(m), ref_element_diameters(m))
    assert same_bytes(build_space(m, 2, "double").dof_coords, ref_p2_dof_coords(m))
    for prob in (get_problem("e2"), get_problem("e3")):
        u = random_solution(m, 1, 0)
        for got, want in zip(_element_mean_f(u, prob.f), ref_element_mean_f(m, prob.f)):
            assert same_bytes(got, want), prob.name
        assert same_bytes(residual_indicator(u, prob.f).values, ref_residual_indicator(u, prob.f)), prob.name
    for degree in (1, 2):
        w = random_solution(m, degree, 0)
        for got, want in zip((element_l2_norms(w), element_h1_seminorms(w)), ref_element_norms(w)):
            assert same_bytes(got, want), degree
    prob = get_problem("e3")
    for degree in (1, 2):
        u = random_solution(m, degree, 1)
        for functional in (get_functional("j2"), get_functional("j3")):
            (je, l2), (ref_je, ref_l2) = _goal_and_l2_errors(functional, prob.u_exact, u), ref_goal_and_l2(functional, prob.u_exact, u)
            assert (je, l2) == (ref_je, ref_l2), (degree, functional.name)
        w = random_solution(m, degree, 2)
        assert estimate_Je(u, w, prob.f) == ref_estimate_je(u, w, prob.f), degree


def jittered(m, seed=0):
    """m with every vertex moved by at most 2 % of the smallest element
    scale: same topology and orientation, but non-dyadic coordinates, so
    rounding to binary16/32 and the division by det are no longer exact."""
    rng = np.random.default_rng(seed)
    h = np.sqrt(min_element_volume(m))
    return dataclasses.replace(m, vertices=m.vertices + rng.uniform(-0.02 * h, 0.02 * h, m.vertices.shape))


def check_geometry_and_probe(m):
    for mesh in (m, jittered(m)):
        check_mesh_geometry(mesh)
        check_geometry_and_probe_on(mesh)


def check_geometry_and_probe_on(m):
    prob = get_problem("e3")
    u = interpolate(build_space(m, 1, "double"), prob.u_exact)
    transforms = element_transforms(m)
    for got, want in zip(transforms, ref_element_geometry(build_space(m, 1, "double"))):
        assert same_bytes(got, want)
    # galerkin_probe's J @ ref[q] and einsums see C-contiguous (ne, 2, 2) arrays
    assert transforms[1].flags.c_contiguous and transforms[3].flags.c_contiguous
    for prec in ("half", "single", "double"):
        space = build_space(m, 1, prec)
        a, J, det = assembly._element_geometry(round_to(m.vertices, space.precision), m.elements)
        for got, want in zip((a, J, det, _inverse_transpose(J, det)), ref_element_geometry(space)):
            assert same_bytes(got, want), prec
        v = interpolate(space, prob.u_exact)
        for a, b in ((u, v), (v, v)):
            got, want = galerkin_probe(a, b, prob.f), ref_galerkin_probe(a, b, prob.f)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), prec


def check_assembly(m):
    f, functional = get_problem("e3").f, get_functional("j3")
    check_geometry_and_probe(m)
    for degree in (1, 2):
        for prec in ("half", "single", "double"):
            space = build_space(m, degree, prec)
            A = assembly.assemble_stiffness(space)
            assert same_csr(A, ref_stiffness(space)), (degree, prec)
            load, func = ref_load_and_functional(space, f, functional)
            assert same_bytes(assembly.assemble_load(space, f), load), (degree, prec)
            assert same_bytes(assembly.assemble_functional(space, functional), func), (degree, prec)
            kept = A.copy()
            A2, F2 = assembly.apply_dirichlet(A, load, space.boundary_dofs)
            ref_A2, ref_F2 = ref_apply_dirichlet(kept, load, space.boundary_dofs)
            assert same_csr(A2, ref_A2) and same_bytes(F2, ref_F2), (degree, prec)
            assert same_csr(A, kept), (degree, prec)  # the caller's A is left as it is


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


def test_kernels_across_block_seams(monkeypatch):
    """The checks above with the quadrature passes run in small blocks.
    Every fixture mesh fits in one default block; blocks of 61 elements
    make each pass cross several seams and end on a ragged block, and
    blocks of ne - 1 leave a last block of one element, whose values must
    not go to BLAS gemv.  check_assembly runs check_mesh_geometry on the
    mesh and on a jittered copy."""
    for m in (initial_mesh(2), random_bisections(11, 4)):
        for block in (61, m.n_elements - 1):
            assert m.n_elements > 3 * 61 and m.n_elements % 61
            monkeypatch.setattr(fespace, "ELEMENT_BLOCK", block)
            check_mesh_kernels(m)
            check_assembly(m)


def test_load_on_jittered_mesh_within_ulps():
    m = jittered(initial_mesh(3))
    f, functional = get_problem("e3").f, get_functional("j3")
    for degree in (1, 2):
        space = build_space(m, degree, "double")
        load, _ = ref_load_and_functional(space, f, functional)
        diff = np.abs(assembly.assemble_load(space, f) - load).max()
        assert diff <= 4 * np.finfo(np.float64).eps * np.abs(load).max(), degree


def test_functional_error_matches_two_evaluations(level4):
    prob, func = get_problem("e3"), get_functional("j2")
    u = random_solution(level4, 1, 3)
    want = eval_functional(func, prob.u_exact, level4) - eval_functional(func, u)
    assert functional_error(func, prob.u_exact, u) == want



@pytest.mark.parametrize("region", [
    (-0.5, 0.25, 0.0, 0.75),             # edges on vertex lines
    (-1.0, -0.75, -1.0, 1.0),            # on the boundary
    (0.25, 0.25 + 2.0**-12, -0.5, 0.5),  # thinner than any element, left edge on a vertex line
    (-0.05, 0.05, 0.7, 1.0),             # edges off the vertices
])
def test_functional_integrates_only_elements_near_the_region(region):
    """assemble_functional skips the elements away from the region and
    still gives the bytes of the load over every element.  On the jittered
    level-4 mesh, binary16 rounds vertices and points within 2**-12 of the
    edges onto them, so elements just outside the region contribute."""
    functional = Functional("r", region)
    f = get_problem("e3").f
    for m in (initial_mesh(3), random_bisections(7, 3), jittered(initial_mesh(4))):
        for degree in (1, 2):
            for prec in ("half", "single", "double"):
                space = build_space(m, degree, prec)
                _, want = ref_load_and_functional(space, f, functional)
                assert same_bytes(assembly.assemble_functional(space, functional), want), (degree, prec)
        assert assembly._elements_near(build_space(m, 1, "double"), region).size < m.n_elements / 2
