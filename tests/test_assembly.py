import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from mpdwr.assembly import apply_dirichlet, assemble_functional, assemble_load, assemble_stiffness
from mpdwr.driver import initial_mesh, solve_primal
from mpdwr.fespace import build_space
from mpdwr.linsolve import PCGError
from mpdwr.mesh import Mesh, bisect_marked, global_refine, unit_square_template
from mpdwr.problems import Functional, get_functional, get_problem
from mpdwr.scalar import precision
from tests.test_kernels import random_bisections
from tests.test_mesh import two_triangle_square


def reference_triangle_mesh():
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]], dtype=np.int64),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        generation=np.zeros(1, dtype=np.int32),
        domain_area=0.5,
    )


def test_reference_p1_local_stiffness():
    sp = build_space(reference_triangle_mesh(), 1, "double")
    A = assemble_stiffness(sp).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(A - expect).max() <= 1e-14


def test_interior_row_sums_vanish():
    # constants lie in the kernel of the bilinear form
    sp = build_space(global_refine(unit_square_template()), 1, "double")
    A = assemble_stiffness(sp)
    bset = set(sp.boundary_dofs.tolist())
    dense = A.toarray()
    for i in range(sp.n_dofs):
        if i in bset:
            continue
        row = dense[i]
        assert abs(row.sum()) <= 10 * np.finfo(np.float64).eps * np.abs(row).sum()


def test_single_vs_double_same_pattern_close_values():
    m = global_refine(unit_square_template())
    A_s = assemble_stiffness(build_space(m, 1, "single"))
    A_d = assemble_stiffness(build_space(m, 1, "double"))
    assert A_s.nnz == A_d.nnz
    assert np.array_equal(A_s.indices, A_d.indices)
    assert np.array_equal(A_s.indptr, A_d.indptr)
    rel = np.abs(A_s.data.astype(np.float64) - A_d.data)
    scale = np.abs(A_d.data)
    assert (rel <= 1e-6 * np.maximum(scale, 1e-30)).all()


def test_degenerate_element_rejected():
    m = reference_triangle_mesh()
    bad = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        elements=m.elements,
        boundary_edges=m.boundary_edges,
        generation=m.generation,
        domain_area=0.0,
    )
    with pytest.raises(ValueError):
        assemble_stiffness(build_space(bad, 1, "double"))


def test_load_constant_reference_triangle():
    sp = build_space(reference_triangle_mesh(), 1, "double")
    F = assemble_load(sp, lambda x, y: np.ones_like(x))
    assert np.allclose(F, 1 / 6, atol=1e-15)


def test_load_zero_field():
    sp = build_space(unit_square_template(), 1, "double")
    F = assemble_load(sp, lambda x, y: 0.0 * x)
    assert not F.any()


def test_load_partition_of_unity():
    sp = build_space(global_refine(unit_square_template()), 1, "double")
    F = assemble_load(sp, lambda x, y: np.ones_like(x))
    assert float(F.sum()) == pytest.approx(4.0, abs=1e-12)


def test_functional_j1_row_sums():
    sp = build_space(global_refine(unit_square_template()), 1, "double")
    J = assemble_functional(sp, get_functional("j1"))
    assert float(J.sum()) == pytest.approx(1.0, abs=1e-10)


def test_functional_outside_support_is_zero():
    # basis functions supported away from Omega_3 get a zero entry
    sp = build_space(unit_square_template(), 1, "double")
    J = assemble_functional(sp, get_functional("j3"))
    j3 = get_functional("j3")
    for i in range(sp.n_dofs):
        x, y = sp.dof_coords[i]
        if abs(x - (-0.25)) > 1.0 or y < 0.0:
            # nodal point far from the region: its support cannot reach it
            assert J[i] == 0.0 or y > 0.1


def test_functional_thin_strip_improves_under_refinement():
    # characteristic quadrature under-resolves the strip on coarse meshes;
    # the subdivision oracle says the exact sum is 1 and the measured
    # coarse-mesh defect is 2.62e-2
    j2 = get_functional("j2")
    sums = []
    m = initial_mesh(2)
    for _ in range(2):
        sp = build_space(m, 1, "double")
        sums.append(abs(float(assemble_functional(sp, j2).sum()) - 1.0))
        m = global_refine(m)
    assert sums[0] <= 2.7e-2
    assert sums[1] < 2e-2
    assert sums[1] < sums[0]


def test_functional_zero_area_region():
    sp = build_space(unit_square_template(), 1, "double")
    with pytest.raises(ValueError):
        assemble_functional(sp, Functional("degenerate", (0.0, 0.0, 0.0, 1.0)))


def test_dirichlet_all_boundary():
    sp = build_space(two_triangle_square(), 1, "double")
    A = assemble_stiffness(sp)
    F = assemble_load(sp, lambda x, y: np.ones_like(x))
    A2, F2 = apply_dirichlet(A, F, sp.boundary_dofs)
    assert np.allclose(A2.toarray(), np.eye(4))
    assert not F2.any()


def test_dirichlet_single_interior_node():
    m = bisect_marked(two_triangle_square(), [0, 1])
    sp = build_space(m, 1, "double")
    assert sp.n_dofs - len(sp.boundary_dofs) == 1
    A, F = apply_dirichlet(
        assemble_stiffness(sp), assemble_load(sp, lambda x, y: np.ones_like(x)), sp.boundary_dofs
    )
    (interior,) = [i for i in range(sp.n_dofs) if i not in set(sp.boundary_dofs.tolist())]
    dense = A.toarray()
    assert dense[interior, interior] > 0
    off = dense[interior].copy()
    off[interior] = 0.0
    assert not off.any()


def test_dirichlet_preserves_symmetry():
    sp = build_space(global_refine(unit_square_template()), 1, "double")
    A = assemble_stiffness(sp)
    F = assemble_load(sp, lambda x, y: np.ones_like(x))
    A2, _ = apply_dirichlet(A, F, sp.boundary_dofs)
    diff = (A2 - A2.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_dirichlet_repeated_boundary_dof_keeps_unit_diagonal():
    sp = build_space(unit_square_template(), 1, "double")
    A = assemble_stiffness(sp)
    F = assemble_load(sp, lambda x, y: np.ones_like(x))
    A2, F2 = apply_dirichlet(A, F, [0, 0, 2])
    want, _ = apply_dirichlet(A, F, [0, 2])
    assert A2[0, 0] == 1.0 and F2[0] == 0.0
    assert (A2 != want).nnz == 0


def test_dirichlet_leaves_a_non_canonical_input_unchanged():
    # unsorted columns and a duplicate: the elimination must not sort or sum in A
    indptr, indices = np.array([0, 3, 5, 6]), np.array([2, 0, 0, 1, 0, 2])
    data = np.array([-1.0, 2.0, 1.0, 3.0, -1.0, 4.0])
    A = sparse.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(3, 3))
    A2, F2 = apply_dirichlet(A, np.ones(3), [2])
    assert (A.indptr == indptr).all() and (A.indices == indices).all() and (A.data == data).all()
    assert np.array_equal(A2.toarray(), [[3.0, 0.0, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(F2, [1.0, 1.0, 0.0])


def test_spd_after_elimination_dense_cholesky():
    m = unit_square_template()
    sp = build_space(m, 1, "double")
    A, _ = apply_dirichlet(
        assemble_stiffness(sp), assemble_load(sp, lambda x, y: np.ones_like(x)), sp.boundary_dofs
    )
    assert sp.n_dofs <= 200
    np.linalg.cholesky(A.toarray())  # raises if not SPD


def test_discrete_galerkin_orthogonality_within_precision():
    # |(f, v_h) - a(u_h, v_h)| small for every basis function, i.e. the
    # assembled residual meets the solver tolerance
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    for p in ("single", "double"):
        u, rep = solve_primal(mesh, prob, p)
        sp = u.space
        A = assemble_stiffness(sp)
        F = assemble_load(sp, prob.f)
        A, F = apply_dirichlet(A, F, sp.boundary_dofs)
        r = F.astype(np.float64) - A.astype(np.float64) @ u.coefficients.astype(np.float64)
        assert np.linalg.norm(r) <= 2 * rep.tol * np.linalg.norm(F.astype(np.float64))


def test_assembly_deterministic():
    sp = build_space(global_refine(unit_square_template()), 1, "single")
    A1 = assemble_stiffness(sp)
    A2 = assemble_stiffness(sp)
    assert A1.data.tobytes() == A2.data.tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_stiffness_across_precisions(seed, rounds):
    # exactly symmetric at every precision, within a few eps_p of the
    # double matrix, and constants in the kernel up to a few eps_p
    m = random_bisections(seed, rounds)
    for degree in (1, 2):
        A_double = assemble_stiffness(build_space(m, degree, "double"))
        for name in ("half", "single", "double"):
            sp = build_space(m, degree, name)
            A = assemble_stiffness(sp).astype(np.float64)
            bound = 4 * precision(name).eps * abs(A).max()
            assert abs(A - A.T).max() == 0.0, (degree, name)
            assert abs(A - A_double).max() <= bound, (degree, name)
            interior = np.setdiff1d(np.arange(sp.n_dofs), sp.boundary_dofs)
            assert np.abs(np.asarray(A.sum(axis=1)).ravel()[interior]).max() <= bound, (degree, name)


def test_half_stiffness_sums_binary16_contributions_in_binary32():
    # the emulated hardware: each element contribution is a binary16 value,
    # and the global entries are their float32 sums, never rounded back
    A = assemble_stiffness(build_space(initial_mesh(4), 2, "half"))
    assert A.dtype == np.float32
    assert (A.data.astype(np.float16).astype(np.float32) != A.data).any()


def one_element_mesh(h):
    return Mesh(
        vertices=np.array([[0.0, 0.0], [h, 0.0], [0.0, h]]),
        elements=np.array([[0, 1, 2]], dtype=np.int64),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        generation=np.zeros(1, dtype=np.int32),
        domain_area=0.5 * h * h,
    )


def test_half_stiffness_overflows_below_leg_2_to_minus_7():
    # inv(J)^T = 1/h stays finite, but g_a . g_a = 2/h^2 exceeds binary16's
    # largest value 65,504 once h = 2^-8
    assert np.isfinite(assemble_stiffness(build_space(one_element_mesh(2.0**-7), 1, "half")).data).all()
    A = assemble_stiffness(build_space(one_element_mesh(2.0**-8), 1, "half"))
    assert not np.isfinite(A.data).all()


def test_level6_half_primal_breaks_down_on_the_overflowed_matrix():
    # the level-6 half stiffness holds inf entries, so PCG fails at once,
    # and hands back its start vector at binary16
    with pytest.raises(PCGError, match="at iteration 0") as err:
        solve_primal(initial_mesh(6), get_problem("e3"), "half")
    assert str(err.value) == "breakdown: d.Ad = nan at iteration 0"
    assert err.value.x.dtype == np.float16
