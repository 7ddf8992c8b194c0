import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpdwr
from mpdwr.driver import initial_mesh
from mpdwr.fespace import Solution, build_space, quadrature, solution_values
from mpdwr.mesh import (
    Mesh,
    affine_det,
    affine_maps,
    bisect_marked,
    check_conforming,
    edge_ids_of,
    edge_table,
    element_areas,
    element_diameters,
    global_refine,
    min_angle,
    min_element_volume,
    prolong,
    save_mesh_text,
    signed_areas,
    unit_square_template,
)
from mpdwr.scalar import round_to


def two_triangle_square(diagonal_tags=True):
    """Unit square split along the diagonal (0,0)-(1,1).

    With diagonal_tags both refinement edges are the shared diagonal
    (compatible); otherwise element 1's refinement edge is the top
    boundary edge, which forces a closure cascade.
    """
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    if diagonal_tags:
        elements = np.array([[2, 0, 1], [0, 2, 3]])
    else:
        elements = np.array([[2, 0, 1], [2, 3, 0]])
    return Mesh(
        vertices=vertices,
        elements=np.asarray(elements, dtype=np.int64),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64),
        generation=np.zeros(2, dtype=np.int32),
        domain_area=1.0,
    )


def count_edges(mesh):
    """Independent edge count by hashing sorted vertex pairs."""
    seen = set()
    for a, b, c in mesh.elements.tolist():
        for e in ((a, b), (b, c), (c, a)):
            seen.add(tuple(sorted(e)))
    return len(seen)


def test_template_counts():
    m = unit_square_template()
    assert m.n_elements == 64
    assert m.n_vertices == 41
    # Euler: V - E + F = 2 with the outer face
    E = count_edges(m)
    assert m.n_vertices - E + (m.n_elements + 1) == 2


def test_template_area_and_conformity():
    m = unit_square_template()
    assert abs(element_areas(m).sum() - 4.0) <= 1e-12 * 4.0
    assert check_conforming(m)


def test_template_is_right_isosceles():
    m = unit_square_template()
    assert abs(np.degrees(min_angle(m)) - 45.0) < 1e-10


def test_min_element_volume_template():
    assert min_element_volume(unit_square_template()) == pytest.approx(0.0625)


def test_min_element_volume_after_refine():
    m = global_refine(unit_square_template())
    assert min_element_volume(m) == pytest.approx(0.015625)


def test_global_refine_two_triangle_square():
    m = global_refine(two_triangle_square())
    assert m.n_elements == 8
    assert m.n_vertices == 9
    check_conforming(m)


def test_global_refine_vertex_law():
    m = unit_square_template()
    for _ in range(2):
        E = count_edges(m)
        refined = global_refine(m)
        assert refined.n_vertices == m.n_vertices + E
        assert refined.n_elements == 4 * m.n_elements
        m = refined


def test_bisect_empty_marking_is_identity():
    m = unit_square_template()
    assert bisect_marked(m, []) is m


def test_bisect_one_of_two_with_incompatible_tags():
    m = two_triangle_square(diagonal_tags=False)
    out = bisect_marked(m, [0])
    assert 5 <= out.n_elements <= 6
    check_conforming(out)


def test_bisect_one_of_two_with_compatible_tags():
    m = two_triangle_square(diagonal_tags=True)
    out = bisect_marked(m, [0])
    assert out.n_elements == 4
    assert out.n_vertices == 5
    check_conforming(out)


def test_bisect_marked_out_of_range():
    with pytest.raises(IndexError):
        bisect_marked(unit_square_template(), [64])
    with pytest.raises(IndexError):
        bisect_marked(unit_square_template(), [3, -1, 3])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.5))
def test_bisect_marked_ignores_order_and_repeats(seed, fraction):
    rng = np.random.default_rng(seed)
    m = initial_mesh(2)
    m = bisect_marked(m, rng.choice(m.n_elements, size=100, replace=False))
    marked = np.sort(rng.choice(m.n_elements, size=max(1, int(fraction * m.n_elements)), replace=False))
    shuffled = rng.permutation(np.concatenate([marked, rng.choice(marked, size=marked.size)]))
    want, got = bisect_marked(m, marked), bisect_marked(m, shuffled)
    for field in dataclasses.fields(Mesh):
        a, b = getattr(want, field.name), getattr(got, field.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_nvb_angle_bound_random_rounds():
    m = unit_square_template()
    floor = min_angle(m) / 2.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 5), replace=False)
        m = bisect_marked(m, marked)
        check_conforming(m)
        assert min_angle(m) >= floor
    # criss-cross template: NVB keeps every element right-isosceles
    assert abs(np.degrees(min_angle(m)) - 45.0) < 1e-9


def test_refinement_monotonicity_and_area():
    m = unit_square_template()
    rng = np.random.default_rng(11)
    for _ in range(5):
        marked = rng.choice(m.n_elements, size=3, replace=False)
        out = bisect_marked(m, marked)
        assert out.n_elements > m.n_elements
        assert abs(element_areas(out).sum() - 4.0) <= 1e-12 * 4.0
        m = out


def test_generation_tracking():
    m = unit_square_template()
    out = bisect_marked(m, [0])
    assert out.generation.max() >= 1
    assert out.generation.min() == 0


@pytest.mark.parametrize("prec", ["half", "single", "double"])
def test_affine_maps_are_vertex_differences(prec):
    # per coordinate: a, b - a and c - a at the vertices' dtype; the
    # determinant is twice the signed area, 2 * 4/ne on the template meshes
    m = bisect_marked(initial_mesh(2), np.arange(0, 1024, 7))
    v = round_to(m.vertices, prec)
    maps = affine_maps(v, m.elements)
    for i, (a, ba, ca) in enumerate(maps):
        x = v[:, i][m.elements]
        assert a.dtype == v.dtype and a.flags.c_contiguous
        assert np.array_equal(a, x[:, 0])
        assert np.array_equal(ba, x[:, 1] - x[:, 0]) and np.array_equal(ca, x[:, 2] - x[:, 0])
    det = affine_det(maps)
    assert det.dtype == v.dtype
    assert np.array_equal(det, 2 * signed_areas(m))
    t = initial_mesh(3)
    assert (affine_det(affine_maps(t.vertices, t.elements)) == 8.0 / t.n_elements).all()


def test_diameters_bound_edges():
    m = global_refine(unit_square_template())
    et = edge_table(m)
    hK = element_diameters(m)
    for e in range(m.n_elements):
        v = m.vertices[m.elements[e]]
        for k in range(3):
            hE = np.linalg.norm(v[(k + 1) % 3] - v[k])
            assert hK[e] >= hE - 1e-15


def test_edge_table_incidence():
    m = global_refine(unit_square_template())
    et = edge_table(m)
    counts = (et.edge_to_elem >= 0).sum(axis=1)
    assert set(counts.tolist()) == {1, 2}
    assert (counts == 1).sum() == m.boundary_edges.shape[0]


def test_mesh_text_export(tmp_path):
    m = unit_square_template()
    path = tmp_path / "mesh.txt"
    save_mesh_text(m, path)
    lines = path.read_text().splitlines()
    nv, ne, nb = map(int, lines[0].split())
    assert (nv, ne, nb) == (41, 64, 16)
    assert len(lines) == 1 + nv + ne + nb
    x, y = map(float, lines[1].split())
    assert (x, y) == (-1.0, -1.0)


def check_refinement(old, new):
    """The old vertices are the unchanged leading block, every new vertex is
    the exact midpoint of a distinct edge of old, and the area is kept."""
    nv = old.n_vertices
    assert new.vertices[:nv].tobytes() == old.vertices.tobytes()
    edges = edge_table(old).edges
    mids = 0.5 * (old.vertices[edges[:, 0]] + old.vertices[edges[:, 1]])
    edge_of = {tuple(x): e for e, x in enumerate(mids.tolist())}
    born = [edge_of.get(tuple(x)) for x in new.vertices[nv:].tolist()]
    assert None not in born, "new vertex is not the midpoint of an old edge"
    assert len(set(born)) == len(born), "two new vertices on one edge"
    assert abs(element_areas(new).sum() - element_areas(old).sum()) <= 1e-12 * old.domain_area
    check_conforming(new)
    return born


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(0.02, 0.6), st.booleans())
def test_refinement_properties(seed, rounds, fraction, from_template):
    # rounds of random bisection, some of them red refinement while the mesh
    # is small, and a final red refinement; from the criss-cross template
    # every element stays right-isosceles, so the minimum angle stays 45°
    rng = np.random.default_rng(seed)
    m = unit_square_template() if from_template else two_triangle_square(diagonal_tags=False)
    for r in range(rounds + 1):
        if r == rounds or (rng.random() < 0.25 and m.n_elements <= 1024):
            out = global_refine(m)
            assert len(check_refinement(m, out)) == edge_table(m).n_edges
        else:
            size = max(1, int(fraction * m.n_elements))
            out = bisect_marked(m, rng.choice(m.n_elements, size=size, replace=False))
            assert out.n_vertices > m.n_vertices
            check_refinement(m, out)
        if from_template:
            assert abs(min_angle(out) - np.pi / 4) <= 1e-12
        m = out


def test_check_conforming_raises_under_python_O():
    # a clockwise mesh must fail the check also when asserts are compiled out
    code = (
        "import sys\n"
        "from mpdwr.mesh import check_conforming, unit_square_template\n"
        "if not sys.flags.optimize: sys.exit(3)\n"
        "m = unit_square_template()\n"
        "m.elements = m.elements[:, [1, 0, 2]].copy()\n"
        "check_conforming(m)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mpdwr.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: element with non-positive signed area" in proc.stderr


def test_global_refine_parents_are_edge_table_order():
    m = initial_mesh(1)
    fine = global_refine(m)
    assert fine.vertex_parents.dtype == np.int64
    assert np.array_equal(fine.vertex_parents[: m.n_vertices], m.vertex_parents)
    assert np.array_equal(fine.vertex_parents[m.n_vertices :], edge_table(m).edges)
    assert unit_square_template().vertex_parents is None
    assert (global_refine(unit_square_template()).vertex_parents[:41] == -1).all()


def test_lift_p1_exact_on_red_refined_mesh_and_in_p2():
    # the lift of the classical duals: the edge-order rows place each
    # appended value at the vertex global_refine(m) puts there (a P1
    # function is its endpoint mean at an edge midpoint, so the lift is
    # exact on the refined mesh), and in the degree-2 space of m the lifted
    # function equals the coarse one at every degree-4 point
    m = bisect_marked(initial_mesh(1), np.arange(0, 256, 5))
    x = np.random.default_rng(1).standard_normal(m.n_vertices)
    lifted = prolong(x, edge_table(m).edges)
    assert lifted[: m.n_vertices].tobytes() == x.tobytes()
    assert prolong(m.vertices, edge_table(m).edges).tobytes() == global_refine(m).vertices.tobytes()
    coarse = Solution(build_space(m, 1, "double"), x)
    rule = quadrature(4)
    p2 = Solution(build_space(m, 2, "double"), lifted)
    assert np.abs(solution_values(p2, rule) - solution_values(coarse, rule)).max() <= 1e-14 * np.abs(x).max()


def _parentless(m):
    """m as a mesh that records no refinement history."""
    return Mesh(m.vertices, m.elements, m.boundary_edges, m.generation, m.domain_area)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4),
       st.booleans())
def test_vertex_parents_properties(seed, steps, parentless):
    # a fraction 0 stands for a global_refine step
    rng = np.random.default_rng(seed)
    m = _parentless(initial_mesh(1)) if parentless else initial_mesh(1)
    n_start = m.n_vertices

    def lin(v):  # exact in floating point on these dyadic vertices
        return 3.0 - 2.0 * v[:, 0] + 5.0 * v[:, 1]

    for fraction in steps:
        if fraction == 0.0:
            out = global_refine(m)
        else:
            size = max(1, int(fraction * m.n_elements))
            out = bisect_marked(m, rng.choice(m.n_elements, size=size, replace=False))
        P = out.vertex_parents
        assert P.shape == (out.n_vertices, 2)
        if m.vertex_parents is not None:
            assert np.array_equal(P[: m.n_vertices], m.vertex_parents)
        born = np.nonzero(P[:, 0] >= 0)[0]
        assert ((P[:, 0] >= 0) == (P[:, 1] >= 0)).all()
        if parentless:
            assert (P[:n_start] == -1).all()
        assert (born >= m.n_vertices).sum() == out.n_vertices - m.n_vertices
        mids = 0.5 * (out.vertices[P[born, 0]] + out.vertices[P[born, 1]])
        assert mids.tobytes() == out.vertices[born].tobytes()
        assert (P[born] < born[:, None]).all()
        new = P[m.n_vertices :]
        assert prolong(lin(m.vertices), new).tobytes() == lin(out.vertices).tobytes()
        # every new vertex sits on a distinct edge of m, in edge order
        assert (np.diff(edge_ids_of(edge_table(m), new)) > 0).all()
        m = out
