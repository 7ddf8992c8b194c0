"""Lagrange finite element spaces of degree 1 and 2 over a triangulation.

A space is parameterized by a :class:`~mpdwr.scalar.Precision`.  Two spaces
built on the same mesh at different precisions have bit-identical DoF maps;
only the arithmetic performed with basis values and coefficients differs.
Reference-element basis values and gradients are tabulated in double and
rounded to the space's precision at assembly time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .scalar import DOUBLE, Precision, _same, precision, round_to


# ---------------------------------------------------------------------------
# quadrature on the reference triangle (0,0)-(1,0)-(0,1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,) summing to the reference area 1/2


def _orbit3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a, b, c):
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Dunavant-type symmetric rules; weights are w.r.t. unit total and scaled
# by the reference area 1/2 in quadrature().
_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_orbit3(2 / 3, 1 / 6), [1 / 3] * 3),
    3: (
        _orbit6(0.659027622374092, 0.231933368553031, 0.109039009072877),
        [1 / 6] * 6,
    ),
    4: (
        _orbit3(0.108103018168070, 0.445948490915965)
        + _orbit3(0.816847572980459, 0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3,
    ),
    5: (
        [(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.059715871789770, 0.470142064105115)
        + _orbit3(0.797426985353087, 0.101286507323456),
        [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3,
    ),
    6: (
        _orbit3(0.501426509658179, 0.249286745170910)
        + _orbit3(0.873821971016996, 0.063089014491502)
        + _orbit6(0.053145049844817, 0.310352451033784, 0.636502499121399),
        [0.116786275726379] * 3 + [0.050844906370207] * 3 + [0.082851075618374] * 6,
    ),
    8: (
        [(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.081414823414554, 0.459292588292723)
        + _orbit3(0.658861384496480, 0.170569307751760)
        + _orbit3(0.898905543365938, 0.050547228317031)
        + _orbit6(0.008394777409958, 0.263112829634638, 0.728492392955404),
        [0.144315607677787]
        + [0.095091634267285] * 3
        + [0.103217370534718] * 3
        + [0.032458497623198] * 3
        + [0.027230314174435] * 6,
    ),
}

ASSEMBLY_DEGREE = 4    # stiffness / load quadrature
EVALUATION_DEGREE = 8  # functionals, orthogonality probes, error norms


def quadrature(exactness_degree: int) -> QuadratureRule:
    """Symmetric Gauss rule on the reference triangle, weights sum to 1/2."""
    if exactness_degree not in _RULES:
        raise ValueError(
            f"unsupported quadrature degree {exactness_degree}; "
            f"available: {sorted(_RULES)}"
        )
    pts, w = _RULES[exactness_degree]
    return QuadratureRule(
        points=np.asarray(pts, dtype=np.float64),
        weights=0.5 * np.asarray(w, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# reference basis tabulation (double precision)
# ---------------------------------------------------------------------------

def basis_values(degree: int, bary: np.ndarray) -> np.ndarray:
    """Nodal basis values at barycentric points; shape (nq, ndof_local)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=1)
    if degree == 2:
        return np.stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l0 * l1,  # edge (a, b)
                4 * l1 * l2,  # edge (b, c)
                4 * l2 * l0,  # edge (c, a)
            ],
            axis=1,
        )
    raise ValueError(f"degree must be 1 or 2, got {degree}")


def basis_gradients(degree: int, bary: np.ndarray) -> np.ndarray:
    """Reference gradients at barycentric points; shape (nq, ndof_local, 2)."""
    nq = bary.shape[0]
    if degree == 1:
        g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        return np.broadcast_to(g, (nq, 3, 2)).copy()
    if degree == 2:
        l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
        g0 = np.array([-1.0, -1.0])
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.0, 1.0])
        out = np.empty((nq, 6, 2))
        out[:, 0] = np.outer(4 * l0 - 1, g0)
        out[:, 1] = np.outer(4 * l1 - 1, g1)
        out[:, 2] = np.outer(4 * l2 - 1, g2)
        out[:, 3] = 4 * (np.outer(l1, g0) + np.outer(l0, g1))
        out[:, 4] = 4 * (np.outer(l2, g1) + np.outer(l1, g2))
        out[:, 5] = 4 * (np.outer(l0, g2) + np.outer(l2, g0))
        return out
    raise ValueError(f"degree must be 1 or 2, got {degree}")


# ---------------------------------------------------------------------------
# spaces and discrete fields
# ---------------------------------------------------------------------------

@dataclass
class FESpace:
    mesh: meshmod.Mesh
    degree: int
    precision: Precision
    n_dofs: int
    dof_coords: np.ndarray       # (n_dofs, 2) float64
    boundary_dofs: np.ndarray    # sorted int64
    element_dof_map: np.ndarray  # (ne, ndof_local) int64

    @property
    def ndof_local(self):
        return self.element_dof_map.shape[1]


@dataclass
class Solution:
    space: FESpace
    coefficients: np.ndarray  # (n_dofs,) at space precision

    @property
    def precision(self):
        return self.space.precision


def build_space(m: meshmod.Mesh, degree: int, p) -> FESpace:
    """DoF numbering: vertices first, then (degree 2) edges sorted by
    endpoint indices.  Deterministic given the mesh; independent of p."""
    p = precision(p)
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    nv = m.n_vertices
    bvert = np.unique(m.boundary_edges)
    if degree == 1:
        return FESpace(
            mesh=m,
            degree=1,
            precision=p,
            n_dofs=nv,
            dof_coords=m.vertices,
            boundary_dofs=bvert,
            element_dof_map=m.elements,
        )
    et = meshmod.edge_table(m)  # edges already sorted lexicographically
    dof_map = np.concatenate([m.elements, nv + et.elem_to_edge], axis=1)
    bedge_ids = meshmod.edge_ids_of(et, m.boundary_edges)
    boundary = np.sort(np.concatenate([bvert, nv + bedge_ids]))
    return FESpace(
        mesh=m,
        degree=2,
        precision=p,
        n_dofs=nv + et.n_edges,
        dof_coords=meshmod.prolong(m.vertices, et.edges),
        boundary_dofs=boundary,
        element_dof_map=dof_map,
    )


def interpolate(space: FESpace, g) -> Solution:
    """Nodal interpolant: coefficients are g at the DoF points, rounded."""
    vals = np.asarray(g(space.dof_coords[:, 0], space.dof_coords[:, 1]), dtype=np.float64)
    vals = np.broadcast_to(vals, (space.n_dofs,))
    return Solution(space=space, coefficients=round_to(vals, space.precision))


def zero_solution(space: FESpace) -> Solution:
    return Solution(space, np.zeros(space.n_dofs, dtype=space.precision.dtype))


# ---------------------------------------------------------------------------
# element geometry and shared quadrature-evaluation helpers
# ---------------------------------------------------------------------------

ELEMENT_BLOCK = 2**15  # elements per block of a quadrature pass; one float64 column is 256 kB


def _element_blocks(ne):
    """Consecutive slices of at most ELEMENT_BLOCK of ne elements, in order.

    Every per-element quadrature pass runs block by block, so its
    temporaries scale with the block, not the mesh, and stay in cache: the
    e2 source at 695,080 points takes 31 ms in one call and 13 ms in
    blocks of 2**15 (13 ms at 2**13, 16 ms at 2**17) on a 2-core AVX-512
    VM with 2 MB of L2 per core.  The arithmetic is element-wise, so the
    blocks give the bytes of one pass over the whole mesh.
    """
    for start in range(0, ne, ELEMENT_BLOCK):
        yield slice(start, min(start + ELEMENT_BLOCK, ne))


def _contract(x, y, rnd):
    """x[0] * y[0] + x[1] * y[1], rounded once by rnd (binary16 or the
    identity): every quadrature point and physical basis gradient.  binary16
    operands in float32 are contracted in binary32: native binary16
    products overflow on fine elements where this is finite."""
    t = x[0] * y[0]
    t += x[1] * y[1]
    return rnd(t)


def _inverse_transpose(maps, det):
    """inv(J)^T from affine_maps and their det, at the dtype of maps, element
    axis last: [l, k, e] holds inv(J)^T[e, k, l], row l of inv(J) =
    [[d, -b], [-c, a]] / det for J = [[a, b], [c, d]]."""
    (_, d1x, d2x), (_, d1y, d2y) = maps
    invJT = np.stack([d2y, -d2x, -d1y, d1x]).reshape(2, 2, -1)
    invJT /= det
    return invJT


def element_transforms(m: meshmod.Mesh, p=DOUBLE):
    """Affine maps ref -> phys at precision p: origins, J, detJ, inv(J)^T.

    The vertices are rounded to p first (the identity at double), so the
    orthogonality probe at p sees the geometry that p can represent; the
    diagnostics use the double default.
    """
    maps = meshmod.affine_maps(round_to(m.vertices, p), m.elements)
    det = meshmod.affine_det(maps)
    (ax, d1x, d2x), (ay, d1y, d2y) = maps
    J = np.stack([d1x, d2x, d1y, d2y], axis=1).reshape(-1, 2, 2)
    invJT = np.ascontiguousarray(_inverse_transpose(maps, det).transpose(2, 1, 0))
    return np.stack([ax, ay], axis=1), J, det, invJT


def _quad_columns(m: meshmod.Mesh, rule: QuadratureRule, block: slice):
    """For each quadrature point in turn, (x, y, w_q*detJ) over the
    elements of block: point q is (b-a) r0 + (c-a) r1 + a at reference
    point (r0, r1), per coordinate.  Every quadrature pass streams these
    columns, so none holds an (elements, nq) array."""
    maps = meshmod.affine_maps(m.vertices, m.elements[block])
    det = meshmod.affine_det(maps)
    for r, w in zip(rule.points[:, 1:], rule.weights):
        x, y = (_contract((d1, d2), r, _same) + a for a, d1, d2 in maps)
        yield x, y, w * det


def quad_points_physical(m: meshmod.Mesh, rule: QuadratureRule):
    """Physical quadrature points (ne, nq, 2) and weights*detJ (ne, nq),
    the columns of _quad_columns side by side."""
    ne, nq = m.n_elements, rule.weights.shape[0]
    pts, wdet = np.empty((ne, nq, 2)), np.empty((ne, nq))
    for block in _element_blocks(ne):
        for q, (x, y, wd) in enumerate(_quad_columns(m, rule, block)):
            pts[block, q, 0], pts[block, q, 1], wdet[block, q] = x, y, wd
    return pts, wdet


def _value_columns(u: Solution, rule: QuadratureRule, block: slice):
    """u at each quadrature point in turn, in double, over the elements of
    block.  Each is row 0 of a product with two rows and at least two
    columns, so every rule and block gets the bytes of the (ne, nloc) @
    (nloc, nq) gemm: numpy hands a one-row or one-column product to BLAS
    gemv, which rounds differently."""
    phi = basis_values(u.space.degree, rule.points)
    dofs = u.space.element_dof_map[block]
    n = dofs.shape[0]
    localT = u.coefficients[dofs[[0, 0]] if n == 1 else dofs].astype(np.float64).T  # (nloc, n)
    for q in range(phi.shape[0]):
        yield (phi[[q, q]] @ localT)[0, :n]


def solution_values(u: Solution, rule: QuadratureRule) -> np.ndarray:
    """u at the quadrature points of every element, in double; (ne, nq):
    the columns of _value_columns side by side."""
    ne = u.space.mesh.n_elements
    out = np.empty((ne, rule.weights.shape[0]))
    for block in _element_blocks(ne):
        for q, vals in enumerate(_value_columns(u, rule, block)):
            out[block, q] = vals
    return out


def _gradient_columns(u: Solution, rule: QuadratureRule, block: slice):
    """grad u at each quadrature point in turn, in double, over the
    elements of block (d/dx, d/dy).  Sums over the local basis functions in
    order, starting from zero."""
    m = u.space.mesh
    maps = meshmod.affine_maps(m.vertices, m.elements[block])
    invJT = _inverse_transpose(maps, meshmod.affine_det(maps))
    del maps  # only inv(J)^T is kept while the points stream
    gref = basis_gradients(u.space.degree, rule.points)  # (nq, nloc, 2)
    localT = u.coefficients[u.space.element_dof_map[block]].astype(np.float64).T
    for q in range(gref.shape[0]):
        if q == 0 or not np.array_equal(gref[q], gref[q - 1]):  # else P1's constant gradients
            grad = np.zeros((2, localT.shape[1]))
            for g, c in zip(gref[q], localT):  # one basis function at a time: no (2, nloc, nb) array
                t = _contract(invJT, g, _same)  # inv(J)^T g
                t *= c
                grad += t
        yield grad[0], grad[1]


def solution_gradients(u: Solution, rule: QuadratureRule) -> np.ndarray:
    """grad u at quadrature points, in double; (ne, nq, 2): the columns
    of _gradient_columns side by side."""
    ne = u.space.mesh.n_elements
    out = np.empty((ne, rule.weights.shape[0], 2))
    for block in _element_blocks(ne):
        for q, (gx, gy) in enumerate(_gradient_columns(u, rule, block)):
            out[block, q, 0], out[block, q, 1] = gx, gy
    return out


def _evaluation_pass(u: Solution, exact, region=None):
    """One degree-8 evaluation of exact and u on u's mesh, in double, one
    block of elements and one quadrature point at a time.

    Returns the L2 error of exact - u and, for a region indicator
    region(x, y), the integrals of exact and of u over the region (else
    zeros); l2_error and problems.functional_error share it, so an adaptive
    iteration evaluates the exact solution once.  Each sum runs over the
    points of an element in order, then over the elements.
    """
    rule = quadrature(EVALUATION_DEGREE)
    m = u.space.mesh
    err2, int_exact, int_u = np.zeros(m.n_elements), np.zeros(m.n_elements), np.zeros(m.n_elements)
    for block in _element_blocks(m.n_elements):
        e2, ie, iu = err2[block], int_exact[block], int_u[block]  # views, summed in place
        for (x, y, wdet), u_vals in zip(_quad_columns(m, rule, block), _value_columns(u, rule, block)):
            exact_vals = np.asarray(exact(x, y), dtype=np.float64)
            e2 += wdet * (exact_vals - u_vals) ** 2
            if region is not None:
                weights = wdet * region(x, y)
                ie += weights * exact_vals
                iu += weights * u_vals
    return float(np.sqrt(np.sum(err2))), np.sum(int_exact), np.sum(int_u)


def l2_error(u: Solution, exact) -> float:
    """Elementwise degree-8 L2 norm of (exact - u), computed in double."""
    return _evaluation_pass(u, exact)[0]


def save_solution_text(u: Solution, path):
    """Plain-text export: header 'n_dofs precision', one coefficient/line."""
    with open(path, "w") as fh:
        fh.write(f"{u.space.n_dofs} {u.space.precision.name}\n")
        for c in u.coefficients:
            fh.write(f"{float(c)!r}\n")
