"""Stiffness/load/functional assembly and Dirichlet elimination.

All assembly arithmetic (Jacobians, basis gradients, quadrature
accumulation) runs at the target space's precision with a deterministic
element-then-quadrature-point order, so the same mesh assembled twice gives
bit-identical matrices.  Matrices are scipy CSR at the precision's storage
dtype.  scipy.sparse has no binary16 kernels, so binary16 element
contributions are stored in float32 and summed there, never rounded back:
the emulated hardware is binary16 arithmetic with binary32 accumulation.
The element geometry is formed at the precision itself.  Everything
formed from it holds binary16 values in float32 containers: the float16
geometry enters binary32 operations exactly, and each product and sum is
rounded to binary16 (``scalar._round_half``), which gives the bytes of
numpy's float16 arithmetic at binary32 speed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .fespace import (
    ASSEMBLY_DEGREE,
    EVALUATION_DEGREE,
    FESpace,
    _affine_geometry,
    _element_blocks,
    _inverse_transpose,
    basis_gradients,
    basis_values,
    quadrature,
)
from .scalar import _rounder, round_to


def _element_geometry(vertices, elements):
    """Origins, J and detJ of the given elements, from the vertices rounded
    to the space's precision; degenerate elements raise."""
    a, J, det = _affine_geometry(vertices, elements)
    if np.any(det <= 0):
        raise ValueError("degenerate element: non-positive Jacobian determinant")
    return a, J, det


def _to_csr(space: FESpace, local: np.ndarray):
    """Scatter (ne, nloc, nloc) local blocks into global CSR.  The COO
    indices are formed at the width scipy keeps (int32 below 2**31 DoFs)."""
    dof = space.element_dof_map.astype(np.int32 if space.n_dofs < 2**31 else np.int64)
    nloc = dof.shape[1]
    rows = np.repeat(dof, nloc, axis=1).ravel()
    cols = np.tile(dof, (1, nloc)).ravel()
    vals = local.ravel()
    A = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    ).tocsr()
    A.sum_duplicates()
    return A


def _contract(x, y, rnd):
    """x[0] * y[0] + x[1] * y[1], rounded once by rnd: the leading-axis
    contraction of two length-2 vectors (J @ r, inv(J)^T g, g_i . g_j)
    written out.

    binary16 operands, held in float32, are contracted in binary32 and
    rounded once to binary16: native binary16 products overflow on fine
    elements (inf - inf = nan) where the rounded binary32 contraction is
    finite.
    """
    return rnd(x[0] * y[0] + x[1] * y[1])


def assemble_stiffness(space: FESpace):
    """A_ij = sum_K int_K grad(phi_j) . grad(phi_i), at space precision.

    The local matrices are formed one block of elements at a time, with
    the element axis last so that every product runs over contiguous rows,
    and stored at the sparse dtype for the scatter."""
    p = space.precision
    vt, rnd = p.sparse_dtype, _rounder(p)
    rule = quadrature(ASSEMBLY_DEGREE)
    gref = round_to(basis_gradients(space.degree, rule.points), p).astype(vt, copy=False)
    w = round_to(rule.weights, p).astype(vt, copy=False)
    m, nloc = space.mesh, space.ndof_local
    vertices = round_to(m.vertices, p)

    local = np.empty((m.n_elements, nloc, nloc), dtype=vt)
    for block in _element_blocks(m.n_elements):
        _, J, det = _element_geometry(vertices, m.elements[block])
        invJ = np.ascontiguousarray(_inverse_transpose(J, det).transpose(2, 1, 0))  # [l, k, e] = inv(J)^T[e, k, l]
        acc = np.zeros((nloc, nloc, det.shape[0]), dtype=vt)
        contrib = term = None
        for q in range(rule.points.shape[0]):
            if contrib is None or not np.array_equal(gref[q], gref[q - 1]):
                # physical gradients g[k, i, e] = (inv(J)^T gref[q, i])_k and
                # their pairwise dot products, each contraction rounded once to p
                g = _contract(invJ[:, :, None, :], gref[q].T[:, None, :, None], rnd)  # (2, nloc, nb)
                contrib = _contract(g[:, :, None, :], g[:, None, :, :], rnd)         # (nloc, nloc, nb)
                term = None
            if term is None or w[q] != w[q - 1]:  # else the same bytes: P1, one weight orbit
                term = rnd(rnd(w[q] * det) * contrib)
            acc += term
            if q:  # 0 + term is term
                rnd(acc)
        local[block] = acc.transpose(2, 0, 1)
    return _to_csr(space, local)


def assemble_load(space: FESpace, f, exactness: int = ASSEMBLY_DEGREE):
    """F_i = sum_K int_K f phi_i, at space precision."""
    return _load(space, f, exactness)


def _load(space: FESpace, f, exactness, elements=slice(None)):
    """The load routine behind assemble_load and assemble_functional, over
    the given elements (all by default), one block of them at a time; a
    private call, so a traced run files each one's work under its own
    name.  f receives the points at the space's precision."""
    p = space.precision
    vt, rnd = p.sparse_dtype, _rounder(p)
    rule = quadrature(exactness)
    phi = round_to(basis_values(space.degree, rule.points), p).astype(vt, copy=False)
    w = round_to(rule.weights, p).astype(vt, copy=False)
    ref = round_to(rule.points[:, 1:], p).astype(vt, copy=False)
    vertices = round_to(space.mesh.vertices, p)
    tri, dofs = space.mesh.elements[elements], space.element_dof_map[elements]

    F = np.zeros(space.n_dofs, dtype=p.dtype)
    for block in _element_blocks(tri.shape[0]):
        a, J, det = _element_geometry(vertices, tri[block])
        local = np.zeros((det.shape[0], space.ndof_local), dtype=vt)
        for q in range(rule.points.shape[0]):
            x = rnd(a + _contract(J.transpose(2, 0, 1), ref[q], rnd)).astype(p.dtype, copy=False)
            fq = round_to(np.asarray(f(x[:, 0], x[:, 1])), p)
            local += rnd(rnd(rnd(w[q] * det) * fq)[:, None] * phi[q][None, :])
            rnd(local)
        # in element order, as over all at once, at p: binary16 sums stay binary16
        np.add.at(F, dofs[block].ravel(), local.astype(p.dtype, copy=False).ravel())
    return round_to(F, p)


def _elements_near(space: FESpace, region):
    """Elements whose vertex bounding box meets the closed region, widened
    by 4 eps_p max|x|: the quadrature points at p are rounded from points
    inside the element by less than that."""
    m = space.mesh
    margin = 4 * space.precision.eps * np.abs(m.vertices).max()
    near = np.ones(m.n_elements, dtype=bool)
    for i, (lo, hi) in enumerate((region[:2], region[2:])):
        x = m.vertices[:, i]
        for side in (x >= lo - margin, x <= hi + margin):  # some vertex on that side
            s = side[m.elements]
            near &= s[:, 0] | s[:, 1] | s[:, 2]
    return np.flatnonzero(near)


def assemble_functional(space: FESpace, functional):
    """J_i = |Omega_J|^-1 int_{Omega_J} phi_i: the degree-8 load of the
    region's characteristic function, scaled by the inverse area at space
    precision.  Only elements near the region are integrated: the others'
    points all lie outside and would contribute exact zeros."""
    p = space.precision
    inv_area = round_to(1.0 / functional.area, p)
    near = _elements_near(space, functional.region)
    return round_to(inv_area * _load(space, functional.contains, EVALUATION_DEGREE, near), p)


def apply_dirichlet(A, rhs, bdofs):
    """Symmetric elimination for homogeneous Dirichlet conditions.

    Boundary rows and columns are zeroed, the boundary diagonal is set to 1
    and the boundary rhs entries to 0; the system stays symmetric positive
    definite.
    """
    n = A.shape[0]
    bdofs = np.asarray(bdofs, dtype=np.int64)
    if bdofs.size and (bdofs.min() < 0 or bdofs.max() >= n):
        raise IndexError("boundary dof out of range")
    bmask = np.zeros(n, dtype=bool)
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
