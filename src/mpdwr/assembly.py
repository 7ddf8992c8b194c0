"""Stiffness/load/functional assembly and Dirichlet elimination.

All assembly arithmetic (Jacobians, basis gradients, quadrature
accumulation) runs at the target space's precision with a deterministic
element-then-quadrature-point order, so the same mesh assembled twice gives
bit-identical matrices.  Matrices are scipy CSR at the precision's storage
dtype.  The stiffness writes each element's local rows straight into their
CSR slots and leaves sorting and duplicate summation to scipy, in the order
a COO scatter would give them, so no COO arrays are formed; the Dirichlet
elimination masks the canonical CSR arrays.  scipy.sparse has no binary16
kernels, so binary16 element contributions are stored in float32 and
summed there, never rounded back: the emulated hardware is binary16
arithmetic with binary32 accumulation.
The element geometry (``fespace._element_geometry``) and from it the
load's quadrature points (``fespace._quad_columns``) and the basis
gradients are formed at the precision itself, as in double.  At binary16
they are binary16 values in float32 containers: the float16 geometry
enters binary32 operations exactly, and each product and sum is rounded
to binary16 (``scalar._round_half``), which gives the bytes of numpy's
float16 arithmetic at binary32 speed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .fespace import (
    ASSEMBLY_DEGREE,
    EVALUATION_DEGREE,
    FESpace,
    _contract,
    _element_blocks,
    _element_geometry,
    _inverse_transpose,
    _quad_columns,
    basis_gradients,
    basis_values,
    quadrature,
)
from .scalar import _rounder, round_to


def _csr_layout(space: FESpace):
    """Where each element's local rows go in global CSR, in the order
    scipy's coo_tocsr gives the element-major COO list (row dof[e, i],
    column dof[e, j], for e, i, j in order).  Each row holds the local rows
    of its (element, local row) incidences k = e*nloc + i in element order,
    so one sort of the keys dof*N + k, with N = ne*nloc, gives slot[k], the
    CSR row that takes local row k, the column indices in that order and
    indptr.  The indices are at the width scipy keeps for that COO list."""
    dof = space.element_dof_map
    ne, nloc = dof.shape
    N = ne * nloc
    idx = np.int32 if N * nloc < 2**31 else np.int64
    order = dof.reshape(N) * N + np.arange(N)
    order.sort()
    order %= N  # the incidences k by DoF, then by element
    slot = np.empty(N, dtype=idx)
    slot[order] = np.arange(N, dtype=idx)
    indices = np.take(dof.astype(idx), order // nloc, axis=0)
    indptr = np.zeros(space.n_dofs + 1, dtype=idx)
    np.cumsum(np.bincount(dof.reshape(N), minlength=space.n_dofs) * nloc, out=indptr[1:])
    return slot, indices, indptr


def _local_stiffness(invJT, det, gref, w, rnd):
    """The local matrices [i, j, e] of a block from inv(J)^T [l, k, e]:
    element axis last, so that every product runs over contiguous rows."""
    nloc = gref.shape[1]
    acc = np.zeros((nloc, nloc, det.shape[0]), dtype=gref.dtype)
    contrib = term = None
    for q in range(gref.shape[0]):
        if contrib is None or not np.array_equal(gref[q], gref[q - 1]):
            contrib = term = None  # freed before this point's are formed
            # physical gradients g[k, i, e] = (inv(J)^T gref[q, i])_k and
            # their pairwise dot products, each contraction rounded once to p
            g = _contract(invJT[:, :, None, :], gref[q].T[:, None, :, None], rnd)  # [k, i, e]
            contrib = _contract(g[:, :, None, :], g[:, None, :, :], rnd)         # (nloc, nloc, nb)
        if term is None or w[q] != w[q - 1]:  # else the same bytes: P1, one weight orbit
            term = rnd(np.multiply(rnd(w[q] * det), contrib, out=term))
        acc += term
        if q:  # 0 + term is term
            rnd(acc)
    return acc


def assemble_stiffness(space: FESpace):
    """A_ij = sum_K int_K grad(phi_j) . grad(phi_i), at space precision.

    The local matrices are formed one block of elements at a time, and
    their rows written at the sparse dtype straight into their CSR slots
    (``_csr_layout``).  scipy's sum_duplicates then sorts each row's
    columns and sums the duplicates exactly as after coo_tocsr of the
    element-major COO list, so A has that list's bytes without it."""
    p = space.precision
    vt, rnd = p.sparse_dtype, _rounder(p)
    rule = quadrature(ASSEMBLY_DEGREE)
    gref = round_to(basis_gradients(space.degree, rule.points), p).astype(vt, copy=False)
    w = round_to(rule.weights, p).astype(vt, copy=False)
    m, nloc = space.mesh, space.ndof_local
    vertices = round_to(m.vertices, p)

    slot, indices, indptr = _csr_layout(space)
    data = np.empty((slot.shape[0], nloc), dtype=vt)
    row = np.dtype((np.void, nloc * data.itemsize))  # one local row: a scatter of whole rows
    rows = data.view(row).reshape(-1)
    for block in _element_blocks(m.n_elements):
        maps, det = _element_geometry(vertices, m.elements[block])
        local = _local_stiffness(_inverse_transpose(maps, det), det, gref, w, rnd)
        local = np.ascontiguousarray(local.transpose(2, 0, 1))
        rows[slot[block.start * nloc : block.stop * nloc]] = local.view(row).reshape(-1)
        del local  # before the next block's are formed
    del slot
    A = sparse.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(space.n_dofs, space.n_dofs))
    A.sum_duplicates()
    return A


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
    vertices = round_to(space.mesh.vertices, p)
    tri, dofs = space.mesh.elements[elements], space.element_dof_map[elements]

    F = np.zeros(space.n_dofs, dtype=p.dtype)
    for block in _element_blocks(tri.shape[0]):
        local = np.zeros((block.stop - block.start, space.ndof_local), dtype=vt)
        for q, (x, y, wdet) in enumerate(_quad_columns(vertices, tri[block], rule, p)):
            fq = round_to(np.asarray(f(x.astype(p.dtype, copy=False), y.astype(p.dtype, copy=False))), p)
            local += rnd(rnd(wdet * fq)[:, None] * phi[q][None, :])
            rnd(local)
        # in element order, as over all at once, at p: binary16 sums stay binary16
        np.add.at(F, dofs[block].ravel(), local.astype(p.dtype, copy=False).ravel())
    return F


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
    return inv_area * _load(space, functional.contains, EVALUATION_DEGREE, near)


def apply_dirichlet(A, rhs, bdofs):
    """Symmetric elimination for homogeneous Dirichlet conditions.

    Boundary rows and columns are zeroed, the boundary diagonal is set to 1
    and the boundary rhs entries to 0; the system stays symmetric positive
    definite.  The entries are masked out of A's canonical CSR arrays
    (sorted columns, no duplicates), so every kept entry keeps its bytes;
    A itself is left as it is.
    """
    n = A.shape[0]
    bdofs = np.asarray(bdofs, dtype=np.int64)
    if bdofs.size and (bdofs.min() < 0 or bdofs.max() >= n):
        raise IndexError("boundary dof out of range")
    bmask = np.zeros(n, dtype=bool)
    bmask[bdofs] = True
    bdofs = np.flatnonzero(bmask)

    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    idx = A.indices.dtype
    keep = ~(bmask[A.indices] | np.repeat(bmask, np.diff(A.indptr)))
    # a row starts after the kept entries and the boundary diagonals before it
    starts = np.zeros(A.nnz + 1, dtype=idx)
    np.cumsum(keep, out=starts[1:])
    indptr = starts[A.indptr]
    del starts
    indptr[1:] += np.cumsum(bmask, dtype=idx)
    diag = np.zeros(indptr[-1], dtype=bool)
    diag[indptr[bdofs]] = True  # an emptied boundary row holds its diagonal only
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=A.dtype)
    indices[diag], data[diag] = bdofs, 1
    np.logical_not(diag, out=diag)
    indices[diag] = A.indices[keep]
    data[diag] = A.data[keep]
    A2 = sparse.csr_matrix((data, indices, indptr), shape=A.shape)

    rhs2 = rhs.copy()
    rhs2[bdofs] = 0
    return A2, rhs2
