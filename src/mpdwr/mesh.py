"""Conforming triangulations of polygonal domains.

A :class:`Mesh` stores double-precision geometry regardless of the working
precision of any finite element space built on top of it; only field
coefficients and assembly arithmetic carry a lower precision.

Element convention: ``elements[e] = (a, b, c)`` is counterclockwise, the
refinement edge is ``(a, b)`` and ``c`` is the peak (newest vertex).  Local
edges are ordered ``(a,b), (b,c), (c,a)``.  Newest-vertex bisection inserts
the midpoint of the refinement edge as the peak of both children and hands
the two remaining parent edges down as the children's refinement edges,
which keeps the number of similarity classes finite (shape regularity) and,
with the criss-cross template below, keeps every element right-isosceles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Mesh:
    vertices: np.ndarray        # (nv, 2) float64
    elements: np.ndarray        # (ne, 3) int64, CCW, refinement edge (a, b)
    boundary_edges: np.ndarray  # (nb, 2) int64, Dirichlet
    generation: np.ndarray      # (ne,) int32 refinement depth
    domain_area: float = 4.0
    # (nv, 2) int64: the endpoints of the edge a vertex was born on as its
    # midpoint; -1 rows for template vertices and for those inherited from
    # a mesh without parents.  None: no refinement history recorded.
    vertex_parents: np.ndarray | None = None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]


@dataclass
class EdgeTable:
    """Unique-edge topology derived from a mesh.

    ``edges`` holds each undirected edge once as a sorted vertex pair.
    ``elem_to_edge[e, k]`` is the edge id of local edge k of element e and
    ``edge_to_elem`` maps each edge to its one or two incident elements
    (-1 padding on boundary edges).
    """

    edges: np.ndarray          # (nE, 2) int64, sorted pairs
    elem_to_edge: np.ndarray   # (ne, 3) int64
    edge_to_elem: np.ndarray   # (nE, 2) int64, -1 = no neighbor

    @property
    def n_edges(self):
        return self.edges.shape[0]


def edge_table(mesh: Mesh) -> EdgeTable:
    elems = mesh.elements
    ne = elems.shape[0]
    nv = mesh.n_vertices
    # incidence 3e + k is local edge k of element e: (a,b), (b,c), (c,a);
    # each undirected edge is one key lo * nv + hi, so key order is the
    # lexicographic order of the sorted vertex pairs
    tail = elems.reshape(-1)
    head = elems[:, [1, 2, 0]].reshape(-1)
    key = np.minimum(tail, head).astype(np.int64, copy=False)
    key *= nv
    key += np.maximum(tail, head)
    del head
    # stable: within an edge the incidences keep element order, so slot 0
    # is the lower element index
    order = np.argsort(key, kind="stable")
    skey = key[order]
    del key
    first = np.empty(skey.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(skey[1:], skey[:-1], out=first[1:])
    eids = np.cumsum(first) - 1
    ukeys = skey[first]
    del skey
    edges = np.empty((ukeys.shape[0], 2), dtype=np.int64)
    np.floor_divide(ukeys, nv, out=edges[:, 0])
    np.remainder(ukeys, nv, out=edges[:, 1])
    del ukeys

    elem_to_edge = np.empty(3 * ne, dtype=np.int64)
    elem_to_edge[order] = eids
    elem_to_edge = elem_to_edge.reshape(ne, 3)
    counts = np.bincount(eids, minlength=edges.shape[0])
    if counts.max(initial=0) > 2:
        raise ValueError("edge shared by more than two elements")
    del counts
    slot = (~first).view(np.int8)
    edge_to_elem = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    edge_to_elem[eids, slot] = order // 3
    return EdgeTable(edges, elem_to_edge, edge_to_elem)


def edge_ids_of(et: EdgeTable, pairs) -> np.ndarray:
    """Edge ids of vertex pairs (any orientation) via lexicographic search."""
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    base = int(max(et.edges.max(), pairs.max())) + 1
    enc = et.edges[:, 0] * base + et.edges[:, 1]
    keys = pairs[:, 0] * base + pairs[:, 1]
    idx = np.searchsorted(enc, keys)
    if (idx >= enc.shape[0]).any() or (enc[np.minimum(idx, enc.shape[0] - 1)] != keys).any():
        raise KeyError("vertex pair is not an edge of the mesh")
    return idx


def affine_maps(vertices, elements):
    """Every element (a, b, c)'s affine map as (ne,) arrays (a_i, (b-a)_i,
    (c-a)_i) per coordinate i, at the dtype of vertices (round them first)."""
    maps = []
    for i in range(2):
        c = vertices[:, i][elements]  # (ne, 3) coordinate i of a, b, c
        a = c[:, 0].copy()
        maps.append((a, c[:, 1] - a, c[:, 2] - a))
    return maps


def affine_det(maps):
    """Jacobian determinant (b-a)_x (c-a)_y - (c-a)_x (b-a)_y of affine_maps."""
    (_, d1x, d2x), (_, d1y, d2y) = maps
    return d1x * d2y - d2x * d1y


def signed_areas(mesh: Mesh) -> np.ndarray:
    return 0.5 * affine_det(affine_maps(mesh.vertices, mesh.elements))


def element_areas(mesh: Mesh) -> np.ndarray:
    return np.abs(signed_areas(mesh))


def element_diameters(mesh: Mesh) -> np.ndarray:
    """Longest edge per element, from per-coordinate vertex columns."""
    x, y = (mesh.vertices[:, i][mesh.elements.T] for i in range(2))  # (3, ne) each

    def length(i, j):
        dx, dy = x[j] - x[i], y[j] - y[i]
        return np.sqrt(dx * dx + dy * dy)

    return np.maximum(np.maximum(length(0, 1), length(1, 2)), length(2, 0))


def min_element_volume(mesh: Mesh) -> float:
    """Smallest element area; the working-precision breakdown monitor."""
    return float(element_areas(mesh).min())


def min_angle(mesh: Mesh) -> float:
    """Smallest interior angle over all elements, in radians."""
    v = mesh.vertices[mesh.elements]
    angles = []
    for k in range(3):
        d1 = v[:, (k + 1) % 3] - v[:, k]
        d2 = v[:, (k + 2) % 3] - v[:, k]
        cosang = (d1 * d2).sum(axis=1) / (
            np.linalg.norm(d1, axis=1) * np.linalg.norm(d2, axis=1)
        )
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def check_conforming(mesh: Mesh):
    """Verify triangulation conditions: orientation, cover, conformity.

    Conformity is tested by edge-incidence counting: every interior edge is
    shared by exactly two elements and every boundary edge by exactly one,
    which rules out hanging nodes on meshes produced by refinement.
    Raises AssertionError with a description on the first violation.
    """

    def require(ok, message):
        # explicit raise, not assert: the check must also run under python -O
        if not ok:
            raise AssertionError(message)

    sa = signed_areas(mesh)
    require(np.all(sa > 0), "element with non-positive signed area")

    total = float(np.abs(sa).sum())
    require(
        abs(total - mesh.domain_area) <= 1e-12 * mesh.domain_area,
        f"area sum {total} != domain area {mesh.domain_area}",
    )

    et = edge_table(mesh)
    counts = (et.edge_to_elem >= 0).sum(axis=1)
    require(set(np.unique(counts).tolist()) <= {1, 2}, "bad edge incidence")
    beids = edge_ids_of(et, mesh.boundary_edges)
    require(np.unique(beids).shape[0] == mesh.boundary_edges.shape[0], "duplicate boundary edges")
    require((counts[beids] == 1).all(), "boundary edge shared by two elements")
    require(
        int((counts == 1).sum()) == mesh.boundary_edges.shape[0],
        "interior-looking edge with one element",
    )

    uniq = np.unique(mesh.vertices, axis=0)
    require(uniq.shape[0] == mesh.n_vertices, "duplicate vertices")
    return True


def unit_square_template() -> Mesh:
    """Criss-cross template of [-1,1]^2: 4x4 cells, 4 triangles each.

    64 right-isosceles elements, 41 vertices.  Every refinement edge is the
    hypotenuse (the cell edge), so newest-vertex bisection reproduces
    right-isosceles triangles forever and the minimum angle stays at 45
    degrees.
    """
    n = 4
    xs = np.linspace(-1.0, 1.0, n + 1)
    grid = np.array([[x, y] for y in xs for x in xs])  # row-major, (n+1)^2
    centers = np.array(
        [
            [0.5 * (xs[i] + xs[i + 1]), 0.5 * (xs[j] + xs[j + 1])]
            for j in range(n)
            for i in range(n)
        ]
    )
    vertices = np.vstack([grid, centers])

    def gid(i, j):
        return j * (n + 1) + i

    elements = []
    bedges = []
    for j in range(n):
        for i in range(n):
            c = (n + 1) ** 2 + j * n + i
            p00, p10 = gid(i, j), gid(i + 1, j)
            p11, p01 = gid(i + 1, j + 1), gid(i, j + 1)
            elements += [[p00, p10, c], [p10, p11, c], [p11, p01, c], [p01, p00, c]]
            if j == 0:
                bedges.append([p00, p10])
            if i == n - 1:
                bedges.append([p10, p11])
            if j == n - 1:
                bedges.append([p11, p01])
            if i == 0:
                bedges.append([p01, p00])
    return Mesh(
        vertices=vertices,
        elements=np.asarray(elements, dtype=np.int64),
        boundary_edges=np.asarray(bedges, dtype=np.int64),
        generation=np.zeros(len(elements), dtype=np.int32),
        domain_area=4.0,
    )


def prolong(x, parents):
    """Nodal values x followed by 0.5 * (x[p0] + x[p1]) for each parent
    row (p0, p1).

    With the parent rows of the vertices a refinement added
    (``fine.vertex_parents[coarse.n_vertices:]``) this is the exact P1
    prolongation onto the refined mesh; with ``edge_table(mesh).edges`` it
    lifts a P1 function to the degree-2 numbering of the same mesh, and to
    the P1 numbering of ``global_refine(mesh)``.
    """
    x = np.asarray(x)
    return np.concatenate([x, 0.5 * (x[parents[:, 0]] + x[parents[:, 1]])])


def _split_edges(mesh: Mesh, et: EdgeTable, cut):
    """Insert the midpoint of every cut edge: the one place refinement
    creates vertices.

    Midpoints are numbered after the old vertices in edge order, so the old
    vertices stay the leading block; each cut boundary edge is replaced by
    its two halves.  Returns (vertices, new_vertex, boundary_edges,
    vertex_parents) with new_vertex[e] the midpoint of edge e (-1 if e is
    not cut) and the cut edges' endpoints appended to the old vertices'
    parent rows.
    """
    cut_ids = np.nonzero(cut)[0]
    nv = mesh.n_vertices
    new_vertex = np.full(et.n_edges, -1, dtype=np.int64)
    new_vertex[cut_ids] = nv + np.arange(cut_ids.size)
    parents = np.empty((nv + cut_ids.size, 2), dtype=np.int64)
    parents[:nv] = -1 if mesh.vertex_parents is None else mesh.vertex_parents
    parents[nv:] = et.edges[cut_ids]
    vertices = prolong(mesh.vertices, parents[nv:])

    beids = edge_ids_of(et, mesh.boundary_edges)
    bcut = cut[beids]
    i, j = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    mids_b = new_vertex[beids[bcut]]
    bedges = np.concatenate(
        [
            mesh.boundary_edges[~bcut],
            np.stack([i[bcut], mids_b], axis=1),
            np.stack([mids_b, j[bcut]], axis=1),
        ]
    )
    return vertices, new_vertex, bedges, parents


def global_refine(mesh: Mesh) -> Mesh:
    """Regular (red) refinement: each triangle splits into 4 via midpoints.

    Every edge is cut, so each parent edge gets one midpoint and
    coarse-mesh nodal values embed as the leading block of the refined
    numbering.
    """
    et = edge_table(mesh)
    vertices, new_vertex, bedges, parents = _split_edges(mesh, et, np.ones(et.n_edges, dtype=bool))

    a, b, c = mesh.elements[:, 0], mesh.elements[:, 1], mesh.elements[:, 2]
    mab = new_vertex[et.elem_to_edge[:, 0]]
    mbc = new_vertex[et.elem_to_edge[:, 1]]
    mca = new_vertex[et.elem_to_edge[:, 2]]
    # corner children keep the parent's hypotenuse halves as refinement
    # edges; the center child's refinement edge is (mbc, mca)
    children = np.concatenate(
        [
            np.stack([a, mab, mca], axis=1),
            np.stack([mab, b, mbc], axis=1),
            np.stack([mca, mbc, c], axis=1),
            np.stack([mbc, mca, mab], axis=1),
        ]
    )
    return Mesh(
        vertices=vertices,
        elements=children,
        boundary_edges=bedges,
        generation=np.tile(mesh.generation + 1, 4),
        domain_area=mesh.domain_area,
        vertex_parents=parents,
    )


def bisect_marked(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked elements plus conformity closure.

    Marked refinement edges form the initial cut set; the closure repeatedly
    adds the refinement edge of any element touching a cut edge (bisection
    can only start there), so the cut set agrees across neighbors and the
    result has no hanging nodes.  Each element is bisected at most twice
    (once at the refinement edge, then its children at cut parent edges),
    so a marked element's area at least halves.
    """
    marked = np.asarray(marked, dtype=np.int64)  # cutting is idempotent: order and repeats do not matter
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_elements:
        raise IndexError("marked element index out of range")

    et = edge_table(mesh)
    cut = np.zeros(et.n_edges, dtype=bool)
    cut[et.elem_to_edge[marked, 0]] = True
    while True:
        has_cut = cut[et.elem_to_edge].any(axis=1)
        need = et.elem_to_edge[has_cut, 0]
        grown = np.count_nonzero(cut)
        cut[need] = True
        if np.count_nonzero(cut) == grown:
            break
    vertices, new_vertex, bedges, parents = _split_edges(mesh, et, cut)

    elems_out = []
    gens_out = []
    a, b, c = mesh.elements[:, 0], mesh.elements[:, 1], mesh.elements[:, 2]
    c0 = cut[et.elem_to_edge[:, 0]]
    c1 = cut[et.elem_to_edge[:, 1]]
    c2 = cut[et.elem_to_edge[:, 2]]
    gen = mesh.generation

    keep = ~c0
    elems_out.append(mesh.elements[keep])
    gens_out.append(gen[keep])

    m0 = new_vertex[et.elem_to_edge[:, 0]]
    m1 = new_vertex[et.elem_to_edge[:, 1]]
    m2 = new_vertex[et.elem_to_edge[:, 2]]

    # child over (c, a): refinement edge (c, a), peak m0
    sel = c0 & ~c2
    elems_out.append(np.stack([c[sel], a[sel], m0[sel]], axis=1))
    gens_out.append(gen[sel] + 1)
    sel = c0 & c2  # grandchildren, split child at midpoint of (c, a)
    elems_out.append(np.stack([m0[sel], c[sel], m2[sel]], axis=1))
    gens_out.append(gen[sel] + 2)
    elems_out.append(np.stack([a[sel], m0[sel], m2[sel]], axis=1))
    gens_out.append(gen[sel] + 2)

    # child over (b, c): refinement edge (b, c), peak m0
    sel = c0 & ~c1
    elems_out.append(np.stack([b[sel], c[sel], m0[sel]], axis=1))
    gens_out.append(gen[sel] + 1)
    sel = c0 & c1
    elems_out.append(np.stack([m0[sel], b[sel], m1[sel]], axis=1))
    gens_out.append(gen[sel] + 2)
    elems_out.append(np.stack([c[sel], m0[sel], m1[sel]], axis=1))
    gens_out.append(gen[sel] + 2)

    return Mesh(
        vertices=vertices,
        elements=np.concatenate(elems_out),
        boundary_edges=bedges,
        generation=np.concatenate(gens_out).astype(np.int32),
        domain_area=mesh.domain_area,
        vertex_parents=parents,
    )


def save_mesh_text(mesh: Mesh, path):
    """Plain-text export: header 'nv ne nb', vertices, elements, edges."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} {mesh.boundary_edges.shape[0]}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.elements:
            fh.write(f"{i} {j} {k}\n")
        for i, j in mesh.boundary_edges:
            fh.write(f"{i} {j}\n")
