"""Residual indicator, Galerkin-orthogonality probes, and the DWR indicator.

Indicator and goal-estimate arithmetic runs in double after promoting
solution coefficients: the indicators steer the mesh, and carrying them at
a lower precision would conflate the deliberate primal/dual precision
split with incidental estimator rounding.  The one exception is
galerkin_probe, whose whole point is to expose the rounding of the space
being probed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .fespace import (
    ASSEMBLY_DEGREE,
    EVALUATION_DEGREE,
    Solution,
    _element_blocks,
    _gradient_columns,
    _quad_columns,
    _value_columns,
    basis_gradients,
    basis_values,
    element_transforms,
    quadrature,
)
from .scalar import round_to

@dataclass
class IndicatorField:
    mesh: meshmod.Mesh
    values: np.ndarray  # (ne,) nonnegative float64

    @property
    def total(self) -> float:
        return float(np.sqrt(np.sum(self.values**2)))


def _element_mean_f(u: Solution, f):
    """Element averages of f with the assembly rule, and element areas."""
    m, rule = u.space.mesh, quadrature(ASSEMBLY_DEGREE)
    integral, areas = np.zeros(m.n_elements), np.zeros(m.n_elements)
    for block in _element_blocks(m.n_elements):
        part, area = integral[block], areas[block]  # views, summed in place
        for x, y, wdet in _quad_columns(m, rule, block):
            part += wdet * np.asarray(f(x, y), dtype=np.float64)
            area += wdet
    return integral / areas, areas


def residual_indicator(u_h: Solution, f) -> IndicatorField:
    """Classic elementwise residual indicator for a degree-1 solution.

    eta_K^2 = h_K^2 |K| fbar_K^2 + 1/2 sum_E h_E int_E [n . grad u_h]^2,
    summed over the interior edges of K.  The Laplacian term vanishes for
    piecewise linears, leaving the element mean fbar_K, and the gradient
    jump is constant along each edge, so int_E [.]^2 = h_E [.]^2.  The
    edge terms are formed from (edges,) columns, one per coordinate.
    """
    if u_h.space.degree != 1:
        raise ValueError("residual indicator requires a degree-1 solution")
    m = u_h.space.mesh
    fbar, areas = _element_mean_f(u_h, f)
    hK = meshmod.element_diameters(m)
    eta_sq = hK**2 * fbar**2 * areas

    centroid = quadrature(1)
    gx, gy = np.empty(m.n_elements), np.empty(m.n_elements)  # constant per element
    for block in _element_blocks(m.n_elements):
        gx[block], gy[block] = next(_gradient_columns(u_h, centroid, block))
    et = meshmod.edge_table(m)
    interior = (et.edge_to_elem >= 0).all(axis=1)
    eL, eR = et.edge_to_elem[interior].T
    va, vb = et.edges[interior].T
    tx = m.vertices[vb, 0] - m.vertices[va, 0]
    ty = m.vertices[vb, 1] - m.vertices[va, 1]
    hE = np.sqrt(tx * tx + ty * ty)
    # n = (ty, -tx) / hE, the tangent turned clockwise
    jump = (gx[eL] - gx[eR]) * (ty / hE) + (gy[eL] - gy[eR]) * (-tx / hE)
    contrib = 0.5 * hE * (hE * jump**2)  # int_E jump^2 ds = hE jump^2
    np.add.at(eta_sq, eL, contrib)
    np.add.at(eta_sq, eR, contrib)
    return IndicatorField(mesh=m, values=np.sqrt(eta_sq))


def _check_same_mesh(m1, m2):
    if m1 is not m2 and not (
        np.array_equal(m1.vertices, m2.vertices) and np.array_equal(m1.elements, m2.elements)
    ):
        raise ValueError("operands live on different meshes")


def galerkin_probe(u_h: Solution, v_h: Solution, f) -> float:
    """a(u - u_h, v_h) evaluated as (f, v_h) - a(u_h, v_h).

    The exact solution enters through f: v_h vanishes on the boundary, so
    (f, v_h) = a(u, v_h).  Both pairing integrals run through the space
    that owns v_h, i.e. geometry, basis tables and the element-by-element
    accumulation are carried at v_h's precision before the difference is
    formed in double.  Probing with a double solution against itself
    yields the quadrature-plus-solver floor, which decays under
    refinement; probing the single-precision solution from a double one
    keeps the accumulated single rounding of two large near-cancelling
    integrals and does not converge to zero.
    """
    _check_same_mesh(u_h.space.mesh, v_h.space.mesh)
    p = v_h.space.precision
    rule = quadrature(EVALUATION_DEGREE)
    mesh = v_h.space.mesh
    origin, J, det, invJT = element_transforms(mesh, p)

    phi = round_to(basis_values(v_h.space.degree, rule.points), p)
    gref_u = round_to(basis_gradients(u_h.space.degree, rule.points), p)
    gref_v = round_to(basis_gradients(v_h.space.degree, rule.points), p)
    w = round_to(rule.weights, p)
    ref = round_to(rule.points[:, 1:], p)
    cu = round_to(u_h.coefficients.astype(np.float64), p)[u_h.space.element_dof_map]
    cv = round_to(v_h.coefficients.astype(np.float64), p)[v_h.space.element_dof_map]

    ne = mesh.n_elements
    load = np.zeros(ne, dtype=p.dtype)
    energy = np.zeros(ne, dtype=p.dtype)
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
    # sequential reduction at p: the accumulation noise of the probing
    # space is the quantity of interest
    load_term = float(np.cumsum(load)[-1])
    energy_term = float(np.cumsum(energy)[-1])
    return load_term - energy_term


def estimate_Je(u_h: Solution, w: Solution, f) -> float:
    """Goal-error estimate (f, w) - a(u_h, w) with the dual weight w, in
    double with degree-8 quadrature.

    Degenerate same-precision pairs return solver-noise-level values, the
    failure mode the precision split exists to avoid.
    """
    _check_same_mesh(u_h.space.mesh, w.space.mesh)
    rule = quadrature(EVALUATION_DEGREE)
    m = u_h.space.mesh
    load, energy = np.zeros(m.n_elements), np.zeros(m.n_elements)
    for block in _element_blocks(m.n_elements):
        lb, eb = load[block], energy[block]  # views, summed in place
        points = zip(_quad_columns(m, rule, block), _value_columns(w, rule, block),
                     _gradient_columns(u_h, rule, block), _gradient_columns(w, rule, block))
        for (x, y, wdet), wv, (gux, guy), (gwx, gwy) in points:
            lb += wdet * np.asarray(f(x, y), dtype=np.float64) * wv
            eb += wdet * (gux * gwx + guy * gwy)
    return float(np.sum(load) - np.sum(energy))


def element_l2_norms(w: Solution) -> np.ndarray:
    """||w||_{L2(K)} per element, in double."""
    rule, m = quadrature(ASSEMBLY_DEGREE), w.space.mesh
    out = np.zeros(m.n_elements)
    for block in _element_blocks(m.n_elements):
        part = out[block]  # a view, summed in place
        for (_, _, wdet), v in zip(_quad_columns(m, rule, block), _value_columns(w, rule, block)):
            part += wdet * v**2
    return np.sqrt(out)


def element_h1_seminorms(w: Solution) -> np.ndarray:
    """||grad w||_{L2(K)} per element, in double."""
    rule, m = quadrature(ASSEMBLY_DEGREE), w.space.mesh
    out = np.zeros(m.n_elements)
    for block in _element_blocks(m.n_elements):
        part = out[block]  # a view, summed in place
        for (_, _, wdet), (gx, gy) in zip(_quad_columns(m, rule, block), _gradient_columns(w, rule, block)):
            part += wdet * (gx**2 + gy**2)
    return np.sqrt(out)


def dwr_indicator(res: IndicatorField, w: Solution, weight: str = "value") -> IndicatorField:
    """Dual-weighted indicator: eta_K multiplied by a local dual weight.

    weight="value" pairs eta_K with ||w||_{L2(K)}, the literal local split
    of the residual-times-weight bound.  weight="gradient" pairs it with
    ||grad w||_{L2(K)}, the energy-pairing split of J(e) = a(u - u_h, w);
    the gradient weight concentrates at the corners of the functional
    region where the dual is least regular and steers goal-oriented
    refinement markedly better, so the adaptive driver uses it.
    """
    _check_same_mesh(res.mesh, w.space.mesh)
    if weight == "value":
        wgt = element_l2_norms(w)
    elif weight == "gradient":
        wgt = element_h1_seminorms(w)
    else:
        raise ValueError(f"unknown weight {weight!r}; expected 'value' or 'gradient'")
    return IndicatorField(mesh=res.mesh, values=res.values * wgt)
