"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  The heavy
shared computations (refinement ladders, adaptive runs, timing batteries)
live in module-scoped fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mpdwr import mesh as meshmod
from mpdwr.assembly import apply_dirichlet, assemble_load, assemble_stiffness
from mpdwr.driver import (
    AdaptConfig,
    dual_solve_approach1,
    dual_solve_approach2,
    dual_solve_mpdwr,
    initial_mesh,
    limit_monitor,
    mpdwr_adapt,
    residual_adapt,
    solve_primal,
)
from mpdwr.estimator import dwr_indicator, estimate_Je, galerkin_probe, residual_indicator
from mpdwr.fespace import build_space, l2_error
from mpdwr.mesh import bisect_marked, check_conforming, global_refine, min_angle, unit_square_template
from mpdwr.problems import get_functional, get_problem
from mpdwr.scalar import mixed_dot

SOLVER_TOL = 2e-6  # uniform working tolerance for the adaptive experiments


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


# --------------------------------------------------------------------------
# shared fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ladder():
    """E1 and E2 solved on 4 successive global refinements, both precisions."""
    out = {}
    t0 = time.perf_counter()
    for pname in ("e1", "e2"):
        prob = get_problem(pname)
        mesh = initial_mesh(1)
        rows = []
        for _ in range(4):
            mesh = global_refine(mesh)
            u_dd, _ = solve_primal(mesh, prob, "double")
            u_f, _ = solve_primal(mesh, prob, "single")
            rows.append(
                dict(
                    dofs=u_dd.space.n_dofs,
                    l2=l2_error(u_dd, prob.u_exact),
                    same=galerkin_probe(u_dd, u_dd, prob.f),
                    mixed=galerkin_probe(u_dd, u_f, prob.f),
                )
            )
        out[pname] = rows
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def goal_runs():
    """MP-DWR and residual-twin adaptations for E3/J2 and E4/J3."""
    out = {}
    t0 = time.perf_counter()
    for pname, jname in (("e3", "j2"), ("e4", "j3")):
        prob, func = get_problem(pname), get_functional(jname)
        cfg = AdaptConfig(
            tol=1e-4,
            max_iter=60,
            marking_theta=0.5,
            min_volume_guard=0.0,
            solver_tol=SOLVER_TOL,
            post_process=(pname == "e4"),
        )
        _, _, hist_dwr = mpdwr_adapt(prob, func, cfg)
        _, _, hist_res = residual_adapt(prob, func, cfg)
        out[(pname, jname)] = (hist_dwr, hist_res)
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def dual_timing():
    """Median dual-solve + indicator wall time at the deepest 2D level."""
    prob, func = get_problem("e3"), get_functional("j1")
    mesh = initial_mesh(5)
    u, _ = solve_primal(mesh, prob, "single")
    res = residual_indicator(u, prob.f)

    def run_a1():
        _, w = dual_solve_approach1(mesh, func)
        dwr_indicator(res, w, "gradient")

    def run_a2():
        _, w = dual_solve_approach2(mesh, func)
        dwr_indicator(res, w, "gradient")

    def run_mp():
        w, _ = dual_solve_mpdwr(mesh, func, "double")
        dwr_indicator(res, w, "gradient")

    med = {}
    for name, fn in (("a1", run_a1), ("a2", run_a2), ("mp", run_mp)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        med[name] = float(np.median(times))
    med["mesh"] = mesh
    return med


@pytest.fixture(scope="module")
def limit_runs():
    """Deep paired runs, single vs double primal, residual marking."""
    prob, func = get_problem("e2"), get_functional("j1")
    base = AdaptConfig(
        tol=1e-30,
        max_iter=10,
        marking_theta=0.6,
        min_volume_guard=0.0,
        post_process=False,
        solver_tol=SOLVER_TOL,
        track_je=False,
        initial_refines=5,
        indicator="residual",
    )
    runs = {}
    for pname in ("single", "double"):
        cfg = dataclasses.replace(base, primal_precision=pname)
        _, _, hist = residual_adapt(prob, func, cfg)
        runs[pname] = hist
    return runs


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_01_orthogonality_break(ladder):
    ok = ladder["wall"] < 30.0
    details = [f"wall={ladder['wall']:.1f}s"]
    for pname in ("e1", "e2"):
        same = [abs(r["same"]) for r in ladder[pname]]
        mixed = [abs(r["mixed"]) for r in ladder[pname]]
        decay = same[0] / same[2] >= 10.0 and same[1] / same[3] >= 10.0
        separation = mixed[-1] >= 1e3 * same[-1]
        ok = ok and decay and separation
        details.append(
            f"{pname}: same decay x{same[0]/same[2]:.0f}/x{same[1]/same[3]:.0f}, "
            f"mixed/same={mixed[-1]/same[-1]:.1e}"
        )
    assert report(1, ok, "; ".join(details))


def test_criterion_02_mixed_dot_anchor():
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    v_s = np.array([c, s], dtype=np.float32)
    w_s = np.array([-s, c], dtype=np.float32)
    w_d = np.array([-s, c], dtype=np.float64)
    same = mixed_dot(v_s, w_s)
    mixed = float(mixed_dot(v_s, w_d))
    ok = same == np.float32(0.0) and 5e-9 <= abs(mixed) <= 1.5e-8
    assert report(2, ok, f"single/single={float(same)}, mixed={mixed:.6e}")


def test_criterion_03_assembly_oracle():
    ref = meshmod.Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]], dtype=np.int64),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        generation=np.zeros(1, dtype=np.int32),
        domain_area=0.5,
    )
    A = assemble_stiffness(build_space(ref, 1, "double")).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    local_err = np.abs(A - expect).max()

    sp = build_space(initial_mesh(1), 1, "double")
    G = assemble_stiffness(sp).toarray()
    bset = set(sp.boundary_dofs.tolist())
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for i in range(sp.n_dofs):
        if i in bset:
            continue
        worst = max(worst, abs(G[i].sum()) / (10 * eps * np.abs(G[i]).sum()))
    ok = local_err <= 1e-14 and worst <= 1.0
    assert report(3, ok, f"local max err={local_err:.2e}, row-sum worst={worst:.2f}x bound")


@pytest.mark.slow
def test_criterion_04_convergence_rate(ladder):
    rows = ladder["e1"]
    rate = -2 * np.polyfit(np.log([r["dofs"] for r in rows]), np.log([r["l2"] for r in rows]), 1)[0]
    ok = 1.8 <= rate <= 2.2
    assert report(4, ok, f"E1 L2 rate={rate:.3f}")


def test_criterion_05_functional_oracle():
    from mpdwr.problems import eval_functional
    from tests.test_problems import J1_U1_ORACLE

    prob = get_problem("e3")
    mesh = initial_mesh(2)
    j1 = get_functional("j1")
    val = eval_functional(j1, prob.u_exact, mesh)
    const = eval_functional(j1, lambda x, y: np.ones_like(x), mesh)
    ok = abs(val - J1_U1_ORACLE) <= 1e-6 and abs(const - 1.0) <= 1e-12
    assert report(
        5, ok, f"J1(u1)={val:.10f} vs oracle {J1_U1_ORACLE} (diff {abs(val-J1_U1_ORACLE):.2e}); "
        f"J1(1)-1={const-1.0:.2e}"
    )


@pytest.mark.slow
def test_criterion_06_goal_oriented_efficiency(goal_runs):
    ok = goal_runs["wall"] < 300.0
    details = [f"wall={goal_runs['wall']:.0f}s"]
    for key in (("e3", "j2"), ("e4", "j3")):
        hist_dwr, hist_res = goal_runs[key]
        d_dofs = hist_dwr.records[-1].n_dofs
        r_dofs = hist_res.records[-1].n_dofs
        d_je = abs(hist_dwr.records[-1].je)
        r_je = abs(hist_res.records[-1].je)
        reached = d_je <= 1e-4 and r_je <= 1e-4
        ok = ok and reached and d_dofs <= r_dofs
        details.append(f"{key[0]}/{key[1]}: dwr {d_dofs} vs res {r_dofs} dofs")
    assert report(6, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_07_dual_solve_economics(dual_timing):
    mesh = dual_timing["mesh"]
    fine_dofs = global_refine(mesh).n_vertices
    ratio_struct = fine_dofs / mesh.n_vertices
    ok = (
        mesh.n_vertices >= 20000
        and dual_timing["mp"] <= 0.5 * dual_timing["a1"]
        and dual_timing["mp"] <= 0.5 * dual_timing["a2"]
        and 3.5 <= ratio_struct <= 4.5
    )
    assert report(
        7,
        ok,
        f"mp={dual_timing['mp']:.2f}s vs a1={dual_timing['a1']:.2f}s, "
        f"a2={dual_timing['a2']:.2f}s at {mesh.n_vertices} dofs; "
        f"h-refined dual has {ratio_struct:.2f}x unknowns",
    )


def test_criterion_08_degenerate_same_precision():
    prob, func = get_problem("e1"), get_functional("j1")
    mesh = initial_mesh(2)
    u, rep = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "single")
    value = estimate_Je(u, w, prob.f)
    F = assemble_load(u.space, prob.f).astype(np.float64)
    scale = float(np.linalg.norm(F) * np.linalg.norm(w.coefficients.astype(np.float64)))
    bound = 10 * rep.tol * scale
    ok = abs(value) <= bound
    assert report(8, ok, f"|estimate|={abs(value):.3e} <= 10*tol*scale={bound:.3e}")


@pytest.mark.slow
def test_criterion_09_post_processing_cost(goal_runs):
    hist, _ = goal_runs[("e4", "j3")]
    total = sum(r.t_primal + r.t_dual + r.t_indicator + r.t_refine for r in hist.records)
    total += hist.post_process_time
    final = hist.records[-1]
    ok = (
        final.n_dofs >= 20000
        and hist.post_process_time <= 0.15 * total
        and hist.post_l2 <= final.l2 * (1 + 1e-9)
    )
    assert report(
        9,
        ok,
        f"post={hist.post_process_time:.2f}s of {total:.2f}s "
        f"({100*hist.post_process_time/total:.1f}%) at {final.n_dofs} dofs; "
        f"L2 post={hist.post_l2:.3e} vs single={final.l2:.3e}",
    )


@pytest.mark.slow
def test_criterion_10_precision_limit(limit_runs):
    # the single-precision primal's true algebraic residual floors at the
    # rounding level and grows with refinement while the double run's keeps
    # falling with ||F||, and its error keeps decreasing
    hs, hd = limit_runs["single"], limit_runs["double"]
    diag = limit_monitor(hs)
    single_res = [r.primal_residual for r in hs.records[-3:]]
    double_res = [r.primal_residual for r in hd.records[-3:]]
    double_l2 = [r.l2 for r in hd.records[-3:]]
    single_stalls = diag.stagnation_flag and single_res[2] >= single_res[0]
    double_decreasing = (
        double_res[2] < double_res[0] and double_l2[2] < double_l2[1] < double_l2[0]
    )
    min_vol = min(r.min_volume for r in hs.records)
    ok = single_stalls and double_decreasing and min_vol < 1e-6 and diag.volume_flag
    assert report(
        10,
        ok,
        f"single last-3 residual {['%.3e' % v for v in single_res]} "
        f"(stagnation flag={diag.stagnation_flag}), "
        f"double last-3 residual {['%.3e' % v for v in double_res]} and "
        f"L2 {['%.3e' % v for v in double_l2]} decreasing={double_decreasing}, "
        f"min vol={min_vol:.2e} flag={diag.volume_flag}",
    )


def test_criterion_11_mesh_space_property_suite():
    rng = np.random.default_rng(2024)
    template = unit_square_template()
    floor = min_angle(template) / 2.0
    worst_angle = np.inf
    for _ in range(100):
        m = template
        for _ in range(int(rng.integers(1, 4))):
            marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 4), replace=False)
            m = bisect_marked(m, marked)
        check_conforming(m)
        worst_angle = min(worst_angle, min_angle(m))
    s1 = build_space(m, 1, "single")
    s2 = build_space(m, 1, "double")
    maps_equal = (
        s1.element_dof_map.tobytes() == s2.element_dof_map.tobytes()
        and s1.boundary_dofs.tobytes() == s2.boundary_dofs.tobytes()
    )
    ok = worst_angle >= floor and maps_equal
    assert report(
        11,
        ok,
        f"100 random sequences conforming, min angle {np.degrees(worst_angle):.1f} deg "
        f">= {np.degrees(floor):.1f}; dof maps identical={maps_equal}",
    )


def test_criterion_12_microbenchmark():
    n = 10_000_000

    def run(dtype):
        ones = np.ones(n, dtype=dtype)
        buf = np.empty(n, dtype=dtype)
        csum = np.empty(n, dtype=dtype)
        times = []
        total = None
        for _ in range(5):
            t0 = time.perf_counter()
            np.arctan(ones, out=buf)
            np.multiply(buf, dtype(4.0), out=buf)
            np.cumsum(buf, out=csum)
            total = float(csum[-1])
            times.append(time.perf_counter() - t0)
        return float(np.median(times)), total

    t_d, sum_d = run(np.float64)
    t_s, sum_s = run(np.float32)
    ratio = t_s / t_d
    rel_d = abs(sum_d - n * np.pi) / (n * np.pi)
    ok = ratio < 1.0 and rel_d <= 1e-4
    assert report(
        12,
        ok,
        f"single/double time ratio={ratio:.3f}; double sum rel err={rel_d:.2e}; "
        f"single sum rel err={abs(sum_s - n*np.pi)/(n*np.pi):.2e}",
    )
