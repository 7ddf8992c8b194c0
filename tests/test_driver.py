import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpdwr import driver
from mpdwr.driver import (
    AdaptConfig,
    AdaptHistory,
    IterationRecord,
    dual_solve_approach1,
    dual_solve_approach2,
    dual_solve_mpdwr,
    initial_mesh,
    limit_monitor,
    marking,
    mpdwr_adapt,
    post_process,
    precision_cascade,
    residual_adapt,
    revised_mpdwr,
    solve_primal,
)
from mpdwr.estimator import IndicatorField
from mpdwr.fespace import build_space, l2_error
from mpdwr.linsolve import default_tol
from mpdwr.mesh import edge_table, global_refine, unit_square_template
from mpdwr.problems import Functional, get_functional, get_problem
from mpdwr.scalar import DOUBLE, HALF, SINGLE


def small_cfg(**kw):
    base = dict(
        tol=1e-4,
        max_iter=3,
        marking_theta=0.5,
        initial_refines=1,
        post_process=False,
        min_volume_guard=0.0,
    )
    base.update(kw)
    return AdaptConfig(**base)


# --- config validation -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(marking_theta=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(marking_theta=1.0)
    with pytest.raises(ValueError):
        AdaptConfig(je_mode="oracle")
    with pytest.raises(ValueError):
        AdaptConfig(indicator="hierarchical")
    cfg = AdaptConfig(primal_precision="single", dual_precision="double")
    assert cfg.primal_precision is SINGLE
    assert cfg.dual_precision is DOUBLE


# --- marking -----------------------------------------------------------------

def test_marking_single_nonzero():
    vals = np.zeros(10)
    vals[7] = 1.0
    assert marking(vals, 0.5).tolist() == [7]


def test_marking_uniform_half():
    n = 11
    got = marking(np.ones(n), 0.5)
    assert len(got) == int(np.ceil(n / 2))
    assert got.tolist() == list(range(len(got)))  # ties break by lower index


def test_marking_all_zero():
    assert marking(np.zeros(6), 0.5).size == 0


def test_marking_theta_bounds():
    with pytest.raises(ValueError):
        marking(np.ones(3), 1.5)


def test_marking_against_exhaustive_subset_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        eta = rng.uniform(0.1, 1.0, size=10)
        theta = rng.uniform(0.2, 0.8)
        got = set(marking(eta, theta).tolist())
        sq = eta**2
        total = sq.sum()
        best_size = None
        for size in range(1, 11):
            if any(
                sq[list(s)].sum() >= theta * total
                for s in itertools.combinations(range(10), size)
            ):
                best_size = size
                break
        assert len(got) == best_size
        # the canonical minimal set: top elements by descending eta
        expect = set(np.argsort(-sq, kind="stable")[:best_size].tolist())
        assert got == expect
        assert sq[list(got)].sum() >= theta * total


@settings(max_examples=200, deadline=None)
@given(
    # nonnegative indicators with ties and zeros among arbitrary values
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e3)), min_size=1, max_size=40),
    st.floats(0.01, 0.99),
)
def test_marking_dorfler_minimality(values, theta):
    assert marking(np.zeros(len(values)), theta).size == 0
    got = marking(values, theta)
    sq = np.asarray(values, dtype=np.float64) ** 2
    total = sq.sum()
    if total <= 0.0:
        assert got.size == 0
        return
    assert got.size > 0 and np.all(np.diff(got) > 0)  # sorted and unique
    # in the order the function takes them (descending, ties by lower
    # index) the marked set reaches theta * total only at its last element
    taken = sorted(got.tolist(), key=lambda i: (-sq[i], i))
    csum = np.cumsum(sq[taken])
    assert csum[-1] >= theta * total
    assert got.size == 1 or csum[-2] < theta * total
    # no unmarked value beats a marked one; ties go to the lower index
    unmarked = np.setdiff1d(np.arange(sq.size), got)
    if unmarked.size:
        low = sq[got].min()
        assert sq[unmarked].max() <= low
        assert np.all(unmarked[sq[unmarked] == low] > got[sq[got] == low].max())


def test_marking_accepts_indicator_field():
    m = unit_square_template()
    ind = IndicatorField(m, np.arange(float(m.n_elements)))
    got = marking(ind, 0.3)
    assert got.size > 0


# --- dual solves -------------------------------------------------------------

def test_dual_same_dimension_as_primal():
    mesh = initial_mesh(1)
    prob, func = get_problem("e3"), get_functional("j1")
    u, _ = solve_primal(mesh, prob, "single")
    w, _ = dual_solve_mpdwr(mesh, func, "double")
    assert w.space.n_dofs == u.space.n_dofs
    assert w.space.mesh is mesh


def test_dual_identical_dof_maps_across_precisions():
    # same mesh, same dofs, same basis: only the arithmetic differs
    mesh = initial_mesh(1)
    s1 = build_space(mesh, 1, "single")
    s2 = build_space(mesh, 1, "double")
    assert s1.mesh.vertices.tobytes() == s2.mesh.vertices.tobytes()
    assert s1.mesh.elements.tobytes() == s2.mesh.elements.tobytes()
    assert s1.element_dof_map.tobytes() == s2.element_dof_map.tobytes()
    assert s1.boundary_dofs.tobytes() == s2.boundary_dofs.tobytes()


def test_dual_zero_functional_gives_zero():
    # region positioned outside the domain: positive area, empty support
    mesh = initial_mesh(1)
    outside = Functional("nowhere", (5.0, 6.0, 5.0, 6.0))
    w, rep = dual_solve_mpdwr(mesh, outside, "double")
    assert not w.coefficients.any()
    assert rep.iterations == 0


def test_dual_j1_nonnegative_interior():
    # discrete maximum-principle heuristic on five meshes
    func = get_functional("j1")
    mesh = initial_mesh(0)
    for _ in range(5):
        mesh = global_refine(mesh)
        w, _ = dual_solve_mpdwr(mesh, func, "double")
        assert float(w.coefficients.min()) >= -1e-8
        if mesh.n_elements >= 4096:
            break


def test_approach1_dimensions_and_restriction():
    mesh = initial_mesh(1)
    func = get_functional("j1")
    w_fine, w_restr = dual_solve_approach1(mesh, func)
    et = edge_table(mesh)
    assert w_fine.space.n_dofs == mesh.n_vertices + et.n_edges
    assert w_restr.space.n_dofs == mesh.n_vertices
    assert np.array_equal(w_restr.coefficients, w_fine.coefficients[: mesh.n_vertices])


def test_approach1_restriction_exact_for_linear():
    # nodal restriction of a fine-mesh linear field equals the coarse
    # interpolant exactly
    mesh = initial_mesh(1)
    fine = global_refine(mesh)
    g = lambda x, y: 2.0 * x - 0.5 * y
    from mpdwr.fespace import interpolate

    fine_field = interpolate(build_space(fine, 1, "double"), g)
    coarse_field = interpolate(build_space(mesh, 1, "double"), g)
    assert np.array_equal(fine_field.coefficients[: mesh.n_vertices], coarse_field.coefficients)


def test_approach2_dimension():
    mesh = initial_mesh(1)
    func = get_functional("j1")
    w2, w_restr = dual_solve_approach2(mesh, func)
    et = edge_table(mesh)
    assert w2.space.degree == 2
    assert w2.space.n_dofs == mesh.n_vertices + et.n_edges
    assert np.array_equal(w_restr.coefficients, w2.coefficients[: mesh.n_vertices])


def test_approach2_vertex_weight_usable():
    # degree-2 dual restricted to vertices feeds the indicator machinery
    from mpdwr.estimator import dwr_indicator, residual_indicator

    prob, func = get_problem("e4"), get_functional("j3")
    mesh = initial_mesh(2)
    u, _ = solve_primal(mesh, prob, "single")
    _, w_restr = dual_solve_approach2(mesh, func)
    ind = dwr_indicator(residual_indicator(u, prob.f), w_restr, "value")
    assert (ind.values >= 0).all()
    assert ind.values.any()


# --- adaptive loop -----------------------------------------------------------

def test_adapt_infinite_tol_stops_immediately():
    prob, func = get_problem("e3"), get_functional("j1")
    mesh_out, u, hist = mpdwr_adapt(prob, func, small_cfg(tol=float("inf")))
    assert len(hist.records) == 1
    assert hist.records[0].iteration == 0
    assert mesh_out.n_elements == initial_mesh(1).n_elements


def test_adapt_history_invariants():
    prob, func = get_problem("e3"), get_functional("j2")
    _, _, hist = mpdwr_adapt(prob, func, small_cfg(tol=1e-6, max_iter=4))
    dofs = [r.n_dofs for r in hist.records]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    for r in hist.records:
        assert r.t_primal > 0.0
        assert r.t_dual >= 0.0
        assert r.t_indicator >= 0.0
        assert r.t_refine >= 0.0
        assert r.primal_precision == "single"
        assert r.dual_precision == "double"
    # every non-final iteration solves exactly one dual
    for r in hist.records[:-1]:
        assert r.t_dual > 0.0


def test_adapt_je_decreases_overall():
    prob, func = get_problem("e4"), get_functional("j3")
    _, _, hist = mpdwr_adapt(prob, func, small_cfg(tol=1e-7, max_iter=6, initial_refines=2))
    jes = [abs(r.je) for r in hist.records]
    assert len(jes) >= 5
    assert jes[-1] < jes[0]


def test_adapt_estimated_mode_runs_dual_every_iteration():
    prob, func = get_problem("e3"), get_functional("j1")
    _, _, hist = mpdwr_adapt(prob, func, small_cfg(je_mode="estimated", tol=1e-30, max_iter=2))
    for r in hist.records:
        assert r.t_dual > 0.0


def test_adapt_min_volume_guard_stops():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(min_volume_guard=1.0, tol=1e-30, max_iter=5)
    _, _, hist = mpdwr_adapt(prob, func, cfg)
    assert len(hist.records) == 1
    assert any("guard" in f or "volume" in f for f in hist.flags)


def test_residual_twin_has_no_dual_phase():
    prob, func = get_problem("e3"), get_functional("j2")
    _, _, hist = residual_adapt(prob, func, small_cfg(tol=1e-30, max_iter=3))
    assert all(r.t_dual == 0.0 for r in hist.records)
    assert all(r.eta_dwr_total == 0.0 for r in hist.records)


def test_post_process_runs_for_single_primal():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(post_process=True, tol=1e-30, max_iter=2)
    mesh, u, hist = mpdwr_adapt(prob, func, cfg)
    assert hist.post_process_time is not None
    assert hist.post_l2 is not None
    assert u.space.precision is DOUBLE


def test_post_process_error_not_worse():
    prob = get_problem("e3")
    mesh = initial_mesh(2)
    u_single, _ = solve_primal(mesh, prob, "single")
    u_post, t, _ = post_process(mesh, prob)
    assert t > 0.0
    assert l2_error(u_post, prob.u_exact) <= l2_error(u_single, prob.u_exact) * (1 + 1e-9)


def test_post_process_warm_start_refines_single_solution():
    # default tolerances: the single primal stops at 100*eps(single), about
    # 1.2e-5, and the double re-solve must go on to 100*eps(double), so the
    # warm start has work to do (at a shared 2e-6 the last single solution
    # can already meet the double tolerance, and the re-solve takes 0 steps)
    prob, func = get_problem("e4"), get_functional("j3")
    cfg = small_cfg(post_process=True, tol=1e-30, max_iter=4)
    mesh, u_post, hist = mpdwr_adapt(prob, func, cfg)
    u_cold, _, cold_iters = post_process(mesh, prob, tol=cfg.solver_tol)
    assert u_post.space.precision is DOUBLE
    assert 0 < hist.post_iterations < cold_iters
    # on a few hundred DoFs the single and double L2 errors agree to about
    # 1e-6 either way; the refined solution must not end up worse than both
    # the single primal and the cold double solve
    l2_bound = max(hist.records[-1].l2, l2_error(u_cold, prob.u_exact))
    assert hist.post_l2 <= l2_bound * (1 + 1e-9)
    assert all(r.t_eval > 0.0 for r in hist.records)


def test_post_process_agrees_on_coarse_mesh():
    prob = get_problem("e1")
    mesh = initial_mesh(1)
    u_single, _ = solve_primal(mesh, prob, "single")
    u_post, _, _ = post_process(mesh, prob)
    l2s = l2_error(u_single, prob.u_exact)
    l2d = l2_error(u_post, prob.u_exact)
    assert abs(l2s - l2d) / l2d <= 1e-5


def test_revised_mpdwr_validates_and_skips_post():
    prob, func = get_problem("e4"), get_functional("j3")
    with pytest.raises(ValueError):
        revised_mpdwr(prob, func, small_cfg())
    cfg = small_cfg(
        primal_precision="double", dual_precision="single", post_process=True, max_iter=4,
        tol=1e-30, initial_refines=2,
    )
    _, u, hist = revised_mpdwr(prob, func, cfg)
    assert hist.post_process_time is None
    jes = [abs(r.je) for r in hist.records]
    assert jes[-1] < jes[0]
    for r in hist.records:
        assert r.primal_precision == "double"
        assert r.dual_precision == "single"


def test_mpdwr_requires_dwr_indicator():
    prob, func = get_problem("e3"), get_functional("j1")
    with pytest.raises(ValueError):
        mpdwr_adapt(prob, func, small_cfg(indicator="residual"))


# --- limit monitor -----------------------------------------------------------

def _record(iteration, l2, min_volume, precision="single", residual=None):
    return IterationRecord(
        iteration=iteration,
        n_dofs=100 * (iteration + 1),
        n_elements=200 * (iteration + 1),
        je=1.0,
        eta_res_total=1.0,
        eta_dwr_total=1.0,
        min_volume=min_volume,
        l2=l2,
        primal_residual=residual if residual is not None else l2 / 10.0,
        t_primal=0.1,
        t_dual=0.1,
        t_indicator=0.0,
        t_refine=0.0,
        primal_precision=precision,
        dual_precision="double",
    )


def test_limit_monitor_needs_three_records():
    hist = AdaptHistory(records=[_record(0, 1.0, 1e-3)])
    with pytest.raises(ValueError):
        limit_monitor(hist)


def test_limit_monitor_clean_history():
    hist = AdaptHistory(records=[_record(i, 10.0 * 2.0**-i, 1e-3) for i in range(5)])
    diag = limit_monitor(hist)
    assert not diag.volume_flag
    assert not diag.stagnation_flag


def test_limit_monitor_volume_flag():
    hist = AdaptHistory(
        records=[_record(0, 1.0, 1e-3), _record(1, 0.5, 1e-4), _record(2, 0.25, 5e-7)]
    )
    diag = limit_monitor(hist)
    assert diag.volume_flag
    assert not diag.stagnation_flag


def test_limit_monitor_stagnation_flag():
    hist = AdaptHistory(
        records=[
            _record(0, 1.0, 1e-3),
            _record(1, 1e-3, 1e-3),
            _record(2, 9.9e-4, 1e-3),
            _record(3, 1.0e-3, 1e-3),
        ]
    )
    diag = limit_monitor(hist)
    assert diag.stagnation_flag


def test_limit_monitor_double_primal_never_stagnates():
    hist = AdaptHistory(
        records=[_record(i, 1e-3, 1e-3, precision="double") for i in range(4)]
    )
    assert not limit_monitor(hist).stagnation_flag


# --- precision cascade -------------------------------------------------------

def test_cascade_forced_switch():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=5, post_process=False)
    _, _, hist = precision_cascade(prob, func, cfg, force_switch_at=2)
    assert hist.switched_at == 3
    pairs = [(r.primal_precision, r.dual_precision) for r in hist.records]
    for k, pair in enumerate(pairs):
        if k < 3:
            assert pair == ("half", "single")
        else:
            assert pair == ("single", "double")


def test_cascade_without_trip_stays_half():
    # with guard 0 the monitor needs three records, and the third iteration
    # is the last (max_iter=2), so the stage-0 switch cannot happen
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=2, post_process=False, min_volume_guard=0.0)
    _, _, hist = precision_cascade(prob, func, cfg)
    assert hist.switched_at is None
    assert len(hist.records) == 3
    assert all(r.primal_precision == "half" for r in hist.records)


def test_cascade_final_error_not_worse_than_pure_half():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=4, post_process=False, initial_refines=1)
    _, _, hist_cascade = precision_cascade(prob, func, cfg, force_switch_at=1)
    _, _, hist_half = precision_cascade(prob, func, cfg, force_switch_at=10**9)
    assert abs(hist_cascade.records[-1].je) <= abs(hist_half.records[-1].je) * (1 + 1e-6)


def test_cascade_without_switch_equals_half_single_adapt():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=2, post_process=True, min_volume_guard=0.0)
    _, u_c, hist_c = precision_cascade(prob, func, cfg)
    pair_cfg = dataclasses.replace(cfg, primal_precision=HALF, dual_precision=SINGLE)
    _, u_a, hist_a = mpdwr_adapt(prob, func, pair_cfg)
    assert hist_c.switched_at is None

    def trail(hist):
        return [
            (r.n_dofs, r.je, r.l2, r.eta_dwr_total, r.primal_precision, r.dual_precision, r.dual_iterations)
            for r in hist.records
        ]

    assert trail(hist_c) == trail(hist_a)
    assert hist_c.post_l2 == hist_a.post_l2
    assert u_c.coefficients.tobytes() == u_a.coefficients.tobytes()


def test_cascade_records_time_every_phase():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=4, post_process=False)
    _, _, hist = precision_cascade(prob, func, cfg, force_switch_at=1)
    assert hist.switched_at == 2
    for r in hist.records[:-1]:
        assert r.t_dual > 0.0
        assert r.t_indicator > 0.0
        assert r.t_refine > 0.0
        assert r.dual_iterations > 0
    assert hist.records[-1].dual_iterations == 0


def test_named_phases_cover_the_wall_time():
    # every second of an adaptive run belongs to a named phase: the
    # per-iteration phases plus the post-process
    prob, func = get_problem("e3"), get_functional("j2")
    cfg = AdaptConfig(tol=1e-5, max_iter=10)
    mesh = initial_mesh(cfg.initial_refines)
    t0 = time.perf_counter()
    _, _, hist = mpdwr_adapt(prob, func, cfg, mesh)
    wall = time.perf_counter() - t0
    assert hist.post_process_time is not None and hist.post_eval_time is not None
    phases = sum(r.t_primal + r.t_dual + r.t_eval + r.t_indicator + r.t_refine for r in hist.records)
    assert 0.95 * wall <= phases + hist.post_process_time + hist.post_eval_time <= wall


def test_marking_is_timed_in_t_indicator(monkeypatch):
    pause = 0.02

    def slow_marking(ind, theta):
        time.sleep(pause)
        return marking(ind, theta)

    monkeypatch.setattr(driver, "marking", slow_marking)
    _, _, hist = mpdwr_adapt(get_problem("e3"), get_functional("j1"), small_cfg(tol=1e-30))
    assert len(hist.records) == 4
    assert all(r.t_indicator >= pause for r in hist.records[:-1])


def test_dual_iterations_recorded_and_exported():
    # the first in-loop dual starts from zero and stops at the marking
    # tolerance max(sqrt(tol_primal), tol_dual)
    prob, func = get_problem("e3"), get_functional("j1")
    mesh = initial_mesh(1)
    marking_tol = max(math.sqrt(default_tol(SINGLE)), default_tol(DOUBLE))
    _, rep = dual_solve_mpdwr(mesh, func, "double", tol=marking_tol)
    _, rep_primal = solve_primal(mesh, prob, "single")
    _, _, hist = mpdwr_adapt(prob, func, small_cfg(tol=1e-30, max_iter=2))
    assert hist.records[0].dual_iterations == rep.iterations > 0
    assert hist.records[0].primal_iterations == rep_primal.iterations > 0
    assert all(r.primal_iterations > 0 for r in hist.records)
    assert AdaptHistory.CSV_COLUMNS.endswith(",t_eval,dual_iters,primal_iters")
    rows = [row.split(",") for row in hist.csv_rows()]
    assert [int(row[-2]) for row in rows] == [r.dual_iterations for r in hist.records]
    assert [int(row[-1]) for row in rows] == [r.primal_iterations for r in hist.records]
    _, _, hist_res = residual_adapt(prob, func, small_cfg(tol=1e-30, max_iter=2))
    assert all(r.dual_iterations == 0 for r in hist_res.records)


def test_pcg_failure_in_loop_flags_and_keeps_history():
    # a half dual cannot reach the 2e-6 solver tolerance: its PCG breaks
    # down in the first iteration; the run stops with the record kept
    prob, func = get_problem("e3"), get_functional("j2")
    cfg = AdaptConfig(
        primal_precision="single", dual_precision="half", tol=1e-4, max_iter=60,
        min_volume_guard=0.0, solver_tol=2e-6, post_process=False,
    )
    mesh, u, hist = mpdwr_adapt(prob, func, cfg)
    assert len(hist.records) == 1
    assert any(f.startswith("PCG failure in adaptive iteration 0") for f in hist.flags)
    assert u.space.mesh is mesh
    assert u.space.n_dofs == hist.records[-1].n_dofs


def test_pcg_failure_in_primal_returns_last_solved_mesh():
    # maxit=1 makes every primal solve fail: no record, no solution, the
    # initial mesh comes back
    prob, func = get_problem("e3"), get_functional("j1")
    start = initial_mesh(1)
    mesh, u, hist = mpdwr_adapt(prob, func, small_cfg(solver_maxit=1, post_process=True), mesh=start)
    assert u is None and mesh is start
    assert hist.records == []
    assert len(hist.flags) == 1 and hist.flags[0].startswith("PCG failure in adaptive iteration 0")


def test_pcg_failure_in_post_process_flags_and_keeps_history():
    # the single primals converge in 65 and 85 iterations, the double
    # post-process needs 158: at maxit 150 it fails, and the run returns
    # the last single primal on the last mesh with both records and the
    # failed solve's time and iterations
    prob, func = get_problem("e3"), get_functional("j1")
    mesh, u, hist = mpdwr_adapt(prob, func, AdaptConfig(max_iter=1, solver_maxit=150, initial_refines=3))
    assert [r.primal_iterations for r in hist.records] == [65, 85]
    assert len(hist.flags) == 1 and hist.flags[0].startswith("PCG failure in the double post-process")
    assert u.precision is SINGLE and u.space.mesh is mesh
    assert u.space.n_dofs == hist.records[-1].n_dofs
    assert hist.post_l2 is None and hist.post_iterations == 150 and hist.post_process_time > 0


def test_estimated_mode_stop_on_tol_is_flagged():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(je_mode="estimated", tol=1e-4, max_iter=20)
    _, _, hist = mpdwr_adapt(prob, func, cfg)
    assert abs(hist.records[-1].je) <= 1e-4
    assert any("algebraic error" in f for f in hist.flags)
    _, _, hist_exact = mpdwr_adapt(prob, func, small_cfg(tol=1e-2, max_iter=20))
    assert not any("algebraic error" in f for f in hist_exact.flags)


def test_history_csv_rows():
    prob, func = get_problem("e3"), get_functional("j1")
    _, _, hist = mpdwr_adapt(prob, func, small_cfg(tol=1e-30, max_iter=2))
    rows = hist.csv_rows()
    assert len(rows) == len(hist.records)
    header_fields = AdaptHistory.CSV_COLUMNS.split(",")
    assert all(len(r.split(",")) == len(header_fields) for r in rows)


def test_dual_method_approach1_in_loop():
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(
        primal_precision="double", dual_precision="double",
        dual_method="approach1", tol=1e-30, max_iter=2,
    )
    _, _, hist = mpdwr_adapt(prob, func, cfg)
    assert all(r.t_dual > 0 for r in hist.records[:-1])
    dofs = [r.n_dofs for r in hist.records]
    assert dofs[-1] > dofs[0]
    with pytest.raises(ValueError):
        small_cfg(dual_method="amg")


def _spy_pcg(monkeypatch):
    """Record (report, started from x0) of every PCG solve in mpdwr.driver."""
    seen = []
    real = driver.pcg

    def spy(A, b, p, tol=None, maxit=None, x0=None):
        if x0 is not None:
            assert x0.shape == (A.shape[0],)
        x, report = real(A, b, p, tol=tol, maxit=maxit, x0=x0)
        seen.append((report, x0 is not None))
        return x, report

    monkeypatch.setattr(driver, "pcg", spy)
    return seen


@pytest.mark.parametrize("method", ["mpdwr", "approach1", "approach2"])
def test_in_loop_dual_warm_start_and_marking_tolerance(monkeypatch, method):
    # exact mode: every dual after the first starts from the prolonged (and,
    # for the classical duals, lifted) previous dual and stops at
    # sqrt(solver_tol); the primal keeps solver_tol
    prob, func = get_problem("e3"), get_functional("j1")
    cfg = small_cfg(tol=1e-30, max_iter=3, solver_tol=2e-6, dual_method=method)
    seen = _spy_pcg(monkeypatch)
    _, _, hist = mpdwr_adapt(prob, func, cfg)
    primals, duals = seen[0::2], seen[1::2]
    assert len(primals) == 4 and len(duals) == 3
    assert [rep.tol for rep, _ in primals] == [2e-6] * 4
    assert [rep.tol for rep, _ in duals] == [math.sqrt(2e-6)] * 3
    assert [warm for _, warm in seen] == [False, False, False, True, False, True, False]
    assert [rep.iterations for rep, _ in duals] == [r.dual_iterations for r in hist.records[:-1]]
    assert [rep.iterations for rep, _ in primals] == [r.primal_iterations for r in hist.records]


def test_in_loop_dual_tolerance_estimated_mode(monkeypatch):
    # an estimated-mode dual feeds estimate_Je and keeps its own tolerance
    prob, func = get_problem("e3"), get_functional("j1")
    seen = _spy_pcg(monkeypatch)
    mpdwr_adapt(prob, func, small_cfg(je_mode="estimated", tol=1e-30, max_iter=2))
    duals = [(rep, warm) for rep, warm in seen if rep.precision is DOUBLE]
    assert [rep.tol for rep, _ in duals] == [default_tol(DOUBLE)] * 3
    assert [warm for _, warm in duals] == [False, True, True]
    seen.clear()
    mpdwr_adapt(prob, func, small_cfg(tol=1e-30, max_iter=2))
    duals = [rep for rep, _ in seen if rep.precision is DOUBLE]
    assert [rep.tol for rep in duals] == [math.sqrt(default_tol(SINGLE))] * 2


def test_in_loop_dual_tolerance_half_primal(monkeypatch):
    # a half primal's sqrt(100 eps_half) = 0.31 is capped at the single
    # primal's sqrt(100 eps_single), so the cascade's half stage solves a
    # dual on every mesh; the cap never goes below tol_dual
    marking_tol = math.sqrt(default_tol(SINGLE))
    assert driver._dual_tol(small_cfg(), HALF, SINGLE) == marking_tol
    assert driver._dual_tol(small_cfg(solver_tol=1e-2), HALF, SINGLE) == 1e-2
    assert driver._dual_tol(small_cfg(solver_tol=1e-2), SINGLE, DOUBLE) == 1e-2
    assert driver._dual_tol(small_cfg(), HALF, HALF) == default_tol(HALF)
    prob, func = get_problem("e3"), get_functional("j1")
    seen = _spy_pcg(monkeypatch)
    _, _, hist = precision_cascade(prob, func, small_cfg(tol=1e-30, max_iter=4), force_switch_at=1)
    primals, duals = seen[0::2], seen[1::2]
    assert [rep.precision for rep, _ in primals] == [HALF] * 2 + [SINGLE] * 3
    duals = [rep for rep, _ in duals]
    assert [rep.precision for rep in duals] == [SINGLE] * 2 + [DOUBLE] * 2
    assert [rep.tol for rep in duals] == [marking_tol] * 4
    assert all(rep.iterations > 0 for rep in duals)


def test_limit_monitor_residual_growth_flag():
    # breakdown signature: the single-precision residual rises
    # with refinement even while the error still falls
    hist = AdaptHistory(
        records=[
            _record(0, 1.0, 1e-3, residual=1e-5),
            _record(1, 0.5, 1e-3, residual=2e-5),
            _record(2, 0.25, 1e-3, residual=4e-5),
        ]
    )
    diag = limit_monitor(hist)
    assert diag.stagnation_flag
