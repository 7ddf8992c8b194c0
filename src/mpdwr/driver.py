"""Adaptive loop: primal and dual solved on the same mesh at two precisions.

The loop follows the seven steps: build the space at the primal precision,
solve the primal, evaluate the goal error, stop or solve the dual at the
dual precision on the identical mesh and DoF numbering, combine into the
dual-weighted indicator, mark and bisect.  The dual is the primal program
at another precision: every solve, primal, dual or post-process, runs
through one assemble-eliminate-solve helper, and every driver (MP-DWR, the
revised split, the residual-indicator twin, the precision cascade) runs
the same loop.  Two conventional dual-solve strategies (globally refined
mesh, higher polynomial degree) are provided for cost comparisons.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import mesh as meshmod
from .assembly import apply_dirichlet, assemble_functional, assemble_load, assemble_stiffness
from .estimator import IndicatorField, dwr_indicator, estimate_Je, residual_indicator
from .fespace import Solution, build_space, l2_error
from .linsolve import PCGError, default_tol, pcg
from .problems import Functional, Problem, _goal_and_l2_errors
from .scalar import DOUBLE, HALF, SINGLE, Precision, precision

# smallest element area before single-precision geometry arithmetic starts
# to pollute the solution: the default of AdaptConfig.min_volume_guard and
# the volume flag of limit_monitor
MIN_VOLUME_GUARD = 1e-6


@dataclass
class AdaptConfig:
    primal_precision: Precision = SINGLE
    dual_precision: Precision = DOUBLE
    tol: float = 1e-4
    max_iter: int = 20
    marking_theta: float = 0.5
    je_mode: str = "exact"          # "exact" uses u_exact; "estimated" uses the dual
    min_volume_guard: float = MIN_VOLUME_GUARD
    initial_refines: int = 2
    indicator: str = "dwr"          # "dwr" | "residual"
    dual_method: str = "mpdwr"      # "mpdwr" | "approach1" | "approach2"
    track_je: bool = True           # skip goal-error evaluation when False
    solver_tol: float | None = None
    solver_maxit: int | None = None
    post_process: bool = True

    def __post_init__(self):
        self.primal_precision = precision(self.primal_precision)
        self.dual_precision = precision(self.dual_precision)
        if not 0.0 < self.marking_theta < 1.0:
            raise ValueError("marking_theta must lie in (0, 1)")
        if self.je_mode not in ("exact", "estimated"):
            raise ValueError(f"unknown je_mode {self.je_mode!r}")
        if self.indicator not in ("dwr", "residual"):
            raise ValueError(f"unknown indicator {self.indicator!r}")
        if self.dual_method not in ("mpdwr", "approach1", "approach2"):
            raise ValueError(f"unknown dual_method {self.dual_method!r}")


@dataclass
class IterationRecord:
    iteration: int
    n_dofs: int
    n_elements: int
    je: float
    eta_res_total: float
    eta_dwr_total: float
    min_volume: float
    l2: float
    primal_residual: float
    t_primal: float
    t_dual: float
    t_indicator: float  # indicators and marking
    t_refine: float
    primal_precision: str
    dual_precision: str
    t_eval: float = 0.0  # J(e), L2 error and minimum element volume
    # PCG iterations of the iteration's dual: 0 when none was solved
    # (t_dual == 0) or when its prolonged start already met the tolerance
    dual_iterations: int = 0
    primal_iterations: int = 0  # PCG iterations of the iteration's primal


@dataclass
class AdaptHistory:
    records: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    post_process_time: float | None = None
    post_l2: float | None = None
    post_eval_time: float | None = None  # the post-processed L2 error
    post_iterations: int | None = None
    switched_at: int | None = None

    CSV_COLUMNS = (
        "iter,ndofs,nelems,je,eta_total,min_vol,"
        "t_primal,t_dual,t_indicator,t_refine,primal_prec,dual_prec,"
        "l2,primal_residual,t_eval,dual_iters,primal_iters"
    )

    def csv_rows(self):
        rows = []
        for r in self.records:
            eta = r.eta_dwr_total if r.eta_dwr_total > 0 else r.eta_res_total
            rows.append(
                f"{r.iteration},{r.n_dofs},{r.n_elements},{r.je:.9e},{eta:.9e},"
                f"{r.min_volume:.9e},{r.t_primal:.6e},{r.t_dual:.6e},"
                f"{r.t_indicator:.6e},{r.t_refine:.6e},"
                f"{r.primal_precision},{r.dual_precision},"
                f"{r.l2:.9e},{r.primal_residual:.9e},{r.t_eval:.6e},{r.dual_iterations},"
                f"{r.primal_iterations}"
            )
        return rows


@dataclass
class Diagnosis:
    volume_flag: bool
    stagnation_flag: bool
    notes: list


def initial_mesh(refines: int = 2) -> meshmod.Mesh:
    m = meshmod.unit_square_template()
    for _ in range(refines):
        m = meshmod.global_refine(m)
    return m


def _solve(mesh, degree, p, rhs, tol=None, maxit=None, x0=None):
    """Assemble at precision p, eliminate boundary conditions, PCG-solve.

    rhs(space) assembles the right-hand side.  The report carries the true
    residual ||F - A x|| evaluated in double; for lower-precision solves it
    floors at the precision's rounding level and grows with the problem
    size, which is what the limit monitor watches.  Raises PCGError.
    """
    space = build_space(mesh, degree, p)
    A = assemble_stiffness(space)
    F = rhs(space)
    A, F = apply_dirichlet(A, F, space.boundary_dofs)
    x, report = pcg(A, F, p, tol=tol, maxit=maxit, x0=x0)
    # A in double on A's own index arrays: only the values are widened
    A64 = sparse.csr_matrix((A.data.astype(np.float64, copy=False), A.indices, A.indptr), shape=A.shape)
    r = F.astype(np.float64, copy=False) - A64 @ x.astype(np.float64, copy=False)
    report.true_residual = float(np.linalg.norm(r))
    return Solution(space, x), report


def solve_primal(mesh, problem: Problem, p, tol=None, maxit=None, x0=None):
    """Assemble, eliminate boundary conditions and PCG-solve the degree-1
    primal.

    Returns (solution, report); x0 is an optional PCG start vector (see
    linsolve.pcg).
    """
    return _solve(mesh, 1, p, lambda space: assemble_load(space, problem.f), tol, maxit, x0)


def _dual(mesh, functional, p, method="mpdwr", tol=None, maxit=None, x0=None):
    """Dual solve by method: "mpdwr" on the same mesh and degree,
    "approach1" on the globally refined mesh, "approach2" at degree 2.

    Returns (solved dual, its restriction to the degree-1 space of mesh,
    report).  The restriction takes the values at the mesh vertices, which
    global refinement and the degree-2 numbering both keep as the leading
    block; for the refined mesh it is exact.  x0, a start vector in the
    degree-1 space of mesh, is lifted to the solve space by the same
    midpoint rule: the refined mesh's new vertices and the degree-2 edge
    DoFs both follow edge_table's edge order.
    """
    solve_mesh = meshmod.global_refine(mesh) if method == "approach1" else mesh
    degree = 2 if method == "approach2" else 1
    if x0 is not None and method != "mpdwr":
        x0 = meshmod.prolong(x0, meshmod.edge_table(mesh).edges)
    w, report = _solve(
        solve_mesh, degree, p, lambda space: assemble_functional(space, functional), tol, maxit, x0
    )
    if method == "mpdwr":
        return w, w, report
    restricted = Solution(build_space(mesh, 1, p), w.coefficients[: mesh.n_vertices].copy())
    return w, restricted, report


def dual_solve_mpdwr(mesh, functional: Functional, p_dual, tol=None, maxit=None):
    """Dual solve on the same mesh, same degree, at the dual precision.

    The stiffness operator is symmetric, so the dual system matrix equals
    the primal one assembled at the dual precision; no re-meshing and no
    DoF renumbering happen here, which is the structural source of the
    indicator-generation speedup.  Returns (solution, report).
    """
    w, _, report = _dual(mesh, functional, p_dual, "mpdwr", tol, maxit)
    return w, report


def dual_solve_approach1(mesh, functional: Functional, tol=None, maxit=None):
    """Classic h-refinement dual in double: solve on a globally refined mesh.

    Returns (fine solution, its nodal restriction to the original mesh).
    """
    w_fine, w_restricted, _ = _dual(mesh, functional, DOUBLE, "approach1", tol, maxit)
    return w_fine, w_restricted


def dual_solve_approach2(mesh, functional: Functional, tol=None, maxit=None):
    """Classic p-refinement dual in double: degree-2 space on the same mesh.

    Returns (quadratic solution, its vertex-value restriction to degree 1).
    """
    w2, w_restricted, _ = _dual(mesh, functional, DOUBLE, "approach2", tol, maxit)
    return w2, w_restricted


def marking(ind, theta: float) -> np.ndarray:
    """Dorfler bulk criterion on squared indicators.

    Returns the smallest element set, taken in descending indicator order
    with ties broken by lower element index, whose squared sum reaches
    theta times the total.  All-zero indicators mark nothing.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    values = ind.values if isinstance(ind, IndicatorField) else np.asarray(ind, dtype=np.float64)
    sq = values**2
    total = sq.sum()
    if total <= 0.0:
        return np.array([], dtype=np.int64)
    order = np.argsort(-sq, kind="stable")
    csum = np.cumsum(sq[order])
    count = int(np.searchsorted(csum, theta * total)) + 1
    return np.sort(order[:count])


def post_process(mesh, problem: Problem, tol=None, maxit=None, u0=None):
    """Final double-precision primal re-solve on the adapted mesh.

    With u0, a lower-precision solution on the same mesh, the degree-1
    double solve is warm-started from it, so it refines u0 instead of
    solving from zero (a u0 of another degree is ignored).  Returns
    (solution, seconds, PCG iterations).
    """
    t0 = time.perf_counter()
    x0 = u0.coefficients if u0 is not None and u0.space.degree == 1 else None
    u, report = solve_primal(mesh, problem, DOUBLE, tol=tol, maxit=maxit, x0=x0)
    return u, time.perf_counter() - t0, report.iterations


def _solve_dual(mesh, functional, cfg, p_dual, tol, x0):
    """Dual weight per the configured method, with its seconds and PCG
    iterations; classical approaches feed the indicator through their
    restriction to the primal space, and x0 is a degree-1 start vector on
    mesh (None: start from zero)."""
    t0 = time.perf_counter()
    _, w, report = _dual(mesh, functional, p_dual, cfg.dual_method, tol, cfg.solver_maxit, x0)
    return w, time.perf_counter() - t0, report.iterations


def _dual_tol(cfg, p_primal, p_dual):
    """Stopping tolerance of the in-loop dual.

    Each solve's own tolerance is cfg.solver_tol or its precision's
    default_tol.  An estimated-mode dual feeds estimate_Je and gets its
    own; in exact mode the dual only weights the marking, through
    ||grad w||_K, and stops at max(sqrt(tol_primal), tol_dual), never
    tighter than its own tolerance.  The root is taken of at most the
    single primal's default_tol (sqrt: 3.4e-3): a half primal's 100 eps
    would give 0.31, which the prolonged start already meets, and marking
    would reuse a dual of an earlier mesh.
    """

    def own(p):
        return cfg.solver_tol if cfg.solver_tol is not None else default_tol(p)

    if cfg.je_mode == "estimated":
        return own(p_dual)
    return max(math.sqrt(min(own(p_primal), default_tol(SINGLE))), own(p_dual))


def _adapt_loop(problem, functional, cfg, mesh=None, pairs=None, switch=None):
    """The adaptive loop of every driver.

    pairs is the precision schedule, a list of (primal, dual) precisions
    (default: cfg's pair).  Before the last pair, a run moves on to the next
    pair when switch(history, k) is true or the volume guard trips; the
    switch takes effect at iteration k + 1, iteration k's dual stays at the
    old pair.  Every dual after the first starts from the previous
    iteration's dual, prolonged onto the refined mesh through
    mesh.vertex_parents, and stops at _dual_tol.  A PCG failure is flagged and stops the run; the
    returned mesh and solution are then those of the last completed primal
    solve.
    """
    pairs = pairs or [(cfg.primal_precision, cfg.dual_precision)]
    if mesh is None:
        mesh = initial_mesh(cfg.initial_refines)
    history = AdaptHistory()
    stage, k, u, dual_start = 0, 0, None, None
    try:
        while True:
            p_primal, p_dual = pairs[stage]
            last_pair = stage == len(pairs) - 1
            t0 = time.perf_counter()
            u, prep = solve_primal(mesh, problem, p_primal, cfg.solver_tol, cfg.solver_maxit)
            t_primal = time.perf_counter() - t0

            w, t_dual, dual_iterations = None, 0.0, 0
            dual_tol = _dual_tol(cfg, p_primal, p_dual)
            if cfg.je_mode == "estimated":
                w, t_dual, dual_iterations = _solve_dual(mesh, functional, cfg, p_dual, dual_tol, dual_start)

            t0 = time.perf_counter()
            if cfg.track_je and cfg.je_mode == "exact":
                je, l2 = _goal_and_l2_errors(functional, problem.u_exact, u)
            else:
                je = estimate_Je(u, w, problem.f) if cfg.track_je else float("nan")
                l2 = l2_error(u, problem.u_exact)
            min_vol = meshmod.min_element_volume(mesh)
            record = IterationRecord(
                iteration=k,
                n_dofs=u.space.n_dofs,
                n_elements=mesh.n_elements,
                je=je,
                eta_res_total=0.0,
                eta_dwr_total=0.0,
                min_volume=min_vol,
                l2=l2,
                primal_residual=prep.true_residual,
                t_primal=t_primal,
                t_dual=t_dual,
                t_indicator=0.0,
                t_refine=0.0,
                primal_precision=p_primal.name,
                dual_precision=p_dual.name,
                t_eval=time.perf_counter() - t0,
                dual_iterations=dual_iterations,
                primal_iterations=prep.iterations,
            )
            history.records.append(record)

            converged = cfg.track_je and abs(je) <= cfg.tol
            if converged and cfg.je_mode == "estimated":
                history.flags.append(
                    f"stopped at iteration {k} on the estimated J(e), which pairs the "
                    f"primal with a dual on the same mesh and so covers only the "
                    f"algebraic error, not the discretisation error"
                )
            guard_tripped = min_vol < cfg.min_volume_guard
            if guard_tripped and last_pair:
                history.flags.append(
                    f"min element volume {min_vol:.3e} below guard "
                    f"{cfg.min_volume_guard:.1e} at iteration {k}"
                )
            if converged or k >= cfg.max_iter or (guard_tripped and last_pair):
                break
            if not last_pair and (guard_tripped or switch(history, k)):
                stage += 1
                history.switched_at = k + 1
                p_next = pairs[stage]
                history.flags.append(
                    f"cascade switch to ({p_next[0].name}, {p_next[1].name}) after iteration {k}"
                )

            if cfg.indicator == "dwr" and w is None:
                w, record.t_dual, record.dual_iterations = _solve_dual(
                    mesh, functional, cfg, p_dual, dual_tol, dual_start
                )

            t0 = time.perf_counter()
            ind = res = residual_indicator(u, problem.f)
            record.eta_res_total = res.total
            if cfg.indicator == "dwr":
                ind = dwr_indicator(res, w, "gradient")
                record.eta_dwr_total = ind.total
            marked = marking(ind, cfg.marking_theta)
            record.t_indicator = time.perf_counter() - t0
            if marked.size == 0:
                history.flags.append(f"all-zero indicator at iteration {k}; stopping")
                break
            t0 = time.perf_counter()
            mesh = meshmod.bisect_marked(mesh, marked)
            # the next dual starts from this one; only the prolonged vector
            # is kept, not the old mesh and space
            dual_start = None
            if w is not None:
                dual_start = meshmod.prolong(w.coefficients, mesh.vertex_parents[w.space.n_dofs :])
            record.t_refine = time.perf_counter() - t0
            k += 1
    except PCGError as err:
        history.flags.append(f"PCG failure in adaptive iteration {k} ({err}); stopping")
        if u is not None:
            mesh = u.space.mesh

    if cfg.post_process and u is not None and u.precision is not DOUBLE:
        # warm-started double re-solve of the final primal
        u, history.post_process_time, history.post_iterations = post_process(
            mesh, problem, cfg.solver_tol, cfg.solver_maxit, u0=u
        )
        t0 = time.perf_counter()
        history.post_l2 = l2_error(u, problem.u_exact)
        history.post_eval_time = time.perf_counter() - t0
    return mesh, u, history


def mpdwr_adapt(problem, functional, cfg: AdaptConfig, mesh=None):
    """Adaptive refinement driven by the mixed-precision DWR indicator.

    Returns (final mesh, final solution, history).  When the primal runs
    below double precision the returned solution is the post-processed
    double re-solve on the final mesh (disable with cfg.post_process).
    """
    if cfg.indicator != "dwr":
        raise ValueError("mpdwr_adapt requires cfg.indicator == 'dwr'")
    return _adapt_loop(problem, functional, cfg, mesh)


def residual_adapt(problem, functional, cfg: AdaptConfig, mesh=None):
    """Classic residual-indicator twin of the adaptive loop (no dual)."""
    cfg = dataclasses.replace(cfg, indicator="residual", je_mode="exact", post_process=False)
    return _adapt_loop(problem, functional, cfg, mesh)


def revised_mpdwr(problem, functional, cfg: AdaptConfig, mesh=None):
    """Revised precision split: primal in double, dual in single.

    The primal already carries full precision, so no post-processing phase
    runs or is recorded.
    """
    if cfg.primal_precision is not DOUBLE or cfg.dual_precision is not SINGLE:
        raise ValueError("revised_mpdwr requires primal double and dual single")
    return _adapt_loop(problem, functional, cfg, mesh)


def _l2_stalled(records) -> bool:
    """The L2 error fell by less than 2 percent in total over the last three
    records (a converging run drops by tens of percent per step)."""
    return records[-1].l2 > 0.98 * records[-3].l2


def limit_monitor(history: AdaptHistory) -> Diagnosis:
    """Diagnose precision breakdown from an adaptation history.

    Flags (a) any recorded minimum element volume below MIN_VOLUME_GUARD
    and (b) stagnation of the single-precision primal over the last three
    records: either the L2 error stalled (_l2_stalled) or the true
    algebraic residual ||F - A x|| did not decrease at all; the residual
    floors at the precision's rounding level and then grows with problem
    size, which is the breakdown signature.
    """
    records = history.records
    if len(records) < 3:
        raise ValueError("limit_monitor needs at least 3 recorded iterations")
    notes = []
    min_vol = min(r.min_volume for r in records)
    volume_flag = min_vol < MIN_VOLUME_GUARD
    if volume_flag:
        notes.append(f"min element volume {min_vol:.3e} below {MIN_VOLUME_GUARD:.1e}")

    stagnation_flag = False
    last = records[-3:]
    if last[-1].primal_precision == "single":
        e0, e2 = last[0].l2, last[2].l2
        if _l2_stalled(last):
            stagnation_flag = True
            notes.append(
                f"single-precision primal error stagnant over last 3 iterations "
                f"({e0:.3e} -> {e2:.3e})"
            )
        r0, r2 = last[0].primal_residual, last[2].primal_residual
        if np.isfinite(r0) and r2 >= r0:
            stagnation_flag = True
            notes.append(
                f"single-precision primal residual non-decreasing over last 3 "
                f"iterations ({r0:.3e} -> {r2:.3e})"
            )
    return Diagnosis(volume_flag=volume_flag, stagnation_flag=stagnation_flag, notes=notes)


def precision_cascade(problem, functional, cfg: AdaptConfig, mesh=None, force_switch_at=None):
    """Half/single run that switches to single/double when the half stage
    stalls.

    Starts at (half, single) and runs the iterations after the volume guard
    trips, or after the half primal's L2 error stalls over the last three
    records (_l2_stalled), at (single, double); force_switch_at forces the
    switch after that iteration, for testing.  The switch point is recorded
    in the history.
    """

    def switch(history, k):
        # the loop switches on the volume guard itself; limit_monitor's
        # stagnation rule watches a single primal, the stage-0 primal is
        # half, so the stall is read off the error trail directly
        if force_switch_at is not None and k >= force_switch_at:
            return True
        return len(history.records) >= 3 and _l2_stalled(history.records)

    pairs = [(HALF, SINGLE), (SINGLE, DOUBLE)]
    return _adapt_loop(problem, functional, cfg, mesh, pairs, switch)
