"""Adaptive loop: primal and dual solved on the same mesh at two precisions.

The loop follows the seven steps: build the space at the primal precision,
solve the primal, evaluate the goal error, stop or solve the dual at the
dual precision on the identical mesh and DoF numbering, combine into the
dual-weighted indicator, mark and bisect.  A residual-indicator twin of the
loop serves as the classic baseline, and two conventional dual-solve
strategies (globally refined mesh, higher polynomial degree) are provided
for cost comparisons.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshmod
from .assembly import apply_dirichlet, assemble_functional, assemble_load, assemble_stiffness
from .estimator import IndicatorField, dwr_indicator, estimate_Je, residual_indicator
from .fespace import Solution, build_space, l2_error
from .linsolve import pcg
from .problems import Functional, Problem, functional_error
from .scalar import DOUBLE, HALF, SINGLE, Precision, precision


@dataclass
class AdaptConfig:
    primal_precision: Precision = SINGLE
    dual_precision: Precision = DOUBLE
    degree: int = 1
    tol: float = 1e-4
    max_iter: int = 20
    marking_theta: float = 0.5
    je_mode: str = "exact"          # "exact" uses u_exact; "estimated" uses the dual
    min_volume_guard: float = 1e-6
    initial_refines: int = 2
    indicator: str = "dwr"          # "dwr" | "residual"
    dwr_weight: str = "gradient"    # local dual weight: "gradient" | "value"
    dual_method: str = "mpdwr"      # "mpdwr" | "approach1" | "approach2"
    bisections_per_iteration: int = 1
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
        if self.dwr_weight not in ("gradient", "value"):
            raise ValueError(f"unknown dwr_weight {self.dwr_weight!r}")
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
    t_indicator: float
    t_refine: float
    primal_precision: str
    dual_precision: str
    t_eval: float = 0.0  # J(e), L2 error and minimum element volume


@dataclass
class AdaptHistory:
    records: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    post_process_time: float | None = None
    post_l2: float | None = None
    post_iterations: int | None = None
    switched_at: int | None = None

    CSV_COLUMNS = (
        "iter,ndofs,nelems,je,eta_total,min_vol,"
        "t_primal,t_dual,t_indicator,t_refine,primal_prec,dual_prec,"
        "l2,primal_residual,t_eval"
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
                f"{r.l2:.9e},{r.primal_residual:.9e},{r.t_eval:.6e}"
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


def solve_primal(mesh, problem: Problem, p, degree=1, tol=None, maxit=None, x0=None):
    """Assemble, eliminate boundary conditions and PCG-solve the primal.

    The report carries the true residual ||F - A x|| evaluated in double;
    for lower-precision solves it floors at the precision's rounding level
    and grows with the problem size, which is what the limit monitor
    watches.  x0 is an optional PCG start vector (see linsolve.pcg).
    """
    space = build_space(mesh, degree, p)
    A = assemble_stiffness(space)
    F = assemble_load(space, problem.f)
    A, F = apply_dirichlet(A, F, space.boundary_dofs)
    x, report = pcg(A, F, p, tol=tol, maxit=maxit, x0=x0)
    r = F.astype(np.float64) - A.astype(np.float64) @ x.astype(np.float64)
    report.true_residual = float(np.linalg.norm(r))
    return Solution(space, x), report


def dual_solve_mpdwr(mesh, functional: Functional, p_dual, tol=None, maxit=None):
    """Dual solve on the same mesh, same degree, at the dual precision.

    The stiffness operator is symmetric, so the dual system matrix equals
    the primal one assembled at the dual precision; no re-meshing and no
    DoF renumbering happen here, which is the structural source of the
    indicator-generation speedup.
    """
    space = build_space(mesh, 1, p_dual)
    A = assemble_stiffness(space)
    Jvec = assemble_functional(space, functional)
    A, Jvec = apply_dirichlet(A, Jvec, space.boundary_dofs)
    x, report = pcg(A, Jvec, p_dual, tol=tol, maxit=maxit)
    return Solution(space, x), report


def dual_solve_approach1(mesh, functional: Functional, p=DOUBLE, tol=None, maxit=None):
    """Classic h-refinement dual: solve on a globally refined mesh.

    Returns (fine solution, its nodal restriction to the original mesh).
    The restriction is exact because global refinement keeps the coarse
    vertices as the leading block of the fine numbering.
    """
    fine = meshmod.global_refine(mesh)
    space = build_space(fine, 1, p)
    A = assemble_stiffness(space)
    Jvec = assemble_functional(space, functional)
    A, Jvec = apply_dirichlet(A, Jvec, space.boundary_dofs)
    x, report = pcg(A, Jvec, p, tol=tol, maxit=maxit)
    w_fine = Solution(space, x)
    coarse_space = build_space(mesh, 1, p)
    w_restricted = Solution(coarse_space, x[: mesh.n_vertices].copy())
    return w_fine, w_restricted


def dual_solve_approach2(mesh, functional: Functional, p=DOUBLE, tol=None, maxit=None):
    """Classic p-refinement dual: degree-2 space on the same mesh.

    Returns (quadratic solution, its vertex-value restriction to degree 1).
    """
    space = build_space(mesh, 2, p)
    A = assemble_stiffness(space)
    Jvec = assemble_functional(space, functional)
    A, Jvec = apply_dirichlet(A, Jvec, space.boundary_dofs)
    x, report = pcg(A, Jvec, p, tol=tol, maxit=maxit)
    w2 = Solution(space, x)
    p1_space = build_space(mesh, 1, p)
    w_restricted = Solution(p1_space, x[: mesh.n_vertices].copy())
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


def _post_process_into(history, mesh, problem, cfg, u):
    """Warm-started double post-process of the final primal u; records the
    time, PCG iterations and L2 error in the history."""
    u_pp, history.post_process_time, history.post_iterations = post_process(
        mesh, problem, cfg.solver_tol, cfg.solver_maxit, u0=u
    )
    history.post_l2 = l2_error(u_pp, problem.u_exact)
    return u_pp


def _solve_dual(mesh, functional, cfg, p_dual):
    """Dual weight per the configured method; classical approaches feed the
    indicator through their restriction to the primal space."""
    if cfg.dual_method == "approach1":
        _, w = dual_solve_approach1(mesh, functional, p_dual, cfg.solver_tol, cfg.solver_maxit)
    elif cfg.dual_method == "approach2":
        _, w = dual_solve_approach2(mesh, functional, p_dual, cfg.solver_tol, cfg.solver_maxit)
    else:
        w, _ = dual_solve_mpdwr(mesh, functional, p_dual, cfg.solver_tol, cfg.solver_maxit)
    return w


def _one_iteration(mesh, problem, functional, cfg, k, p_primal, p_dual):
    """Run one adaptive iteration; returns the record plus loop state."""
    t0 = time.perf_counter()
    u, prep = solve_primal(mesh, problem, p_primal, cfg.degree, cfg.solver_tol, cfg.solver_maxit)
    t_primal = time.perf_counter() - t0

    w = None
    t_dual = 0.0
    if cfg.je_mode == "estimated" or cfg.indicator == "dwr":
        need_dual_now = cfg.je_mode == "estimated"
        if need_dual_now:
            t0 = time.perf_counter()
            w = _solve_dual(mesh, functional, cfg, p_dual)
            t_dual = time.perf_counter() - t0

    t0 = time.perf_counter()
    if not cfg.track_je:
        je = float("nan")
    elif cfg.je_mode == "exact":
        je = functional_error(functional, problem.u_exact, u)
    else:
        je = estimate_Je(u, w, problem.f)
    l2 = l2_error(u, problem.u_exact)
    min_vol = meshmod.min_element_volume(mesh)
    t_eval = time.perf_counter() - t0

    stop = (cfg.track_je and abs(je) <= cfg.tol) or k >= cfg.max_iter
    guard_tripped = min_vol < cfg.min_volume_guard
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
        t_eval=t_eval,
    )
    return record, u, w, stop, guard_tripped


def _adapt_loop(problem, functional, cfg, mesh=None):
    p_primal, p_dual = cfg.primal_precision, cfg.dual_precision
    if mesh is None:
        mesh = initial_mesh(cfg.initial_refines)
    history = AdaptHistory()
    u = None
    k = 0
    while True:
        record, u, w, stop, guard_tripped = _one_iteration(
            mesh, problem, functional, cfg, k, p_primal, p_dual
        )
        if guard_tripped:
            history.flags.append(
                f"min element volume {record.min_volume:.3e} below guard "
                f"{cfg.min_volume_guard:.1e} at iteration {k}"
            )
        if stop or guard_tripped:
            history.records.append(record)
            break

        if cfg.indicator == "dwr" and w is None:
            t0 = time.perf_counter()
            w = _solve_dual(mesh, functional, cfg, p_dual)
            record.t_dual = time.perf_counter() - t0

        t0 = time.perf_counter()
        res = residual_indicator(u, problem.f)
        record.eta_res_total = res.total
        if cfg.indicator == "dwr":
            ind = dwr_indicator(res, w, cfg.dwr_weight)
            record.eta_dwr_total = ind.total
        else:
            ind = res
        record.t_indicator = time.perf_counter() - t0

        marked = marking(ind, cfg.marking_theta)
        if marked.size == 0:
            history.flags.append(f"all-zero indicator at iteration {k}; stopping")
            history.records.append(record)
            break
        t0 = time.perf_counter()
        mesh = meshmod.bisect_marked(mesh, marked, cfg.bisections_per_iteration)
        record.t_refine = time.perf_counter() - t0
        history.records.append(record)
        k += 1

    if cfg.post_process and p_primal is not DOUBLE:
        u = _post_process_into(history, mesh, problem, cfg, u)
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


def limit_monitor(history: AdaptHistory, guard: float = 1e-6) -> Diagnosis:
    """Diagnose precision breakdown from an adaptation history.

    Flags (a) any recorded minimum element volume below the guard and
    (b) stagnation of the single-precision primal over the last three
    records: either the L2 error decreased by less than 2 percent in total
    (a converging run drops by tens of percent per step) or the true
    algebraic residual ||F - A x|| did not decrease at all; the residual
    floors at the precision's rounding level and then grows with problem
    size, which is the breakdown signature.
    """
    records = history.records
    if len(records) < 3:
        raise ValueError("limit_monitor needs at least 3 recorded iterations")
    notes = []
    min_vol = min(r.min_volume for r in records)
    volume_flag = min_vol < guard
    if volume_flag:
        notes.append(f"min element volume {min_vol:.3e} below {guard:.1e}")

    stagnation_flag = False
    last = records[-3:]
    if last[-1].primal_precision == "single":
        e0, e2 = last[0].l2, last[2].l2
        if e2 > 0.98 * e0:
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
    """Half/single run that switches to single/double when the monitor trips.

    Starts at (half, single); once limit_monitor flags stagnation or the
    volume guard (or at the forced iteration, for testing), the remaining
    iterations run at (single, double).  The switch point is recorded in
    the history.
    """
    if mesh is None:
        mesh = initial_mesh(cfg.initial_refines)
    pairs = [(HALF, SINGLE), (SINGLE, DOUBLE)]
    stage = 0
    history = AdaptHistory()
    u = None
    k = 0
    while True:
        p_primal, p_dual = pairs[stage]
        stage_cfg = dataclasses.replace(
            cfg, primal_precision=p_primal, dual_precision=p_dual
        )
        record, u, w, stop, guard_tripped = _one_iteration(
            mesh, problem, functional, stage_cfg, k, p_primal, p_dual
        )
        history.records.append(record)
        if stop:
            break
        if guard_tripped and stage == 1:
            history.flags.append(
                f"min element volume below guard at iteration {k}; stopping"
            )
            break

        if stage == 0:
            trip = force_switch_at is not None and k >= force_switch_at
            if not trip and len(history.records) >= 3:
                diag = limit_monitor(history, cfg.min_volume_guard)
                # at stage 0 the primal is half, not single; apply the same
                # stagnation rule to the recorded error trail directly
                last = history.records[-3:]
                half_stalled = last[-1].l2 > 0.98 * last[0].l2
                trip = diag.volume_flag or half_stalled
            if guard_tripped:
                trip = True
            if trip:
                stage = 1
                history.switched_at = k + 1
                history.flags.append(f"cascade switch to (single, double) after iteration {k}")

        if w is None:
            w, _ = dual_solve_mpdwr(mesh, functional, p_dual, stage_cfg.solver_tol, stage_cfg.solver_maxit)
        res = residual_indicator(u, problem.f)
        record.eta_res_total = res.total
        ind = dwr_indicator(res, w, cfg.dwr_weight)
        record.eta_dwr_total = ind.total
        marked = marking(ind, cfg.marking_theta)
        if marked.size == 0:
            history.flags.append(f"all-zero indicator at iteration {k}; stopping")
            break
        mesh = meshmod.bisect_marked(mesh, marked, cfg.bisections_per_iteration)
        k += 1

    if history.records[-1].primal_precision != "double" and cfg.post_process:
        u = _post_process_into(history, mesh, problem, cfg, u)
    return mesh, u, history
