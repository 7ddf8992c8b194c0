"""The benchmark's workloads: inputs from a seed, one timed run, output checks.

Each workload is a closed loop with one client: the next run starts when the
previous one has ended.  ``run`` is the timed part; ``evaluate`` checks the
outputs and derives the end-to-end values afterwards, untimed.  All calls go
through module attributes (``driver.mpdwr_adapt``, not a local name), so the
wrappers a :class:`tracing.Tracer` installs see them.

Seed 0 keeps the canonical numbering.  Other seeds relabel the vertices and
elements of the initial mesh by a seeded permutation that keeps each
element's local vertex order, so refinement edges, and with them the
geometry of every refined mesh, are unchanged; only the numbering, and
through it memory order, tie-breaking in marking and summation order,
differs.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from mpdwr import driver, estimator, fespace, linsolve, problems
from mpdwr import mesh as meshmod
from mpdwr.scalar import precision

SOLVER_TOL = 2e-6  # the acceptance suite's working tolerance for adaptive runs


@dataclass
class Outcome:
    """What one run produced, reduced to checks and end-to-end values."""

    trail: list                 # bit-exact per-iteration (or per-solve) values
    checks: list                # (name, passed, detail)
    final_dofs: int
    iterations: int = 0
    step_s: list = field(default_factory=list)  # per-iteration or per-solve times
    final_abs_je: float | None = None
    dual_cost_ratio: float | None = None
    l2_ratio_half: float | None = None


def relabel(m: meshmod.Mesh, seed: int) -> meshmod.Mesh:
    """Seeded relabelling of vertices and elements; seed 0 is the identity."""
    if seed == 0:
        return m
    rng = np.random.default_rng(seed)
    new_vertex = rng.permutation(m.n_vertices)   # old vertex i becomes new_vertex[i]
    old_element = rng.permutation(m.n_elements)  # new element k was old_element[k]
    vertices = np.empty_like(m.vertices)
    vertices[new_vertex] = m.vertices
    return meshmod.Mesh(
        vertices=vertices,
        elements=new_vertex[m.elements][old_element],
        boundary_edges=new_vertex[m.boundary_edges],
        generation=m.generation[old_element],
        domain_area=m.domain_area,
    )


def _hex(x) -> str:
    return float(x).hex()


def _adaptive_trail(history) -> list:
    return [(r.n_dofs, _hex(r.je), _hex(r.l2)) for r in history.records]


def _steps(history) -> list:
    return [r.t_primal + r.t_dual + r.t_indicator + r.t_refine for r in history.records]


class GoalE4J3:
    """The paper's headline run: MP-DWR on e4/j3 to |J(e)| <= 1e-4."""

    name = "goal_e4j3"
    min_runs = 1
    config = dict(
        tol=1e-4, max_iter=60, marking_theta=0.5, min_volume_guard=0.0,
        solver_tol=SOLVER_TOL, post_process=True,
    )

    def make_inputs(self, seed):
        return dict(
            problem=problems.get_problem("e4"),
            functional=problems.get_functional("j3"),
            mesh=relabel(driver.initial_mesh(2), seed),
            cfg=driver.AdaptConfig(**self.config),
        )

    def run(self, inputs, max_iter=None):
        cfg = inputs["cfg"]
        if max_iter is not None:
            cfg = dataclasses.replace(cfg, max_iter=max_iter, post_process=False)
        return driver.mpdwr_adapt(inputs["problem"], inputs["functional"], cfg, mesh=inputs["mesh"])

    def trail(self, raw):
        return _adaptive_trail(raw[2])

    def evaluate(self, inputs, raw):
        hist = raw[2]
        last = hist.records[-1]
        je = abs(last.je)
        post_ok = hist.post_l2 is not None and hist.post_l2 <= last.l2 * (1 + 1e-9)
        checks = [
            ("goal reached: |J(e)| <= 1e-4", je <= 1e-4, f"|J(e)|={je:.4e} at {last.n_dofs} DoFs"),
            ("post-processed L2 <= single L2*(1+1e-9)", post_ok, f"post={hist.post_l2!r} single={last.l2!r}"),
        ]
        return Outcome(self.trail(raw), checks, last.n_dofs, len(hist.records), _steps(hist), je)


class DeepE2J1:
    """Residual-driven deep refinement on e2/j1 (acceptance criterion 10)."""

    name = "deep_e2j1"
    min_runs = 1
    config = dict(
        tol=1e-30, max_iter=10, marking_theta=0.6, min_volume_guard=0.0,
        post_process=False, solver_tol=SOLVER_TOL, track_je=False,
        initial_refines=5, indicator="residual", primal_precision="single",
    )

    def make_inputs(self, seed):
        cfg = driver.AdaptConfig(**self.config)
        return dict(
            problem=problems.get_problem("e2"),
            functional=problems.get_functional("j1"),
            mesh=relabel(driver.initial_mesh(cfg.initial_refines), seed),
            cfg=cfg,
        )

    def run(self, inputs, max_iter=None):
        cfg = inputs["cfg"]
        if max_iter is not None:
            cfg = dataclasses.replace(cfg, max_iter=max_iter)
        return driver.residual_adapt(inputs["problem"], inputs["functional"], cfg, mesh=inputs["mesh"])

    def trail(self, raw):
        return _adaptive_trail(raw[2])

    def evaluate(self, inputs, raw):
        hist = raw[2]
        diag = driver.limit_monitor(hist)
        checks = [
            (
                "limit monitor raises stagnation and volume flags",
                diag.stagnation_flag and diag.volume_flag,
                f"stagnation={diag.stagnation_flag} volume={diag.volume_flag}",
            )
        ]
        last = hist.records[-1]
        return Outcome(self.trail(raw), checks, last.n_dofs, len(hist.records), _steps(hist))


@dataclass
class _Solve:
    level: int
    prec: str
    n_dofs: int
    solution: object   # None when the solve failed
    report: object
    seconds: float


class FixedMesh:
    """e3 on uniform meshes at levels 4-6, three precisions, plus the
    level-5 comparison of the three dual strategies (criterion 7)."""

    name = "fixed_mesh"
    min_runs = 2  # the reproducibility check compares two full runs
    levels = (4, 5, 6)
    precisions = ("half", "single", "double")
    dual_level = 5
    dual_rounds = 2
    ratio_levels = (4, 5)

    def make_inputs(self, seed):
        return dict(
            problem=problems.get_problem("e3"),
            functional=problems.get_functional("j1"),
            mesh=relabel(driver.initial_mesh(2), seed),
        )

    def run(self, inputs):
        prob, func = inputs["problem"], inputs["functional"]
        m = inputs["mesh"]
        solves, duals = [], None
        for level in range(3, self.levels[-1] + 1):
            m = meshmod.global_refine(m)
            if level not in self.levels:
                continue
            for prec in self.precisions:
                t0 = time.perf_counter()
                try:
                    u, report = driver.solve_primal(m, prob, prec)
                except linsolve.PCGError as err:
                    u, report = None, err.report
                solves.append(_Solve(level, prec, m.n_vertices, u, report, time.perf_counter() - t0))
            if level == self.dual_level:
                u_single = next(s.solution for s in solves if s.level == level and s.prec == "single")
                duals = self._dual_comparison(m, prob, func, u_single)
        return solves, duals

    def _dual_comparison(self, m, prob, func, u_single):
        """Dual solve plus DWR indicator by each strategy, timed separately.

        The strategies take turns for ``dual_rounds`` rounds, so a slow
        stretch of the machine hits all three alike; a strategy's entry holds
        its last dual and report and the time of every round.
        """
        res = estimator.residual_indicator(u_single, prob.f)
        strategies = (
            ("h_refined", lambda: (driver.dual_solve_approach1(m, func)[1], None)),
            ("p_refined", lambda: (driver.dual_solve_approach2(m, func)[1], None)),
            ("mpdwr", lambda: driver.dual_solve_mpdwr(m, func, "double")),
        )
        out = {name: (None, None, []) for name, _ in strategies}
        for _ in range(self.dual_rounds):
            for name, solve in strategies:
                t0 = time.perf_counter()
                w, report = solve()
                estimator.dwr_indicator(res, w, "gradient")
                out[name] = (w, report, out[name][2] + [time.perf_counter() - t0])
        return out

    def trail(self, raw):
        solves, duals = raw
        trail = [
            (s.level, s.prec, s.n_dofs, s.report.iterations,
             "failed" if s.solution is None else _hex(np.sum(s.solution.coefficients, dtype=np.float64)))
            for s in solves
        ]
        trail += [(name, w.space.n_dofs, _hex(np.sum(w.coefficients, dtype=np.float64)))
                  for name, (w, _, _) in duals.items()]
        return trail

    def evaluate(self, inputs, raw):
        solves, duals = raw
        prob = inputs["problem"]
        checks = []
        l2 = {}
        for s in solves:
            if s.solution is None:
                continue
            dtype = s.solution.coefficients.dtype
            ok = dtype == precision(s.prec).dtype and s.report.precision is precision(s.prec)
            checks.append((f"level {s.level} {s.prec} solve stays at {s.prec}", ok,
                           f"dtype={dtype} report={s.report.precision.name}"))
            if s.level in self.ratio_levels:
                l2[s.level, s.prec] = fespace.l2_error(s.solution, prob.u_exact)
        for name, (w, report, _) in duals.items():
            dtype = w.coefficients.dtype
            ok = dtype == np.float64 and (report is None or report.precision.name == "double")
            checks.append((f"{name} dual stays at double", ok, f"dtype={dtype}"))

        seconds = {name: statistics.median(t) for name, (_, _, t) in duals.items()}
        return Outcome(
            trail=self.trail(raw),
            checks=checks,
            final_dofs=solves[-1].n_dofs,
            step_s=[s.seconds for s in solves],
            dual_cost_ratio=seconds["mpdwr"] / min(seconds["h_refined"], seconds["p_refined"]),
            l2_ratio_half=max(l2[lv, "half"] / l2[lv, "double"] for lv in self.ratio_levels),
        )


WORKLOADS = {w.name: w for w in (GoalE4J3(), FixedMesh(), DeepE2J1())}
