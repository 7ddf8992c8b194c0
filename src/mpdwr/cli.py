"""Command-line experiments: orthogonality tables, adaptive runs, dual-solve
timing, whole-simulation timing, and the precision-limit study.

Every command writes CSV with a metadata comment line (precision pair,
quadrature degrees, solver tolerance, version) and, where a figure helps,
a hand-emitted log-log SVG.  Timing columns aside, reruns are bit-identical.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import mesh as meshmod
from .assembly import apply_dirichlet, assemble_load, assemble_stiffness
from .driver import (
    AdaptConfig,
    dual_solve_approach1,
    dual_solve_approach2,
    dual_solve_mpdwr,
    initial_mesh,
    limit_monitor,
    mpdwr_adapt,
    residual_adapt,
    revised_mpdwr,
    solve_primal,
)
from .estimator import dwr_indicator, galerkin_probe, residual_indicator
from .fespace import ASSEMBLY_DEGREE, EVALUATION_DEGREE, build_space, l2_error
from .problems import get_functional, get_problem
from .scalar import precision


def _meta_line(pair: str, solver_tol) -> str:
    tol = "100*eps" if solver_tol is None else f"{solver_tol:g}"
    return (
        f"# precision_pair={pair}, quad_assembly={ASSEMBLY_DEGREE}, "
        f"quad_eval={EVALUATION_DEGREE}, solver_tol={tol}, version={__version__}"
    )


def _write_csv(path: Path, meta: str, header: str, rows, trailer=()):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(meta + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
        for line in trailer:
            fh.write("# " + line + "\n")
    click.echo(f"wrote {path}")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_loglog(path: Path, series, title, xlabel, ylabel):
    """Hand-emitted log-log plot: axes, decade ticks, one polyline per series."""
    W, H, ml, mr, mt, mb = 640, 480, 70, 20, 40, 55
    pts_all = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if x > 0 and y > 0]
    lx = [np.log10(x) for x, _ in pts_all]
    ly = [np.log10(y) for _, y in pts_all]
    x0, x1 = min(lx) - 0.1, max(lx) + 0.1
    y0, y1 = min(ly) - 0.2, max(ly) + 0.2

    def sx(v):
        return ml + (np.log10(v) - x0) / (x1 - x0) * (W - ml - mr)

    def sy(v):
        return H - mb - (np.log10(v) - y0) / (y1 - y0) * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>',
        f'<text x="{(ml+W-mr)/2:.0f}" y="{H-12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{(mt+H-mb)/2:.0f}" font-size="12" '
        f'transform="rotate(-90 16 {(mt+H-mb)/2:.0f})" text-anchor="middle">{ylabel}</text>',
    ]
    for d in range(int(np.floor(x0)), int(np.ceil(x1)) + 1):
        if x0 <= d <= x1:
            px = ml + (d - x0) / (x1 - x0) * (W - ml - mr)
            parts.append(f'<line x1="{px:.1f}" y1="{H-mb}" x2="{px:.1f}" y2="{H-mb+5}" stroke="black"/>')
            parts.append(f'<text x="{px:.1f}" y="{H-mb+20}" text-anchor="middle" font-size="11">1e{d}</text>')
    for d in range(int(np.floor(y0)), int(np.ceil(y1)) + 1):
        if y0 <= d <= y1:
            py = H - mb - (d - y0) / (y1 - y0) * (H - mt - mb)
            parts.append(f'<line x1="{ml-5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>')
            parts.append(f'<text x="{ml-8}" y="{py+4:.1f}" text-anchor="end" font-size="11">1e{d}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys) if x > 0 and y > 0
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly_ = mt + 16 + 16 * i
        parts.append(f'<line x1="{W-mr-150}" y1="{ly_}" x2="{W-mr-120}" y2="{ly_}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{W-mr-114}" y="{ly_+4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts))
    click.echo(f"wrote {path}")


def _parse_pair(pair: str):
    try:
        a, b = pair.split(":")
        return precision(a), precision(b)
    except ValueError:
        raise click.BadParameter(f"expected <primal>:<dual>, got {pair!r}")


@click.group()
def main():
    """Mixed-precision DWR experiments for the 2D Poisson problem."""


@main.command()
@click.option("--problem", "pname", default="e1", type=click.Choice(["e1", "e2", "e3"]))
@click.option("--levels", default=4, show_default=True, help="Global refinement levels.")
@click.option("--start-refines", default=2, show_default=True)
@click.option("--out", default="out", show_default=True, type=click.Path(path_type=Path))
@click.option("--tol", "solver_tol", default=None, type=float, help="Solver tolerance override.")
@click.option("--maxit", default=None, type=int)
@click.option("--dump-matrix", default=None, type=click.Path(path_type=Path))
def ortho(pname, levels, start_refines, out, solver_tol, maxit, dump_matrix):
    """Galerkin-orthogonality table: same- and mixed-precision probes."""
    prob = get_problem(pname)
    mesh = initial_mesh(start_refines - 1)
    rows = []
    data = []
    for _ in range(levels):
        mesh = meshmod.global_refine(mesh)
        u_dd, _ = solve_primal(mesh, prob, "double", tol=solver_tol, maxit=maxit)
        u_f, _ = solve_primal(mesh, prob, "single", tol=solver_tol, maxit=maxit)
        same = galerkin_probe(u_dd, u_dd, prob.f)
        mixed = galerkin_probe(u_dd, u_f, prob.f)
        l2 = l2_error(u_dd, prob.u_exact)
        data.append((u_dd.space.n_dofs, l2, same, mixed))
        rows.append(f"{u_dd.space.n_dofs},{l2:.6e},{same:.6e},{mixed:.6e}")

    same_mag = [abs(d[2]) for d in data]
    mixed_mag = [abs(d[3]) for d in data]
    l2s = [d[1] for d in data]
    decreasing = all(same_mag[i + 1] < same_mag[i] for i in range(len(same_mag) - 1))
    separation = mixed_mag[-1] >= 1e3 * same_mag[-1]
    if len(data) >= 2:
        rate = np.polyfit(np.log([d[0] for d in data]), np.log(l2s), 1)[0] * -2
    else:
        rate = float("nan")
    verdict = (
        f"trend {'PASS' if decreasing and separation else 'FAIL'}: "
        f"probe_same strictly decreasing={decreasing}, "
        f"mixed/same separation={mixed_mag[-1]/same_mag[-1]:.1e}, L2 rate~{rate:.2f}"
    )
    click.echo(verdict)
    _write_csv(
        out / f"ortho_{pname}.csv",
        _meta_line("double:single", solver_tol),
        "dofs,l2_error,probe_same_precision,probe_mixed",
        rows,
        trailer=[verdict],
    )
    if dump_matrix is not None:
        import scipy.io

        space = build_space(mesh, 1, "double")
        A = assemble_stiffness(space)
        A, _ = apply_dirichlet(A, assemble_load(space, prob.f), space.boundary_dofs)
        Path(dump_matrix).parent.mkdir(parents=True, exist_ok=True)
        scipy.io.mmwrite(str(dump_matrix), A)
        click.echo(f"wrote {dump_matrix}")


@main.command()
@click.option("--problem", "pname", default="e3", type=click.Choice(["e1", "e2", "e3", "e4"]))
@click.option("--functional", "jname", default="j2", type=click.Choice(["j1", "j2", "j3"]))
@click.option("--theta", default=0.5, show_default=True)
@click.option("--tol-ladder", default="1e-2,1e-3,1e-4", show_default=True)
@click.option("--max-iter", default=60, show_default=True)
@click.option("--precision-pair", default="single:double", show_default=True)
@click.option("--out", default="out", show_default=True, type=click.Path(path_type=Path))
@click.option("--tol", "solver_tol", default=None, type=float)
@click.option("--maxit", default=None, type=int)
@click.option("--dump-mesh", default=None, type=click.Path(path_type=Path))
@click.option("--dump-indicators", default=None, type=click.Path(path_type=Path))
@click.option("--dump-solution", default=None, type=click.Path(path_type=Path))
def adapt(pname, jname, theta, tol_ladder, max_iter, precision_pair, out, solver_tol,
          maxit, dump_mesh, dump_indicators, dump_solution):
    """Goal-driven adaptation: MP-DWR against the residual-indicator twin."""
    prob, func = get_problem(pname), get_functional(jname)
    ladder = sorted((float(t) for t in tol_ladder.split(",")), reverse=True)
    p_primal, p_dual = _parse_pair(precision_pair)
    cfg = AdaptConfig(
        primal_precision=p_primal,
        dual_precision=p_dual,
        tol=ladder[-1],
        max_iter=max_iter,
        marking_theta=theta,
        min_volume_guard=0.0,
        solver_tol=solver_tol,
        solver_maxit=maxit,
        post_process=False,
    )
    runner = revised_mpdwr if p_primal.name == "double" and p_dual.name == "single" else mpdwr_adapt
    mesh_d, u_d, hist_d = runner(prob, func, cfg)
    mesh_r, u_r, hist_r = residual_adapt(prob, func, cfg)

    meta = _meta_line(precision_pair, solver_tol)
    for tag, hist in (("mpdwr", hist_d), ("residual", hist_r)):
        trailer = []
        for tol in ladder:
            hit = next((r for r in hist.records if abs(r.je) <= tol), None)
            trailer.append(
                f"tol {tol:g}: "
                + (f"reached at {hit.n_dofs} dofs (iter {hit.iteration})" if hit else "not reached")
            )
        _write_csv(
            out / f"adapt_{pname}_{jname}_{tag}.csv",
            meta,
            hist_d.CSV_COLUMNS,
            hist.csv_rows(),
            trailer=trailer + hist.flags,
        )
    _svg_loglog(
        out / f"adapt_{pname}_{jname}.svg",
        [
            ("MP-DWR", [r.n_dofs for r in hist_d.records], [abs(r.je) for r in hist_d.records]),
            ("residual", [r.n_dofs for r in hist_r.records], [abs(r.je) for r in hist_r.records]),
        ],
        f"|J(e)| vs DoFs ({pname}/{jname})",
        "DoFs",
        "|J(e)|",
    )
    if dump_mesh is not None:
        meshmod.save_mesh_text(mesh_d, dump_mesh)
        click.echo(f"wrote {dump_mesh}")
    if dump_solution is not None:
        from .fespace import save_solution_text

        save_solution_text(u_d, Path(dump_solution))
        click.echo(f"wrote {dump_solution}")
    if dump_indicators is not None:
        u_last, _ = solve_primal(mesh_d, prob, p_primal, tol=solver_tol, maxit=maxit)
        w_last, _ = dual_solve_mpdwr(mesh_d, func, p_dual, tol=solver_tol, maxit=maxit)
        res = residual_indicator(u_last, prob.f)
        dwr = dwr_indicator(res, w_last, "gradient")
        vols = meshmod.element_areas(mesh_d)
        rows = [
            f"{i},{res.values[i]:.6e},{dwr.values[i]:.6e},{vols[i]:.6e}"
            for i in range(mesh_d.n_elements)
        ]
        _write_csv(Path(dump_indicators), meta, "element_id,eta_res,eta_dwr,volume", rows)


@main.command("compare-dual")
@click.option("--depths", default="2,3,4,5", show_default=True)
@click.option("--reps", default=5, show_default=True)
@click.option("--problem", "pname", default="e3", type=click.Choice(["e1", "e2", "e3"]))
@click.option("--functional", "jname", default="j1", type=click.Choice(["j1", "j2", "j3"]))
@click.option("--out", default="out", show_default=True, type=click.Path(path_type=Path))
@click.option("--tol", "solver_tol", default=None, type=float)
@click.option("--maxit", default=None, type=int)
def compare_dual(depths, reps, pname, jname, out, solver_tol, maxit):
    """Wall time of dual solve + DWR indicator for the three approaches."""
    prob, func = get_problem(pname), get_functional(jname)
    rows = []
    for depth in (int(d) for d in depths.split(",")):
        mesh = initial_mesh(depth)
        u, _ = solve_primal(mesh, prob, "single", tol=solver_tol, maxit=maxit)
        res = residual_indicator(u, prob.f)

        # one DoF per vertex and per edge: the P2 count, and the vertex
        # count of the globally refined mesh
        rich_dofs = mesh.n_vertices + meshmod.edge_table(mesh).n_edges
        # each strategy yields the dual weight on the primal space
        for label, dual, ddofs in (
            ("Approach1", lambda: dual_solve_approach1(mesh, func, tol=solver_tol, maxit=maxit)[1], rich_dofs),
            ("Approach2", lambda: dual_solve_approach2(mesh, func, tol=solver_tol, maxit=maxit)[1], rich_dofs),
            ("MP-DWR", lambda: dual_solve_mpdwr(mesh, func, "double", tol=solver_tol, maxit=maxit)[0], mesh.n_vertices),
        ):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                dwr_indicator(res, dual(), "gradient")
                times.append(time.perf_counter() - t0)
            rows.append(f"{depth},{label},{ddofs},{mesh.n_elements},{float(np.median(times)):.4e}")
            click.echo(rows[-1])
    _write_csv(
        out / "compare_dual.csv",
        _meta_line("single:double", solver_tol),
        "depth,approach,dual_dofs,elements,median_seconds",
        rows,
    )


@main.command()
@click.option("--problem", "pname", default="e3", type=click.Choice(["e1", "e2", "e3", "e4"]))
@click.option("--functional", "jname", default="j1", type=click.Choice(["j1", "j2", "j3"]))
@click.option("--target-tol", default=1e-3, show_default=True)
@click.option("--theta", default=0.5, show_default=True)
@click.option("--max-iter", default=30, show_default=True)
@click.option("--out", default="out", show_default=True, type=click.Path(path_type=Path))
@click.option("--tol", "solver_tol", default=None, type=float)
@click.option("--maxit", default=None, type=int)
def bench(pname, jname, target_tol, theta, max_iter, out, solver_tol, maxit):
    """Whole-simulation timing: h-refined-dual adaptation vs MP-DWR.

    Both drivers run the identical loop and indicator to the same goal
    tolerance; they differ only in how the dual weight is produced (and in
    the primal precision).  The MP-DWR row includes its post-processing
    re-solve, reported separately.  The p-refined dual is excluded here to
    keep the solver comparison fair.
    """
    prob, func = get_problem(pname), get_functional(jname)
    rows = []
    configs = (
        ("Approach1", AdaptConfig(
            primal_precision="double", dual_precision="double", dual_method="approach1",
            tol=target_tol, max_iter=max_iter, marking_theta=theta,
            min_volume_guard=0.0, solver_tol=solver_tol, solver_maxit=maxit,
            post_process=False)),
        ("MP-DWR", AdaptConfig(
            tol=target_tol, max_iter=max_iter, marking_theta=theta,
            min_volume_guard=0.0, solver_tol=solver_tol, solver_maxit=maxit,
            post_process=True)),
    )
    for label, cfg in configs:
        t0 = time.perf_counter()
        mesh, _, hist = mpdwr_adapt(prob, func, cfg)
        wall = time.perf_counter() - t0
        final = hist.records[-1]
        post = hist.post_process_time or 0.0
        rows.append(
            f"{label},{final.n_dofs},{final.n_elements},{abs(final.je):.4e},"
            f"{wall:.4e},{post:.4e}"
        )
        click.echo(rows[-1])
    _write_csv(
        out / f"bench_{pname}_{jname}.csv",
        _meta_line("single:double vs double:double", solver_tol),
        "method,adapted_dofs,adapted_elements,final_je,total_seconds,post_seconds",
        rows,
    )


@main.command()
@click.option("--problem", "pname", default="e2", type=click.Choice(["e1", "e2", "e3", "e4"]))
@click.option("--functional", "jname", default="j1", type=click.Choice(["j1", "j2", "j3"]))
@click.option("--max-iter", default=8, show_default=True)
@click.option("--theta", default=0.5, show_default=True)
@click.option("--out", default="out", show_default=True, type=click.Path(path_type=Path))
@click.option("--tol", "solver_tol", default=None, type=float)
@click.option("--maxit", default=None, type=int)
def limit(pname, jname, max_iter, theta, out, solver_tol, maxit):
    """Deep-refinement pairing: single vs double primal error curves."""
    prob, func = get_problem(pname), get_functional(jname)
    base = AdaptConfig(
        tol=1e-30,
        max_iter=max_iter,
        marking_theta=theta,
        min_volume_guard=0.0,
        solver_tol=solver_tol,
        solver_maxit=maxit,
        post_process=False,
    )
    _, _, hist_single = mpdwr_adapt(prob, func, base)
    cfg_rev = dataclasses.replace(
        base, primal_precision="double", dual_precision="single"
    )
    _, _, hist_double = revised_mpdwr(prob, func, cfg_rev)

    rows = []
    for rs, rd in zip(hist_single.records, hist_double.records):
        rows.append(
            f"{rs.iteration},{rs.n_dofs},{rs.l2:.6e},{rs.primal_residual:.6e},"
            f"{rs.min_volume:.6e},{rd.n_dofs},{rd.l2:.6e},{rd.primal_residual:.6e},"
            f"{rd.min_volume:.6e}"
        )
    try:
        diag = limit_monitor(hist_single)
        diag_lines = [
            f"volume_flag={diag.volume_flag}, stagnation_flag={diag.stagnation_flag}"
        ] + diag.notes
    except ValueError as exc:
        diag_lines = [str(exc)]
    _write_csv(
        out / f"limit_{pname}_{jname}.csv",
        _meta_line("single:double vs double:single", solver_tol),
        "iter,dofs_single,l2_single,residual_single,min_vol_single,"
        "dofs_double,l2_double,residual_double,min_vol_double",
        rows,
        trailer=diag_lines,
    )
    _svg_loglog(
        out / f"limit_{pname}_{jname}.svg",
        [
            ("single primal", [r.n_dofs for r in hist_single.records], [r.l2 for r in hist_single.records]),
            ("double primal", [r.n_dofs for r in hist_double.records], [r.l2 for r in hist_double.records]),
        ],
        f"primal L2 error vs DoFs ({pname}/{jname})",
        "DoFs",
        "L2 error",
    )
    for line in diag_lines:
        click.echo(line)


if __name__ == "__main__":
    main()
