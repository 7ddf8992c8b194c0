"""MP-DWR benchmark: one workload, one process, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload goal_e4j3 --seed 0 --seconds 35 --trace 0

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.  BLAS is pinned to one
thread.  Full runs of the workload repeat while the next one is predicted to
end within ``--seconds``, and at least the workload's ``min_runs`` times;
``wall_s`` is their median.  Every further run at the same seed must
reproduce the first run's trail and check outcomes bit for bit: the traced
run with ``--trace 1``, the later full runs, and, when an adaptive workload
ran only once, a rerun that stops at a quarter of the final DoFs.  The
traced run wraps every public mpdwr function (see tracing.py) and gives the
per-layer metrics and the tracing overhead.

``attempted`` and ``failed`` count the operations of one full run (its
solves and output checks) plus the reproducibility and phase checks, so
they do not depend on how many runs fit into ``--seconds``.

The human-readable report goes to standard output, with each timing as its
median, the highest percentile with at least ten samples beyond it and the
sample count; the last line is the JSON result.  Details and, for traced
runs, the spans are written to ``.bench_out/`` in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MAX_UNATTRIBUTED = 0.02  # share of the traced wall time outside any span


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload, seed):
    """One set-up in a fresh interpreter, timed by that interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def summary(samples):
    """Median, highest whole percentile with >= 10 samples beyond it, count."""
    import numpy as np

    n = len(samples)
    out = {"median": statistics.median(samples), "n": n}
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = float(np.percentile(samples, pct))
    return out


def git_sha():
    """HEAD commit read from .git; a checkout without .git has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def measure(wl, inputs, seconds):
    """Untraced full runs; only linsolve.pcg is wrapped, to count solves.

    Returns the wall times, the outcomes, the peak RSS and the pcg spans of
    the first run, each run's solves being the same operations again.
    """
    walls, outcomes, spans = [], [], []
    start = time.perf_counter()
    while True:
        with tracing.Tracer(only={"linsolve.pcg"}) as counter:
            t0 = time.perf_counter()
            raw = wl.run(inputs)
            walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            # set-up plus one run: later runs start from a heap the earlier
            # ones fragmented, and the output checks are not the program's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spans = counter.spans
        outcomes.append(wl.evaluate(inputs, raw))
        del raw
        if len(walls) >= wl.min_runs and time.perf_counter() - start + walls[-1] > seconds:
            return walls, outcomes, peak_rss_mb, spans


def signature(outcome):
    """What a rerun at the same seed must reproduce: trail and check outcomes."""
    return outcome.trail, [(name, ok) for name, ok, _ in outcome.checks]


def prefix_iterations(trail) -> int:
    """Last iteration of an adaptive trail whose mesh has at most a quarter
    of the final DoFs; a rerun up to it costs a fraction of a full run,
    since the DoF count grows geometrically."""
    quarter = trail[-1][0] / 4
    return max(k for k, entry in enumerate(trail) if entry[0] <= quarter)


def reproducibility(wl, inputs, outcomes, trace, run_id):
    """Reruns at the same seed against the first run.

    Returns (check, tracer or None, traced wall time or None).  The later
    full runs and the traced run must match the first run's trail and check
    outcomes; an adaptive workload that ran only once, untraced, is rerun up
    to a quarter of its final DoFs and the trails are compared that far.
    """
    first = signature(outcomes[0])
    same = all(signature(o) == first for o in outcomes[1:])
    ran = [f"{len(outcomes) - 1} further full runs"]
    tracer = wall = None
    if trace:
        with tracing.Tracer(run_id=run_id) as tracer:
            t0 = time.perf_counter()
            raw = wl.run(inputs)
            wall = time.perf_counter() - t0
        same = same and signature(wl.evaluate(inputs, raw)) == first
        ran.append("traced full run")
        del raw
    elif len(outcomes) == 1:
        k = prefix_iterations(first[0])
        trail = wl.trail(wl.run(inputs, max_iter=k))
        same = same and trail == first[0][: len(trail)]
        ran.append(f"rerun to iteration {k}")
    check = ("same seed, bit-identical trail and check outcomes", same, ", ".join(ran))
    return check, tracer, wall


def report(args, env, timings, e2e, not_applicable, layers, units, checks, attempted, failed):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("timings (median, highest percentile with >= 10 samples beyond it, sample count)")
    for name, samples in timings.items():
        print(f"  {name:<14} " + "  ".join(f"{k} {v:.6g}" for k, v in summary(samples).items()))
    print("end-to-end metrics")
    for name, value in e2e.items():
        note = "  (n/a on this workload)" if name in not_applicable else ""
        print(f"  {name:<16} {value:<14.6g} {units[name]}{note}")
    if layers:
        print("per-layer metrics (traced run; linsolve.bytes_computed.* computed, not measured)")
        for name, value in layers.items():
            print(f"  {name:<34} {value:<14.6g} {units[name]}")
    print("checks")
    for name, ok, detail in checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"operations: {attempted} attempted (solves and checks), {failed} failed")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mpdwr" / "__init__.py").is_file():
        print(f"error: no mpdwr package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    inputs = wl.make_inputs(args.seed)
    walls, outcomes, peak_rss_mb, spans = measure(wl, inputs, args.seconds)
    first = outcomes[0]
    checks = list(first.checks)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    same, tracer, traced_wall = reproducibility(wl, inputs, outcomes, args.trace, stem)
    checks.append(same)
    layers = None
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, traced_wall, statistics.median(walls), first.iterations)
        checks.append((
            "phase accounting: spans cover the traced wall time",
            abs(layers["trace.unattributed_share"]) <= MAX_UNATTRIBUTED,
            f"unattributed {100 * layers['trace.unattributed_share']:.2f}% of {traced_wall:.3f} s",
        ))
    attempted, failed = tracing.solve_counts(spans)
    attempted += len(checks)
    failed += sum(1 for _, ok, _ in checks if not ok)

    def over_runs(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_ratio": 1.0 - failed / attempted,
        "final_dofs": first.final_dofs,
        "final_abs_je": first.final_abs_je,
        "dual_cost_ratio": over_runs(o.dual_cost_ratio for o in outcomes),
        "l2_ratio_half": over_runs(o.l2_ratio_half for o in outcomes),
    }
    not_applicable = sorted(k for k, v in e2e.items() if v is None)
    for k in not_applicable:
        e2e[k] = 1.0  # defined on another workload only; see README.md
    timings = {"setup_s": setups, "wall_s": walls, "step_s": [t for o in outcomes for t in o.step_s]}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = layers if args.trace else e2e
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")

    env = environment()
    report(args, env, timings, e2e, not_applicable, layers, units, checks, attempted, failed)
    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "end_to_end": e2e, "not_applicable": not_applicable,
        "timings": {k: dict(summary(v), samples=v) for k, v in timings.items()},
        "per_layer": layers, "checks": checks, "attempted": attempted, "failed": failed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")

    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
