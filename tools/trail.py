"""Write one benchmark workload's trail with every float as hex, or compare two.

Usage, from the root of a checkout:

    python3 tools/trail.py --workload goal_e4j3 --seed 0       # TRAIL_goal_e4j3.json
    python3 tools/trail.py --workload goal_e4j3 --checkout OTHER --out other.json
    python3 tools/trail.py --compare TRAIL_goal_e4j3.json other.json

The workload and its inputs come from ``benchmarks/workloads.py`` of the
checkout (by default the one holding this script), which is imported and
not changed; the program comes from that checkout's ``src/``.  The trail
lists, in order:

* for adaptive workloads, one entry per iteration record (DoFs, elements,
  J(e), L2 error, both indicator totals, minimum volume, primal true
  residual, precisions), then the flags, the switch point, the
  post-process L2 error and iterations, and SHA-256 digests of the final
  mesh and solution;
* the workload's own trail (``workloads.<Workload>.trail``);
* for the fixed-mesh workload, SHA-256 digests of the coefficient bytes
  of every solve (null when it failed) and of every dual, so that its
  solutions are compared byte for byte, not only through their sums;
* every PCG solve in call order: precision, size and iterations.

``--compare`` prints "identical" and exits with 0 only when the trails
are equal entry for entry.  Otherwise it prints the first entry whose
non-float fields differ (DoFs, elements, precisions, PCG sizes and
iterations, flags, switch point, digests), or "identical except floats"
when there is none, then the largest difference of each float field, and
exits with 1.  The bits depend on the numpy and BLAS build, so the file
records the versions, and no test compares against a committed trail.  BLAS is pinned to one thread, as in
``benchmarks/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FLOAT_HEX = re.compile(r"-?0x[01](\.[0-9a-f]*)?p[-+]\d+|-?inf|nan")  # float.hex() output
RECORD_FIELDS = (
    "n_dofs", "n_elements", "je", "l2", "eta_res_total", "eta_dwr_total",
    "min_volume", "primal_residual", "primal_precision", "dual_precision",
)


def _plain(value):
    """JSON-ready value: floats as hex, tuples as lists, numpy scalars unboxed."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    return value


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _history_entries(raw) -> list:
    mesh, u, hist = raw
    entries = [
        ["record", {f: _plain(getattr(r, f)) for f in RECORD_FIELDS}] for r in hist.records
    ]
    entries.append(["history", {
        "flags": hist.flags,
        "switched_at": hist.switched_at,
        "post_l2": _plain(hist.post_l2),
        "post_iterations": hist.post_iterations,
        "final_mesh_sha256": _digest(mesh.vertices, mesh.elements, mesh.boundary_edges),
        "final_solution_sha256": None if u is None else _digest(u.coefficients),
    }])
    return entries


def _coefficients(u) -> dict:
    return {"dtype": u.coefficients.dtype.str, "coefficients_sha256": _digest(u.coefficients)}


def _solve_entries(raw) -> list:
    solves, duals = raw
    entries = [
        ["solve", {"level": s.level, "prec": s.prec}
         | ({"dtype": None, "coefficients_sha256": None} if s.solution is None else _coefficients(s.solution))]
        for s in solves
    ]
    entries += [["dual", {"name": name} | _coefficients(w)] for name, (w, _, _) in duals.items()]
    return entries


def dump(workload, seed, checkout) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    import scipy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    with tracing.Tracer(only={"linsolve.pcg"}) as counter:
        raw = wl.run(inputs)
    adaptive = hasattr(raw[-1], "records")  # (mesh, solution, history)
    entries = _history_entries(raw) if adaptive else []
    entries += [["workload_trail", _plain(e)] for e in wl.trail(raw)]
    if not adaptive:  # (solves, duals)
        entries += _solve_entries(raw)
    entries += [
        ["pcg", {k: info.get(k) for k in ("prec", "n", "iterations", "error")}]
        for *_, info in counter.spans
    ]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "entries": entries,
    }


FLOAT = ("float",)  # stands for a hex float in a skeleton; JSON holds no tuples


def _split(value, path=""):
    """(value with every hex float replaced by FLOAT, {path: float}).

    Equal skeletons hold their floats at the same paths, so a float on one
    side and a null or any other value on the other is a non-float
    difference."""
    if isinstance(value, dict):
        parts = {k: _split(v, f"{path}.{k}") for k, v in value.items()}
        return {k: s for k, (s, _) in parts.items()}, {p: f for _, fs in parts.values() for p, f in fs.items()}
    if isinstance(value, list):
        parts = [_split(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return [s for s, _ in parts], {p: f for _, fs in parts for p, f in fs.items()}
    if isinstance(value, str) and FLOAT_HEX.fullmatch(value):
        return FLOAT, {path: float.fromhex(value)}
    return value, {}


def compare(path_a, path_b) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("workload", "seed", "python", "numpy", "scipy"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    ea, eb = a["entries"], b["entries"]
    if ea == eb:
        print(f"identical: {len(ea)} entries")
        return 0
    first = None
    worst = {}  # float field (entry kind and path) -> (max abs diff, max rel diff, entry)
    for i, (x, y) in enumerate(zip(ea, eb)):
        (sx, fx), (sy, fy) = _split(x[1]), _split(y[1])
        if x[0] != y[0] or sx != sy:
            first = first if first is not None else i
            continue
        for path, u in fx.items():
            v = fy[path]
            if u == v or (u != u and v != v):
                continue
            diff = abs(u - v)
            rel = diff / max(abs(u), abs(v))
            key = f"{x[0]}{path}"
            if key not in worst or rel > worst[key][1]:
                worst[key] = (diff, rel, i)
    if first is not None:
        print(f"first non-float difference at entry {first} of {len(ea)} / {len(eb)}:")
        print(f"  {path_a}: {json.dumps(ea[first])}")
        print(f"  {path_b}: {json.dumps(eb[first])}")
    elif len(ea) != len(eb):
        print(f"trails agree in their non-float fields on the first {min(len(ea), len(eb))} "
              f"entries, then one ends: {len(ea)} vs {len(eb)} entries")
    head = "identical except floats" if first is None and len(ea) == len(eb) else "floats"
    print(f"{head}, max rel diff {max((w[1] for w in worst.values()), default=0.0):.3g}")
    for key, (diff, rel, i) in sorted(worst.items()):
        print(f"  {key:<40} max abs diff {diff:.3g}  rel {rel:.3g}  (entry {i})")
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose src/ and benchmarks/ are imported")
    ap.add_argument("--out", type=Path, help="default: TRAIL_<workload>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    trail = dump(args.workload, args.seed, args.checkout.resolve())
    out = args.out or Path(f"TRAIL_{args.workload}.json")
    out.write_text(json.dumps(trail, indent=1) + "\n")
    print(f"wrote {out}: {len(trail['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
