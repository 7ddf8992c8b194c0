"""Span tracing of the mpdwr modules, applied from outside the package.

A :class:`Tracer` wraps every public function of the measured modules and
installs the wrapper under the same name in every mpdwr module that holds a
reference to it.  ``driver`` imports ``pcg``, the ``assemble_*`` functions
and ``l2_error`` with ``from ... import``, so patching only the defining
module would miss those calls.  Each call becomes one span
``(id, parent id, run id, name, start, end, info)``; spans stay in memory and
are written out by the caller once the run has ended.

``cli`` is not traced: it only formats CSV and SVG output.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("scalar", "mesh", "fespace", "assembly", "linsolve", "problems", "estimator", "driver")
PRECISIONS = ("half", "single", "double")

# Vector passes of one Jacobi-PCG iteration as written in linsolve.pcg:
# q = A d (read d, write q), d.q (2), x update (3), r update (3), ||r|| (1),
# z = dinv r (3), r.z (2), d update (3).
_PCG_VECTOR_PASSES = 19


def _assembly_info(args, kwargs, result, exc):
    info = {"prec": args[0].precision.name}
    if result is not None and hasattr(result, "nnz"):
        info["nnz"] = int(result.nnz)
    return info


def _pcg_info(args, kwargs, result, exc):
    A = args[0]
    p = args[2] if len(args) > 2 else kwargs["p"]
    report = result[1] if result is not None else getattr(exc, "report", None)
    info = {
        "prec": getattr(p, "name", p),
        "n": int(A.shape[0]),
        "nnz": int(A.nnz),
        "value_bytes": int(A.dtype.itemsize),
        "index_bytes": int(A.indices.itemsize),
        "iterations": int(report.iterations) if report is not None else 0,
    }
    if exc is not None:
        info["error"] = type(exc).__name__
    return info


def _bisect_info(args, kwargs, result, exc):
    marked = args[1] if len(args) > 1 else kwargs["marked"]
    info = {"marked": int(np.unique(np.asarray(marked)).size), "elements_in": int(args[0].n_elements)}
    if result is not None:
        info["elements_out"] = int(result.n_elements)
    return info


_ANNOTATE = {
    "assembly.assemble_stiffness": _assembly_info,
    "assembly.assemble_load": _assembly_info,
    "assembly.assemble_functional": _assembly_info,
    "linsolve.pcg": _pcg_info,
    "mesh.bisect_marked": _bisect_info,
}


class Tracer:
    """Context manager that records spans for the selected mpdwr functions.

    ``only`` restricts tracing to the listed span names (for example
    ``{"linsolve.pcg"}`` to count solves in a timed run); by default every
    public function of :data:`MODULES` is traced.  ``run_id`` tags every
    span of the run.
    """

    def __init__(self, only=None, run_id=None):
        self.only = only
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = [importlib.import_module(f"mpdwr.{m}") for m in MODULES]
        holders = modules + [importlib.import_module("mpdwr")]
        for short, mod in zip(MODULES, modules):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if self.only is not None and name not in self.only:
                    continue
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        self._patched.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)
        spans = self.spans
        stack = self._stack
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id so ids follow call order
            stack.append(sid)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                info = annotate(args, kwargs, result, exc) if annotate else None
                spans[sid] = (sid, parent, run_id, name, t0, t1, info)

        return wrapper

    def write(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, run, name, t0, t1, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run, "name": name,
                                     "start": t0, "end": t1, "info": info}) + "\n")


def solve_counts(spans):
    """(solves attempted, solves failed) from the linsolve.pcg spans."""
    pcg = [s for s in spans if s[3] == "linsolve.pcg"]
    return len(pcg), sum(1 for s in pcg if "error" in s[6])


def self_times(spans):
    """Self time per span: its duration minus the time its direct children cover."""
    child = defaultdict(float)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def layer_metrics(spans, run_wall, untraced_wall, iterations):
    """Per-layer numbers of one traced run.

    Every ``_s`` value is self time summed over the run, except
    ``driver.post_process_s`` and ``problems.functional_error_s``: those
    functions only call other traced functions, so their totals (self plus
    children) are reported instead.
    """
    selft = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)

    def self_sum(name):
        return sum(selft[s[0]] for s in by_name[name])

    def total_sum(name):
        return sum(s[5] - s[4] for s in by_name[name])

    m = {}
    m["mesh.edge_table_s"] = self_sum("mesh.edge_table")
    m["mesh.edge_table_calls"] = len(by_name["mesh.edge_table"])
    m["mesh.bisect_s"] = self_sum("mesh.bisect_marked")
    m["mesh.bisect_calls"] = len(by_name["mesh.bisect_marked"])
    marked = sum(s[6]["marked"] for s in by_name["mesh.bisect_marked"])
    bisected = sum(s[6]["elements_out"] - s[6]["elements_in"] for s in by_name["mesh.bisect_marked"])
    m["mesh.closure_ratio"] = bisected / marked if marked else 0.0
    m["mesh.global_refine_s"] = self_sum("mesh.global_refine")

    m["fespace.quad_points_s"] = self_sum("fespace.quad_points_physical")
    m["fespace.quad_points_calls"] = len(by_name["fespace.quad_points_physical"])
    m["fespace.l2_error_s"] = self_sum("fespace.l2_error")
    m["fespace.solution_gradients_s"] = self_sum("fespace.solution_gradients")
    m["fespace.build_space_s"] = self_sum("fespace.build_space")
    m["problems.functional_error_s"] = total_sum("problems.functional_error")

    for kind in ("stiffness", "load", "functional"):
        for prec in PRECISIONS:
            m[f"assembly.{kind}_s.{prec}"] = sum(
                selft[s[0]] for s in by_name[f"assembly.assemble_{kind}"] if s[6]["prec"] == prec
            )
    m["assembly.dirichlet_s"] = self_sum("assembly.apply_dirichlet")
    m["assembly.nnz"] = sum(s[6].get("nnz", 0) for s in by_name["assembly.assemble_stiffness"])

    for prec in PRECISIONS:
        solves = [s for s in by_name["linsolve.pcg"] if s[6]["prec"] == prec]
        m[f"linsolve.pcg_s.{prec}"] = sum(selft[s[0]] for s in solves)
        m[f"linsolve.pcg_iters.{prec}"] = sum(s[6]["iterations"] for s in solves)
        m[f"linsolve.pcg_failures.{prec}"] = sum(1 for s in solves if "error" in s[6])
        m[f"linsolve.bytes_computed.{prec}"] = sum(_pcg_bytes(s[6]) for s in solves)
    m["scalar.round_to_calls"] = len(by_name["scalar.round_to"])
    m["scalar.round_to_s"] = self_sum("scalar.round_to")

    m["estimator.residual_indicator_s"] = self_sum("estimator.residual_indicator")
    m["estimator.dwr_indicator_s"] = self_sum("estimator.dwr_indicator")
    m["estimator.estimate_je_s"] = self_sum("estimator.estimate_Je")

    m["driver.iterations"] = iterations
    m["driver.marking_s"] = self_sum("driver.marking")
    m["driver.post_process_s"] = total_sum("driver.post_process")

    module_self = defaultdict(float)
    for s in spans:
        module_self[s[3].split(".", 1)[0]] += selft[s[0]]
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]

    # phase accounting: the top-level spans hold every traced second, and
    # their self-time sum equals their total, so whatever is left of the
    # run's wall time was spent in the benchmark's own code between calls
    top = sum(s[5] - s[4] for s in spans if s[1] is None)
    m["trace.wall_s"] = run_wall
    m["trace.overhead_ratio"] = run_wall / untraced_wall
    m["trace.unattributed_share"] = (run_wall - top) / run_wall
    m["trace.spans"] = len(spans)
    return m


def _pcg_bytes(info):
    """Bytes one solve moves by the operation count, not by measurement.

    Per iteration: the CSR matrix (values, column indices, row pointers)
    once, plus the vector passes at the working precision.
    """
    n, nnz, it = info["n"], info["nnz"], info["iterations"]
    vec_bytes = {"half": 2, "single": 4, "double": 8}[info["prec"]]
    matrix = nnz * (info["value_bytes"] + info["index_bytes"]) + (n + 1) * info["index_bytes"]
    return it * (matrix + _PCG_VECTOR_PASSES * n * vec_bytes)
