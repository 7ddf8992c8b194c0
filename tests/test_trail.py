"""tools/trail.py --compare tells float-only differences from the rest."""

import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

spec = importlib.util.spec_from_file_location("trail", Path(__file__).resolve().parents[1] / "tools" / "trail.py")
trail = importlib.util.module_from_spec(spec)
_environ = os.environ.copy()
try:
    spec.loader.exec_module(trail)
finally:  # the script pins BLAS threads for its own process only
    os.environ.clear()
    os.environ.update(_environ)


def write(path, entries):
    path.write_text(json.dumps({"workload": "w", "seed": 0, "entries": entries}))
    return path


def entries(je=0.25, n_dofs=545, digest="ab12cd", post_l2=1e-3):
    return [
        ["record", {"n_dofs": n_dofs, "je": je.hex(), "primal_precision": "single"}],
        ["history", {"flags": [], "post_l2": post_l2 and post_l2.hex(), "final_mesh_sha256": digest}],
        ["workload_trail", [n_dofs, je.hex()]],
    ]


def test_compare_classifies_differences(tmp_path, capsys):
    a = write(tmp_path / "a.json", entries())
    assert trail.compare(a, write(tmp_path / "b.json", entries())) == 0
    assert capsys.readouterr().out.startswith("identical: 3 entries")

    assert trail.compare(a, write(tmp_path / "c.json", entries(je=0.25 * (1 + 2**-50)))) == 1
    out = capsys.readouterr().out
    assert out.startswith("identical except floats, max rel diff 8.88e-16")
    assert "record.je" in out and "workload_trail[1]" in out

    no_post = write(tmp_path / "f.json", entries(post_l2=None))
    for x, y, at in (
        (a, write(tmp_path / "d.json", entries(n_dofs=546)), 0),
        (a, write(tmp_path / "g.json", entries(digest="ab12ce")), 1),  # a hex digest is not a float
        (a, no_post, 1),  # a float against null, either way round
        (no_post, a, 1),
    ):
        assert trail.compare(x, y) == 1
        assert capsys.readouterr().out.startswith(f"first non-float difference at entry {at}")

    assert trail.compare(a, write(tmp_path / "e.json", entries()[:2])) == 1
    assert "then one ends: 3 vs 2 entries" in capsys.readouterr().out


def test_fixed_mesh_solves_and_duals_are_digested_byte_for_byte():
    u = SimpleNamespace(coefficients=np.array([0.5, -0.0], dtype=np.float16))
    flipped = SimpleNamespace(coefficients=np.array([0.5, 0.0], dtype=np.float16))  # equal sums
    solves = [SimpleNamespace(level=4, prec="half", solution=u), SimpleNamespace(level=6, prec="half", solution=None)]
    entries = trail._solve_entries((solves, {"mpdwr": (flipped, None, [])}))
    assert [e[0] for e in entries] == ["solve", "solve", "dual"]
    assert entries[0][1]["dtype"] == "<f2"
    assert entries[1][1] == {"level": 6, "prec": "half", "dtype": None, "coefficients_sha256": None}
    assert entries[0][1]["coefficients_sha256"] != entries[2][1]["coefficients_sha256"]


def test_final_mesh_generation_and_parents_are_digested():
    from mpdwr.driver import initial_mesh
    from mpdwr.mesh import unit_square_template

    hist = SimpleNamespace(records=[], flags=[], switched_at=None, post_l2=None, post_iterations=0)
    m = initial_mesh(1)
    history = trail._history_entries((m, None, hist))[-1][1]
    assert history["final_generation_sha256"] == trail._digest(m.generation)
    assert history["final_vertex_parents_sha256"] == trail._digest(m.vertex_parents)
    older = SimpleNamespace(**vars(m) | {"generation": m.generation - 1})
    assert trail._history_entries((older, None, hist))[-1][1]["final_generation_sha256"] != history["final_generation_sha256"]
    assert trail._history_entries((unit_square_template(), None, hist))[-1][1]["final_vertex_parents_sha256"] is None
