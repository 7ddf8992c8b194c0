import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner

from mpdwr.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    meta, header, rows, trailer = None, None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if meta is None:
                meta = line
            else:
                trailer.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows, trailer


def test_ortho_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["ortho", "--problem", "e1", "--levels", "3", "--start-refines", "1",
         "--out", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "PASS" in result.output
    meta, header, rows, trailer = read_csv(tmp_path / "ortho_e1.csv")
    assert "quad_eval=8" in meta and "version=" in meta
    assert header == "dofs,l2_error,probe_same_precision,probe_mixed"
    assert len(rows) == 3
    same = [abs(float(r[2])) for r in rows]
    assert same[-1] < same[0]


def test_ortho_dump_matrix(runner, tmp_path):
    mtx = tmp_path / "A.mtx"
    result = runner.invoke(
        main,
        ["ortho", "--problem", "e1", "--levels", "1", "--start-refines", "1",
         "--out", str(tmp_path), "--dump-matrix", str(mtx)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    import scipy.io

    A = scipy.io.mmread(str(mtx))
    assert A.shape[0] == A.shape[1]


def test_adapt_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["adapt", "--problem", "e3", "--functional", "j2", "--theta", "0.5",
         "--tol-ladder", "1e-2,2e-3", "--max-iter", "12", "--out", str(tmp_path),
         "--dump-mesh", str(tmp_path / "final.mesh"),
         "--dump-indicators", str(tmp_path / "ind.csv")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    meta, header, rows_d, trailer = read_csv(tmp_path / "adapt_e3_j2_mpdwr.csv")
    _, _, rows_r, _ = read_csv(tmp_path / "adapt_e3_j2_residual.csv")
    assert header.startswith("iter,ndofs,nelems,je,")
    assert len(rows_d) >= 2
    assert any("reached" in t for t in trailer)

    svg = tmp_path / "adapt_e3_j2.svg"
    tree = ET.parse(svg)  # well-formed XML
    ns = "{http://www.w3.org/2000/svg}"
    polylines = tree.getroot().findall(f".//{ns}polyline")
    assert len(polylines) == 2

    mesh_lines = (tmp_path / "final.mesh").read_text().splitlines()
    nv, ne, nb = map(int, mesh_lines[0].split())
    assert len(mesh_lines) == 1 + nv + ne + nb

    _, ih, irows, _ = read_csv(tmp_path / "ind.csv")
    assert ih == "element_id,eta_res,eta_dwr,volume"
    assert len(irows) == ne
    assert all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in irows)


def test_adapt_revised_pair(runner, tmp_path):
    result = runner.invoke(
        main,
        ["adapt", "--problem", "e3", "--functional", "j1", "--precision-pair",
         "double:single", "--tol-ladder", "1e-2", "--max-iter", "6",
         "--out", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    meta, _, rows, _ = read_csv(tmp_path / "adapt_e3_j1_mpdwr.csv")
    assert "double:single" in meta
    assert rows[0][10] == "double" and rows[0][11] == "single"


def test_compare_dual_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["compare-dual", "--depths", "2", "--reps", "1", "--out", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    meta, header, rows, _ = read_csv(tmp_path / "compare_dual.csv")
    assert header == "depth,approach,dual_dofs,elements,median_seconds"
    assert [r[1] for r in rows] == ["Approach1", "Approach2", "MP-DWR"]
    dofs = {r[1]: int(r[2]) for r in rows}
    # the h-refined dual system has ~4x the unknowns
    assert 3.5 <= dofs["Approach1"] / dofs["MP-DWR"] <= 4.5
    assert dofs["Approach2"] == dofs["Approach1"]


def test_limit_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["limit", "--problem", "e2", "--functional", "j1", "--max-iter", "4",
         "--out", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    meta, header, rows, trailer = read_csv(tmp_path / "limit_e2_j1.csv")
    assert header.startswith("iter,dofs_single,l2_single,residual_single,min_vol_single")
    assert len(rows) == 5
    vols = [float(r[4]) for r in rows]
    assert vols[-1] < vols[0]
    assert any("volume_flag" in t for t in trailer)
    ET.parse(tmp_path / "limit_e2_j1.svg")


def test_cli_rerun_deterministic(runner, tmp_path):
    args = ["ortho", "--problem", "e2", "--levels", "2", "--start-refines", "1"]
    runner.invoke(main, args + ["--out", str(tmp_path / "a")], catch_exceptions=False)
    runner.invoke(main, args + ["--out", str(tmp_path / "b")], catch_exceptions=False)
    assert (tmp_path / "a/ortho_e2.csv").read_text() == (tmp_path / "b/ortho_e2.csv").read_text()


def test_bad_precision_pair(runner, tmp_path):
    result = runner.invoke(
        main,
        ["adapt", "--precision-pair", "quad", "--out", str(tmp_path)],
    )
    assert result.exit_code != 0


def test_bench_command(runner, tmp_path):
    result = runner.invoke(
        main,
        ["bench", "--problem", "e3", "--functional", "j1", "--target-tol", "5e-3",
         "--out", str(tmp_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    meta, header, rows, _ = read_csv(tmp_path / "bench_e3_j1.csv")
    assert header == "method,adapted_dofs,adapted_elements,final_je,total_seconds,post_seconds"
    assert [r[0] for r in rows] == ["Approach1", "MP-DWR"]
    a1, mp = rows
    assert float(a1[3]) <= 5e-3 and float(mp[3]) <= 5e-3
    assert float(a1[5]) == 0.0      # double primal: no post-processing
    assert float(mp[5]) > 0.0       # single primal records its re-solve
