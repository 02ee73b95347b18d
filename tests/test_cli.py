import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from hypdom import cli


def data_path(name):
    return str(resources.files("hypdom.data").joinpath(f"{name}.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def cube_run(tmp_path_factory):
    """One `hypdom enumerate cube.json --out DIR`, shared by the tests that
    only read its candidate files."""
    out = tmp_path_factory.mktemp("run")
    assert cli.main(["enumerate", data_path("cube"), "--out", str(out)]) == 0
    return out


def test_info_cube(capsys):
    code, out, _ = run(capsys, "info", data_path("cube"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_classes_required"] == 2
    assert doc["edges"] == 12 and doc["vertices"] == 8
    assert doc["edge_bound_ok"]


def test_info_icosahedron_warns(capsys):
    code, out, _ = run(capsys, "info", data_path("icosahedron"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_classes_required"] == 9
    assert not doc["edge_bound_ok"]
    assert "commuting" in doc["warning"]


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err


def test_invalid_polyhedron_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "x", "vertices": ["a", "b", "c", "d", "e"],
        "faces": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2


def test_enumerate_writes_report_and_candidates(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "enumerate", data_path("cube"), "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_schemes"] == 960
    assert report["survivors"] == 30
    assert len(list(out.glob("candidate_*.json"))) == 30
    fam = report["families_full_group"]
    assert len(fam) == 3
    assert sorted(f["rotation_classes"] for f in fam) == [1, 2, 2]
    assert all(f["class_sizes"] == [6, 6] for f in fam)


def test_enumerate_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(capsys, "enumerate", data_path("cube"), "--out", str(out1))
    run(capsys, "enumerate", data_path("cube"), "--out", str(out2))
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_angles_and_verify_commands(capsys, cube_run):
    candidate = str(cube_run / "candidate_000.json")
    code, text, _ = run(capsys, "angles", data_path("cube"), candidate)
    assert code == 0
    doc = json.loads(text)
    assert doc["class_sizes"] == [6, 6]
    assert doc["status"] == "affine-family"
    stored = json.loads(Path(candidate).read_text())["witness"]
    assert doc["witness"] == stored
    code, text, _ = run(capsys, "verify", data_path("cube"), candidate)
    assert code == 0
    doc = json.loads(text)
    assert doc["status"] == "CONFIRMED"
    assert all(r["product"] == "identity" for r in doc["relators"])
    assert set(doc["generator_types"].values()) == {"loxodromic"}


def _rejected_by_angles_and_verify(capsys, path, message):
    for command in ("angles", "verify"):
        code, out, err = run(capsys, command, data_path("cube"), str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_changed_witness_exit_code(capsys, cube_run, tmp_path):
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    # halving one angle keeps it inside (0, 1) but breaks its vertex rows
    doc["witness"]["0"] = str(Fraction(doc["witness"]["0"]) / 2)
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(doc))
    _rejected_by_angles_and_verify(capsys, changed, "does not solve")


def test_missing_witness_exit_code(capsys, cube_run, tmp_path):
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    scheme_only = tmp_path / "scheme_only.json"
    scheme_only.write_text(json.dumps({"scheme": doc["scheme"]}))
    _rejected_by_angles_and_verify(capsys, scheme_only, "no persisted witness")
    # restrict reads only the scheme
    code, _, _ = run(capsys, "restrict", data_path("cube"),
                     "--candidate", str(scheme_only))
    assert code == 0


def test_realize_command(capsys):
    code, out, _ = run(capsys, "realize", data_path("cube"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 8
    assert all(len(v) == 2 for v in doc.values())


def test_restrict_command_icosahedron(capsys):
    code, out, _ = run(capsys, "restrict", data_path("icosahedron"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_bound_ok"] is False


def test_restrict_command_candidate(capsys, cube_run):
    code, text, _ = run(capsys, "restrict", data_path("cube"),
                        "--candidate", str(cube_run / "candidate_000.json"))
    assert code == 0
    doc = json.loads(text)
    assert doc["edge_bound_ok"] is True
    assert doc["has_size3_class"] is False


def test_pipeline_cube(capsys, tmp_path):
    out = tmp_path / "pipe"
    code, _, _ = run(capsys, "pipeline", data_path("cube"), "--out", str(out))
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["families"]) == 3
    assert all(f["verification"] == "CONFIRMED" for f in doc["families"])
    assert sorted(f["rotation_classes"] for f in doc["families"]) == [1, 2, 2]


def test_pipeline_rotation_grouping(capsys):
    code, out, _ = run(capsys, "enumerate", data_path("cube"),
                       "--group", "rotations")
    assert code == 0
    doc = json.loads(out)
    assert doc["families_requested_grouping"] == 5


def test_icosahedron_enumerate_guarded(capsys):
    code, _, err = run(capsys, "enumerate", data_path("icosahedron"))
    assert code == 2
    assert "cap" in err


def test_pipeline_tetrahedron(capsys):
    code, out, _ = run(capsys, "pipeline", data_path("tetrahedron"))
    assert code == 0
    doc = json.loads(out)
    assert doc["total_schemes"] == 27
    assert doc["survivors"] == 0
    assert doc["families"] == []


def test_verify_output_has_generators(capsys, cube_run):
    code, text, _ = run(capsys, "verify", data_path("cube"),
                        str(cube_run / "candidate_000.json"))
    assert code == 0
    doc = json.loads(text)
    assert set(doc["generators"]) == set(doc["generator_types"])
    for entries in doc["generators"].values():
        assert len(entries) == 4
        a, b, c, d = (complex(re, im) for re, im in entries)
        assert abs(a * d - b * c - 1) < 1e-9


def test_determinism_across_processes(tmp_path):
    # same bytes under different hash seeds
    import subprocess, os, sys
    # the child imports the same hypdom as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("1", "31337"):
        outdir = tmp_path / f"s{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "hypdom.cli", "enumerate",
             data_path("cube"), "--out", str(outdir)],
            check=True, env=env, capture_output=True)
        outs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outs[0] == outs[1]
