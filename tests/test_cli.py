import collections
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from hypdom import angles, cli, enumeration, geometry, grouplab, polytope

from conftest import symmetry_group


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


@pytest.fixture(scope="module")
def octahedron_run(tmp_path_factory):
    """One `hypdom enumerate octahedron.json --out DIR`, shared like
    cube_run."""
    out = tmp_path_factory.mktemp("run")
    assert cli.main(["enumerate", data_path("octahedron"),
                     "--out", str(out)]) == 0
    return out


def test_info_cube(capsys):
    code, out, _ = run(capsys, "info", data_path("cube"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_classes_required"] == 2
    assert doc["edges"] == 12 and doc["vertices"] == 8
    assert doc["edge_bound_ok"]


def test_info_icosahedron_warns(capsys, tmp_path):
    code, out, _ = run(capsys, "info", data_path("icosahedron"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_classes_required"] == 9
    assert not doc["edge_bound_ok"]
    assert "commuting" in doc["warning"]
    # the square pyramid (F = 5, E - V = 3) has no class count: info
    # reports why and exits 0, enumerate refuses it
    pyramid = tmp_path / "pyramid.json"
    pyramid.write_text(json.dumps({
        "name": "square pyramid", "vertices": ["a", "b", "c", "d", "p"],
        "faces": [["a", "b", "c", "d"], ["b", "a", "p"], ["c", "b", "p"],
                  ["d", "c", "p"], ["a", "d", "p"]]}))
    code, out, _ = run(capsys, "info", str(pyramid))
    doc = json.loads(out)
    assert (code, doc["edge_classes_required"]) == (0, None)
    assert "E - V = 3 is odd" in doc["class_count_error"]
    code, out, err = run(capsys, "enumerate", str(pyramid))
    assert (code, out) == (2, "") and "E - V = 3 is odd" in err


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err
    # a directory where a document is expected, or a document that is not
    # UTF-8, is bad input too
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"name": "w\xfcrfel"}'.encode("latin-1"))
    cube = data_path("cube")
    for argv in (["info", str(tmp_path)], ["info", str(latin)],
                 ["enumerate", str(tmp_path)],
                 ["verify", cube, str(tmp_path)], ["verify", cube, str(latin)],
                 ["angles", cube, str(tmp_path)],
                 ["restrict", cube, str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_overlong_path_exit_code(capsys, tmp_path):
    # a file name longer than the file system allows is bad input too, as
    # the polyhedron and as the candidate
    long_name = str(tmp_path / ("b" * 300 + ".json"))
    for argv in (["info", long_name],
                 ["angles", data_path("cube"), long_name]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_out_naming_a_file_exit_code(capsys, tmp_path):
    # --out names a directory; an existing file there is bad input
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for command in ("enumerate", "pipeline"):
        code, out, err = run(capsys, command, data_path("tetrahedron"),
                             "--out", str(taken))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: "), command
    assert taken.read_text() == "keep"


def test_invalid_polyhedron_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "x", "vertices": ["a", "b", "c", "d", "e"],
        "faces": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    bad.write_text(json.dumps({
        "name": "x", "vertices": ["a", "b", "c", ["d"]], "faces": []}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "not a string" in err


@pytest.mark.parametrize("rename", [
    lambda v: int(v[1:]),                   # 0..5: every name an integer
    lambda v: 0 if v == "v0" else v],       # one integer among strings
    ids=["integers", "mixed"])
def test_non_string_vertex_names_exit_code(capsys, tmp_path, rename):
    # a name that JSON cannot key a candidate's vertex map by, or that does
    # not sort with the others, is rejected when the document is loaded
    doc = json.loads(Path(data_path("octahedron")).read_text())
    doc["vertices"] = [rename(v) for v in doc["vertices"]]
    doc["faces"] = [[rename(v) for v in f] for f in doc["faces"]]
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps(doc))
    for command in ("info", "enumerate", "pipeline"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and "0 is not a string" in err


@pytest.mark.parametrize("name", [None, ["cube"], 6],
                         ids=["null", "list", "number"])
def test_non_string_polyhedron_name_exit_code(capsys, tmp_path, name):
    # a name is a string: null is not read as "None", nor a list as its repr
    doc = json.loads(Path(data_path("cube")).read_text())
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({**doc, "name": name}))
    for command in ("info", "enumerate", "pipeline"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and "'name' is not a string" in err


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


@pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "1e400",
                                 '"1e-1000000"', '"5e-1"', '"0.5"'])
def test_infinite_witness_exit_code(capsys, cube_run, tmp_path, raw):
    # an infinite JSON number as an angle is invalid input, not a crash:
    # the witness values are the strings `angles` writes, so a decimal or
    # exponent string is refused too, before Fraction expands an exponent
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    doc["witness"]["0"] = "angle"
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps(doc).replace('"angle"', raw))
    _rejected_by_angles_and_verify(capsys, numeric, "witness is not valid")


def test_missing_witness_exit_code(capsys, cube_run, tmp_path):
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    scheme_only = tmp_path / "scheme_only.json"
    scheme_only.write_text(json.dumps({"scheme": doc["scheme"]}))
    _rejected_by_angles_and_verify(capsys, scheme_only, "no persisted witness")
    # restrict reads only the scheme
    code, _, _ = run(capsys, "restrict", data_path("cube"), str(scheme_only))
    assert code == 0


def test_candidate_without_scheme_exit_code(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    _rejected_by_angles_and_verify(capsys, empty, "'scheme'")
    code, _, err = run(capsys, "restrict", data_path("cube"), str(empty))
    assert code == 2 and "'scheme'" in err


def test_malformed_scheme_exit_code(capsys, cube_run, tmp_path):
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    first = doc["scheme"]["pairings"][0]
    sugar = {"gen": "A", "from": "front", "to": "back",
             "twist_quarter_turns": 1}
    for i, (pairing, message) in enumerate((
            ({**first, "from": 99}, "face id"),
            ({**first, "map": [1, 2]}, "'map'"),
            ({**first, "gen": ["A"]}, "not all strings"),
            ({**first, "gen": 7}, "not all strings"),
            ({**sugar, "from": ["front"]}, "unknown cube face"),
            ({**sugar, "twist_quarter_turns": 1.0}, "integer 0..3"),
            ({**sugar, "twist_quarter_turns": True}, "integer 0..3"),
            # the second pairing listed twice, the first not at all
            (doc["scheme"]["pairings"][1], "every face exactly once"))):
        broken = json.loads(json.dumps(doc))
        broken["scheme"]["pairings"][0] = pairing
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(broken))
        _rejected_by_angles_and_verify(capsys, path, message)
        code, out, err = run(capsys, "restrict", data_path("cube"), str(path))
        assert (code, out) == (2, "") and message in err


def test_realize_command(capsys, tmp_path):
    code, out, _ = run(capsys, "realize", data_path("cube"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 8
    assert all(len(v) == 2 for v in doc.values())
    code, out, _ = run(capsys, "realize", data_path("octahedron"))
    assert code == 0
    assert json.loads(out) == {"v0": "inf", "v1": [[0, 0], [0, 0]],
                               "v2": [[1, 0], [0, 0]], "v3": [[-1, 0], [0, 0]],
                               "v4": [[0, 0], [1, 0]], "v5": [[0, 0], [-1, 0]]}
    code, out, err = run(capsys, "realize", data_path("tetrahedron"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tetrahedron" in err
    # a document whose name has a realization that does not fit it
    misnamed = tmp_path / "misnamed.json"
    misnamed.write_text(json.dumps(
        dict(json.loads(Path(data_path("cube")).read_text()),
             name="octahedron")))
    code, out, err = run(capsys, "realize", str(misnamed))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "vertices" in err


def test_restrict_requires_candidate(capsys):
    # the edge bound of a bare solid is `info`'s; restrict reads a candidate
    assert cli.main(["restrict", data_path("icosahedron")]) == 2
    assert "candidate" in capsys.readouterr().err


def test_usage_errors_return_exit_codes(capsys):
    # argparse's exit is an exit code of main, not an escaping SystemExit
    code, out, err = run(capsys, "--help")
    assert code == 0 and "usage:" in out and err == ""
    code, out, err = run(capsys, "verify", data_path("cube"))
    assert code == 2 and out == "" and "required" in err
    code, out, err = run(capsys, "solve", data_path("cube"))
    assert code == 2 and out == "" and "invalid choice" in err


def test_restrict_command_candidate(capsys, cube_run, tmp_path):
    candidate = str(cube_run / "candidate_000.json")
    code, text, _ = run(capsys, "restrict", data_path("cube"), candidate)
    assert code == 0
    doc = json.loads(text)
    assert doc["edge_bound_ok"] is True
    assert doc["has_size3_class"] is False
    assert doc["commuting_generator_pairs"] == []
    # the same cube under a name with no bundled realization: the
    # commutator test is not run, and says so
    box = tmp_path / "box.json"
    box.write_text(json.dumps(
        dict(json.loads(Path(data_path("cube")).read_text()), name="box")))
    code, text, _ = run(capsys, "restrict", str(box), candidate)
    assert code == 0
    assert json.loads(text)["commuting_generator_pairs"] is None


def test_overlong_name_is_not_realizable(capsys, cube_run, tmp_path):
    # the bundled cube under a name too long for a file name: no
    # realization is bundled under it, and every command says so as for
    # any other unknown name
    path = tmp_path / "long.json"
    path.write_text(json.dumps(
        dict(json.loads(Path(data_path("cube")).read_text()), name="a" * 300)))
    with pytest.raises(geometry.NotRealizableError, match="no regular"):
        geometry.load_realization(polytope.load_polyhedron(str(path)))
    code, out, err = run(capsys, "realize", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: no regular ideal realization is bundled")
    candidate = str(cube_run / "candidate_000.json")
    code, out, _ = run(capsys, "verify", str(path), candidate)
    assert code == 0 and json.loads(out)["status"] == "not-attempted"
    code, out, _ = run(capsys, "restrict", str(path), candidate)
    assert code == 0
    assert json.loads(out)["commuting_generator_pairs"] is None
    code, out, _ = run(capsys, "pipeline", str(path))
    families = json.loads(out)["families"]
    assert code == 0 and len(families) == 3
    assert all(f["verification"] == "out-of-scope" for f in families)


def test_restrict_prints_the_library_document(capsys, cube_run,
                                              octahedron_run):
    # `hypdom restrict` writes grouplab.restriction_report's document as it
    # is, on every cube and octahedron candidate; without generator maps
    # the commuting pairs are None, and with no generators an empty list
    checked = 0
    for solid, out in (("cube", cube_run), ("octahedron", octahedron_run)):
        poly = polytope.load_polyhedron(data_path(solid))
        realization = geometry.load_realization(poly)
        for path in sorted(out.glob("candidate_*.json")):
            scheme = enumeration.candidate_scheme(
                poly, json.loads(path.read_text()))
            gens = geometry.face_pairing_maps(realization, scheme)
            code, text, _ = run(capsys, "restrict", data_path(solid),
                                str(path))
            doc = grouplab.restriction_report(scheme, gens)
            assert code == 0 and json.loads(text) == doc
            for generators, pairs in ((None, None), ({}, [])):
                assert grouplab.restriction_report(scheme, generators) == dict(
                    doc, commuting_generator_pairs=pairs)
            checked += 1
    assert checked == 150


def test_verify_prints_the_library_document(capsys, cube_run,
                                            octahedron_run):
    # `hypdom verify` writes geometry.verify_candidate's document as it is
    # on every cube and octahedron candidate the regular realization
    # covers, and the not-attempted document with the scope test's
    # message on every other one
    checked = in_scope = 0
    for solid, out in (("cube", cube_run), ("octahedron", octahedron_run)):
        poly = polytope.load_polyhedron(data_path(solid))
        for path in sorted(out.glob("candidate_*.json")):
            cand = enumeration.candidate_from_json_dict(
                poly, json.loads(path.read_text()))
            code, text, _ = run(capsys, "verify", data_path(solid), str(path))
            assert code == 0
            try:
                doc = geometry.verify_candidate(cand)
            except geometry.NotRealizableError as exc:
                doc = {"status": "not-attempted", "reason": str(exc)}
            else:
                in_scope += 1
            assert text == cli._encode(doc) + "\n"
            checked += 1
    assert (checked, in_scope) == (150, 54)


def test_verify_output_bytes_pinned(capsys, cube_run, octahedron_run):
    # the `verify` stdout of every cube and octahedron candidate, byte for
    # byte: a change to the exact Mobius arithmetic that alters an entry, a
    # type or a verdict shows here
    h = hashlib.sha256()
    documents = confirmed = 0
    for solid, out in (("cube", cube_run), ("octahedron", octahedron_run)):
        for path in sorted(out.glob("candidate_*.json")):
            code, text, _ = run(capsys, "verify", data_path(solid), str(path))
            assert code == 0
            h.update(text.encode())
            documents += 1
            confirmed += json.loads(text)["status"] == "CONFIRMED"
    assert (documents, confirmed) == (150, 54)
    assert h.hexdigest() == (
        "1d85c4d5992d61d8b203e12dc071d90c2eb4de44045459c7b79ce0a968fa8d5d")


def test_verify_out_of_scope_is_not_attempted(capsys, octahedron_run):
    # a 3-4-5 octahedron candidate misses the regular all-1/2 point: verify
    # says it did not try, and exits 0 since the command ran
    path = next(p for p in sorted(octahedron_run.glob("candidate_*.json"))
                if json.loads(p.read_text())["class_sizes"] == [3, 4, 5])
    code, text, err = run(capsys, "verify", data_path("octahedron"),
                          str(path))
    assert code == 0 and err == ""
    doc = json.loads(text)
    assert set(doc) == {"status", "reason"}
    assert doc["status"] == "not-attempted"
    assert "all-1/2" in doc["reason"]


def test_pipeline_cube(capsys, tmp_path):
    out = tmp_path / "pipe"
    code, _, _ = run(capsys, "pipeline", data_path("cube"), "--out", str(out))
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["families"]) == 3
    assert all(f["verification"] == "CONFIRMED" for f in doc["families"])
    assert sorted(f["rotation_classes"] for f in doc["families"]) == [1, 2, 2]


def cube_variant(tmp_path, name, faces):
    """The bundled cube document, still named "cube", with other faces."""
    doc = json.loads(Path(data_path("cube")).read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(doc, faces=faces)))
    return str(path)


def test_relabelled_cube_is_not_verified(capsys, tmp_path):
    # FTR and BBL swapped in every face: a valid cube named "cube", but its
    # faces are not the bundled cube's, whose vertices the realization
    # places, so no verdict is given on it
    swap = {"FTR": "BBL", "BBL": "FTR"}
    faces = polytope.bundled("cube").faces
    path = cube_variant(tmp_path, "swapped",
                        [[swap.get(v, v) for v in face] for face in faces])
    with pytest.raises(geometry.RealizationError, match="not a face"):
        geometry.load_realization(polytope.load_polyhedron(path))
    code, out, _ = run(capsys, "pipeline", path, "--out", str(tmp_path / "run"))
    assert code == 0
    families = json.loads((tmp_path / "run" / "report.json").read_text())[
        "families"]
    assert len(families) == 3
    for family in families:
        assert family["verification"] == "error"
        assert "is not a face of the bundled 'cube'" in family["reason"]
    for name in ("candidate_000.json", "candidate_006.json"):
        code, out, err = run(capsys, "verify", path,
                             str(tmp_path / "run" / name))
        assert (code, out) == (2, ""), name
        assert err.startswith("error: face ") and "not a face" in err, name


@pytest.mark.parametrize("variant", ["mirrored", 1, 2, 3])
def test_mirrored_and_rotated_cubes_confirm(capsys, tmp_path, variant):
    # every cycle reversed, or the faces relabelled by a rotation drawn by
    # a seed (face i becomes its image, vertex names kept): the same faces
    # up to rotation and reversal, so all three families confirm
    cube = polytope.bundled("cube")
    if variant == "mirrored":
        faces = [face[::-1] for face in cube.faces]
    else:
        sigma = random.Random(variant).choice(
            [vmap for vmap, rotation in symmetry_group(cube)
             if rotation and any(k != v for k, v in vmap.items())])
        faces = [[sigma[v] for v in face] for face in cube.faces]
    path = cube_variant(tmp_path, "variant", faces)
    code, out, _ = run(capsys, "pipeline", path)
    assert code == 0
    assert [f["verification"] for f in json.loads(out)["families"]] == [
        "CONFIRMED"] * 3


def test_pipeline_rotation_grouping(capsys):
    # every report carries both groupings, so no option picks one
    code, out, _ = run(capsys, "enumerate", data_path("cube"))
    assert code == 0
    doc = json.loads(out)
    assert doc["families_rotation_group"] == 5
    assert len(doc["families_full_group"]) == 3
    assert "families_requested_grouping" not in doc
    assert cli.main(["enumerate", data_path("cube"),
                     "--group", "rotations"]) == 2


def test_icosahedron_enumerate_guarded(capsys):
    # the scheme cap is checked before the dual or automorphisms are built
    for name in ("icosahedron", "dodecahedron"):
        code, _, err = run(capsys, "enumerate", data_path(name))
        assert code == 2
        assert "exceeds cap" in err


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
        # four exact entries [[a, b], [c, d]], content-reduced, invertible
        assert len(entries) == 4
        ints = [x for e in entries for part in e for x in part]
        assert len(ints) == 16 and all(type(x) is int for x in ints)
        assert math.gcd(*ints) == 1
        a, b, c, d = map(geometry.ring_from_json, entries)
        assert a * d - b * c


def test_tolerance_options_are_gone(capsys, cube_run):
    # verification decides by equality: no tolerance can be passed; nor
    # the circuit cap, a module constant
    for argv in (["verify", data_path("cube"),
                  str(cube_run / "candidate_000.json"), "--tol-id", "1e-9"],
                 ["pipeline", data_path("cube"), "--tol-geo", "1e-9"],
                 ["enumerate", data_path("cube"), "--circuit-cap", "10"],
                 ["pipeline", data_path("cube"), "--circuit-cap", "10"]):
        assert cli.main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_only_angles_solves_on_reload(capsys, cube_run, monkeypatch):
    # a reload checks the persisted witness by substitution: `verify`
    # solves no angle system, and `angles` solves the candidate's own
    # system once, to print its status, rank and free variables
    calls = []
    solve = angles.solve_exact
    monkeypatch.setattr(angles, "solve_exact",
                        lambda system: calls.append(system) or solve(system))
    candidates = sorted(cube_run.glob("candidate_*.json"))
    assert len(candidates) == 30
    for path in candidates:
        code, text, _ = run(capsys, "verify", data_path("cube"), str(path))
        assert code == 0 and json.loads(text)["status"] == "CONFIRMED"
    assert calls == []
    shapes = collections.Counter()
    for path in candidates:
        code, text, _ = run(capsys, "angles", data_path("cube"), str(path))
        doc = json.loads(text)
        shapes[doc["status"], doc["rank"], doc["free_variables"]] += 1
    assert len(calls) == 30
    assert shapes == {("affine-family", 8, 4): 18,
                      ("affine-family", 7, 5): 12}


def test_no_circuit_list_on_reload_or_pipeline(capsys, cube_run, monkeypatch,
                                               tmp_path):
    # a reload checks the witness with a light-cycle search and the
    # pipeline generates its circuit rows, so neither lists the circuits
    # (at the parent: one list per `verify` or `angles` call, 30 each over
    # the cube's candidates, and one per pipeline)
    calls = []
    circuits = polytope.simple_circuits
    monkeypatch.setattr(polytope, "simple_circuits",
                        lambda *a: calls.append(a) or circuits(*a))
    candidates = sorted(cube_run.glob("candidate_*.json"))
    assert len(candidates) == 30
    for path in candidates:
        code, text, _ = run(capsys, "verify", data_path("cube"), str(path))
        assert code == 0 and json.loads(text)["status"] == "CONFIRMED"
        code, _, _ = run(capsys, "angles", data_path("cube"), str(path))
        assert code == 0
    assert calls == []
    for name, survivors in (("cube", 30), ("octahedron", 120)):
        code, _, _ = run(capsys, "pipeline", data_path(name),
                         "--out", str(tmp_path / name))
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert code == 0 and report["survivors"] == survivors
    assert calls == []


def test_derived_data_built_once(capsys, cube_run, monkeypatch, tmp_path):
    # the polyhedron builds its incidence once; a reload assembles the
    # angle system once, to check the witness, and `verify` and `angles`
    # read it again from the candidate
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    count(polytope, "build_incidence")
    count(angles, "assemble_system")
    code, text, _ = run(capsys, "verify", data_path("cube"),
                        str(cube_run / "candidate_000.json"))
    assert code == 0 and json.loads(text)["status"] == "CONFIRMED"
    assert calls == {"build_incidence": 1, "assemble_system": 1}
    calls.clear()
    code, text, _ = run(capsys, "angles", data_path("cube"),
                        str(cube_run / "candidate_000.json"))
    assert code == 0 and json.loads(text)["status"] == "affine-family"
    assert calls == {"build_incidence": 1, "assemble_system": 1}
    # a pipeline assembles one system per `feasible` call (8 on the cube, 6
    # on the octahedron: one per symmetry class of partitions, none for a
    # partition whose witness is read through a symmetry) and one per
    # verified family representative (3 and 7)
    for name, assembled in (("cube", 11), ("octahedron", 13)):
        calls.clear()
        code, _, _ = run(capsys, "pipeline", data_path(name),
                         "--out", str(tmp_path / name))
        assert code == 0
        assert calls == {"build_incidence": 1, "assemble_system": assembled}


def test_parser_built_once(capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: calls.append(1) or build())
    for _ in range(3):
        assert run(capsys, "info", data_path("cube"))[0] == 0
    assert calls == [1]


def child_env(**extra):
    """Environment in which a child `python -m hypdom.cli` imports the same
    hypdom as this process, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_determinism_across_processes(tmp_path):
    # same bytes under different hash seeds
    for command, solid in (("enumerate", "cube"), ("pipeline", "octahedron")):
        outs = []
        for seed in ("1", "31337"):
            outdir = tmp_path / f"{command}_{solid}_s{seed}"
            subprocess.run(
                [sys.executable, "-m", "hypdom.cli", command,
                 data_path(solid), "--out", str(outdir)],
                check=True, env=child_env(PYTHONHASHSEED=seed),
                capture_output=True)
            outs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
        assert outs[0] == outs[1]


def test_import_loads_no_dataclasses():
    # the library's records are namedtuples: a dataclass writes and execs
    # its methods when its class is created, a cost every CLI process paid
    # on import
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypdom.cli; print('dataclasses' in sys.modules)"],
        check=True, env=child_env(), capture_output=True, text=True)
    assert child.stdout == "False\n"


def test_import_surface_is_the_modules():
    # the package exports nothing, and a module loads only the hypdom
    # modules it imports itself
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypdom; "
         "print([n for n in vars(hypdom) if not n.startswith('_')]); "
         "import hypdom.polytope; "
         "print(sorted(m for m in sys.modules if m.startswith('hypdom')))"],
        check=True, env=child_env(), capture_output=True, text=True)
    assert child.stdout == "[]\n['hypdom', 'hypdom.polytope']\n"


def tree_digest(directory):
    """sha256 over the sorted relative paths and bytes of every file, with
    the file count and the byte count."""
    h = hashlib.sha256()
    files = total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
        files += 1
        total += len(data)
    return h.hexdigest(), files, total


@pytest.mark.parametrize("solid, digest", [
    ("cube", ("221c49bc8b1ae7e9a0a59df8841c757f11934ab13ae6d1c148bf0bdf9cb27b90",
              31, 69489)),
    ("octahedron",
     ("f7b965d03df00198a3b51fc953c388b1aa1ed436d64ac6338d65d99b9cb77451",
      121, 281861)),
])
def test_pipeline_output_bytes_pinned(tmp_path, solid, digest):
    # the whole `pipeline --out` tree, byte for byte: a change to the search
    # that alters a count, a family, a witness, an orbit's start or the
    # order of the candidates shows here
    out = tmp_path / solid
    assert cli.main(["pipeline", data_path(solid), "--out", str(out)]) == 0
    assert tree_digest(out) == digest


def test_reused_out_directory_holds_this_run_only(tmp_path):
    # a run into a directory an earlier run wrote removes the earlier
    # candidates it does not overwrite: the octahedron's 120 then the
    # cube's 30 leave the cube's tree, and the tetrahedron's none leave
    # report.json alone; a file hypdom never writes stays, also one named
    # candidate_ and digits that are not ASCII digits, or ASCII digits
    # that are not f"{i:03d}"
    out = tmp_path / "run"
    out.mkdir()
    kept = [out / name for name in ("notes.txt", "candidate_\u00b2\u00b3.json",
                                    "candidate_\u0661\u0662.json",
                                    "candidate_5.json", "candidate_0001.json")]
    for path in kept:
        path.write_text("kept\n")
    for solids, digest in [
            (("octahedron", "cube"),
             ("221c49bc8b1ae7e9a0a59df8841c757f"
              "11934ab13ae6d1c148bf0bdf9cb27b90", 31, 69489)),
            (("tetrahedron",),
             ("cbcb486d4212590c6471e47d87eeb33b"
              "618acf2869b07af032989f7605b7c1df", 1, 245))]:
        for solid in solids:
            assert cli.main(["pipeline", data_path(solid),
                             "--out", str(out)]) == 0
        for path in kept:
            assert path.read_text() == "kept\n"
            path.unlink()  # out of the digest, then back for the next run
        assert tree_digest(out) == digest
        for path in kept:
            path.write_text("kept\n")


def test_closed_pipe_exits_quietly():
    # the reader closes its end before the child writes: no traceback, 0
    child = subprocess.Popen(
        [sys.executable, "-m", "hypdom.cli", "realize", data_path("cube")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 0
    assert err == b""


def test_candidates_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    # a candidate written as UTF-8 reads the same under the C locale, as
    # its polyhedron does: angles, restrict and verify do not fall back to
    # the locale's encoding
    cube = json.loads(Path(data_path("cube")).read_text())
    doc = {"name": "w\xfcrfel",
           "vertices": [v + "\xe9" for v in cube["vertices"]],
           "faces": [[v + "\xe9" for v in f] for f in cube["faces"]]}
    poly = tmp_path / "wuerfel.json"
    poly.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["enumerate", str(poly), "--out", str(out)]) == 0
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps(json.loads(
        (out / "candidate_000.json").read_text()), ensure_ascii=False),
        encoding="utf-8")
    assert "\xe9" in candidate.read_text(encoding="utf-8")
    env = child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    for argv in (["info", str(poly)], ["angles", str(poly), str(candidate)],
                 ["restrict", str(poly), str(candidate)],
                 ["verify", str(poly), str(candidate)]):
        child = subprocess.run([sys.executable, "-m", "hypdom.cli", *argv],
                               env=env, capture_output=True)
        assert (child.returncode, child.stderr) == (0, b""), argv


def dumps(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


def test_writer_matches_json_dumps_on_every_command(capsys, tmp_path,
                                                    monkeypatch):
    # every document a command writes, to a file or to stdout, is byte for
    # byte what json.dumps(indent=1, sort_keys=True) makes of it
    written = []
    dump = cli._dump

    def recording(doc, path=None):
        written.append((doc, path))
        dump(doc, path)

    monkeypatch.setattr(cli, "_dump", recording)
    checked = collections.Counter()

    def check(command, *argv):
        cli.main([command, *argv])
        out = capsys.readouterr().out
        for doc, path in written:
            text = (Path(path).read_bytes().decode() if path else out)
            assert text == dumps(doc) + "\n", (command, argv)
            checked[command] += 1
        written.clear()

    solids = ("tetrahedron", "cube", "octahedron", "dodecahedron",
              "icosahedron")
    for solid in solids:
        for command in ("info", "realize", "enumerate"):
            check(command, data_path(solid))
    for solid in ("cube", "octahedron"):
        out = tmp_path / solid
        check("pipeline", data_path(solid), "--out", str(out))
        for candidate in sorted(out.glob("candidate_*.json")):
            for command in ("angles", "verify", "restrict"):
                check(command, data_path(solid), str(candidate),
                      "--out-file", str(tmp_path / f"{command}.json"))
    # realize: the cube and the octahedron; enumerate: all but the two
    # solids past the scheme cap
    assert checked == {"info": 5, "realize": 2, "enumerate": 3,
                       "pipeline": 2 + 30 + 120, "angles": 150,
                       "verify": 150, "restrict": 150}


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, [[{}]]]},
    (1, (2, 3), [4, (5,)]), None, True, False, 0, -7, 10 ** 40, -(10 ** 40),
    [None, True, False, -1, 2 ** 63],
    "quote \" and backslash \\ and slash /",
    "controls \x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f",
    "non-ASCII \xe9 \xfc 漢   \U0001f600",
    {"z": 1, "a": [None, True], "M": "x", "\xe9": "k", "": "empty key",
     "a\"b": {"nested": [{"deep": ("tuple", -3)}]}},
])
def test_writer_matches_json_dumps_on_hand_made_documents(doc):
    assert cli._encode(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    1.5, Fraction(1, 3), [Fraction(2)], {"a": {"b": 0.5}}, {1: "a"},
    {"a": 1, 2: "b"}, {("a",): 1}, {None: 1}, {"a"}, b"bytes",
    # ring values are tuples, but reach a document only through ring_to_json
    {"z": geometry.Z3i(1, 2)}, [geometry.IDENTITY],
])
def test_writer_rejects_what_it_does_not_cover(doc):
    with pytest.raises(TypeError):
        cli._encode(doc)


def test_writer_leaves_no_cyclic_garbage(cube_run, tmp_path):
    # encoding a candidate builds no reference cycle for the collector
    doc = json.loads((cube_run / "candidate_000.json").read_text())
    gc.collect()
    gc.disable()
    try:
        cli._dump(doc, tmp_path / "candidate.json")
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_pipeline_and_verify_leave_no_cyclic_garbage(cube_run, tmp_path):
    # a cube pipeline pass and a verify call build no reference cycle for
    # the collector: the circuit search recurses through a module function,
    # not through a closure that refers to itself
    cube = data_path("cube")
    calls = (["pipeline", cube, "--out", str(tmp_path / "run")],
             ["verify", cube, str(cube_run / "candidate_000.json"),
              "--out-file", str(tmp_path / "verify.json")])
    gc.collect()
    gc.disable()
    try:
        left = []
        for argv in calls:
            assert cli.main(argv) == 0
            left.append(gc.collect())
    finally:
        gc.enable()
    assert left == [0, 0]
