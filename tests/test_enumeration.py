import collections
import functools
import itertools
import json
import math
import random
import string
import types
from fractions import Fraction
from importlib import resources

import pytest

from hypdom import angles, cli, enumeration, pairings, polytope

from conftest import (DRAWN_EDGES, FD2_CLASSES, bipyramid_doc, canonicalize,
                      conjugate_scheme, detect_elliptic_generator, drawn,
                      enumerate_schemes, prism_doc, scheme_keys,
                      scheme_signature, symmetry_group)

# exterior angles in drawing numbers for the quarter-twist opposite-face
# scheme: the regular point, and a point of the same angle family whose
# front-back belt (edges 2, 3, 6, 7) sums to exactly 2, breaking the strict
# circuit inequality while every value stays inside (0, 1)
REGULAR = {n: Fraction(2, 3) for n in DRAWN_EDGES}
BELT_AT_TWO = {**REGULAR, **{n: Fraction(1, 2) for n in (2, 3, 6, 7)},
               **{n: Fraction(5, 6) for n in (4, 8, 9, 10)}}


def test_scheme_count_cube(cube):
    assert enumeration.scheme_space_size(cube) == 960
    assert sum(1 for _ in enumerate_schemes(cube)) == 960


def test_scheme_count_tetrahedron(solids):
    tet = solids["tetrahedron"]
    assert enumeration.scheme_space_size(tet) == 27
    schemes = list(enumerate_schemes(tet))
    assert len(schemes) == 27
    assert len({scheme_signature(s) for s in schemes}) == 27


def test_odd_face_count_rejected():
    prism = polytope.load_polyhedron(prism_doc(3, False))
    with pytest.raises(enumeration.EnumerationError, match="odd"):
        enumeration.scheme_space_size(prism)


def test_icosahedron_past_desk_scale(solids):
    with pytest.raises(enumeration.SchemeCapExceeded):
        enumeration.classify(solids["icosahedron"])


def truncated(poly, cut):
    """The document of `poly` with each vertex of `cut` cut off.  A face
    running a, v, b runs a, v>a, v>b, b instead; the new face at v runs
    along the reverses of the new edges v>a -> v>b."""
    faces, closing = [], {v: {} for v in cut}
    for face in poly.faces:
        n, new = len(face), []
        for i, v in enumerate(face):
            if v in cut:
                a, b = face[i - 1], face[(i + 1) % n]
                new += [f"{v}>{a}", f"{v}>{b}"]
                closing[v][f"{v}>{b}"] = f"{v}>{a}"
            else:
                new.append(v)
        faces.append(new)
    for v in cut:
        cycle = [min(closing[v])]
        while closing[v][cycle[-1]] != cycle[0]:
            cycle.append(closing[v][cycle[-1]])
        faces.append(cycle)
    return {"name": f"{poly.name}-truncated",
            "vertices": list(dict.fromkeys(v for f in faces for v in f)),
            "faces": faces}


def test_empty_scheme_space_answered_at_once(cube, cube_report, monkeypatch):
    # cut at two corners of its back face, the cube has faces of lengths
    # 6, 5, 5, 5, 5, 4, 3, 3: the hexagon has no partner, so no scheme
    poly = polytope.load_polyhedron(truncated(cube, ("BBL", "BTR")))
    assert sorted(map(len, poly.faces)) == [3, 3, 4, 5, 5, 5, 5, 6]
    assert angles.required_class_count(poly) == 3
    calls = []
    for module, name in ((pairings, "automorphism_actions"),
                         (polytope, "build_dual")):
        monkeypatch.setattr(module, name,
                            lambda *a, f=getattr(module, name):
                            calls.append(a) or f(*a))
    report = enumeration.classify(poly)
    assert calls == []
    doc = enumeration.report_to_json_dict(report)
    full = enumeration.report_to_json_dict(cube_report)
    assert doc == {"total_schemes": 0,
                   "rejected": dict.fromkeys(full["rejected"], 0),
                   "survivors": 0, "families_full_group": [],
                   "families_rotation_group": 0}
    assert doc.keys() == full.keys()


def test_matchings_walk_equal_length_faces_in_order():
    # oracle: every perfect matching of the face ids, each as its pairs
    # (smaller face first) in order, sorted: the order of a walk that
    # pairs the first free face with each later one in turn
    poly = polytope.load_polyhedron(prism_doc(6, True))
    faces = range(poly.face_count())
    everything = sorted({tuple(sorted(tuple(sorted(perm[i:i + 2]))
                                      for i in range(0, len(perm), 2)))
                         for perm in itertools.permutations(faces)})
    equal = [list(m) for m in everything
             if all(len(poly.faces[f]) == len(poly.faces[g]) for f, g in m)]
    assert (len(everything), len(equal)) == (105, 15)
    table = enumeration._pairing_table(poly)
    assert set(table) == {(f, g) for f, g in itertools.combinations(faces, 2)
                          if len(poly.faces[f]) == len(poly.faces[g])}
    assert list(enumeration._perfect_matchings(list(faces), table)) == equal


def test_classify_counts(cube_report):
    assert cube_report.total == 960
    assert cube_report.counts_consistent()
    assert len(cube_report.survivors) == 30
    assert cube_report.rejected["elliptic"] == 464
    assert cube_report.rejected["class_count"] == 302
    assert cube_report.rejected["class_size"] == 24
    assert cube_report.rejected["system_infeasible"] == 0
    assert cube_report.rejected["rivin_infeasible"] == 140


def test_classify_families(cube_report):
    fams = cube_report.families_full
    assert len(fams) == 3
    sizes = sorted(len(members) for members in fams.values())
    assert sizes == [6, 12, 12]
    rot_split = sorted(
        len({m.key_rotations for m in members}) for members in fams.values())
    assert rot_split == [1, 2, 2]
    assert enumeration.report_to_json_dict(
        cube_report)["families_rotation_group"] == 5
    # the per-family sum is the count of distinct rotation keys
    assert len({m.key_rotations for m in cube_report.survivors}) == 5


@pytest.mark.parametrize("name, families", [("cube", 3), ("octahedron", 7)])
def test_classify_keys_each_family_in_one_pass(solids, monkeypatch, name,
                                               families):
    # one pass over the group per full-group family, not per survivor: its
    # members share the family's key strings, one full-group key and one
    # rotation key per coset
    passes = []
    image_keys = pairings.image_keys
    monkeypatch.setattr(pairings, "image_keys",
                        lambda *a: passes.append(a) or image_keys(*a))
    report = enumeration.classify(solids[name])
    assert len(passes) == len(report.families_full) == families
    for members in report.families_full.values():
        assert len({id(m.key_full) for m in members}) == 1
        assert len({id(m.key_rotations) for m in members}) <= 2


@pytest.mark.parametrize("name, schemes, rejected", [
    ("cube", 170, (960, 464, 302, 24)),
    ("octahedron", 120, (8505, 3849, 4014, 522))])
def test_scheme_stream(solids, name, schemes, rejected):
    # the structural stage alone: it counts the total and the structural
    # rejections, and yields each scheme past them with its edge orbits
    poly = solids[name]
    report = enumeration.EnumerationReport()
    stream = list(enumeration.scheme_stream(
        poly, report, pairings.automorphism_actions(poly)))
    assert len(stream) == schemes
    assert (report.total, report.rejected["elliptic"],
            report.rejected["class_count"],
            report.rejected["class_size"]) == rejected
    assert report.rejected["system_infeasible"] == 0
    assert report.rejected["rivin_infeasible"] == 0
    assert report.survivors == []
    # pairings are named A, B, C, ... in the walk's pair order, each from
    # its smaller face, and the matchings come in the walk's order
    walk = list(enumeration._perfect_matchings(
        list(range(poly.face_count())), enumeration._pairing_table(poly)))
    position = []
    for chosen, orbits in stream:
        scheme = pairings.validate_scheme(pairings.PairingScheme(poly, chosen))
        matching = [(p.source, p.target) for p in chosen]
        assert [p.gen for p in chosen] == list(
            string.ascii_uppercase[:len(chosen)])
        assert all(f < g for f, g in matching)
        assert matching == sorted(matching)
        position.append(walk.index(matching))
        assert ([o.steps for o in orbits]
                == [o.steps for o in pairings.edge_orbits(scheme)])
        assert min(o.size for o in orbits) >= 3
    assert position == sorted(position)


def renumbered(poly, seed):
    """The polyhedron with its faces renumbered: by a rotation for seed
    None (face i the image of face i under the first rotation that moves
    every face), otherwise in a seeded order with each cycle started at a
    seeded corner."""
    if seed is None:
        vmap, *_ = next(a for a in pairings.automorphism_actions(poly)
                        if a.rotation and all(
                            g != f for f, g in enumerate(a.faces)))
        faces = [[vmap[v] for v in face] for face in poly.faces]
    else:
        rng = random.Random(seed)
        faces = []
        for face in rng.sample(poly.faces, len(poly.faces)):
            k = rng.randrange(len(face))
            faces.append(list(face[k:] + face[:k]))
    assert faces != [list(face) for face in poly.faces]
    return polytope.load_polyhedron({"name": poly.name,
                                     "vertices": list(poly.vertices),
                                     "faces": faces})


STREAM_CASES = {
    "tetrahedron": lambda solids: solids["tetrahedron"],
    "cube": lambda solids: solids["cube"],
    "octahedron": lambda solids: solids["octahedron"],
    "prism6": lambda solids: polytope.load_polyhedron(prism_doc(6, True)),
    "bipyramid3": lambda solids: polytope.load_polyhedron(bipyramid_doc(3)),
    **{f"{name}-{how}": functools.partial(
        lambda solids, name, seed: renumbered(solids[name], seed),
        name=name, seed=seed)
       for name in ("cube", "octahedron")
       for how, seed in (("rotated", None), ("shuffled", 11))},
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_scheme_stream_matches_oracle(solids, case):
    # the stream decides the class filters once per matching orbit and
    # carries the passing schemes to the orbit's other matchings; it must
    # yield exactly the brute-force schemes with no elliptic pairing (by
    # the shared-edge oracle) whose edge_orbits pass the class count and
    # class size filters, in the same order, with the same orbit steps,
    # and count the same rejections
    poly = STREAM_CASES[case](solids)
    required = angles.required_class_count(poly)
    expected, counts = [], collections.Counter()
    for scheme in enumerate_schemes(poly):
        counts["total"] += 1
        if detect_elliptic_generator(scheme):
            counts["elliptic"] += 1
            continue
        orbits = pairings.edge_orbits(scheme)
        if len(orbits) != required:
            counts["class_count"] += 1
        elif min(o.size for o in orbits) < 3:
            counts["class_size"] += 1
        else:
            expected.append((scheme.pairings, [o.steps for o in orbits]))
    report = enumeration.EnumerationReport()
    stream = [(chosen, [o.steps for o in orbits])
              for chosen, orbits in enumeration.scheme_stream(
                  poly, report, pairings.automorphism_actions(poly))]
    assert stream == expected
    assert collections.Counter(
        total=report.total, **{name: report.rejected[name] for name in
                               ("elliptic", "class_count", "class_size")}
    ) == counts


@pytest.mark.parametrize("fault", ["faces", "vertices"])
def test_non_symmetry_action_refused(cube, monkeypatch, tmp_path, fault):
    # an action whose face permutation disagrees with its vertex map, put
    # first in the list, is refused before the stream, which would carry
    # schemes through it: classify raises and never returns counts, and
    # the CLI exits 3
    actions = pairings.automorphism_actions(cube)
    identity = actions[0]
    if fault == "faces":
        faces = list(identity.faces)
        faces[0], faces[2] = faces[2], faces[0]
        bogus = identity._replace(faces=tuple(faces))
    else:
        first, second = cube.faces[0][:2]
        bogus = identity._replace(vmap={**identity.vmap, first: second,
                                        second: first})
    stream = []
    monkeypatch.setattr(enumeration, "scheme_stream",
                        lambda *a: stream.append(a) or iter(()))
    monkeypatch.setattr(pairings, "automorphism_actions",
                        lambda poly: [bogus, *actions])
    with pytest.raises(AssertionError, match="does not agree"):
        enumeration.classify(cube)
    assert stream == []
    cube_doc = str(resources.files("hypdom.data").joinpath("cube.json"))
    for command in ("enumerate", "pipeline"):
        assert cli.main([command, cube_doc,
                         "--out", str(tmp_path / command)]) == 3


@pytest.mark.parametrize("fault, message", [
    ("image", "not in the pairing table"),
    ("scheme", "carried scheme failed the class_count filter")])
def test_carry_guards(cube, monkeypatch, tmp_path, fault, message):
    # a carried scheme is walked again and must pass the filters, and each
    # image correspondence must be in its pair's table list; either fault
    # raises AssertionError out of classify, and the CLI exits 3
    if fault == "image":
        pair_image = pairings.pair_image
        monkeypatch.setattr(pairings, "pair_image",
                            lambda *a: (*pair_image(*a)[:2], ()))
    else:
        # every scheme of the member matching, not only the images of the
        # representative's passing ones
        monkeypatch.setattr(
            enumeration, "_carried_indices",
            lambda table, representative, action, matching, passing:
            itertools.product(*(range(len(table[pair]))
                                for pair in matching)))
    with pytest.raises(AssertionError, match=message):
        enumeration.classify(cube)
    cube_doc = str(resources.files("hypdom.data").joinpath("cube.json"))
    for command in ("enumerate", "pipeline"):
        assert cli.main([command, cube_doc,
                         "--out", str(tmp_path / command)]) == 3


@pytest.mark.parametrize("name, compiled", [
    ("tetrahedron", 18), ("cube", 60), ("octahedron", 84)])
def test_classify_compiles_each_pairing_once(solids, monkeypatch, name,
                                             compiled):
    # one pairing_darts call per correspondence of each equal-length face
    # pair, not one per matching that contains the pair
    poly = solids[name]
    calls = []
    pairing_darts = pairings.pairing_darts
    monkeypatch.setattr(pairings, "pairing_darts",
                        lambda *a: calls.append(a) or pairing_darts(*a))
    enumeration.classify(poly)
    assert len(calls) == compiled
    assert len({(p.source, p.target, p.corr) for _, p in calls}) == compiled


@pytest.mark.parametrize("name, partitions, decided, empty, witnessed", [
    ("cube", 105, 8, 140, 30), ("octahedron", 96, 6, 0, 120)])
def test_angle_stage(solids, monkeypatch, name, partitions, decided, empty,
                     witnessed):
    # the angle stage over the stream: `feasible` runs once per symmetry
    # class of partitions, on the only systems the stage assembles, and
    # each witness, read through a symmetry or not, solves its partition's
    # own system
    poly = solids[name]
    actions = pairings.automorphism_actions(poly)
    stream = list(enumeration.scheme_stream(
        poly, enumeration.EnumerationReport(), actions))
    dual = polytope.build_dual(poly)
    calls, assembled = [], []
    feasible, assemble = angles.feasible, angles.assemble_system
    monkeypatch.setattr(angles, "feasible",
                        lambda *a: calls.append(a) or feasible(*a))
    monkeypatch.setattr(angles, "assemble_system",
                        lambda *a: assembled.append(a) or assemble(*a))
    records = {}
    verdicts = collections.Counter()
    for _, orbits in stream:
        partition = frozenset(frozenset(o.edges) for o in orbits)
        status, witness = enumeration.angle_record(
            poly, dual, actions, records, partition)
        verdicts[witness is not None] += 1
        if witness is None:
            assert status == "affine-family"
            continue
        system = assemble(poly, [set(cl) for cl in partition])
        assert angles.satisfies(system, witness.values)
    assert len(records) == partitions
    assert len(calls) == len(assembled) == decided
    assert (verdicts[False], verdicts[True]) == (empty, witnessed)


def test_angle_stage_records_an_inconsistent_partition(cube, monkeypatch):
    # no scheme of a bundled solid reaches the system_infeasible branch:
    # a class of the three edges at one cube vertex sums to 1 by its row
    # and to 2 by the vertex's; each symmetric image of it takes the
    # recorded verdict, and classify counts it under system_infeasible
    inc = cube.incidence
    star = frozenset(inc.vertex_edges["FTR"])
    partition = frozenset([star, frozenset(range(12)) - star])
    assert star == {0, 1, 8}
    dual = polytope.build_dual(cube)
    actions = pairings.automorphism_actions(cube)
    calls = []
    feasible = angles.feasible
    monkeypatch.setattr(angles, "feasible",
                        lambda *a: calls.append(a) or feasible(*a))
    records = {}
    verdict = enumeration.angle_record(cube, dual, actions, records,
                                       partition)
    assert verdict == ("infeasible", None) and len(calls) == 1
    images = {frozenset(frozenset(perm[e] for e in cl) for cl in partition)
              for *_, perm in actions}
    assert len(images) == 8
    image = min(images - {partition}, key=lambda p: sorted(map(sorted, p)))
    assert enumeration.angle_record(cube, dual, actions, records,
                                    image) == verdict
    assert len(calls) == 1 and records[image] == verdict

    def stream(poly, report, actions):
        report.total += 2
        for p in (partition, image):
            yield None, [types.SimpleNamespace(edges=cl) for cl in p]

    monkeypatch.setattr(enumeration, "scheme_stream", stream)
    report = enumeration.classify(cube)
    assert report.rejected == dict.fromkeys(enumeration.REJECTIONS, 0) | {
        "system_infeasible": 2}
    assert report.survivors == [] and len(calls) == 2


def test_family_keys(cube, cube_report, monkeypatch):
    # the keyer: one image_keys pass per family, each survivor's keys its
    # own entry in the table of its family's first survivor
    actions = pairings.automorphism_actions(cube)
    identity = next(a for a in actions
                    if all(u == v for u, v in a[0].items()))
    passes = []
    image_keys = pairings.image_keys
    monkeypatch.setattr(pairings, "image_keys",
                        lambda *a: passes.append(a) or image_keys(*a))
    keys = {}
    found = [enumeration.family_keys(cand.scheme, actions, identity, keys)
             for cand in cube_report.survivors]
    assert len(passes) == 3
    monkeypatch.setattr(pairings, "image_keys", image_keys)
    assert found == [scheme_keys(cand.scheme, actions)
                     for cand in cube_report.survivors]
    assert found == [(c.key_rotations, c.key_full)
                     for c in cube_report.survivors]


def test_all_survivors_six_six(cube_report):
    for cand in cube_report.survivors:
        assert cand.class_sizes == (6, 6)
        assert all(o.size > 2 for o in cand.orbits)


def test_survivors_closed_under_symmetry(cube, cube_report):
    autos = symmetry_group(cube)
    signatures = {scheme_signature(c.scheme)
                  for c in cube_report.survivors}
    for cand in cube_report.survivors:
        for vmap, _ in autos:
            image = conjugate_scheme(cand.scheme, vmap)
            assert scheme_signature(image) in signatures


def test_survivors_revalidate(cube, cube_dual, cube_report):
    required = angles.required_class_count(cube)
    for cand in cube_report.survivors:
        pairings.validate_scheme(cand.scheme)
        assert not detect_elliptic_generator(cand.scheme)
        orbits = pairings.edge_orbits(cand.scheme)
        assert len(orbits) == required
        system = angles.assemble_system(
            cube, [set(o.edges) for o in orbits])
        sol, witness = angles.feasible(system, cube_dual)
        assert witness is not None
        ok, _ = angles.check_inequalities(cube, cube_dual, cand.witness)
        assert ok


def test_filter_order_irrelevant(cube, cube_dual, cube_report):
    # apply the filters independently, in a different order, and compare the
    # survivor set with classify's
    required = angles.required_class_count(cube)
    survivors = set()
    cache = {}
    for scheme in enumerate_schemes(cube):
        orbits = pairings.edge_orbits(scheme)
        partition = frozenset(frozenset(o.edges) for o in orbits)
        if len(orbits) == required and all(o.size >= 3 for o in orbits):
            if partition not in cache:
                system = angles.assemble_system(
                    cube, [set(p) for p in partition])
                cache[partition] = angles.feasible(system, cube_dual)[1]
            feasible_witness = cache[partition]
        else:
            feasible_witness = None
        if feasible_witness is None:
            continue
        if detect_elliptic_generator(scheme):
            continue
        survivors.add(scheme_signature(scheme))
    assert survivors == {scheme_signature(c.scheme)
                         for c in cube_report.survivors}


def test_fd2_family_membership(cube, cube_report, fd2):
    fd2_key = canonicalize(fd2)
    members = cube_report.families_full[fd2_key]
    assert len({m.key_rotations for m in members}) == 1
    part = {frozenset(drawn(polytope.build_incidence(cube), c))
            for c in FD2_CLASSES}
    assert any({frozenset(o.edges) for o in m.orbits} == part
               for m in members)


def test_candidate_json_roundtrip(cube, cube_report, tmp_path, capsys):
    # every survivor reloads with the witness classify found, and `hypdom
    # angles` reports the witness stored in the candidate file
    cube_doc = str(resources.files("hypdom.data").joinpath("cube.json"))
    assert len(cube_report.survivors) == 30
    for i, cand in enumerate(cube_report.survivors):
        doc = enumeration.candidate_to_json_dict(cand)
        back = enumeration.candidate_from_json_dict(cube, doc)
        assert back.scheme == cand.scheme
        assert back.class_sizes == cand.class_sizes
        assert back.key_full == cand.key_full
        assert back.witness.values == cand.witness.values
        path = tmp_path / f"candidate_{i:03d}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["angles", cube_doc, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == doc["witness"]


def test_reload_takes_persisted_keys(cube, cube_report, monkeypatch):
    # a reload builds no automorphism group: both canonical keys come from
    # the document, and a document without them is refused by name before
    # its witness is checked against the circuits
    calls = []
    group = pairings.automorphism_actions
    monkeypatch.setattr(pairings, "automorphism_actions",
                        lambda poly: calls.append(poly) or group(poly))
    docs = [enumeration.candidate_to_json_dict(c)
            for c in cube_report.survivors]
    assert len(docs) == 30
    for cand, doc in zip(cube_report.survivors, docs):
        back = enumeration.candidate_from_json_dict(cube, doc)
        assert back.key_rotations == cand.key_rotations
        assert back.key_full == cand.key_full
    assert calls == []
    searches = []
    light = angles.light_cycles
    monkeypatch.setattr(angles, "light_cycles",
                        lambda *a: searches.append(a) or light(*a))
    missing = {k: v for k, v in docs[0].items() if k != "key_full"}
    for doc in (missing, {**docs[0], "key_rotations": 7}):
        with pytest.raises(enumeration.EnumerationError, match="'key_full'"):
            enumeration.candidate_from_json_dict(cube, doc)
    assert searches == []


@pytest.mark.parametrize("values, message", [
    (None, "no persisted witness"),
    ({1: "2/3"}, "keys are not the edge ids"),
    ({**REGULAR, 1: "3/2"}, "outside"),
    ({**REGULAR, 1: "two thirds"}, "not valid"),
    ({**REGULAR, 1: "1/0"}, "not valid"),
    ({**REGULAR, 1: Fraction(1, 2)}, "does not solve"),
    (BELT_AT_TWO, "circuit inequality"),
    # JSON numbers as parsed: only the strings that to_json_dict writes are
    # read, so no number, infinite or not, reaches the exact path
    ({**REGULAR, 1: math.inf}, "not valid"),
    ({**REGULAR, 1: -math.inf}, "not valid"),
    ({**REGULAR, 1: json.loads("1e400")}, "not valid"),
    ({**REGULAR, 1: math.nan}, "not valid"),
    ({**REGULAR, 1: 0.5}, "not valid"),
    # strings other than [-]digits[/digits]: Fraction would read them, an
    # exponent's digits in full however long that takes
    ({**REGULAR, 1: "1e-1000000"}, "not valid"),
    ({**REGULAR, 1: "5e-1"}, "not valid"),
    ({**REGULAR, 1: "0.5"}, "not valid"),
], ids=["missing", "keys", "range", "unparsable", "zero-denominator",
        "changed", "circuit", "infinity", "minus-infinity", "overflow",
        "nan", "number", "huge-exponent", "exponent", "decimal"])
def test_candidate_witness_checked(cube, cube_inc, fd1, values, message):
    witness = None if values is None else {
        str(cube_inc.edge_id(*DRAWN_EDGES[n])):
            str(q) if isinstance(q, Fraction) else q
        for n, q in values.items()}
    # string keys, which are checked before the witness is
    doc = {"scheme": pairings.scheme_to_json_dict(fd1), "witness": witness,
           "key_rotations": "", "key_full": ""}
    with pytest.raises(enumeration.EnumerationError, match=message):
        enumeration.candidate_from_json_dict(cube, doc)


def test_classify_tetrahedron(solids):
    report = enumeration.classify(solids["tetrahedron"])
    assert report.total == 27
    assert len(report.survivors) == 0
    assert report.rejected["elliptic"] == 15
    assert report.rejected["class_count"] == 12


def test_wrong_class_count_systems_infeasible(cube):
    # the angle system is consistent only when the partition has exactly
    # (E - V)/2 classes: any other class count contradicts the vertex rows
    seen = set()
    for scheme in enumerate_schemes(cube):
        orbits = pairings.edge_orbits(scheme)
        k = len(orbits)
        if k == 2 or k in seen or any(o.size < 3 for o in orbits):
            continue
        seen.add(k)
        system = angles.assemble_system(
            cube, [set(o.edges) for o in orbits])
        assert angles.solve_exact(system).status == "infeasible"
    assert seen


def test_partition_ranks(cube, cube_report):
    # the two shapes of surviving systems: rank 8 (opposite-pair classes)
    # and rank 7 (adjacent-pair classes)
    ranks = set()
    for cand in cube_report.survivors:
        solution = angles.solve_exact(cand.system)
        ranks.add((solution.rank, len(solution.basis)))
    assert ranks == {(8, 4), (7, 5)}


def test_classify_octahedron_exploratory(octahedron_report):
    # regression freeze of the exploratory octahedron run: seven families,
    # all chiral, with class-size profiles 3-4-5, 3-3-6 and 4-4-4
    report = octahedron_report
    assert report.total == 8505
    assert len(report.survivors) == 120
    assert report.rejected == {
        "elliptic": 3849, "class_count": 4014, "class_size": 522,
        "system_infeasible": 0, "rivin_infeasible": 0}
    profiles = sorted(
        (members[0].class_sizes, len(members),
         len({m.key_rotations for m in members}))
        for members in report.families_full.values())
    assert profiles == [
        ((3, 3, 6), 12, 2), ((3, 3, 6), 12, 2),
        ((3, 4, 5), 24, 2), ((3, 4, 5), 24, 2), ((3, 4, 5), 24, 2),
        ((4, 4, 4), 12, 2), ((4, 4, 4), 12, 2),
    ]


@pytest.mark.parametrize("name, elliptic", [
    ("tetrahedron", 15), ("cube", 464), ("octahedron", 3849)])
def test_elliptic_pairings_match_oracle(solids, name, elliptic):
    # the elliptic schemes classify counts in closed form, from the pairings
    # it drops before the product, are the schemes the shared-edge oracle
    # flags; and no pairing the filter keeps is flagged
    poly = solids[name]
    flagged = sum(1 for scheme in enumerate_schemes(poly)
                  if detect_elliptic_generator(scheme))
    table = enumeration._pairing_table(poly)
    closed_form = sum(
        math.prod(len(poly.faces[f]) for f, _ in matching)
        - math.prod(len(table[pair]) for pair in matching)
        for matching in enumeration._perfect_matchings(
            list(range(poly.face_count())), table))
    for (f1, f2), kept in table.items():
        corrs = [corr for corr, _ in kept]
        for mapping in pairings.reversing_correspondences(poly, f1, f2):
            p = pairings.make_pairing("A", f1, f2, mapping)
            alone = pairings.PairingScheme(poly, (p,))
            assert (p.corr in corrs) != bool(detect_elliptic_generator(alone))
    assert closed_form == flagged == elliptic


@pytest.mark.parametrize("name, traversals, orbit_schemes", [
    ("cube", 256, 170), ("octahedron", 679, 120)])
def test_orbits_built_only_past_the_class_filters(solids, monkeypatch, name,
                                                  traversals, orbit_schemes):
    # classify walks the dart cycles of every non-elliptic scheme of an
    # orbit representative matching once, and of only the carried passing
    # schemes of the orbit's other matchings; it builds orbit steps only
    # for the schemes past the class count and class size filters, and it
    # never calls edge_orbits
    calls = {}
    for fn in ("dart_cycles", "cycle_orbits", "edge_orbits"):
        def counted(*args, _fn=fn, _original=getattr(pairings, fn)):
            calls[_fn] = calls.get(_fn, 0) + 1
            return _original(*args)
        monkeypatch.setattr(pairings, fn, counted)
    report = enumeration.classify(solids[name])
    assert calls == {"dart_cycles": traversals, "cycle_orbits": orbit_schemes}
    assert (report.total - report.rejected["elliptic"]
            - report.rejected["class_count"]
            - report.rejected["class_size"] == orbit_schemes)


@pytest.mark.parametrize("name, memo, pair_by_pair", [
    ("cube", 113, 387), ("octahedron", 246, 404)])
def test_carry_maps_each_used_pairing_once(solids, monkeypatch, name, memo,
                                           pair_by_pair):
    # _carried_indices maps each (slot, index) entry the representative's
    # passing schemes use once per member matching, not every carried
    # scheme pair by pair; only the pair_image calls made while it runs
    # are counted (family_keys calls pair_image too)
    inside, calls, pairs = [False], [0], [0]
    pair_image, carry = pairings.pair_image, enumeration._carried_indices

    def counted(*args):
        calls[0] += inside[0]
        return pair_image(*args)

    def carried(table, representative, action, matching, passing):
        pairs[0] += len(passing) * len(matching)
        inside[0] = True
        try:
            return list(carry(table, representative, action, matching,
                              passing))
        finally:
            inside[0] = False

    monkeypatch.setattr(pairings, "pair_image", counted)
    monkeypatch.setattr(enumeration, "_carried_indices", carried)
    enumeration.classify(solids[name])
    assert (calls[0], pairs[0]) == (memo, pair_by_pair)


def test_pulled_back_witnesses_solve_own_systems(solids, cube_report,
                                                 octahedron_report):
    # every feasible partition is a survivor's partition; the witness pulled
    # back to it from a symmetric partition must solve the partition's own
    # system, assembled afresh, and pass every strict inequality.  It must
    # also be the witness `feasible` finds on that system: the max-slack
    # witness is symmetry-equivariant, so it does not depend on which
    # member of a symmetry class the search meets first
    for name, report, partitions in (("cube", cube_report, 10),
                                     ("octahedron", octahedron_report, 96)):
        poly = solids[name]
        dual = polytope.build_dual(poly)
        seen = set()
        for cand in report.survivors:
            partition = frozenset(frozenset(o.edges) for o in cand.orbits)
            if partition in seen:
                continue
            seen.add(partition)
            system = angles.assemble_system(
                poly, [set(o.edges) for o in cand.orbits])
            assert angles.satisfies(system, cand.witness.values)
            ok, failures = angles.check_inequalities(poly, dual, cand.witness)
            assert ok, failures
            assert angles.feasible(system, dual)[1] == cand.witness
        assert len(seen) == partitions


def test_action_check_fires(cube, cube_inc, cube_dual, fd1, monkeypatch,
                            tmp_path):
    # swapping two edges of different classes at a common vertex is no
    # symmetry of the angle system, although the witness, the regular
    # point, is fixed by every such swap: classify refuses such an action
    # before the stream, and the CLI exits 3
    classes = [set(o.edges) for o in pairings.edge_orbits(fd1)]
    _, witness = angles.feasible(angles.assemble_system(cube, classes),
                                 cube_dual)
    assert set(witness.values.values()) == {Fraction(2, 3)}
    actions = pairings.automorphism_actions(cube)
    vmap, rotation, faces, identity = actions[0]
    assert identity == tuple(range(len(cube_inc.edges)))
    swaps = [(a, b) for a in classes[0] for b in classes[1]
             if set(cube_inc.edges[a]) & set(cube_inc.edges[b])]
    assert len(swaps) == 16
    stream = []
    monkeypatch.setattr(enumeration, "scheme_stream",
                        lambda *a: stream.append(a) or iter(()))
    for a, b in swaps:
        perm = list(identity)
        perm[a], perm[b] = b, a
        monkeypatch.setattr(pairings, "automorphism_actions", lambda poly: [
            *actions, pairings.Action(vmap, rotation, faces, tuple(perm))])
        with pytest.raises(AssertionError, match="vertex stars"):
            enumeration.classify(cube)
    assert stream == []
    cube_doc = str(resources.files("hypdom.data").joinpath("cube.json"))
    for command in ("enumerate", "pipeline"):
        assert cli.main([command, cube_doc,
                         "--out", str(tmp_path / command)]) == 3


def test_witness_read_through_a_symmetry(cube, cube_inc, cube_dual, fd1, fd2,
                                         solids, octahedron_report,
                                         monkeypatch):
    # a genuine symmetry's witness, read through its edge permutation,
    # solves the partition's own system strictly; with only another
    # partition's record present, the lookup finds nothing and `feasible`
    # runs
    classes = [set(o.edges) for o in pairings.edge_orbits(fd1)]
    partition = frozenset(map(frozenset, classes))
    for vmap, orient in symmetry_group(cube):
        perm = tuple(cube_inc.edge_id(*(vmap[v] for v in cube_inc.edges[eid]))
                     for eid in range(len(cube_inc.edges)))
        image = frozenset(frozenset(perm[e] for e in cl) for cl in classes)
        if orient and image != partition:
            break
    action = pairings.Action(vmap, orient, None, perm)
    solution, witness = angles.feasible(
        angles.assemble_system(cube, [set(cl) for cl in image]), cube_dual)
    calls = []
    feasible = angles.feasible
    monkeypatch.setattr(angles, "feasible",
                        lambda *a: calls.append(a) or feasible(*a))
    records = {image: (solution.status, witness)}
    status, pulled = enumeration.angle_record(cube, cube_dual, [action],
                                              records, partition)
    assert calls == [] and status == solution.status
    assert records[partition] == (status, pulled)
    assert pulled.values == {e: witness.values[perm[e]] for e in range(12)}
    assert angles.satisfies(angles.assemble_system(cube, classes),
                            pulled.values)
    ok, failures = angles.check_inequalities(cube, cube_dual, pulled)
    assert ok, failures
    other = frozenset(frozenset(o.edges) for o in pairings.edge_orbits(fd2))
    assert other not in (image, partition)
    other_solution, other_witness = feasible(angles.assemble_system(
        cube, [set(cl) for cl in other]), cube_dual)
    records = {other: (other_solution.status, other_witness)}
    status, found = enumeration.angle_record(cube, cube_dual, [action],
                                             records, partition)
    assert len(calls) == 1 and found is not None
    assert angles.satisfies(angles.assemble_system(cube, classes),
                            found.values)
    # every cube witness is the regular point, which every permutation
    # fixes; an octahedron witness is not constant, and the image's witness
    # as it stands fails the partition's system for some symmetry
    octahedron = solids["octahedron"]
    dual = polytope.build_dual(octahedron)
    cand = octahedron_report.survivors[0]
    assert len(set(cand.witness.values.values())) > 1
    partition = frozenset(frozenset(o.edges) for o in cand.orbits)
    moved = 0
    for action in pairings.automorphism_actions(octahedron):
        perm = action[3]
        image = frozenset(frozenset(perm[e] for e in cl) for cl in partition)
        solution, witness = feasible(angles.assemble_system(
            octahedron, [set(cl) for cl in image]), dual)
        _, pulled = enumeration.angle_record(
            octahedron, dual, [action], {image: (solution.status, witness)},
            partition)
        assert angles.satisfies(cand.system, pulled.values)
        ok, failures = angles.check_inequalities(octahedron, dual, pulled)
        assert ok, failures
        moved += not angles.satisfies(cand.system, witness.values)
    assert moved > 0


def test_symmetry_read_witness_checked_once(solids, cube_report,
                                            octahedron_report, monkeypatch):
    # only `feasible` builds a witness through the checking constructor
    # (test_angle_assignment_range: it refuses a value outside (0, 1)); a
    # witness read through a symmetry permutes checked values and is built
    # by `_make`, yet every survivor's witness passes the check
    for report in (cube_report, octahedron_report):
        for cand in report.survivors:
            assert angles.AngleAssignment(cand.witness.values) == cand.witness
    checked, found = [], []
    new, feasible = angles.AngleAssignment.__new__, angles.feasible
    monkeypatch.setattr(angles.AngleAssignment, "__new__",
                        lambda cls, values: checked.append(1)
                        or new(cls, values))
    monkeypatch.setattr(angles, "feasible",
                        lambda *a: found.append(feasible(*a)) or found[-1])
    report = enumeration.classify(solids["octahedron"])
    assert len(checked) == sum(w is not None for _, w in found) == 6
    assert ([c.witness for c in report.survivors]
            == [c.witness for c in octahedron_report.survivors])
    assert all(type(c.witness) is angles.AngleAssignment
               for c in report.survivors)


def test_classify_checks_report_counts(monkeypatch, tmp_path):
    # the check runs inside classify, so `pipeline` and library callers get
    # it as well as `enumerate`
    monkeypatch.setattr(enumeration.EnumerationReport, "counts_consistent",
                        lambda self: False)
    tetrahedron = str(resources.files("hypdom.data").joinpath(
        "tetrahedron.json"))
    with pytest.raises(AssertionError, match="do not sum to the total"):
        enumeration.classify(polytope.load_polyhedron(tetrahedron))
    for command in ("enumerate", "pipeline"):
        assert cli.main([command, tetrahedron,
                         "--out", str(tmp_path / command)]) == 3
