import itertools
import json
from fractions import Fraction
from importlib import resources

import pytest

from hypdom import angles, cli, enumeration, pairings, polytope

from conftest import DRAWN_EDGES, FD2_CLASSES, drawn

# exterior angles in drawing numbers for the quarter-twist opposite-face
# scheme: the regular point, and a point of the same angle family whose
# front-back belt (edges 2, 3, 6, 7) sums to exactly 2, breaking the strict
# circuit inequality while every value stays inside (0, 1)
REGULAR = {n: Fraction(2, 3) for n in DRAWN_EDGES}
BELT_AT_TWO = {**REGULAR, **{n: Fraction(1, 2) for n in (2, 3, 6, 7)},
               **{n: Fraction(5, 6) for n in (4, 8, 9, 10)}}


def test_scheme_count_cube(cube):
    assert enumeration.scheme_space_size(cube) == 960
    assert sum(1 for _ in enumeration.enumerate_schemes(cube)) == 960


def test_scheme_count_tetrahedron(solids):
    tet = solids["tetrahedron"]
    assert enumeration.scheme_space_size(tet) == 27
    schemes = list(enumeration.enumerate_schemes(tet))
    assert len(schemes) == 27
    assert len({pairings._scheme_signature(s) for s in schemes}) == 27


def test_odd_face_count_rejected():
    doc = {"name": "prism",
           "vertices": ["a", "b", "c", "a2", "b2", "c2"],
           "faces": [["a", "b", "c"], ["c2", "b2", "a2"],
                     ["a", "a2", "b2", "b"], ["b", "b2", "c2", "c"],
                     ["c", "c2", "a2", "a"]]}
    prism = polytope.load_polyhedron(doc)
    with pytest.raises(enumeration.EnumerationError, match="odd"):
        list(enumeration.enumerate_schemes(prism))


def test_icosahedron_past_desk_scale(solids):
    with pytest.raises(enumeration.SchemeCapExceeded):
        list(enumeration.enumerate_schemes(solids["icosahedron"]))


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
    assert len(cube_report.families_rotations) == 5


def test_all_survivors_six_six(cube_report):
    for cand in cube_report.survivors:
        assert cand.class_sizes == (6, 6)
        assert all(o.size > 2 for o in cand.orbits)


def test_survivors_closed_under_symmetry(cube, cube_report):
    autos = pairings.symmetry_group(cube)
    signatures = {pairings._scheme_signature(c.scheme)
                  for c in cube_report.survivors}
    for cand in cube_report.survivors:
        for vmap, _ in autos:
            image = pairings.conjugate_scheme(cand.scheme, vmap)
            assert pairings._scheme_signature(image) in signatures


def test_survivors_revalidate(cube, cube_inc, cube_dual, cube_report):
    required = angles.required_class_count(cube)
    for cand in cube_report.survivors:
        pairings.validate_scheme(cand.scheme)
        assert not pairings.detect_elliptic_generator(cand.scheme, cube_inc)
        orbits = pairings.edge_orbits(cand.scheme, cube_inc)
        assert len(orbits) == required
        system = angles.assemble_system(
            cube, [set(o.edges) for o in orbits], cube_inc)
        sol, witness = angles.feasible(system, cube_dual)
        assert witness is not None
        ok, _ = angles.check_inequalities(cube, cube_dual, cand.witness)
        assert ok


def test_filter_order_irrelevant(cube, cube_inc, cube_dual, cube_report):
    # apply the filters independently, in a different order, and compare the
    # survivor set with classify's
    required = angles.required_class_count(cube)
    survivors = set()
    cache = {}
    for scheme in enumeration.enumerate_schemes(cube):
        orbits = pairings.edge_orbits(scheme, cube_inc)
        partition = frozenset(frozenset(o.edges) for o in orbits)
        if len(orbits) == required and all(o.size >= 3 for o in orbits):
            if partition not in cache:
                system = angles.assemble_system(
                    cube, [set(p) for p in partition], cube_inc)
                cache[partition] = angles.feasible(system, cube_dual)[1]
            feasible_witness = cache[partition]
        else:
            feasible_witness = None
        if feasible_witness is None:
            continue
        if pairings.detect_elliptic_generator(scheme, cube_inc):
            continue
        survivors.add(pairings._scheme_signature(scheme))
    assert survivors == {pairings._scheme_signature(c.scheme)
                         for c in cube_report.survivors}


def test_fd2_family_membership(cube, cube_report, fd2):
    fd2_key = pairings.canonicalize(fd2)
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


@pytest.mark.parametrize("values, message", [
    (None, "no persisted witness"),
    ({1: "2/3"}, "keys are not the edge ids"),
    ({**REGULAR, 1: "3/2"}, "outside"),
    ({**REGULAR, 1: "two thirds"}, "not valid"),
    ({**REGULAR, 1: "1/0"}, "not valid"),
    ({**REGULAR, 1: Fraction(1, 2)}, "does not solve"),
    (BELT_AT_TWO, "circuit inequality"),
], ids=["missing", "keys", "range", "unparsable", "zero-denominator",
        "changed", "circuit"])
def test_candidate_witness_checked(cube, cube_inc, fd1, values, message):
    witness = None if values is None else {
        str(cube_inc.edge_id(*DRAWN_EDGES[n])): str(q)
        for n, q in values.items()}
    doc = {"scheme": pairings.scheme_to_json_dict(fd1), "witness": witness}
    with pytest.raises(enumeration.EnumerationError, match=message):
        enumeration.candidate_from_json_dict(cube, doc)


def test_classify_tetrahedron(solids):
    report = enumeration.classify(solids["tetrahedron"])
    assert report.total == 27
    assert len(report.survivors) == 0
    assert report.rejected["elliptic"] == 15
    assert report.rejected["class_count"] == 12


def test_wrong_class_count_systems_infeasible(cube, cube_inc):
    # the angle system is consistent only when the partition has exactly
    # (E - V)/2 classes: any other class count contradicts the vertex rows
    seen = set()
    for scheme in enumeration.enumerate_schemes(cube):
        orbits = pairings.edge_orbits(scheme, cube_inc)
        k = len(orbits)
        if k == 2 or k in seen or any(o.size < 3 for o in orbits):
            continue
        seen.add(k)
        system = angles.assemble_system(
            cube, [set(o.edges) for o in orbits], cube_inc)
        assert angles.solve_exact(system).status == "infeasible"
    assert seen


def test_partition_ranks(cube, cube_inc, cube_report):
    # the two shapes of surviving systems: rank 8 (opposite-pair classes)
    # and rank 7 (adjacent-pair classes)
    ranks = set()
    for cand in cube_report.survivors:
        ranks.add((cand.solution.rank, len(cand.solution.basis)))
    assert ranks == {(8, 4), (7, 5)}


def test_classify_octahedron_exploratory(solids):
    # regression freeze of the exploratory octahedron run: seven families,
    # all chiral, with class-size profiles 3-4-5, 3-3-6 and 4-4-4
    report = enumeration.classify(solids["octahedron"])
    assert report.total == 8505
    assert len(report.survivors) == 120
    profiles = sorted(
        (members[0].class_sizes, len(members),
         len({m.key_rotations for m in members}))
        for members in report.families_full.values())
    assert profiles == [
        ((3, 3, 6), 12, 2), ((3, 3, 6), 12, 2),
        ((3, 4, 5), 24, 2), ((3, 4, 5), 24, 2), ((3, 4, 5), 24, 2),
        ((4, 4, 4), 12, 2), ((4, 4, 4), 12, 2),
    ]
