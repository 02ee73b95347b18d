import itertools

import pytest

from hypdom import enumeration, pairings, polytope

from conftest import (FD1_CLASSES, FD1_MIRROR_CLASSES, FD2_CLASSES,
                      FIVE_SEVEN_CLASSES, drawn)


def class_partition(scheme, inc):
    return {frozenset(o.edges) for o in pairings.edge_orbits(scheme, inc)}


def test_fd1_valid(fd1):
    pairings.validate_scheme(fd1)


def test_self_pairing_rejected(cube):
    fids = pairings.cube_face_ids(cube)
    front = cube.faces[fids["front"]]
    p = pairings.make_pairing(cube, "A", fids["front"], fids["front"],
                              {v: v for v in front})
    with pytest.raises(pairings.SchemeError, match="itself"):
        pairings.validate_scheme(pairings.PairingScheme(cube, (p,)))


def test_orientation_preserving_correspondence_rejected(cube, fd1):
    fids = pairings.cube_face_ids(cube)
    front, back = cube.faces[fids["front"]], cube.faces[fids["back"]]
    # map front cycle to back cycle with the same cyclic order
    bad = {front[i]: back[i] for i in range(4)}
    ps = (pairings.make_pairing(cube, "A", fids["front"], fids["back"], bad),
          fd1.pairings[1], fd1.pairings[2])
    with pytest.raises(pairings.SchemeError, match="reverse"):
        pairings.validate_scheme(pairings.PairingScheme(cube, ps))


def test_length_mismatch_rejected():
    doc = {"name": "prism",
           "vertices": ["a", "b", "c", "a2", "b2", "c2"],
           "faces": [["a", "b", "c"], ["c2", "b2", "a2"],
                     ["a", "a2", "b2", "b"], ["b", "b2", "c2", "c"],
                     ["c", "c2", "a2", "a"]]}
    prism = polytope.load_polyhedron(doc)
    mapping = {"a": "a", "b": "a2", "c": "b2"}
    p = pairings.make_pairing(prism, "A", 0, 2, mapping)
    scheme = pairings.PairingScheme(prism, (p,))
    with pytest.raises(pairings.SchemeError, match="length"):
        pairings.validate_scheme(scheme)


def test_fd1_orbits_match_drawing(fd1, cube_inc):
    part = class_partition(fd1, cube_inc)
    assert part == {frozenset(drawn(cube_inc, FD1_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD1_CLASSES[1]))}


def test_fd1_mirror_orbits(fd1_mirror, cube_inc):
    part = class_partition(fd1_mirror, cube_inc)
    assert part == {frozenset(drawn(cube_inc, FD1_MIRROR_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD1_MIRROR_CLASSES[1]))}


def test_fd2_orbits_match_drawing(fd2, cube_inc):
    part = class_partition(fd2, cube_inc)
    assert part == {frozenset(drawn(cube_inc, FD2_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD2_CLASSES[1]))}


def test_five_seven_orbits_exist(cube, cube_inc):
    # the top-front / left-right / back-bottom matching admits schemes with
    # one class of 5 and one of 7 (they later fail the angle stage)
    fids = pairings.cube_face_ids(cube)
    found = set()
    for scheme in enumeration.enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        sizes = tuple(sorted(o.size for o in pairings.edge_orbits(scheme, cube_inc)))
        found.add(sizes)
    assert (5, 7) in found


def test_drawn_five_seven_split_is_not_an_orbit_partition(cube, cube_inc):
    # No scheme at all produces the 5-7 split of the standard drawing: the
    # unique scheme closing the 5-class splits the rest into 5 + 2.
    target = {frozenset(drawn(cube_inc, FIVE_SEVEN_CLASSES[0])),
              frozenset(drawn(cube_inc, FIVE_SEVEN_CLASSES[1]))}
    for scheme in enumeration.enumerate_schemes(cube):
        assert class_partition(scheme, cube_inc) != target


def test_zero_twist_with_half_turn_completion_two_orbits(cube, cube_inc):
    scheme = pairings.PairingScheme(cube, (
        pairings.twist_pairing(cube, "A", "front", "back", 0),
        pairings.twist_pairing(cube, "B", "top", "bottom", 2),
        pairings.twist_pairing(cube, "C", "left", "right", 2),
    ))
    pairings.validate_scheme(scheme)
    orbits = pairings.edge_orbits(scheme, cube_inc)
    twos = {frozenset(o.edges) for o in orbits if o.size == 2}
    assert twos == {frozenset(drawn(cube_inc, {2, 7})),
                    frozenset(drawn(cube_inc, {3, 6}))}


def test_fd1_relator_word_shape(fd1, cube_inc):
    words = [pairings.relator_word(o) for o in pairings.edge_orbits(fd1, cube_inc)]
    reference = (("A", 1), ("B", -1), ("C", 1), ("A", -1), ("B", -1), ("C", -1))
    assert any(pairings.words_equivalent(w, reference) for w in words)
    reference2 = (("A", 1), ("B", 1), ("C", -1), ("A", -1), ("B", 1), ("C", 1))
    assert any(pairings.words_equivalent(w, reference2) for w in words)


def test_fd2_relator_word_shapes(fd2, cube_inc):
    words = [pairings.relator_word(o) for o in pairings.edge_orbits(fd2, cube_inc)]
    squared = (("P", 1), ("R", -1), ("R", -1), ("P", 1), ("Q", -1), ("Q", -1))
    mixed = (("P", 1), ("Q", 1), ("R", -1), ("P", -1), ("Q", -1), ("R", 1))
    assert any(pairings.words_equivalent(w, squared) for w in words)
    assert any(pairings.words_equivalent(w, mixed) for w in words)


def test_words_cyclically_reduced_across_schemes(cube, cube_inc):
    # every traversal word, over a deterministic slice of the scheme stream
    for i, scheme in enumerate(enumeration.enumerate_schemes(cube)):
        if i % 7:
            continue
        for orbit in pairings.edge_orbits(scheme, cube_inc):
            word = pairings.relator_word(orbit)
            assert word.cyclically_reduced()
            assert len(word) == orbit.size


def test_orbits_partition_edges(cube, cube_inc):
    for i, scheme in enumerate(enumeration.enumerate_schemes(cube)):
        if i % 13:
            continue
        orbits = pairings.edge_orbits(scheme, cube_inc)
        covered = sorted(e for o in orbits for e in o.edges)
        assert covered == list(range(12))


def test_vertex_orbits_and_census_fd1(fd1):
    vo = pairings.vertex_orbits(fd1)
    assert len(vo) == 2
    census = pairings.quotient_census(fd1)
    assert census.edge_classes == 2
    assert census.face_classes == 3
    assert census.interiors == 1
    assert census.euler == census.vertex_classes


def test_census_fd2(fd2):
    census = pairings.quotient_census(fd2)
    assert census.edge_classes == 2 and census.face_classes == 3
    assert census.vertex_classes - 2 + 3 - 1 == census.euler
    assert census.vertex_classes == census.euler


def test_census_identity_over_candidates(cube_report):
    for cand in cube_report.survivors:
        c = cand.census
        assert c.vertex_classes - c.edge_classes + c.face_classes - 1 == c.euler
        assert c.vertex_classes == c.euler


def test_detect_elliptic_fold(cube, cube_inc):
    fold = pairings.twist_pairing(cube, "A", "top", "left", 0)
    scheme = pairings.PairingScheme(cube, (
        fold,
        pairings.twist_pairing(cube, "B", "right", "bottom", 1),
        pairings.twist_pairing(cube, "C", "front", "back", 1),
    ))
    flagged = pairings.detect_elliptic_generator(scheme, cube_inc)
    assert [p.gen for p in flagged] == ["A"]


def test_detect_elliptic_back_bottom_zero_twist(cube, cube_inc):
    scheme = pairings.PairingScheme(cube, (
        pairings.twist_pairing(cube, "A", "back", "bottom", 0),
        pairings.twist_pairing(cube, "B", "top", "front", 1),
        pairings.twist_pairing(cube, "C", "left", "right", 1),
    ))
    flagged = pairings.detect_elliptic_generator(scheme, cube_inc)
    assert [p.gen for p in flagged] == ["A"]


def test_fd1_no_elliptic(fd1, cube_inc):
    assert pairings.detect_elliptic_generator(fd1, cube_inc) == []


def test_symmetry_group_cube(cube):
    autos = pairings.symmetry_group(cube)
    assert len(autos) == 48
    assert sum(1 for _, orient in autos if orient) == 24


def test_symmetry_group_tetrahedron(solids):
    autos = pairings.symmetry_group(solids["tetrahedron"])
    assert len(autos) == 24
    assert sum(1 for _, orient in autos if orient) == 12


def test_symmetry_group_asymmetric_solid():
    # square pyramid with a tetrahedron glued on one side face and a two-tet
    # tower on an adjacent side face: the decorations are inequivalent and
    # share the corner B, so only the identity survives
    doc = {"name": "lopsided", "vertices":
           ["A", "B", "C", "D", "apex", "w1", "w2", "w4"],
           "faces": [
               ["A", "D", "C", "B"],
               ["apex", "C", "D"],
               ["apex", "D", "A"],
               ["apex", "A", "w1"], ["A", "B", "w1"], ["B", "apex", "w1"],
               ["apex", "B", "w2"], ["C", "apex", "w2"],
               ["B", "C", "w4"], ["C", "w2", "w4"], ["w2", "B", "w4"],
           ]}
    poly = polytope.load_polyhedron(doc)
    autos = pairings.symmetry_group(poly)
    assert len(autos) == 1
    vmap, orient = autos[0]
    assert orient and all(k == v for k, v in vmap.items())


def test_canonicalize_rotation_invariance(cube, fd1):
    autos = pairings.symmetry_group(cube)
    rot = next(vmap for vmap, orient in autos
               if orient and any(k != v for k, v in vmap.items()))
    rotated = pairings.conjugate_scheme(fd1, rot)
    assert (pairings.canonicalize(fd1, "rotations", autos)
            == pairings.canonicalize(rotated, "rotations", autos))


def test_canonicalize_mirror_split(cube, fd1, fd1_mirror):
    autos = pairings.symmetry_group(cube)
    assert (pairings.canonicalize(fd1, "rotations", autos)
            != pairings.canonicalize(fd1_mirror, "rotations", autos))
    assert (pairings.canonicalize(fd1, "all", autos)
            == pairings.canonicalize(fd1_mirror, "all", autos))


def test_scheme_json_roundtrip(cube, fd1):
    doc = pairings.scheme_to_json_dict(fd1)
    back = pairings.scheme_from_json_dict(cube, doc)
    assert back == fd1


def test_twist_sugar_json(cube, fd1):
    doc = {"pairings": [
        {"gen": "A", "from": "front", "to": "back",
         "twist_quarter_turns": 1, "sense": "cw"},
        {"gen": "B", "from": "left", "to": "right",
         "twist_quarter_turns": 1, "sense": "ccw"},
        {"gen": "C", "from": "top", "to": "bottom",
         "twist_quarter_turns": 1, "sense": "cw"},
    ]}
    scheme = pairings.scheme_from_json_dict(cube, doc)
    assert scheme == fd1


def test_word_equivalence_predicate():
    w = (("A", 1), ("B", -1), ("C", 1))
    assert pairings.words_equivalent(w, (("B", -1), ("C", 1), ("A", 1)))
    assert pairings.words_equivalent(w, (("C", -1), ("B", 1), ("A", -1)))
    assert pairings.words_equivalent(w, (("X", 1), ("Y", -1), ("Z", 1)))
    assert not pairings.words_equivalent(w, (("A", 1), ("B", 1), ("C", 1)))
    assert not pairings.words_equivalent(w, (("A", 1), ("A", -1), ("C", 1)))
    assert not pairings.words_equivalent(w, (("A", 1), ("B", -1)))


def closure_partition(scheme, inc):
    """Independent edge-class oracle: components of e ~ image(e) under every
    pairing acting on either side face of e."""
    parent = list(range(len(inc.edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in scheme.pairings:
        m = p.mapping()
        for eid in inc.face_edge_cycle[p.source]:
            image = inc.edge_id(*(m[v] for v in inc.edges[eid]))
            ra, rb = find(eid), find(image)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for eid in range(len(inc.edges)):
        groups.setdefault(find(eid), set()).add(eid)
    return {frozenset(g) for g in groups.values()}


def test_orbits_match_closure_oracle(cube, cube_inc):
    from hypdom import enumeration
    for scheme in enumeration.enumerate_schemes(cube):
        traversal = {frozenset(o.edges)
                     for o in pairings.edge_orbits(scheme, cube_inc)}
        assert traversal == closure_partition(scheme, cube_inc)
