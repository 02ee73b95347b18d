import hashlib
import itertools
import json
import random

import pytest

from hypdom import pairings, polytope

from conftest import (FD1_CLASSES, FD1_MIRROR_CLASSES, FD2_CLASSES,
                      FIVE_SEVEN_CLASSES, canonicalize,
                      conjugation_canonicalize, conjugate_scheme,
                      detect_elliptic_generator, drawn, enumerate_schemes,
                      scheme_keys, scheme_signature, symmetry_group)


def class_partition(scheme):
    return {frozenset(o.edges) for o in pairings.edge_orbits(scheme)}


def words_equivalent(w1, w2):
    """Equality up to cyclic rotation, formal inversion, and a consistent
    renaming (bijection) of the generator symbols."""
    a, b = tuple(w1), tuple(w2)
    if len(a) != len(b):
        return False

    def inverse(word):
        return tuple((g, -s) for g, s in reversed(word))

    def match(x, y):
        ren = {}
        for (g1, s1), (g2, s2) in zip(x, y):
            if s1 != s2:
                return False
            if g1 in ren and ren[g1] != g2:
                return False
            ren[g1] = g2
        return len(set(ren.values())) == len(ren)

    n = len(a)
    for target in (b, inverse(b)):
        doubled = target + target
        for k in range(n):
            if match(a, doubled[k:k + n]):
                return True
    return n == 0


def frozenset_edge_orbits(scheme):
    """Reference flag traversal on (edge id, side face) pairs: apply the
    side face's generator to the edge's vertex set, look the image edge up
    by that set, then flip to its face other than the generator's codomain.
    Both traversal directions of a class are walked; the reverse one is
    dropped."""
    inc = scheme.poly.incidence
    lookup = {e: i for i, e in enumerate(inc.edges)}
    table = {}
    for p in scheme.pairings:
        table[p.source] = (p.target, p.mapping(), (p.gen, +1))
        table[p.target] = (p.source, p.inverse_mapping(), (p.gen, -1))
    flags = {(eid, fid) for eid in range(len(inc.edges))
             for fid in inc.edge_faces[eid]}
    orbits = []
    claimed = set()
    while flags:
        start = min(flags)
        steps = []
        flag = start
        while True:
            eid, fid = flag
            flags.discard(flag)
            tgt, vmap, letter = table[fid]
            steps.append((eid, fid, letter))
            eid2 = lookup[frozenset(vmap[v] for v in inc.edges[eid])]
            other = [f for f in inc.edge_faces[eid2] if f != tgt]
            flag = (eid2, other[0] if other else tgt)
            if flag == start:
                break
        if start[0] not in claimed:
            orbits.append(pairings.EdgeOrbit(tuple(steps)))
            claimed.update(e for e, _, _ in steps)
    return orbits


def size_one_letters(scheme):
    """The generator letters of the size-1 edge classes: the library's
    elliptic criterion."""
    return [o.steps[0][2] for o in pairings.edge_orbits(scheme)
            if o.size == 1]


def test_reversing_correspondences_match_dart_oracle(solids):
    # a vertex bijection m of face f1 onto face f2 reverses orientation iff
    # (m[v], m[u]) is a dart of f2 for each dart (u, v) of f1: of all the
    # bijections, exactly the listed n pass
    def darts(face):
        return list(zip(face, face[1:] + face[:1]))

    for poly in solids.values():
        faces = enumerate(poly.faces)
        for (f1, c1), (f2, c2) in itertools.product(faces, repeat=2):
            if len(c1) != len(c2):
                continue
            passing = []
            for image in itertools.permutations(c2):
                m = dict(zip(c1, image))
                if all((m[v], m[u]) in darts(c2) for u, v in darts(c1)):
                    passing.append(m)
            listed = pairings.reversing_correspondences(poly, f1, f2)
            assert len(listed) == len(c1)
            assert (sorted(sorted(m.items()) for m in passing)
                    == sorted(sorted(m.items()) for m in listed))


def test_fd1_valid(fd1):
    pairings.validate_scheme(fd1)


def test_self_pairing_rejected(cube):
    fids = pairings.cube_face_ids(cube)
    front = cube.faces[fids["front"]]
    p = pairings.make_pairing("A", fids["front"], fids["front"],
                              {v: v for v in front})
    with pytest.raises(pairings.SchemeError, match="itself"):
        pairings.validate_scheme(pairings.PairingScheme(cube, (p,)))


def test_orientation_preserving_correspondence_rejected(cube, fd1):
    fids = pairings.cube_face_ids(cube)
    front, back = cube.faces[fids["front"]], cube.faces[fids["back"]]
    # map front cycle to back cycle with the same cyclic order
    bad = {front[i]: back[i] for i in range(4)}
    ps = (pairings.make_pairing("A", fids["front"], fids["back"], bad),
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
    p = pairings.make_pairing("A", 0, 2, mapping)
    scheme = pairings.PairingScheme(prism, (p,))
    with pytest.raises(pairings.SchemeError, match="length"):
        pairings.validate_scheme(scheme)


def test_fd1_orbits_match_drawing(fd1, cube_inc):
    part = class_partition(fd1)
    assert part == {frozenset(drawn(cube_inc, FD1_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD1_CLASSES[1]))}


def test_fd1_mirror_orbits(fd1_mirror, cube_inc):
    part = class_partition(fd1_mirror)
    assert part == {frozenset(drawn(cube_inc, FD1_MIRROR_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD1_MIRROR_CLASSES[1]))}


def test_fd2_orbits_match_drawing(fd2, cube_inc):
    part = class_partition(fd2)
    assert part == {frozenset(drawn(cube_inc, FD2_CLASSES[0])),
                    frozenset(drawn(cube_inc, FD2_CLASSES[1]))}


def test_five_seven_orbits_exist(cube):
    # the top-front / left-right / back-bottom matching admits schemes with
    # one class of 5 and one of 7 (they later fail the angle stage)
    fids = pairings.cube_face_ids(cube)
    found = set()
    for scheme in enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        sizes = tuple(sorted(o.size for o in pairings.edge_orbits(scheme)))
        found.add(sizes)
    assert (5, 7) in found


def test_drawn_five_seven_split_is_not_an_orbit_partition(cube, cube_inc):
    # No scheme at all produces the 5-7 split of the standard drawing: the
    # unique scheme closing the 5-class splits the rest into 5 + 2.
    target = {frozenset(drawn(cube_inc, FIVE_SEVEN_CLASSES[0])),
              frozenset(drawn(cube_inc, FIVE_SEVEN_CLASSES[1]))}
    for scheme in enumerate_schemes(cube):
        assert class_partition(scheme) != target


def test_zero_twist_with_half_turn_completion_two_orbits(cube, cube_inc):
    scheme = pairings.PairingScheme(cube, (
        pairings.twist_pairing(cube, "A", "front", "back", 0),
        pairings.twist_pairing(cube, "B", "top", "bottom", 2),
        pairings.twist_pairing(cube, "C", "left", "right", 2),
    ))
    pairings.validate_scheme(scheme)
    orbits = pairings.edge_orbits(scheme)
    twos = {frozenset(o.edges) for o in orbits if o.size == 2}
    assert twos == {frozenset(drawn(cube_inc, {2, 7})),
                    frozenset(drawn(cube_inc, {3, 6}))}


def test_fd1_relator_word_shape(fd1):
    words = [pairings.relator_word(o) for o in pairings.edge_orbits(fd1)]
    reference = (("A", 1), ("B", -1), ("C", 1), ("A", -1), ("B", -1), ("C", -1))
    assert any(words_equivalent(w, reference) for w in words)
    reference2 = (("A", 1), ("B", 1), ("C", -1), ("A", -1), ("B", 1), ("C", 1))
    assert any(words_equivalent(w, reference2) for w in words)


def test_fd2_relator_word_shapes(fd2):
    words = [pairings.relator_word(o) for o in pairings.edge_orbits(fd2)]
    squared = (("P", 1), ("R", -1), ("R", -1), ("P", 1), ("Q", -1), ("Q", -1))
    mixed = (("P", 1), ("Q", 1), ("R", -1), ("P", -1), ("Q", -1), ("R", 1))
    assert any(words_equivalent(w, squared) for w in words)
    assert any(words_equivalent(w, mixed) for w in words)


def cyclically_reduced(word):
    """No letter is followed, cyclically, by its inverse."""
    n = len(word)
    return all(word[i][0] != word[(i + 1) % n][0]
               or word[i][1] != -word[(i + 1) % n][1] for i in range(n))


def test_words_cyclically_reduced_across_schemes(cube):
    # every traversal word, over a deterministic slice of the scheme stream
    for i, scheme in enumerate(enumerate_schemes(cube)):
        if i % 7:
            continue
        for orbit in pairings.edge_orbits(scheme):
            word = pairings.relator_word(orbit)
            assert cyclically_reduced(word)
            assert len(word) == orbit.size


@pytest.mark.parametrize("letters, reducible", [
    ((("A", 1), ("A", -1), ("B", 1)), True),
    ((("A", 1), ("B", 1), ("A", -1)), True),
    ((("A", 1), ("B", -1), ("A", 1), ("B", -1)), False),
    ((("A", -1),), False),
], ids=["adjacent", "wrap-around", "alternating", "length-1"])
def test_relator_word_refuses_reducible_traversal(letters, reducible):
    # a synthetic orbit, since no scheme's traversal reads a reducible word
    orbit = pairings.EdgeOrbit(tuple((eid, 0, letter)
                                     for eid, letter in enumerate(letters)))
    assert cyclically_reduced(letters) is not reducible
    if reducible:
        with pytest.raises(pairings.CensusError, match="reducible"):
            pairings.relator_word(orbit)
    else:
        assert pairings.relator_word(orbit) == letters


def test_orbits_partition_edges(cube):
    for i, scheme in enumerate(enumerate_schemes(cube)):
        if i % 13:
            continue
        orbits = pairings.edge_orbits(scheme)
        covered = sorted(e for o in orbits for e in o.edges)
        assert covered == list(range(12))


def test_vertex_orbits_and_census_fd1(fd1):
    vo = pairings.vertex_orbits(fd1)
    assert len(vo) == 2
    census = pairings.quotient_census(fd1, pairings.edge_orbits(fd1))
    assert census["E"] == 2
    assert census["F"] == 3
    assert census["P"] == 1
    assert census["q"] == census["V"]


def test_census_fd2(fd2):
    census = pairings.quotient_census(fd2, pairings.edge_orbits(fd2))
    assert census["E"] == 2 and census["F"] == 3
    assert census["V"] - 2 + 3 - 1 == census["q"]
    assert census["V"] == census["q"]


def test_census_identity_over_candidates(cube_report):
    for cand in cube_report.survivors:
        c = cand.census
        assert c["V"] - c["E"] + c["F"] - 1 == c["q"]
        assert c["V"] == c["q"]


def test_detect_elliptic_fold(cube, cube_inc):
    fold = pairings.twist_pairing(cube, "A", "top", "left", 0)
    scheme = pairings.PairingScheme(cube, (
        fold,
        pairings.twist_pairing(cube, "B", "right", "bottom", 1),
        pairings.twist_pairing(cube, "C", "front", "back", 1),
    ))
    flagged = detect_elliptic_generator(scheme)
    assert [p.gen for p in flagged] == ["A"]
    # the hinge edge (drawing edge 6, top-left) is a class of its own
    assert size_one_letters(scheme) == [("A", 1)]
    assert [o.edges for o in pairings.edge_orbits(scheme)
            if o.size == 1] == [tuple(drawn(cube_inc, {6}))]


def test_detect_elliptic_back_bottom_zero_twist(cube):
    scheme = pairings.PairingScheme(cube, (
        pairings.twist_pairing(cube, "A", "back", "bottom", 0),
        pairings.twist_pairing(cube, "B", "top", "front", 1),
        pairings.twist_pairing(cube, "C", "left", "right", 1),
    ))
    flagged = detect_elliptic_generator(scheme)
    assert [p.gen for p in flagged] == ["A"]
    assert size_one_letters(scheme) == [("A", 1)]


def test_fd1_no_elliptic(fd1):
    assert detect_elliptic_generator(fd1) == []
    assert size_one_letters(fd1) == []


@pytest.mark.parametrize("name, schemes, elliptic", [
    ("tetrahedron", 27, 15), ("cube", 960, 464), ("octahedron", 8505, 3849)])
def test_orbits_match_frozenset_traversal(solids, name, schemes, elliptic):
    # every scheme: the dart traversal returns the reference traversal's
    # orbits (steps and order), and a class of size 1 exactly when the
    # shared-edge scan finds an elliptic generator
    poly = solids[name]
    seen = flagged = 0
    for scheme in enumerate_schemes(poly):
        orbits = pairings.edge_orbits(scheme)
        assert orbits == frozenset_edge_orbits(scheme)
        elliptic_scan = bool(detect_elliptic_generator(scheme))
        assert elliptic_scan == any(o.size == 1 for o in orbits)
        seen += 1
        flagged += elliptic_scan
    assert (seen, flagged) == (schemes, elliptic)


def test_symmetry_group_cube(cube):
    autos = symmetry_group(cube)
    assert len(autos) == 48
    assert sum(1 for _, orient in autos if orient) == 24


def test_symmetry_group_tetrahedron(solids):
    autos = symmetry_group(solids["tetrahedron"])
    assert len(autos) == 24
    assert sum(1 for _, orient in autos if orient) == 12


# square pyramid with a tetrahedron glued on one side face and a two-tet
# tower on an adjacent side face: the decorations are inequivalent and share
# the corner B, so only the identity is an automorphism
LOPSIDED = {"name": "lopsided", "vertices":
            ["A", "B", "C", "D", "apex", "w1", "w2", "w4"],
            "faces": [
                ["A", "D", "C", "B"],
                ["apex", "C", "D"],
                ["apex", "D", "A"],
                ["apex", "A", "w1"], ["A", "B", "w1"], ["B", "apex", "w1"],
                ["apex", "B", "w2"], ["C", "apex", "w2"],
                ["B", "C", "w4"], ["C", "w2", "w4"], ["w2", "B", "w4"],
            ]}


def test_symmetry_group_asymmetric_solid():
    poly = polytope.load_polyhedron(LOPSIDED)
    autos = symmetry_group(poly)
    assert len(autos) == 1
    vmap, orient = autos[0]
    assert orient and all(k == v for k, v in vmap.items())


def backtracking_symmetry_group(poly):
    """Reference automorphism search, independent of the face structure
    until the end: extend vertex images one vertex at a time (descending
    degree, document order) over the adjacency-respecting candidates in
    name order, then keep the complete maps that send every face cycle onto
    a face cycle, all in one sense.  Exponential: about 19 s on the
    dodecahedron."""
    adjacency = {v: set() for v in poly.vertices}
    for face in poly.faces:
        for u, v in zip(face, face[1:] + face[:1]):
            adjacency[u].add(v)
            adjacency[v].add(u)
    face_sets = {frozenset(f): f for f in poly.faces}
    verts = sorted(poly.vertices, key=lambda v: -len(adjacency[v]))
    out = []

    def is_rotation(a, b):
        doubled = list(b) + list(b)
        return len(a) == len(b) and any(
            doubled[i:i + len(b)] == list(a) for i in range(len(b)))

    def orientation(vmap):
        senses = set()
        for f in poly.faces:
            image = [vmap[v] for v in f]
            target = face_sets.get(frozenset(image))
            if target is None:
                return None
            if is_rotation(image, target):
                senses.add(True)
            elif is_rotation(image, list(reversed(target))):
                senses.add(False)
            else:
                return None
        return senses.pop() if len(senses) == 1 else None

    def extend(partial):
        if len(partial) == len(verts):
            vmap = dict(partial)
            orient = orientation(vmap)
            if orient is not None:
                out.append((vmap, orient))
            return
        v = verts[len(partial)]
        mapped = dict(partial)
        candidates = set(poly.vertices) - set(mapped.values())
        for u in mapped:
            if u in adjacency[v]:
                candidates &= adjacency[mapped[u]]
            else:
                candidates -= adjacency[mapped[u]]
        for c in sorted(candidates):
            if len(adjacency[c]) == len(adjacency[v]):
                extend(partial + [(v, c)])

    extend([])
    return out


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron",
                                  "icosahedron", "lopsided"])
def test_symmetry_group_matches_backtracking(solids, name):
    # same maps, flags and emission order
    poly = (polytope.load_polyhedron(LOPSIDED) if name == "lopsided"
            else solids[name])
    assert symmetry_group(poly) == backtracking_symmetry_group(poly)


def test_symmetry_group_matches_backtracking_relabeled(solids):
    # shuffled vertex names, vertex order, face order and face start
    # corners: the emission order depends on names and document order only
    rng = random.Random(5)
    for name in ("tetrahedron", "cube", "octahedron", "lopsided"):
        poly = (polytope.load_polyhedron(LOPSIDED) if name == "lopsided"
                else solids[name])
        for _ in range(4):
            names = list(poly.vertices)
            rename = dict(zip(names, rng.sample(names, len(names))))
            faces = []
            for f in rng.sample(poly.faces, len(poly.faces)):
                k = rng.randrange(len(f))
                faces.append([rename[v] for v in f[k:] + f[:k]])
            relabeled = polytope.load_polyhedron({
                "name": name, "faces": faces,
                "vertices": rng.sample(list(rename.values()), len(names))})
            assert (symmetry_group(relabeled)
                    == backtracking_symmetry_group(relabeled))


def test_symmetry_group_dodecahedron(solids):
    # the reference search takes about 19 s here, so check the maps directly
    poly = solids["dodecahedron"]
    autos = symmetry_group(poly)
    assert len(autos) == 120
    assert sum(1 for _, orient in autos if orient) == 60
    cycles = {f[i:] + f[:i] for f in poly.faces for i in range(len(f))}
    for vmap, orient in autos:
        assert sorted(vmap) == sorted(vmap.values()) == sorted(poly.vertices)
        for face in poly.faces:
            image = tuple(vmap[v] for v in face)
            assert (image if orient else image[::-1]) in cycles
    # every vertex has degree 3: maps come sorted by the images of the
    # vertices in document order
    keys = [tuple(vmap[v] for v in poly.vertices) for vmap, _ in autos]
    assert keys == sorted(set(keys))


DART_SOLIDS = ["tetrahedron", "cube", "octahedron", "dodecahedron",
               "icosahedron", "lopsided"]


def dart_solid(solids, name):
    return (polytope.load_polyhedron(LOPSIDED) if name == "lopsided"
            else solids[name])


@pytest.mark.parametrize("name", DART_SOLIDS)
def test_dart_arrays(solids, name):
    poly = dart_solid(solids, name)
    inc = poly.incidence
    ends = list(inc.darts)
    assert list(inc.darts.values()) == list(range(len(ends)))
    # twin is a fixed-point-free involution that keeps the edge
    for dart, twin in enumerate(inc.dart_twin):
        assert twin != dart and inc.dart_twin[twin] == dart
        assert inc.dart_edge[twin] == inc.dart_edge[dart]
        assert ends[twin] == ends[dart][::-1]
    # next cycles each face, from its first dart, along its vertex cycle
    for fid, face in enumerate(poly.faces):
        cycle = [inc.first[fid]]
        for _ in face[1:]:
            cycle.append(inc.dart_next[cycle[-1]])
        assert inc.dart_next[cycle[-1]] == cycle[0]
        assert [ends[d][0] for d in cycle] == list(face)
        assert {inc.dart_face[d] for d in cycle} == {fid}
        assert tuple(inc.dart_edge[d] for d in cycle) == inc.face_edge_cycle[fid]
    # the orbits of next[twin[d]] are the vertex stars, one dart per edge
    # at the vertex
    stars, seen = {}, set()
    for start in range(len(ends)):
        if start in seen:
            continue
        orbit = [start]
        while inc.dart_next[inc.dart_twin[orbit[-1]]] != start:
            orbit.append(inc.dart_next[inc.dart_twin[orbit[-1]]])
        seen.update(orbit)
        (vertex,) = {ends[d][0] for d in orbit}
        assert vertex not in stars
        stars[vertex] = [inc.dart_edge[d] for d in orbit]
    assert sorted(stars) == sorted(poly.vertices)
    for vertex, edges in stars.items():
        assert len(edges) == len(inc.vertex_edges[vertex])
        assert set(edges) == inc.vertex_edges[vertex]
    # each edge's first dart lies on its lower face
    for eid, dart in enumerate(inc.edge_dart):
        assert inc.dart_edge[dart] == eid
        assert inc.dart_face[dart] == inc.edge_faces[eid][0] == min(
            inc.edge_faces[eid])


@pytest.mark.parametrize("name", DART_SOLIDS)
def test_automorphism_actions_match_vertex_maps(solids, name):
    # the permutations read off the dart maps are the ones each vertex map
    # induces on the face vertex sets and on the edge end points
    poly = dart_solid(solids, name)
    inc = poly.incidence
    face_ids = {frozenset(f): i for i, f in enumerate(poly.faces)}
    actions = pairings.automorphism_actions(poly)
    assert [action[:2] for action in actions] == symmetry_group(poly)
    for vmap, _, face_perm, edge_perm in actions:
        assert face_perm == tuple(face_ids[frozenset(vmap[v] for v in f)]
                                  for f in poly.faces)
        assert edge_perm == tuple(inc.edge_id(*(vmap[v] for v in e))
                                  for e in inc.edges)


def test_canonicalize_rotation_invariance(cube, fd1):
    autos = symmetry_group(cube)
    rot = next(vmap for vmap, orient in autos
               if orient and any(k != v for k, v in vmap.items()))
    rotated = conjugate_scheme(fd1, rot)
    assert canonicalize(fd1, "rotations") == canonicalize(rotated, "rotations")


def test_canonicalize_mirror_split(fd1, fd1_mirror):
    assert canonicalize(fd1, "rotations") != canonicalize(fd1_mirror, "rotations")
    assert canonicalize(fd1, "all") == canonicalize(fd1_mirror, "all")


def oracle_keys(scheme, autos):
    return (conjugation_canonicalize(scheme, "rotations", autos),
            conjugation_canonicalize(scheme, "all", autos))


def test_canonical_keys_match_oracle_on_cube_schemes(cube):
    # each scheme's own entry in its image table, on all 960 schemes
    autos = symmetry_group(cube)
    actions = pairings.automorphism_actions(cube)
    assert len(actions) == 48
    for scheme in enumerate_schemes(cube):
        assert scheme_keys(scheme, actions) == oracle_keys(scheme, autos)


def assert_survivor_keys_match_oracle(poly, report, count):
    """Each survivor's keys, read from the image table of the first
    survivor of its family, are the one-scheme keys and the oracle's."""
    autos = symmetry_group(poly)
    actions = pairings.automorphism_actions(poly)
    assert len(report.survivors) == count
    for cand in report.survivors:
        keys = (cand.key_rotations, cand.key_full)
        assert keys == scheme_keys(cand.scheme, actions)
        assert keys == oracle_keys(cand.scheme, autos)


def test_canonical_keys_match_oracle_on_octahedron_survivors(
        solids, octahedron_report):
    assert_survivor_keys_match_oracle(solids["octahedron"],
                                      octahedron_report, 120)


def test_canonical_keys_match_oracle_on_cube_survivors(cube, cube_report):
    assert_survivor_keys_match_oracle(cube, cube_report, 30)


def test_image_table_matches_oracle_on_cube_survivors(cube, cube_report):
    # for every survivor S and action g, the table's entry for g.S is the
    # oracle's keys of g.S rebuilt by conjugation: a reflection g takes its
    # rotation key from the reflection coset; the oracle is cached by
    # signature, on which it depends alone
    autos = symmetry_group(cube)
    actions = pairings.automorphism_actions(cube)
    oracle = {}
    for cand in cube_report.survivors:
        table = pairings.image_keys(cand.scheme, actions)
        images = set()
        for action in actions:
            image = conjugate_scheme(cand.scheme, action[0])
            sig = scheme_signature(image)
            assert sig == pairings.signature(cand.scheme, action)
            if sig not in oracle:
                oracle[sig] = oracle_keys(image, autos)
            assert table[sig] == oracle[sig]
            images.add(sig)
        assert set(table) == images
    # the survivors are closed under symmetry: every image is one
    assert len(oracle) == 30


def test_scheme_json_roundtrip(cube, fd1):
    doc = pairings.scheme_to_json_dict(fd1)
    back = pairings.scheme_from_json_dict(cube, doc)
    assert back == fd1


def test_scheme_json_missing_keys(cube, fd1):
    doc = pairings.scheme_to_json_dict(fd1)
    with pytest.raises(pairings.SchemeError, match="'pairings'"):
        pairings.scheme_from_json_dict(cube, {})
    with pytest.raises(pairings.SchemeError, match="not an object"):
        pairings.scheme_from_json_dict(cube, {"pairings": [["A", 0, 1]]})
    for key in ("gen", "from", "to"):
        broken = {"pairings": [dict(p) for p in doc["pairings"]]}
        del broken["pairings"][1][key]
        with pytest.raises(pairings.SchemeError, match=repr(key)):
            pairings.scheme_from_json_dict(cube, broken)
    sugar = {"pairings": [{"gen": "A", "from": "front", "to": "back"}]}
    with pytest.raises(pairings.SchemeError, match="'twist_quarter_turns'"):
        pairings.scheme_from_json_dict(cube, sugar)


def test_scheme_json_face_id_out_of_range(cube, fd1):
    doc = pairings.scheme_to_json_dict(fd1)
    for key, bad in (("from", 99), ("to", -1), ("to", 1.0), ("from", True),
                     ("from", [0]), ("to", "front")):
        broken = {"pairings": [dict(p) for p in doc["pairings"]]}
        broken["pairings"][0][key] = bad
        with pytest.raises(pairings.SchemeError,
                           match="face id|unknown cube face"):
            pairings.scheme_from_json_dict(cube, broken)


def test_scheme_json_map_not_vertex_mapping(cube, fd1):
    doc = pairings.scheme_to_json_dict(fd1)
    first = doc["pairings"][0]["map"]
    some = next(iter(first))
    for bad in ([1, 2], "FTL", None, {**first, some: [1]},
                {**first, some: "nowhere"}, {"nowhere": some}):
        broken = {"pairings": [dict(p) for p in doc["pairings"]]}
        broken["pairings"][0]["map"] = bad
        with pytest.raises(pairings.SchemeError, match="'map'"):
            pairings.scheme_from_json_dict(cube, broken)


def test_scheme_json_bad_types_named(cube, fd1):
    # each of these reached a bare TypeError before it was named; the last
    # two are well-formed pairings that do not make a scheme together (one
    # listed twice, a symbol used twice)
    doc = pairings.scheme_to_json_dict(fd1)
    sugar = {"gen": "A", "from": "front", "to": "back",
             "twist_quarter_turns": 1}
    for pairing, message in (
            ({**doc["pairings"][0], "gen": ["A"]}, "not all strings"),
            ({**sugar, "gen": {"A": 1}}, "not all strings"),
            ({**doc["pairings"][0], "gen": 7}, "not all strings"),
            ({**sugar, "gen": None}, "not all strings"),
            ({**sugar, "from": ["front"]}, "unknown cube face"),
            ({**sugar, "to": {"back": 1}}, "unknown cube face"),
            ({**sugar, "twist_quarter_turns": 1.0}, "integer 0..3"),
            ({**sugar, "twist_quarter_turns": True}, "integer 0..3"),
            ({**sugar, "twist_quarter_turns": [1]}, "integer 0..3"),
            (doc["pairings"][1], "every face exactly once"),
            ({**doc["pairings"][0], "gen": doc["pairings"][1]["gen"]},
             "not distinct")):
        broken = {"pairings": [pairing] + doc["pairings"][1:]}
        with pytest.raises(pairings.SchemeError, match=message):
            pairings.scheme_from_json_dict(cube, broken)


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


CUBE_FACE_NAMES = ["back", "bottom", "front", "left", "right", "top"]


def twist_maps(poly):
    """Every twist-sugar map on the cube: each ordered face pair, each
    twist and each sense."""
    return [[a, b, k, s,
             sorted(pairings.twist_pairing(poly, "A", a, b, k, s).corr)]
            for a, b in itertools.permutations(CUBE_FACE_NAMES, 2)
            for k in range(4) for s in ("cw", "ccw")]


def cube_document(cube, faces):
    return polytope.load_polyhedron(
        {"name": "cube", "vertices": list(cube.vertices), "faces": faces})


def test_twist_maps_pinned(cube):
    # all 240 maps, as the coordinate construction (translation or hinge
    # fold, then quarter turns about the target's normal) gave them
    digest = hashlib.sha256(json.dumps(twist_maps(cube)).encode()).hexdigest()
    assert digest == ("fe71837067a86b50590032d795fbc6f77c71a6051d4cfe75f79ce175"
                      "107fcb2c")


def test_twist_maps_ignore_face_order_and_cycle_start(cube):
    rng = random.Random(7)
    faces = [list(f[i:] + f[:i]) for f, i in
             zip(cube.faces, (rng.randrange(4) for _ in cube.faces))]
    rng.shuffle(faces)
    assert [list(f) for f in cube.faces] != faces
    assert twist_maps(cube_document(cube, faces)) == twist_maps(cube)


def test_twist_sense_is_read_in_document_orientation(cube):
    # a cube document listing its faces clockwise from outside turns every
    # twist the other way: each map is the standard document's map for the
    # opposite sense
    flipped = cube_document(cube, [list(reversed(f)) for f in cube.faces])
    opposite = {"cw": "ccw", "ccw": "cw"}
    assert twist_maps(flipped) == [
        [a, b, k, s, sorted(pairings.twist_pairing(
            cube, "A", a, b, k, opposite[s]).corr)]
        for a, b, k, s, _ in twist_maps(cube)]


def test_twist_sugar_errors(cube, solids):
    for args, message in (
            (("front", "back", 1, "up"), "sense must be"),
            (("front", "back", 4, "cw"), "integer 0..3"),
            (("front", "front", 1, "cw"), "cannot pair a face with itself"),
            (("front", "aft", 1, "cw"), "unknown cube face")):
        with pytest.raises(pairings.SchemeError, match=message):
            pairings.twist_pairing(cube, "A", *args)
    renamed = polytope.load_polyhedron(
        {"name": "cube", "vertices": [v.lower() for v in cube.vertices],
         "faces": [[v.lower() for v in f] for f in cube.faces]})
    for poly in (solids["octahedron"], renamed):
        with pytest.raises(pairings.SchemeError, match="standard named cube"):
            pairings.twist_pairing(poly, "A", "front", "back", 1)
        doc = {"pairings": [{"gen": "A", "from": "front", "to": "back",
                             "map": {}}]}
        with pytest.raises(pairings.SchemeError, match="standard named cube"):
            pairings.scheme_from_json_dict(poly, doc)


def test_edge_orbits_non_reversing_pairing_raises(cube, fd1):
    # the moves of a pairing that keeps orientation are not a permutation:
    # the walk must end with a named error, not loop
    first = fd1.pairings[0]
    keep = dict(zip(cube.faces[first.source], cube.faces[first.target]))
    scheme = pairings.PairingScheme(cube, (
        pairings.make_pairing(first.gen, first.source, first.target, keep),
        *fd1.pairings[1:]))
    with pytest.raises(pairings.CensusError, match="not a permutation"):
        pairings.edge_orbits(scheme)


def test_edge_orbits_reject_a_walk_that_covers_its_edge_twice(cube):
    # moves that send each dart to its twin across the same edge are a
    # permutation, but every orbit then walks its edge twice: the orbits
    # reach every edge and still do not partition the edge set
    darts = cube.incidence.darts
    twin = [darts[v, u] for u, v in darts]
    with pytest.raises(pairings.CensusError,
                       match="do not partition the edge set"):
        pairings.dart_cycles(cube, twin)


def test_edge_orbits_reject_a_scheme_that_misses_a_face(cube, fd1):
    # a face in no pairing has no moves: the walk must end with a named
    # error, not a lookup error from inside it
    scheme = pairings.PairingScheme(cube, fd1.pairings[1:])
    with pytest.raises(pairings.CensusError, match="not a permutation"):
        pairings.edge_orbits(scheme)


def test_word_equivalence_predicate():
    w = (("A", 1), ("B", -1), ("C", 1))
    assert words_equivalent(w, (("B", -1), ("C", 1), ("A", 1)))
    assert words_equivalent(w, (("C", -1), ("B", 1), ("A", -1)))
    assert words_equivalent(w, (("X", 1), ("Y", -1), ("Z", 1)))
    assert not words_equivalent(w, (("A", 1), ("B", 1), ("C", 1)))
    assert not words_equivalent(w, (("A", 1), ("A", -1), ("C", 1)))
    assert not words_equivalent(w, (("A", 1), ("B", -1)))


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
    for scheme in enumerate_schemes(cube):
        traversal = {frozenset(o.edges)
                     for o in pairings.edge_orbits(scheme)}
        assert traversal == closure_partition(scheme, cube_inc)


def test_survivor_orbits_match_edge_orbits_and_closure(cube_report,
                                                      octahedron_report):
    # the orbits classify builds from the dart cycles of its reused move
    # table are the orbits edge_orbits walks on the survivor's own scheme,
    # step for step, and their edge sets the closure oracle's classes
    for report in (cube_report, octahedron_report):
        for cand in report.survivors:
            assert list(cand.orbits) == pairings.edge_orbits(cand.scheme)
            assert ({frozenset(o.edges) for o in cand.orbits}
                    == closure_partition(cand.scheme,
                                         cand.scheme.poly.incidence))
