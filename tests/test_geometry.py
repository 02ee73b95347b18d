import cmath
import math
import random
import types
from fractions import Fraction

import pytest

from hypdom import domains, geometry, pairings

from conftest import (SQRT3, reference_adjacent_generators,
                      reference_generators, sign_fixed)


def test_inscribed_vertices():
    pts = geometry.inscribed_cube_vertices()
    assert len(pts) == 8
    assert len({(p.x, p.y, p.z) for p in pts}) == 8
    for p in pts:
        d = math.sqrt(p.x ** 2 + p.y ** 2 + (p.z - 1) ** 2)
        assert abs(d - 1) < 1e-12
    # quarter turn about the vertical axis through (0, 0, 1) permutes them
    rotated = {(round(-p.y, 12), round(p.x, 12), round(p.z, 12)) for p in pts}
    assert rotated == {(round(p.x, 12), round(p.y, 12), round(p.z, 12))
                       for p in pts}
    # nearest neighbors sit one cube edge apart
    dists = sorted(
        math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))
        for i, a in enumerate(pts) for b in pts[i + 1:])
    assert abs(dists[0] - 2 / SQRT3) < 1e-12


def test_ball_to_uhs_example_vertex():
    r = 1 / SQRT3
    z = geometry.ball_to_uhs(geometry.Point3(r, r, 1 + r))
    assert abs(z - complex(1 + SQRT3, 1 + SQRT3)) < 1e-12


def test_ball_to_uhs_poles():
    assert geometry.ball_to_uhs(geometry.Point3(0, 0, 0)) == 0
    assert geometry.is_infinity(geometry.ball_to_uhs(geometry.Point3(0, 0, 2)))


def test_ball_to_uhs_rejects_off_sphere():
    with pytest.raises(geometry.GeometryError, match="ideal"):
        geometry.ball_to_uhs(geometry.Point3(0.5, 0.0, 1.0))


def test_realization_planar(cube):
    # every ideal cube vertex lands exactly on the boundary plane, i.e. the
    # construction itself raises if any image height exceeds 1e-9
    realization = geometry.regular_cube_realization(cube)
    assert len(set(realization.values())) == 8
    big = {z for z in realization.values() if abs(z) > 3}
    small = {z for z in realization.values() if abs(z) < 3}
    assert all(abs(abs(z) - (1 + SQRT3) * math.sqrt(2)) < 1e-9 for z in big)
    assert all(abs(abs(z) - (SQRT3 - 1) * math.sqrt(2)) < 1e-9 for z in small)


def test_cross_ratio_reference_values():
    assert geometry.cross_ratio(5.0, 2.0, 5.0, 7.0) == 0
    assert geometry.is_infinity(geometry.cross_ratio(7.0, 2.0, 5.0, 7.0))
    assert abs(geometry.cross_ratio(2.0, 2.0, 5.0, 7.0) - 1) < 1e-12
    z = complex(0.3, 1.7)
    assert abs(geometry.cross_ratio(z, 1.0, 0.0, geometry.INF) - z) < 1e-12


def test_cross_ratio_coincident_rejected():
    with pytest.raises(geometry.GeometryError):
        geometry.cross_ratio(1.0, 2.0, 2.0, 3.0)


def test_cross_ratio_matches_compose_oracle():
    # the cross ratio equals the image under the map sending (p2,p1,p3) to
    # (0,1,inf), built independently from mobius_from_triples
    rng = random.Random(7)
    for _ in range(50):
        pts = []
        while len(pts) < 4:
            c = complex(rng.randint(-9, 9), rng.randint(-9, 9))
            if c not in pts:
                pts.append(c)
        z, p1, p2, p3 = pts
        direct = geometry.cross_ratio(z, p1, p2, p3)
        m = geometry.mobius_from_triples((p2, p1, p3), (0, 1, geometry.INF))
        assert abs(direct - m(z)) < 1e-9


def test_cross_ratio_mobius_invariance():
    rng = random.Random(20260808)
    for _ in range(100):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(4)]
        try:
            m = geometry.MobiusMap(*entries).normalized()
        except geometry.GeometryError:
            continue
        pts = []
        while len(pts) < 4:
            c = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if all(abs(c - p) > 1e-3 for p in pts):
                pts.append(c)
        z, p1, p2, p3 = pts
        before = geometry.cross_ratio(z, p1, p2, p3)
        after = geometry.cross_ratio(m(z), m(p1), m(p2), m(p3))
        assert abs(before - after) <= 1e-9 * max(1.0, abs(before))


def test_mobius_from_triples_identity():
    m = geometry.mobius_from_triples((0, 1, geometry.INF), (0, 1, geometry.INF))
    assert geometry.projective_distance(m, geometry.IDENTITY) < 1e-12


def test_mobius_from_triples_degenerate():
    with pytest.raises(geometry.GeometryError):
        geometry.mobius_from_triples((1.0, 1.0, 2.0), (0.0, 1.0, 2.0))


def test_mobius_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        src = []
        dst = []
        while len(src) < 3:
            c = complex(rng.randint(-8, 8), rng.randint(-8, 8))
            if c not in src:
                src.append(c)
        while len(dst) < 3:
            c = complex(rng.randint(-8, 8), rng.randint(-8, 8))
            if c not in dst:
                dst.append(c)
        m = geometry.mobius_from_triples(src, dst)
        for s, d in zip(src, dst):
            assert abs(m(s) - d) < 1e-9
        back = geometry.mobius_from_triples(dst, src)
        assert geometry.projective_distance(
            m.compose(back), geometry.IDENTITY) < 1e-9


def test_fd1_generators_match_reference(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    refs = reference_generators()
    for sym in "ABC":
        assert geometry.projective_distance(gens[sym], refs[sym]) <= 1e-9


def test_fd1_generator_sign_fix(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    refs = reference_generators()
    for sym in "ABC":
        ours = sign_fixed(gens[sym])
        ref = sign_fixed(refs[sym])
        assert max(abs(a - b) for a, b in
                   zip(ours.entries(), ref.entries())) <= 1e-9


def test_fd2_generators_match_reference(realization, fd2):
    gens = geometry.face_pairing_maps(realization, fd2)
    refs = reference_adjacent_generators()
    assert geometry.projective_distance(gens["P"], refs["P"]) <= 1e-9
    assert geometry.projective_distance(gens["Q"], refs["Q"]) <= 1e-9
    assert geometry.projective_distance(gens["R"], refs["R"]) <= 1e-9


def test_mirror_generators_are_entrywise_conjugates(realization, fd1,
                                                    fd1_mirror):
    # the mirror scheme is the conjugate by the reflection swapping left and
    # right (Im-flip on the boundary): pairings whose face pair is fixed by
    # it conjugate to the entrywise complex conjugate, the swapped pair to
    # the conjugate of the inverse -- in no case to the plain inverse
    def conj(m):
        a, b, c, d = (z.conjugate() for z in m.entries())
        return geometry.MobiusMap(a, b, c, d)

    gens = geometry.face_pairing_maps(realization, fd1)
    mirror = geometry.face_pairing_maps(realization, fd1_mirror)
    assert geometry.projective_distance(mirror["A"], conj(gens["A"])) <= 1e-9
    assert geometry.projective_distance(mirror["C"], conj(gens["C"])) <= 1e-9
    assert geometry.projective_distance(
        mirror["B"], conj(gens["B"].inverse())) <= 1e-9
    for sym in "ABC":
        assert geometry.projective_distance(
            mirror[sym], gens[sym].inverse()) > 1e-3


def test_mirror_words_verify_with_inverse_generators(cube, fd1, fd1_mirror):
    # substituting the inverses of the original generators into the mirror
    # scheme's relator words yields the identity
    refs = reference_generators()
    inverses = {sym: m.inverse() for sym, m in refs.items()}
    for orbit in pairings.edge_orbits(fd1_mirror):
        word = pairings.relator_word(orbit)
        product = geometry.relator_product(inverses, word)
        assert geometry.classify_element(product) == "identity"


def test_fourth_vertex_error(realization, fd1):
    bent = dict(realization)
    bent["BBL"] = bent["BBL"] + 0.05
    with pytest.raises(geometry.FourthVertexError):
        geometry.face_pairing_maps(bent, fd1)


def test_relator_products_fd1(realization, fd1):
    presentation = geometry.verify_scheme(realization, fd1)
    assert presentation.verification == ("identity", "identity")


def test_relator_products_fd2_reference_matrices():
    refs = reference_adjacent_generators()
    word1 = (("P", 1), ("R", -1), ("R", -1), ("P", 1), ("Q", -1), ("Q", -1))
    word2 = (("P", 1), ("Q", 1), ("R", -1), ("P", -1), ("Q", -1), ("R", 1))
    for word in (word1, word2):
        product = geometry.relator_product(refs, word)
        assert geometry.classify_element(product) == "identity"


def test_relator_empty_word():
    refs = reference_generators()
    assert geometry.classify_element(
        geometry.relator_product(refs, ())) == "identity"


def test_relator_word_times_inverse(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    word = tuple(pairings.relator_word(
        pairings.edge_orbits(fd1)[0]).letters)
    inverse = tuple((g, -s) for g, s in reversed(word))
    product = geometry.relator_product(gens, word + inverse)
    assert geometry.classify_element(product) == "identity"


def test_classify_element_standard_forms():
    assert geometry.classify_element(geometry.MobiusMap(1, 1, 0, 1)) == "parabolic"
    two = geometry.MobiusMap(2, 0, 0, 1)      # trace^2 = 9/2 after det-1
    assert geometry.classify_element(two) == "loxodromic"
    assert geometry.classify_element(geometry.MobiusMap(0, -1, 1, 0)) == "elliptic"
    assert geometry.classify_element(geometry.MobiusMap(-3, 0, 0, -3)) == "identity"


def test_classify_element_det_guard():
    with pytest.raises(geometry.GeometryError, match="singular"):
        geometry.MobiusMap(1, 2, 2, 4)


def test_verify_candidates_on_cube(cube_report):
    confirmed = 0
    for key, members in cube_report.families_full.items():
        presentation = geometry.verify_candidate(members[0])
        assert presentation.confirmed()
        for sym, m in presentation.generators.items():
            assert geometry.classify_element(m) == "loxodromic"
        confirmed += 1
    assert confirmed == 3


def test_verify_candidate_rejects_non_regular(cube, fd1):
    # a stub candidate whose angle family misses the all-2/3 point
    solution = types.SimpleNamespace(contains=lambda values: False)
    stub = types.SimpleNamespace(scheme=fd1, solution=solution)
    with pytest.raises(geometry.NotRealizableError):
        geometry.verify_candidate(stub)


def test_realization_json_roundtrip(realization):
    doc = geometry.realization_to_json_dict(realization)
    back = geometry.realization_from_json_dict(doc)
    assert back == realization
