import cmath
import collections
import functools
import itertools
import json
import math
import random
import types
from fractions import Fraction
from importlib import resources

import pytest

from hypdom import angles, geometry, grouplab, pairings, polytope
from hypdom.geometry import MobiusMap, Z3i

import float_mobius as fm
from conftest import (FIVE_SEVEN_CLASSES, SQRT3, Point3,
                      ball_model_cube_realization, ball_to_uhs, drawn,
                      inscribed_cube_vertices, reference_adjacent_generators,
                      reference_generators, verify_scheme)

I = Z3i(0, 0, 1, 0)


def gaussian_points(rng, count, bound):
    """`count` distinct Gaussian integers with parts in [-bound, bound]."""
    pts = []
    while len(pts) < count:
        z = Z3i(rng.randint(-bound, bound), 0, rng.randint(-bound, bound), 0)
        if z not in pts:
            pts.append(z)
    return pts


def test_inscribed_vertices():
    pts = inscribed_cube_vertices()
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
    z = ball_to_uhs(Point3(r, r, 1 + r))
    assert abs(z - complex(1 + SQRT3, 1 + SQRT3)) < 1e-12


def test_ball_to_uhs_poles():
    assert ball_to_uhs(Point3(0, 0, 0)) == 0
    assert geometry.is_infinity(ball_to_uhs(Point3(0, 0, 2)))


def test_ball_to_uhs_rejects_off_sphere():
    with pytest.raises(geometry.GeometryError, match="ideal"):
        ball_to_uhs(Point3(0.5, 0.0, 1.0))


def test_realization_planar(cube, realization):
    # every ideal cube vertex lands exactly on the boundary plane: the
    # ball-model construction raises if any image height exceeds 1e-9, and
    # the bundled exact cube is its output to 1e-12
    ball = ball_model_cube_realization(cube)
    points = fm.float_realization(realization)
    assert ball.keys() == points.keys()
    assert all(abs(ball[v] - points[v]) < 1e-12 for v in ball)
    assert len(set(realization.values())) == 8
    big = {z for z in points.values() if abs(z) > 3}
    small = {z for z in points.values() if abs(z) < 3}
    assert all(abs(abs(z) - (1 + SQRT3) * math.sqrt(2)) < 1e-9 for z in big)
    assert all(abs(abs(z) - (SQRT3 - 1) * math.sqrt(2)) < 1e-9 for z in small)


def link_exterior_angles(poly, points):
    """(edge u-v, exterior dihedral angle) read at each endpoint u, without
    any Mobius machinery: u goes to infinity by z -> 1/(z - u), so each face
    at u becomes a vertical plane over the line through its other vertices,
    and the exterior angle at edge u-v is the link polygon's exterior angle
    at the image of v.  Also asserts that the images of each face's other
    vertices are collinear, i.e. that every face is an ideal polygon."""
    out = []
    for u in poly.vertices:
        pu = points[u]

        def image(z):
            if geometry.is_infinity(pu):
                return z
            return 0j if geometry.is_infinity(z) else 1 / (z - pu)

        across = collections.defaultdict(list)  # v -> u's other neighbours
        for face in poly.faces:
            if u not in face:
                continue
            i = face.index(u)
            rest = face[i + 1:] + face[:i]
            nxt, prv = rest[0], rest[-1]
            across[nxt].append(prv)
            across[prv].append(nxt)
            line = [image(points[w]) for w in rest]
            for w in line[1:-1]:
                assert abs(((w - line[0]) / (line[-1] - line[0])).imag) < 1e-9
        for v, (a, b) in across.items():
            pa, pv, pb = (image(points[w]) for w in (a, v, b))
            interior = abs(cmath.phase((pa - pv) / (pb - pv)))
            out.append(((u, v), math.pi - interior))
    return out


def test_bundled_realizations_are_regular(solids):
    for name, degree in (("cube", 3), ("octahedron", 4)):
        poly = solids[name]
        angles = link_exterior_angles(
            poly, fm.float_realization(geometry.load_realization(poly)))
        assert len(angles) == 2 * poly.edge_count()
        for edge, angle in angles:
            assert abs(angle - 2 * math.pi / degree) < 1e-9, (name, edge)


def test_cross_ratio_reference_values():
    assert fm.cross_ratio(5.0, 2.0, 5.0, 7.0) == 0
    assert geometry.is_infinity(fm.cross_ratio(7.0, 2.0, 5.0, 7.0))
    assert abs(fm.cross_ratio(2.0, 2.0, 5.0, 7.0) - 1) < 1e-12
    z = complex(0.3, 1.7)
    assert abs(fm.cross_ratio(z, 1.0, 0.0, geometry.INF) - z) < 1e-12


def test_cross_ratio_coincident_rejected():
    with pytest.raises(geometry.GeometryError):
        fm.cross_ratio(1.0, 2.0, 2.0, 3.0)


def test_cross_ratio_matches_compose_oracle():
    # the oracle's cross ratio equals the image of z under the exact map
    # sending (p2, p1, p3) to (0, 1, inf), from geometry.mobius_from_triples
    rng = random.Random(7)
    for _ in range(50):
        z, p1, p2, p3 = gaussian_points(rng, 4, 9)
        direct = fm.cross_ratio(*map(fm.to_complex, (z, p1, p2, p3)))
        m = geometry.mobius_from_triples((p2, p1, p3), (0, 1, geometry.INF))
        image = fm.to_complex(m.a * z + m.b) / fm.to_complex(m.c * z + m.d)
        assert abs(direct - image) < 1e-9


def test_cross_ratio_mobius_invariance():
    rng = random.Random(20260808)
    for _ in range(100):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(4)]
        try:
            m = fm.MobiusMap(*entries).normalized()
        except geometry.GeometryError:
            continue
        pts = []
        while len(pts) < 4:
            c = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if all(abs(c - p) > 1e-3 for p in pts):
                pts.append(c)
        z, p1, p2, p3 = pts
        before = fm.cross_ratio(z, p1, p2, p3)
        after = fm.cross_ratio(m(z), m(p1), m(p2), m(p3))
        assert abs(before - after) <= 1e-9 * max(1.0, abs(before))


def test_mobius_from_triples_identity():
    m = geometry.mobius_from_triples((0, 1, geometry.INF), (0, 1, geometry.INF))
    assert geometry.projective_distance(m, geometry.IDENTITY) == 0


def test_mobius_from_triples_degenerate():
    with pytest.raises(geometry.GeometryError):
        geometry.mobius_from_triples((Z3i(1), Z3i(1), Z3i(2)),
                                     (Z3i(0), Z3i(1), Z3i(2)))


def test_mobius_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        src = gaussian_points(rng, 3, 8)
        dst = gaussian_points(rng, 3, 8)
        m = geometry.mobius_from_triples(src, dst)
        for s, d in zip(src, dst):
            assert m.sends(s, d)
        assert not m.sends(src[0], dst[1])
        back = geometry.mobius_from_triples(dst, src)
        assert geometry.projective_distance(
            m.compose(back), geometry.IDENTITY) == 0


def test_fd1_generators_match_reference(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    refs = reference_generators()
    for sym in "ABC":
        assert geometry.projective_distance(gens[sym], refs[sym]) == 0


def test_fd1_generator_sign_fix(realization, fd1):
    # the float oracle on the float image of the realization reproduces the
    # closed forms entrywise after det-1 normalization with a fixed sign
    gens = fm.face_pairing_maps(fm.float_realization(realization), fd1)
    refs = reference_generators()
    for sym in "ABC":
        ours = fm.sign_fixed(gens[sym])
        ref = fm.sign_fixed(fm.from_exact(refs[sym]))
        assert max(abs(a - b) for a, b in
                   zip(ours.entries(), ref.entries())) <= 1e-9


def test_fd2_generators_match_reference(realization, fd2):
    gens = geometry.face_pairing_maps(realization, fd2)
    refs = reference_adjacent_generators()
    assert geometry.projective_distance(gens["P"], refs["P"]) == 0
    assert geometry.projective_distance(gens["Q"], refs["Q"]) == 0
    assert geometry.projective_distance(gens["R"], refs["R"]) == 0


def test_mirror_generators_are_entrywise_conjugates(realization, fd1,
                                                    fd1_mirror):
    # the mirror scheme is the conjugate by the reflection swapping left and
    # right (Im-flip on the boundary): pairings whose face pair is fixed by
    # it conjugate to the entrywise complex conjugate, the swapped pair to
    # the conjugate of the inverse -- in no case to the plain inverse
    def conj(m):
        return MobiusMap(*(z.conjugate() for z in m.entries()))

    gens = geometry.face_pairing_maps(realization, fd1)
    mirror = geometry.face_pairing_maps(realization, fd1_mirror)
    assert geometry.projective_distance(mirror["A"], conj(gens["A"])) == 0
    assert geometry.projective_distance(mirror["C"], conj(gens["C"])) == 0
    assert geometry.projective_distance(
        mirror["B"], conj(gens["B"].inverse())) == 0
    for sym in "ABC":
        assert geometry.projective_distance(
            mirror[sym], gens[sym].inverse()) > 0


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
    bent["BBL"] = bent["BBL"] + Z3i(1)
    with pytest.raises(geometry.FourthVertexError):
        geometry.face_pairing_maps(bent, fd1)


def test_relator_products_fd1(realization, fd1):
    doc = verify_scheme(realization, fd1)
    assert [r["product"] for r in doc["relators"]] == ["identity", "identity"]


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


def identity_first_product(generators, word):
    """relator_product as it was: the fold starts from IDENTITY."""
    m = geometry.IDENTITY
    for gen, sign in word:
        g = generators[gen]
        m = (g if sign > 0 else g.inverse()).compose(m)
    return m


def test_relator_product_folds_from_the_first_letter(solids, cube_report,
                                                     octahedron_report):
    # on every relator word of the 150 survivors, on the solid's bundled
    # realization: the same map as the fold that starts from IDENTITY
    words = 0
    for name, report in (("cube", cube_report),
                         ("octahedron", octahedron_report)):
        realization = geometry.load_realization(solids[name])
        for cand in report.survivors:
            gens = geometry.face_pairing_maps(realization, cand.scheme)
            for w in cand.words:
                assert geometry.projective_distance(
                    geometry.relator_product(gens, w),
                    identity_first_product(gens, w)) == 0, w
                words += 1
    assert words == 2 * 30 + 3 * 120
    gens = reference_generators()
    assert geometry.relator_product(gens, ()) is geometry.IDENTITY
    gen = next(iter(gens))
    assert geometry.relator_product(gens, ((gen, 1),)) is gens[gen]


def test_relator_word_times_inverse(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    word = pairings.relator_word(pairings.edge_orbits(fd1)[0])
    inverse = tuple((g, -s) for g, s in reversed(word))
    product = geometry.relator_product(gens, word + inverse)
    assert geometry.classify_element(product) == "identity"


def test_classify_element_standard_forms():
    assert geometry.classify_element(MobiusMap(1, 1, 0, 1)) == "parabolic"
    two = MobiusMap(2, 0, 0, 1)      # trace^2 = 9/2 after det-1
    assert geometry.classify_element(two) == "loxodromic"
    assert geometry.classify_element(MobiusMap(0, -1, 1, 0)) == "elliptic"
    assert geometry.classify_element(MobiusMap(-3, 0, 0, -3)) == "identity"
    # the same verdicts as the float oracle where the sign test in Q(sqrt3)
    # matters and where the determinant is not real
    root3, unit = Z3i(0, 1), Z3i(1, 1, 1, 0)
    cases = {
        MobiusMap(root3, -1, 1, 0): "elliptic",         # trace^2 = 3
        MobiusMap(Z3i(1, 1), -1, 1, 0): "loxodromic",   # 4 + 2 sqrt3
        MobiusMap(Z3i(-2, 1), -1, 1, 0): "elliptic",    # 7 - 4 sqrt3
        MobiusMap(unit, unit, 0, unit): "parabolic",
        MobiusMap(I, 0, 0, Z3i(0, 0, 2)): "loxodromic",  # trace^2/det = 9/2
        MobiusMap(0, -I, I, 0): "elliptic",
        MobiusMap(unit, 0, 0, unit): "identity",
        MobiusMap(I, 1, 0, -I): "elliptic",             # trace 0
        MobiusMap(Z3i(1, 0, 1), 0, 0, 1): "loxodromic",
    }
    for m, verdict in cases.items():
        assert geometry.classify_element(m) == verdict, m
        assert fm.classify_element(fm.from_exact(m)) == verdict, m


def test_classify_element_det_guard():
    # the public constructor checks the determinant of maps built from
    # outside data; only products and inverses skip it
    for entries in ((1, 2, 2, 4), (1, 1, 1, 1),
                    (Z3i(1, 1), 2, 1, Z3i(-1, 1)),  # (sqrt3+1)(sqrt3-1) - 2
                    (Z3i(0, 1), 3, 1, Z3i(0, 1))):  # sqrt3 sqrt3 - 3
        with pytest.raises(geometry.GeometryError, match="singular"):
            MobiusMap(*entries)


def test_ring_values_are_not_tuple_arithmetic():
    # ring values and maps are tuples underneath, but +, - and * take only
    # ring elements and a map has no + or *: an int or a plain tuple is
    # neither repeated nor concatenated
    z, one = Z3i(1, 2, 3, 4), geometry.IDENTITY
    for op in (lambda: 2 * z, lambda: z * 2, lambda: z + (1, 0, 0, 0),
               lambda: (1, 0, 0, 0) + z, lambda: z - 1,
               lambda: z - (1, 0, 0, 0), lambda: (1, 0, 0, 0) * z,
               lambda: one + one, lambda: 2 * one, lambda: one * 2,
               lambda: (1,) + one):
        with pytest.raises(TypeError):
            op()
    assert z + z == z * Z3i(2) == Z3i(2, 4, 6, 8)
    assert not Z3i(0) and Z3i(0, 0, 0, 1)
    assert (z.a, z.b, z.c, z.d) == z.parts() == (1, 2, 3, 4)
    assert repr(z) == "Z3i(a=1, b=2, c=3, d=4)"
    with pytest.raises(geometry.GeometryError, match="singular"):
        MobiusMap(0, 0, 0, 0)
    m = MobiusMap(1, z, 0, 1)
    assert type(m.a) is Z3i and m.entries() == (Z3i(1), z, Z3i(0), Z3i(1))
    product = m.compose(m.inverse())
    assert type(product) is MobiusMap
    assert all(type(e) is Z3i for e in product.entries())
    assert product == geometry.IDENTITY


def product_oracle(m, n):
    """m.compose(n) written with the ring's * and +, divided by the gcd of
    the 16 integers of the product."""
    entries = (m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
               m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)
    g = math.gcd(*(x for e in entries for x in e.parts()))
    return MobiusMap(*(Z3i(*(x // g for x in e.parts())) for e in entries))


def test_compose_matches_ring_oracle(solids):
    # products formed on integer parts and built without the determinant
    # check are the checked products of the ring's own arithmetic, on
    # random small entries and on the bundled realizations' points
    rng = random.Random(28)
    pool = [z for name in ("cube", "octahedron") for z in
            geometry.load_realization(solids[name]).values()
            if not geometry.is_infinity(z)]

    def entry():
        if rng.random() < 0.25:
            return rng.choice(pool)
        return Z3i(*(rng.randint(-4, 4) for _ in range(4)))

    maps = []
    while len(maps) < 300:
        entries = [entry() for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2]:
            maps.append(MobiusMap(*entries))
    for m, n in zip(maps, maps[1:] + maps[:1]):
        product = m.compose(n)
        assert product == product_oracle(m, n)
        assert all(type(e) is Z3i for e in product.entries())
        assert m.inverse() == MobiusMap(m.d, -m.b, -m.c, m.a)
        assert geometry.projective_distance(
            m.inverse().compose(m), geometry.IDENTITY) == 0


def test_verify_candidates_on_cube(cube_report):
    confirmed = 0
    for key, members in cube_report.families_full.items():
        doc = geometry.verify_candidate(members[0])
        assert doc["confirmed"]
        for kind in doc["generator_types"].values():
            assert kind == "loxodromic"
        confirmed += 1
    assert confirmed == 3


def test_verify_candidate_rejects_non_regular(cube, cube_inc, fd1):
    # a stub candidate carrying a 5-7 angle system, whose solutions all pin
    # an angle at 1 and so miss the all-2/3 point
    system = angles.assemble_system(
        cube, [drawn(cube_inc, cl) for cl in FIVE_SEVEN_CLASSES])
    stub = types.SimpleNamespace(scheme=fd1, system=system)
    with pytest.raises(geometry.NotRealizableError, match="regular"):
        geometry.verify_candidate(stub)


def test_verify_candidates_on_octahedron(octahedron_report):
    # the regular ideal octahedron (all exterior angles 1/2) carries both
    # 4-4-4 families; the 3-4-5 and 3-3-6 families miss the regular point
    confirmed = 0
    for members in octahedron_report.families_full.values():
        if members[0].class_sizes != (4, 4, 4):
            with pytest.raises(geometry.NotRealizableError, match="all-1/2"):
                geometry.verify_candidate(members[0])
            continue
        for member in members:
            doc = geometry.verify_candidate(member)
            assert doc["confirmed"]
            assert set(doc["generator_types"].values()) <= {"loxodromic",
                                                            "parabolic"}
            confirmed += 1
    assert confirmed == 24


def test_verify_words_rejects_a_3_4_5_survivor(solids, octahedron_report):
    # a 3-4-5 survivor's words on the regular ideal octahedron, without
    # verify_candidate's scope test: by the regular-symmetry lemma only the
    # size-4 class closes up, the other two cycles are elliptic
    cand = next(c for c in octahedron_report.survivors
                if c.class_sizes == (3, 4, 5))
    realization = geometry.load_realization(solids["octahedron"])
    doc = geometry.verify_words(realization, cand.scheme, cand.words)
    assert doc["confirmed"] is False
    assert doc["status"] == "REJECTED"
    products = {o.size: r["product"]
                for o, r in zip(cand.orbits, doc["relators"])}
    assert products == {3: "elliptic", 4: "identity", 5: "elliptic"}


def test_regular_relators_identity_exactly_at_regular_class_size(
        solids, cube_report, octahedron_report):
    # the regular-symmetry lemma, read off the Mobius matrices without
    # verify_candidate's scope test: on the regular ideal cube (d = 3) and
    # octahedron (d = 4), every survivor's relator is the identity when its
    # edge class has n = 2d/(d - 2) edges and elliptic otherwise, so a
    # survivor is CONFIRMED exactly when the regular point solves its system
    relators = 0
    for name, report, d in (("cube", cube_report, 3),
                            ("octahedron", octahedron_report, 4)):
        n = 2 * d // (d - 2)
        realization = geometry.load_realization(solids[name])
        regular = dict.fromkeys(range(solids[name].edge_count()),
                                Fraction(2, d))
        for cand in report.survivors:
            doc = geometry.verify_words(realization, cand.scheme,
                                        cand.words)
            assert [r["product"] for r in doc["relators"]] == [
                "identity" if o.size == n else "elliptic"
                for o in cand.orbits]
            assert doc["confirmed"] == angles.satisfies(cand.system, regular)
            relators += len(cand.words)
    assert relators == 2 * 30 + 3 * 120


@pytest.mark.parametrize("name, size", [
    ("tetrahedron", 6), ("cube", 6), ("octahedron", 4), ("dodecahedron", 6),
    ("icosahedron", None)])
def test_regular_point_solves_one_class_size(solids, name, size):
    # the regular point, exterior angle 2/d on every edge, solves the row
    # of a class of k edges (their angles sum to k - 2) exactly when
    # k = 2d/(d - 2); on the icosahedron that is 10/3, so no class fits
    poly = solids[name]
    inc = poly.incidence
    (d,) = {len(inc.vertex_edges[v]) for v in poly.vertices}
    e = poly.edge_count()
    fits = []
    for k in range(3, e + 1):
        if e - k in (1, 2):  # no partition has a class of this size
            continue
        system = angles.assemble_system(
            poly, [range(k)] + ([range(k, e)] if k < e else []))
        coef, rhs = system.rows[system.provenance.index(("class", 0))]
        if sum(coef) * Fraction(2, d) == rhs:
            fits.append(k)
    n = Fraction(2 * d, d - 2)
    assert fits == ([n] if n.denominator == 1 else [])
    assert fits == ([size] if size else [])


def swap_data_folder(monkeypatch, tmp_path):
    """Point the package data at tmp_path, holding a copy of the bundled
    octahedron document, and give the fit a fresh cache, so that a solid
    already fitted reads its realization again; returns the (empty)
    realizations folder there."""
    (tmp_path / "octahedron.json").write_text(
        resources.files("hypdom.data").joinpath("octahedron.json").read_text())
    folder = tmp_path / "realizations"
    folder.mkdir()
    monkeypatch.setattr(geometry, "_fit",
                        functools.cache(geometry._fit.__wrapped__))
    monkeypatch.setattr(geometry.resources, "files", lambda package: tmp_path)
    return folder


def test_load_realization_rejects(solids, monkeypatch, tmp_path):
    with pytest.raises(geometry.NotRealizableError, match="tetrahedron"):
        geometry.load_realization(solids["tetrahedron"])
    # the octahedron's names on a pentagonal pyramid: degrees 5 and 3
    rim = ["v1", "v2", "v3", "v4", "v5"]
    pyramid = polytope.load_polyhedron({
        "name": "octahedron", "vertices": ["v0"] + rim,
        "faces": [rim[::-1]] + [["v0", a, b] for a, b in
                                zip(rim, rim[1:] + rim[:1])]})
    with pytest.raises(geometry.RealizationError, match="degrees"):
        geometry.load_realization(pyramid)
    bundled = geometry.realization_to_json_dict(
        geometry.load_realization(solids["octahedron"]))
    folder = swap_data_folder(monkeypatch, tmp_path)
    for change, message in (
            ({"v6": [[2, 0], [0, 0]]}, "exactly the polyhedron's vertices"),
            ({"v2": [[0, 0], [0, 0]]}, "not pairwise distinct"),
            ({"v1": "inf"}, "not pairwise distinct"),
            ({"v3": [["-1", 0], [0, 0]]}, "neither"),   # a string
            ({"v3": [[-1.0, 0], [0, 0]]}, "neither"),   # a float coefficient
            ({"v3": [[True, 0], [0, 0]]}, "neither"),   # a bool
            ({"v3": [-1.0, 0.0]}, "neither"),           # a float pair
            ({"v3": [[-1, 0]]}, "neither"),             # wrong shapes
            ({"v3": [[-1, 0, 0], [0, 0]]}, "neither")):
        (folder / "octahedron.json").write_text(
            json.dumps({**bundled, **change}))
        with pytest.raises(geometry.RealizationError, match=message):
            geometry.load_realization(solids["octahedron"])


def test_load_realization_reads_only_its_own_folder(cube):
    # a name that leads out of data/realizations names no bundled
    # realization, although the file it would reach exists
    for name in ("../cube", "../realizations/cube"):
        with pytest.raises(geometry.NotRealizableError, match="bundled"):
            geometry.load_realization(cube._replace(name=name))


def test_load_realization_is_read_once(solids, realization):
    # every caller gets its own dict: bending a vertex in one, as
    # test_fourth_vertex_error does in its copy, leaves the next load alone
    loaded = geometry.load_realization(solids["cube"])
    assert loaded == realization and loaded is not realization
    loaded["BBL"] = loaded["BBL"] + Z3i(1)
    del loaded["FTR"]
    assert geometry.load_realization(solids["cube"]) == realization
    # the cache is keyed on the faces as well as the name: a cube named
    # "cube" with FTR and BBL swapped in every face is still refused
    swap = {"FTR": "BBL", "BBL": "FTR"}
    swapped = solids["cube"]._replace(faces=tuple(
        tuple(swap.get(v, v) for v in face) for face in solids["cube"].faces))
    with pytest.raises(geometry.RealizationError, match="not a face"):
        geometry.load_realization(swapped)


def test_load_realization_does_not_cache_failures(solids, monkeypatch,
                                                  tmp_path):
    # a document that fails is read again on the next call: written back
    # to the same path as the bundled one, it loads
    octahedron = solids["octahedron"]
    bundled = geometry.load_realization(octahedron)
    folder = swap_data_folder(monkeypatch, tmp_path)
    doc = geometry.realization_to_json_dict(bundled)
    (folder / "octahedron.json").write_text(json.dumps({**doc, "v1": "inf"}))
    with pytest.raises(geometry.RealizationError, match="pairwise distinct"):
        geometry.load_realization(octahedron)
    (folder / "octahedron.json").write_text(json.dumps(doc))
    assert geometry.load_realization(octahedron) == bundled


def test_cache_hit_does_no_package_lookup(cube, cube_report, monkeypatch):
    # once the cube is fitted, neither a second load nor a verify of a
    # cube survivor looks the package data up again
    realization = geometry.load_realization(cube)

    def no_lookup(package):
        raise AssertionError(f"package data of {package} looked up")

    monkeypatch.setattr(geometry.resources, "files", no_lookup)
    assert geometry.load_realization(cube) == realization
    doc = geometry.verify_candidate(cube_report.survivors[0])
    assert doc["status"] == "CONFIRMED"


def test_realization_json_roundtrip(realization):
    doc = geometry.realization_to_json_dict(realization)
    back = geometry.realization_from_json_dict(doc)
    assert back == realization


def test_ring_arithmetic_matches_complex():
    # +, -, *, conjugation and the sign test against their float images
    rng = random.Random(3)

    def element():
        return Z3i(*(rng.randint(-9, 9) for _ in range(4)))

    for _ in range(200):
        x, y = element(), element()
        cx, cy = fm.to_complex(x), fm.to_complex(y)
        assert abs(fm.to_complex(x + y) - (cx + cy)) < 1e-9
        assert abs(fm.to_complex(x - y) - (cx - cy)) < 1e-9
        assert abs(fm.to_complex(x * y) - cx * cy) < 1e-9
        assert abs(fm.to_complex(-x * Z3i(2)) + 2 * cx) < 1e-9
        assert fm.to_complex(x.conjugate()) == cx.conjugate()
        assert x.real_sign() == (cx.real > 0) - (cx.real < 0)
        assert (x * y == y * x) and ((x - x) == Z3i(0)) and not (x - x)


def test_exact_verdicts_agree_with_float_oracle(solids, cube_report,
                                                octahedron_report):
    # on all 150 cube and octahedron survivors, on the solid's bundled
    # realization (whether or not the angle family admits it): the same
    # relator verdicts, generator types and commuting pairs as the oracle
    confirmed = commuting = 0
    for name, report in (("cube", cube_report),
                         ("octahedron", octahedron_report)):
        realization = geometry.load_realization(solids[name])
        points = fm.float_realization(realization)
        for cand in report.survivors:
            gens = geometry.face_pairing_maps(realization, cand.scheme)
            oracle = fm.face_pairing_maps(points, cand.scheme)
            verdicts = [geometry.classify_element(
                geometry.relator_product(gens, w)) for w in cand.words]
            assert verdicts == [fm.classify_element(
                fm.relator_product(oracle, w)) for w in cand.words]
            assert ({s: geometry.classify_element(m) for s, m in gens.items()}
                    == {s: fm.classify_element(m) for s, m in oracle.items()})
            pairs = grouplab.restriction_report(
                cand.scheme, gens)["commuting_generator_pairs"]
            assert pairs == [
                [s, t] for s, t in itertools.combinations(sorted(oracle), 2)
                if fm.commutes(oracle[s], oracle[t])]
            confirmed += verdicts == ["identity"] * len(verdicts)
            commuting += bool(pairs)
    assert (confirmed, commuting) == (54, 12)
