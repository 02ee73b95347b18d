import itertools

import pytest

from hypdom import enumeration, geometry, grouplab, pairings, polytope

from conftest import reference_generators


def words_of(scheme, inc=None):
    return tuple(pairings.relator_word(o)
                 for o in pairings.edge_orbits(scheme, inc))


def test_squared_term_examples(fd1, fd2, cube_inc):
    flag, _ = grouplab.has_squared_term(words_of(fd1, cube_inc))
    assert not flag
    flag, witnesses = grouplab.has_squared_term(words_of(fd2, cube_inc))
    assert flag and witnesses
    flag, _ = grouplab.has_squared_term([(("Y", 1), ("Y", 1), ("Z", 1))])
    assert flag


def test_squared_term_cyclic_wraparound():
    flag, _ = grouplab.has_squared_term([(("Y", 1), ("Z", 1), ("Y", 1))])
    assert flag  # positions 2 and 0 are cyclically adjacent


def test_y2z_link_fd1(fd1, cube_inc):
    orbits = pairings.edge_orbits(fd1, cube_inc)
    verdict = grouplab.y2z_class_link(orbits, words_of(fd1, cube_inc))
    assert verdict.consistent
    assert not verdict.has_size3_orbit and not verdict.has_y2z_word


def test_y2z_link_five_seven_scheme(cube, cube_inc):
    # a top-front / left-right / back-bottom scheme with classes 5 and 7:
    # no 3-orbit and no length-3 word, consistently
    fids = pairings.cube_face_ids(cube)
    for scheme in enumeration.enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        orbits = pairings.edge_orbits(scheme, cube_inc)
        if sorted(o.size for o in orbits) == [5, 7]:
            verdict = grouplab.y2z_class_link(orbits, words_of(scheme, cube_inc))
            assert verdict.consistent
            assert not verdict.has_size3_orbit
            return
    pytest.fail("no 5-7 scheme found")


def test_y2z_link_synthetic_three_orbit(cube, cube_inc):
    # adjacent identified faces sharing an edge of a 3-orbit: both sides true
    for scheme in enumeration.enumerate_schemes(cube):
        if pairings.detect_elliptic_generator(scheme, cube_inc):
            continue
        if not grouplab.adjacent_identified_sharing_edge(scheme, cube_inc):
            continue
        orbits = pairings.edge_orbits(scheme, cube_inc)
        three = [o for o in orbits if o.size == 3]
        if not three:
            continue
        shared = {eid for p in scheme.pairings
                  for eid in set(cube_inc.face_edge_cycle[p.source])
                  & set(cube_inc.face_edge_cycle[p.target])}
        if not any(set(o.edges) & shared for o in three):
            continue
        verdict = grouplab.y2z_class_link(orbits, words_of(scheme, cube_inc))
        if verdict.has_y2z_word:
            assert verdict.consistent
            return
    pytest.fail("no suitable scheme found")


def test_commute_translations():
    t1 = geometry.MobiusMap(1, 1, 0, 1)
    t2 = geometry.MobiusMap(1, 1j, 0, 1)
    assert grouplab.commute_numeric(t1, t2)


def test_commute_affine_pair():
    double = geometry.MobiusMap(2, 0, 0, 1)
    shift = geometry.MobiusMap(1, 1, 0, 1)
    assert not grouplab.commute_numeric(double, shift)


def test_fd1_generators_do_not_commute(realization, fd1, cube_inc):
    gens = geometry.face_pairing_maps(realization, fd1)
    pairs = list(itertools.combinations(sorted(gens), 2))
    verdicts = {p: grouplab.commute_numeric(gens[p[0]], gens[p[1]])
                for p in pairs}
    assert not any(verdicts.values())
    # with no commuting pair there should be no size-3 orbit, and there isn't
    orbits = pairings.edge_orbits(fd1, cube_inc)
    assert not any(o.size == 3 for o in orbits)


def test_y2z_identity_product_forces_commuting():
    # the commuting consequence of a YYZ relator needs the product to BE the
    # identity: with Z := Y^-2 exactly, Y and Z must commute
    import random
    rng = random.Random(5)
    for _ in range(25):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(4)]
        try:
            y = geometry.MobiusMap(*entries).normalized()
        except geometry.GeometryError:
            continue
        z = y.inverse().compose(y.inverse())
        product = y.compose(y).compose(z)
        assert geometry.classify_element(product) == "identity"
        assert grouplab.commute_numeric(y, z)


def test_y2z_realized_products_are_half_turns(cube, cube_inc, realization):
    # on the regular ideal cube a 3-orbit always glues a total interior
    # angle of pi, so realized YYZ words multiply to an order-2 elliptic,
    # never the identity -- Y and Z then need not commute
    checked = 0
    saw_noncommuting = False
    for scheme in enumeration.enumerate_schemes(cube):
        words = words_of(scheme, cube_inc)
        if not any(len(w.letters) == 3 for w in words):
            continue
        gens = geometry.face_pairing_maps(realization, scheme)
        for w in words:
            if len(w.letters) != 3:
                continue
            letters = w.letters
            doubles = [l for l in set(letters) if letters.count(l) == 2]
            singles = [l for l in set(letters) if letters.count(l) == 1]
            product = geometry.relator_product(gens, w)
            assert geometry.classify_element(product) == "elliptic"
            assert abs(product.normalized().trace) < 1e-8  # rotation by pi
            if doubles and singles:
                (gy, sy), (gz, sz) = doubles[0], singles[0]
                y = gens[gy] if sy > 0 else gens[gy].inverse()
                z = gens[gz] if sz > 0 else gens[gz].inverse()
                if not grouplab.commute_numeric(y, z):
                    saw_noncommuting = True
            checked += 1
        if checked >= 20:
            break
    assert checked and saw_noncommuting


def test_edge_bound(solids):
    assert not grouplab.edge_bound_check(solids["icosahedron"])  # 30 > 24
    assert grouplab.edge_bound_check(solids["cube"])             # 12 <= 16
    assert grouplab.edge_bound_check(solids["octahedron"])       # 12 <= 12


def test_parity_fd1(cube, fd1, cube_inc):
    orbits = pairings.edge_orbits(fd1, cube_inc)
    assert grouplab.parity_check(orbits, words_of(fd1, cube_inc), cube)


def test_parity_vacuous_with_squared_term(cube, fd2, cube_inc):
    orbits = pairings.edge_orbits(fd2, cube_inc)
    assert grouplab.parity_check(orbits, words_of(fd2, cube_inc), cube)


def test_five_seven_schemes_have_squared_terms(cube, cube_inc):
    # odd class sizes force adjacent identified faces, which force a squared
    # term; check on every 5-7 scheme of the top-front matching
    fids = pairings.cube_face_ids(cube)
    hits = 0
    for scheme in enumeration.enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        orbits = pairings.edge_orbits(scheme, cube_inc)
        if sorted(o.size for o in orbits) != [5, 7]:
            continue
        flag, _ = grouplab.has_squared_term(words_of(scheme, cube_inc))
        assert flag
        hits += 1
    assert hits


def test_candidate_parity_property(cube_report):
    # over all survivors: no squared term implies all-even orbit sizes
    for cand in cube_report.survivors:
        squared, _ = grouplab.has_squared_term(cand.words)
        if not squared:
            assert all(o.size % 2 == 0 for o in cand.orbits)


def test_prop63_exhaustive(cube, cube_inc):
    # squared term <=> some pairing identifies adjacent faces, over the
    # entire scheme population, with zero exceptions
    for scheme in enumeration.enumerate_schemes(cube):
        squared, _ = grouplab.has_squared_term(words_of(scheme, cube_inc))
        adjacent = grouplab.adjacent_identified_sharing_edge(scheme, cube_inc)
        assert squared == adjacent


def test_restriction_report_fd2(cube, fd2, realization):
    gens = geometry.face_pairing_maps(realization, fd2)
    report = grouplab.restriction_report(fd2, gens)
    assert report.adjacent_identified_sharing_edge
    assert report.squared_term_relators
    assert not report.has_size3_class
    assert report.edge_bound_ok
    assert report.parity_ok
