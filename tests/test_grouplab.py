import itertools
import random

import pytest

from hypdom import geometry, grouplab, pairings, polytope
from hypdom.geometry import MobiusMap, Z3i

import float_mobius as fm
from conftest import detect_elliptic_generator, enumerate_schemes


def words_of(scheme):
    return tuple(pairings.relator_word(o)
                 for o in pairings.edge_orbits(scheme))


def test_squared_term_examples(fd1, fd2):
    flag, _ = grouplab.has_squared_term(words_of(fd1))
    assert not flag
    flag, witnesses = grouplab.has_squared_term(words_of(fd2))
    assert flag and witnesses
    flag, _ = grouplab.has_squared_term([(("Y", 1), ("Y", 1), ("Z", 1))])
    assert flag


def test_squared_term_cyclic_wraparound():
    flag, _ = grouplab.has_squared_term([(("Y", 1), ("Z", 1), ("Y", 1))])
    assert flag  # positions 2 and 0 are cyclically adjacent


def test_y2z_link_fd1(fd1):
    report = grouplab.restriction_report(fd1)
    assert report["has_size3_class"] == report["has_y2z_relator"]
    assert not report["has_size3_class"] and not report["has_y2z_relator"]


def test_y2z_link_five_seven_scheme(cube):
    # a top-front / left-right / back-bottom scheme with classes 5 and 7:
    # no 3-orbit and no length-3 word, consistently
    fids = pairings.cube_face_ids(cube)
    for scheme in enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        orbits = pairings.edge_orbits(scheme)
        if sorted(o.size for o in orbits) == [5, 7]:
            report = grouplab.restriction_report(scheme)
            assert report["has_size3_class"] == report["has_y2z_relator"]
            assert not report["has_size3_class"]
            return
    pytest.fail("no 5-7 scheme found")


def test_y2z_link_synthetic_three_orbit(cube, cube_inc):
    # adjacent identified faces sharing an edge of a 3-orbit: both sides true
    for scheme in enumerate_schemes(cube):
        if detect_elliptic_generator(scheme):
            continue
        if not grouplab.adjacent_identified_sharing_edge(scheme):
            continue
        orbits = pairings.edge_orbits(scheme)
        three = [o for o in orbits if o.size == 3]
        if not three:
            continue
        shared = {eid for p in scheme.pairings
                  for eid in set(cube_inc.face_edge_cycle[p.source])
                  & set(cube_inc.face_edge_cycle[p.target])}
        if not any(set(o.edges) & shared for o in three):
            continue
        report = grouplab.restriction_report(scheme)
        if report["has_y2z_relator"]:
            assert report["has_size3_class"] == report["has_y2z_relator"]
            return
    pytest.fail("no suitable scheme found")


def test_commute_translations():
    t1 = MobiusMap(1, 1, 0, 1)
    t2 = MobiusMap(1, Z3i(0, 0, 1, 0), 0, 1)
    assert grouplab.commutes(t1, t2)


def test_commute_affine_pair():
    double = MobiusMap(2, 0, 0, 1)
    shift = MobiusMap(1, 1, 0, 1)
    assert not grouplab.commutes(double, shift)


def test_fd1_generators_do_not_commute(realization, fd1):
    gens = geometry.face_pairing_maps(realization, fd1)
    pairs = list(itertools.combinations(sorted(gens), 2))
    verdicts = {p: grouplab.commutes(gens[p[0]], gens[p[1]])
                for p in pairs}
    assert not any(verdicts.values())
    # with no commuting pair there should be no size-3 orbit, and there isn't
    orbits = pairings.edge_orbits(fd1)
    assert not any(o.size == 3 for o in orbits)


def test_y2z_identity_product_forces_commuting():
    # the commuting consequence of a YYZ relator needs the product to BE the
    # identity: with Z := Y^-2 exactly, Y and Z must commute -- in the float
    # oracle on random complex matrices, and exactly on random ring ones
    rng = random.Random(5)
    for _ in range(25):
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(4)]
        try:
            y = fm.MobiusMap(*entries).normalized()
        except geometry.GeometryError:
            continue
        z = y.inverse().compose(y.inverse())
        product = y.compose(y).compose(z)
        assert fm.classify_element(product) == "identity"
        assert fm.commutes(y, z)
    for _ in range(25):
        entries = [Z3i(*(rng.randint(-3, 3) for _ in range(4)))
                   for _ in range(4)]
        try:
            y = MobiusMap(*entries)
        except geometry.GeometryError:
            continue
        z = y.inverse().compose(y.inverse())
        product = y.compose(y).compose(z)
        assert geometry.classify_element(product) == "identity"
        assert grouplab.commutes(y, z)
        w = MobiusMap(1, entries[0], 0, 1)  # a translation
        assert grouplab.commutes(y, w) == fm.commutes(
            fm.from_exact(y), fm.from_exact(w))


def test_y2z_realized_products_are_half_turns(cube, realization):
    # on the regular ideal cube a 3-orbit always glues a total interior
    # angle of pi, so realized YYZ words multiply to an order-2 elliptic,
    # never the identity -- Y and Z then need not commute
    checked = 0
    saw_noncommuting = False
    for scheme in enumerate_schemes(cube):
        words = words_of(scheme)
        if not any(len(w) == 3 for w in words):
            continue
        gens = geometry.face_pairing_maps(realization, scheme)
        for w in words:
            if len(w) != 3:
                continue
            doubles = [l for l in set(w) if w.count(l) == 2]
            singles = [l for l in set(w) if w.count(l) == 1]
            product = geometry.relator_product(gens, w)
            assert geometry.classify_element(product) == "elliptic"
            assert not product.trace  # rotation by pi
            if doubles and singles:
                (gy, sy), (gz, sz) = doubles[0], singles[0]
                y = gens[gy] if sy > 0 else gens[gy].inverse()
                z = gens[gz] if sz > 0 else gens[gz].inverse()
                if not grouplab.commutes(y, z):
                    saw_noncommuting = True
            checked += 1
        if checked >= 20:
            break
    assert checked and saw_noncommuting


def test_edge_bound(solids):
    assert not grouplab.edge_bound_check(solids["icosahedron"])  # 30 > 24
    assert grouplab.edge_bound_check(solids["cube"])             # 12 <= 16
    assert grouplab.edge_bound_check(solids["octahedron"])       # 12 <= 12


def test_parity_fd1(cube, fd1):
    orbits = pairings.edge_orbits(fd1)
    assert grouplab.parity_check(orbits, words_of(fd1), cube)


def test_parity_vacuous_with_squared_term(cube, fd2):
    orbits = pairings.edge_orbits(fd2)
    assert grouplab.parity_check(orbits, words_of(fd2), cube)


def test_five_seven_schemes_have_squared_terms(cube):
    # odd class sizes force adjacent identified faces, which force a squared
    # term; check on every 5-7 scheme of the top-front matching
    fids = pairings.cube_face_ids(cube)
    hits = 0
    for scheme in enumerate_schemes(cube):
        ps = {frozenset((p.source, p.target)) for p in scheme.pairings}
        if ps != {frozenset((fids["top"], fids["front"])),
                  frozenset((fids["left"], fids["right"])),
                  frozenset((fids["back"], fids["bottom"]))}:
            continue
        orbits = pairings.edge_orbits(scheme)
        if sorted(o.size for o in orbits) != [5, 7]:
            continue
        flag, _ = grouplab.has_squared_term(words_of(scheme))
        assert flag
        hits += 1
    assert hits


def test_candidate_parity_property(cube_report):
    # over all survivors: no squared term implies all-even orbit sizes
    for cand in cube_report.survivors:
        squared, _ = grouplab.has_squared_term(cand.words)
        if not squared:
            assert all(o.size % 2 == 0 for o in cand.orbits)


def test_parity_open_case(solids, cube_report, octahedron_report):
    # parity holds on all 30 cube survivors; on the octahedron it fails on
    # exactly 12 survivors, the whole of one full-group family with class
    # sizes 3, 3, 6: the open case that parity_check's docstring names
    def failures(report, name):
        return [c for c in report.survivors if not grouplab.parity_check(
            c.orbits, c.words, solids[name])]

    assert len(cube_report.survivors) == 30
    assert failures(cube_report, "cube") == []
    failed = failures(octahedron_report, "octahedron")
    assert len(failed) == 12
    (key,) = {c.key_full for c in failed}
    assert octahedron_report.families_full[key] == failed
    assert {tuple(c.class_sizes) for c in failed} == {(3, 3, 6)}


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_prop63_exhaustive(solids, name):
    # squared term <=> some pairing identifies adjacent faces, over the
    # entire scheme population (960 cube and 8,505 octahedron schemes),
    # with zero exceptions
    for scheme in enumerate_schemes(solids[name]):
        squared, _ = grouplab.has_squared_term(words_of(scheme))
        adjacent = grouplab.adjacent_identified_sharing_edge(scheme)
        assert squared == adjacent


def test_restriction_report_fd2(cube, fd2, realization):
    gens = geometry.face_pairing_maps(realization, fd2)
    report = grouplab.restriction_report(fd2, gens)
    assert report["adjacent_identified_sharing_edge"]
    assert report["squared_terms"] > 0
    assert not report["has_size3_class"]
    assert report["edge_bound_ok"]
    assert report["parity_ok"]
