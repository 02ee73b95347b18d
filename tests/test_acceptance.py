"""Acceptance suite: the project's numbered exit criteria.

Each test prints one PASS/FAIL line.  Criteria 2, 3 and 7 pin what the
exhaustive search establishes where it refutes the classical claims about
the cube, and each backs the program's verdict with a certificate that does
not go through the code path under test:

  #2  the cube has exactly three families, all with classes 6-6; the third
      pairs adjacent faces with uniform quarter twists, and no family splits
      5-7.  Certificate, without Fourier-Motzkin: each of the 24 achievable
      5-7 orbit partitions pins one edge at angle exactly 1 in every exact
      solution, and the 7-class row minus the rows of the two vertices whose
      stars it contains is that edge's unit row with right-hand side 1.
  #3  the quarter-twist opposite-face angle system is rank 8 with a
      4-parameter solution family.  Certificate, in plain Fractions: the
      signed vertex rows of the bipartite cube graph sum to zero, the class
      rows sum to half the vertex rows, and a second point satisfies every
      row by substitution and every strict inequality.
  #7  squared terms occur exactly when identified faces share an edge,
      while a size-3 class need not read a YYZ word (34 schemes, none
      elliptic).  Certificate: the verdict recomputed from union-find edge
      classes agrees with grouplab.y2z_class_link on all 960 schemes, and
      one exception is pinned edge by edge.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hypdom import (angles, domains, enumeration, geometry, grouplab,
                    pairings, polytope)

from conftest import (FD1_CLASSES, FIVE_SEVEN_ANGLES, FIVE_SEVEN_CLASSES,
                      drawn, reference_adjacent_generators,
                      reference_generators)

THIRD = Fraction(2, 3)


class _Line:
    """Prints '[criterion N] PASS/FAIL' when the block finishes."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        detail = f" ({exc})" if exc_type is AssertionError and str(exc) else ""
        print(f"[criterion {self.number}] {verdict}: {self.label}{detail}")
        return False


def _combine(weighted_rows):
    """sum of w * (coef, rhs) over (w, row) pairs, as (coef tuple, rhs)."""
    coef, rhs = None, Fraction(0)
    for w, (row_coef, row_rhs) in weighted_rows:
        scaled = [w * c for c in row_coef]
        coef = scaled if coef is None else [a + b for a, b in zip(coef, scaled)]
        rhs += w * row_rhs
    return tuple(coef), rhs


def _vertex_colour(name):
    """+1 or -1 by the parity of a cube vertex's 'back/bottom/left' letters;
    the two ends of an edge differ in one letter, so they get opposite signs."""
    flips = (name[0] != "F") + (name[1] != "T") + (name[2] != "R")
    return -1 if flips % 2 else 1


def _union_find_classes(scheme):
    """(edge class, symbols of the generators touching it) for every class,
    by union-find over each pairing's vertex map on its source face's edges
    (edges as vertex-name pairs, no flag traversal and no incidence ids)."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def face_edges(fid):
        face = scheme.poly.faces[fid]
        return {frozenset((face[i - 1], face[i])) for i in range(len(face))}

    for p in scheme.pairings:
        m = p.mapping()
        for edge in face_edges(p.source):
            a, b = find(edge), find(frozenset(m[v] for v in edge))
            if a != b:
                parent[a] = b
    groups = {}
    for edge in list(parent):
        groups.setdefault(find(edge), set()).add(edge)
    return [(cl, {p.gen for p in scheme.pairings if cl & face_edges(p.source)})
            for cl in groups.values()]


def test_criterion_1_platonic_table(solids):
    with _Line(1, "edge-class counts across the Platonic solids"):
        start = time.time()
        got = {name: angles.required_class_count(solids[name])
               for name in ("tetrahedron", "cube", "octahedron",
                            "dodecahedron", "icosahedron")}
        assert got == {"tetrahedron": 1, "cube": 2, "octahedron": 3,
                       "dodecahedron": 5, "icosahedron": 9}
        assert time.time() - start < 1.0


def test_criterion_2_cube_classification(cube, cube_inc, cube_report):
    with _Line(2, "cube classification into three 6-6 families, the third "
                  "on uniform adjacent twists; every 5-7 split pins an "
                  "angle at 1"):
        start_ok = cube_report.total == 960
        assert start_ok
        fams = cube_report.families_full
        assert len(fams) == 3, f"{len(fams)} families"
        autos = pairings.symmetry_group(cube)
        fd1_key = pairings.canonicalize(
            domains.opposite_quarter_twist(cube), "all", autos)
        fd2_key = pairings.canonicalize(
            domains.adjacent_mixed_twist(cube), "all", autos)
        assert fd1_key in fams, "quarter-twist opposite-face family missing"
        assert fd2_key in fams, "mixed adjacent-twist family missing"
        fd1_rot = len({m.key_rotations for m in fams[fd1_key]})
        assert fd1_rot == 2, f"first family splits into {fd1_rot}"
        chiral = sorted(len({m.key_rotations for m in members})
                        for members in fams.values())
        assert chiral == [1, 2, 2]
        fd3_key = pairings.canonicalize(
            domains.adjacent_uniform_twist(cube), "all", autos)
        assert fd3_key in fams, "uniform adjacent-twist family missing"
        fd3_rot = len({m.key_rotations for m in fams[fd3_key]})
        assert fd3_rot == 2, f"third family splits into {fd3_rot}"
        assert all(m.class_sizes == (6, 6) for m in fams[fd3_key])
        sizes = {m.class_sizes for members in fams.values() for m in members}
        assert (5, 7) not in sizes, "a surviving family splits 5-7"
        # certificate, without Fourier-Motzkin: every 5-7 orbit partition
        # has an edge that all exact solutions pin at angle 1
        five_seven = {}
        for scheme in enumeration.enumerate_schemes(cube):
            orbits = pairings.edge_orbits(scheme, cube_inc)
            if sorted(o.size for o in orbits) == [5, 7]:
                partition = frozenset(frozenset(o.edges) for o in orbits)
                five_seven.setdefault(partition, []).append(scheme)
        assert len(five_seven) == 24, f"{len(five_seven)} 5-7 partitions"
        for partition, schemes in five_seven.items():
            assert len(schemes) == 1
            assert not pairings.detect_elliptic_generator(schemes[0], cube_inc)
            five, seven = sorted(partition, key=len)
            system = angles.assemble_system(cube, [five, seven], cube_inc)
            sol = angles.solve_exact(system)
            assert sol.status == "affine-family"
            pinned = {eid for i, eid in enumerate(sol.columns)
                      if sol.particular[eid] == 1
                      and all(vec[i] == 0 for vec in sol.basis)}
            assert len(pinned) == 1, f"{sorted(seven)}: pinned {pinned}"
            # the same pin read off the rows: 7-class minus two vertex stars
            rows = dict(zip(system.provenance, system.rows))
            stars = [("vertex", v) for v in cube.vertices
                     if set(cube_inc.vertex_edges[v]) <= seven]
            coef, rhs = _combine([(1, rows[("class", 1)])]
                                 + [(-1, rows[key]) for key in stars])
            assert rhs == 1
            assert sorted(coef) == [0] * 11 + [1]
            assert {eid for c, eid in zip(coef, system.columns) if c} == pinned


def test_criterion_2_runtime(cube):
    with _Line("2r", "classification runtime under 60 s"):
        start = time.time()
        enumeration.classify(cube)
        assert time.time() - start < 60.0


def test_criterion_3_unique_angle_solution(cube, cube_inc, cube_dual):
    with _Line(3, "quarter-twist opposite-face system is rank 8 with a "
                  "4-parameter family holding a second strict point"):
        classes = [drawn(cube_inc, FD1_CLASSES[0]),
                   drawn(cube_inc, FD1_CLASSES[1])]
        system = angles.assemble_system(cube, classes, cube_inc)
        sol = angles.solve_exact(system)
        regular = {eid: THIRD for eid in range(12)}
        assert sol.contains(regular)
        assert (sol.status, sol.rank, len(sol.basis)) == (
            "affine-family", 8, 4)
        # certificate in plain Fractions: two independent row dependencies
        # leave at most 8 of the 10 rows independent against 12 unknowns
        vertex_rows = [(name, row) for row, (kind, name)
                       in zip(system.rows, system.provenance)
                       if kind == "vertex"]
        class_rows = [row for row, (kind, _)
                      in zip(system.rows, system.provenance) if kind == "class"]
        assert len(vertex_rows) == 8 and len(class_rows) == 2
        zero = ((0,) * len(system.columns), 0)
        assert _combine((_vertex_colour(name), row)
                        for name, row in vertex_rows) == zero
        assert _combine((1, row) for row in class_rows) == _combine(
            (Fraction(1, 2), row) for _, row in vertex_rows)
        # a second solution, by substitution: bottom ring 5/6, 1/2, 1/2, 5/6
        second = {eid: THIRD for eid in range(12)}
        for n, q in {1: Fraction(5, 6), 2: Fraction(1, 2),
                     3: Fraction(1, 2), 4: Fraction(5, 6)}.items():
            second[drawn(cube_inc, {n}).pop()] = q
        assert second != regular
        for coef, rhs in system.rows:
            assert sum(c * second[eid]
                       for c, eid in zip(coef, system.columns)) == rhs
        ok, failures = angles.check_inequalities(cube, cube_dual, second)
        assert ok, failures
        assert min(sum(second[eid] for eid in seq)
                   for seq in angles.nonfacial_circuits(cube_dual)) == Fraction(7, 3)


def test_criterion_4_five_seven_assignment(cube, cube_inc, cube_dual):
    with _Line(4, "the drawn 5-7 angle assignment satisfies all constraints"):
        classes = [drawn(cube_inc, FIVE_SEVEN_CLASSES[0]),
                   drawn(cube_inc, FIVE_SEVEN_CLASSES[1])]
        system = angles.assemble_system(cube, classes, cube_inc)
        rhs = sorted(r for (c, r), p in zip(system.rows, system.provenance)
                     if p[0] == "class")
        assert rhs == [3, 5]
        vals = {drawn(cube_inc, {n}).pop(): q
                for n, q in FIVE_SEVEN_ANGLES.items()}
        for coef, rhs_row in system.rows:
            total = sum(c * vals[eid] for c, eid in zip(coef, system.columns))
            assert total == rhs_row
        ok, failures = angles.check_inequalities(
            cube, cube_dual, angles.AngleAssignment(vals))
        assert ok, failures


def test_criterion_5_generator_reproduction(cube, realization, fd1):
    with _Line(5, "generator matrices reproduced to 1e-9"):
        gens = geometry.face_pairing_maps(realization, fd1)
        refs = reference_generators()
        for sym in "ABC":
            ours = geometry.sign_fixed(gens[sym])
            ref = geometry.sign_fixed(refs[sym])
            residual = max(abs(a - b) for a, b in
                           zip(ours.entries(), ref.entries()))
            assert residual <= 1e-9, f"{sym}: residual {residual:.2e}"


def test_criterion_6_relator_identity(cube, realization, fd1, fd1_mirror, fd2):
    with _Line(6, "relator products are +-identity to 1e-9"):
        pres1 = geometry.verify_scheme(realization, fd1, tol_id=1e-9)
        assert pres1.verification == ("identity", "identity")
        assert len(pres1.relators) == 2
        refs = reference_adjacent_generators()
        for word in ((("P", 1), ("R", -1), ("R", -1), ("P", 1),
                      ("Q", -1), ("Q", -1)),
                     (("P", 1), ("Q", 1), ("R", -1), ("P", -1),
                      ("Q", -1), ("R", 1))):
            product = geometry.relator_product(refs, word)
            assert geometry.projective_distance(
                product, geometry.IDENTITY) <= 1e-9
        own_words = [pairings.relator_word(o)
                     for o in pairings.edge_orbits(fd2)]
        gens2 = geometry.face_pairing_maps(realization, fd2)
        for w in own_words:
            product = geometry.relator_product(gens2, w)
            assert geometry.projective_distance(
                product, geometry.IDENTITY) <= 1e-9
        # mirror version via the inverse generators
        inverses = {sym: m.inverse() for sym, m in
                    reference_generators().items()}
        for orbit in pairings.edge_orbits(fd1_mirror):
            word = pairings.relator_word(orbit)
            product = geometry.relator_product(inverses, word)
            assert geometry.projective_distance(
                product, geometry.IDENTITY) <= 1e-9


def test_criterion_7_word_shape_equivalences(cube, cube_inc):
    with _Line(7, "squared terms match adjacent identified faces, and the "
                  "size-3/YYZ verdict matches union-find classes, on all "
                  "960 schemes"):
        start = time.time()
        squared_exceptions = []
        y2z_exceptions = []
        disagreements = []
        for scheme in enumeration.enumerate_schemes(cube):
            orbits = pairings.edge_orbits(scheme, cube_inc)
            words = tuple(pairings.relator_word(o) for o in orbits)
            squared, _ = grouplab.has_squared_term(words)
            adjacent = grouplab.adjacent_identified_sharing_edge(
                scheme, cube_inc)
            if squared != adjacent:
                squared_exceptions.append(scheme)
            verdict = grouplab.y2z_class_link(orbits, words)
            if not verdict.consistent:
                y2z_exceptions.append((scheme, verdict))
            # a YYZ class is a size-3 class touched by exactly two generators
            size3 = [gens for cl, gens in _union_find_classes(scheme)
                     if len(cl) == 3]
            recomputed = (bool(size3), any(len(g) == 2 for g in size3))
            if recomputed != (verdict.has_size3_orbit, verdict.has_y2z_word):
                disagreements.append(scheme)
        elapsed = time.time() - start
        assert elapsed < 60.0
        assert len(squared_exceptions) == 0
        assert not disagreements, (
            f"union-find and y2z_class_link disagree on {len(disagreements)} "
            "schemes")
        assert len(y2z_exceptions) == 34, f"{len(y2z_exceptions)} exceptions"
        for scheme, verdict in y2z_exceptions:
            # a YYZ word always comes with a size-3 class, never the reverse
            assert verdict.has_size3_orbit and not verdict.has_y2z_word
            assert not pairings.detect_elliptic_generator(scheme, cube_inc)
        # by hand: the first scheme on the three opposite pairs has four
        # 3-classes, each reading three distinct letters
        fids = pairings.cube_face_ids(cube)
        opposite = [("A", "front", "back"), ("B", "top", "bottom"),
                    ("C", "left", "right")]
        pairs = [(gen, fids[a], fids[b]) for gen, a, b in opposite]
        first = next(s for s in enumeration.enumerate_schemes(cube)
                     if {(p.gen, p.source, p.target) for p in s.pairings}
                     == set(pairs))
        assert first in [s for s, _ in y2z_exceptions]
        orbits = pairings.edge_orbits(first, cube_inc)
        assert {frozenset(o.edges) for o in orbits} == {
            frozenset(drawn(cube_inc, c))
            for c in ({1, 7, 12}, {2, 5, 11}, {3, 8, 9}, {4, 6, 10})}
        for orbit in orbits:
            letters = pairings.relator_word(orbit).letters
            assert len({gen for gen, _ in letters}) == 3, letters
        assert all(len(cl) == 3 and gens == {"A", "B", "C"}
                   for cl, gens in _union_find_classes(first))


def test_criterion_8_icosahedron_bound(solids):
    with _Line(8, "icosahedron edge bound"):
        ico = solids["icosahedron"]
        assert ico.edge_count() == 30 and ico.vertex_count() == 12
        assert grouplab.edge_bound_check(ico) is False


def test_criterion_9_property_suites(solids, cube, cube_inc, cube_dual,
                                     cube_report):
    with _Line(9, "property suites"):
        # Euler identities
        for poly in solids.values():
            inc = polytope.build_incidence(poly)
            e = len(inc.edges)
            assert poly.vertex_count() - e + poly.face_count() == 2
            assert sum(len(inc.vertex_edges[v]) for v in poly.vertices) == 2 * e
            assert sum(len(f) for f in poly.faces) == 2 * e
        # orbit partition property over a deterministic sample of schemes
        for i, scheme in enumerate(enumeration.enumerate_schemes(cube)):
            if i % 11:
                continue
            orbits = pairings.edge_orbits(scheme, cube_inc)
            assert sorted(e for o in orbits for e in o.edges) == list(range(12))
        # census identity on every survivor
        for cand in cube_report.survivors:
            c = cand.census
            assert (c.vertex_classes - c.edge_classes + c.face_classes
                    - c.interiors == c.euler)
            assert c.vertex_classes == c.euler
        # cross-ratio invariance under 100 seeded random unit-determinant maps
        rng = random.Random(20260808)
        done = 0
        while done < 100:
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
            done += 1
        # ball-to-boundary planarity of all 8 ideal cube vertices: the
        # conversion itself enforces |height| <= 1e-9, so it must not raise
        for p in geometry.inscribed_cube_vertices():
            geometry.ball_to_uhs(p, tol=1e-9)
        # Fourier-Motzkin vs seeded rational sampling, up to 4 free variables
        rng = random.Random(99)
        partitions = [
            [drawn(cube_inc, FD1_CLASSES[0]), drawn(cube_inc, FD1_CLASSES[1])],
            [drawn(cube_inc, FIVE_SEVEN_CLASSES[0]),
             drawn(cube_inc, FIVE_SEVEN_CLASSES[1])],
            [drawn(cube_inc, {2, 5, 7, 9, 11}),
             drawn(cube_inc, {1, 3, 4, 6, 8, 10, 12})],
        ]
        for classes in partitions:
            system = angles.assemble_system(cube, classes, cube_inc)
            sol, witness = angles.feasible(system, cube_dual)
            if len(sol.basis) > 4:
                continue
            sampled = False
            for _ in range(200):
                coeffs = [Fraction(rng.randint(-6, 6), 12)
                          for _ in sol.basis]
                point = sol.point(coeffs)
                if all(0 < q < 1 for q in point.values()):
                    ok, _ = angles.check_inequalities(cube, cube_dual, point)
                    if ok:
                        sampled = True
                        break
            if witness is None:
                assert not sampled
            else:
                ok, _ = angles.check_inequalities(cube, cube_dual, witness)
                assert ok
