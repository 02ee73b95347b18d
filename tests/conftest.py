import collections
import itertools
import string
from fractions import Fraction

import pytest

from hypdom import angles, enumeration, geometry, pairings, polytope
from hypdom.geometry import MobiusMap, Z3i

import domains
from float_mobius import EPS_GEO, SQRT3


@pytest.fixture(scope="session")
def solids():
    return {name: polytope.bundled(name)
            for name in ("tetrahedron", "cube", "octahedron",
                         "dodecahedron", "icosahedron")}


@pytest.fixture(scope="session")
def cube(solids):
    return solids["cube"]


@pytest.fixture(scope="session")
def cube_inc(cube):
    return cube.incidence


@pytest.fixture(scope="session")
def cube_dual(cube, cube_inc):
    return polytope.build_dual(cube, cube_inc)


@pytest.fixture(scope="session")
def cube_circuits(cube_dual):
    return angles.nonfacial_circuits(cube_dual)


@pytest.fixture(scope="session")
def cube_report(cube):
    """The exhaustive cube classification, computed once per session; the
    report and its survivors are shared, so tests must not mutate them."""
    return enumeration.classify(cube)


@pytest.fixture(scope="session")
def octahedron_report(solids):
    """The exhaustive octahedron classification, shared like cube_report."""
    return enumeration.classify(solids["octahedron"])


@pytest.fixture(scope="session")
def fd1(cube):
    return domains.opposite_quarter_twist(cube)


@pytest.fixture(scope="session")
def fd1_mirror(cube):
    return domains.opposite_quarter_twist(cube, mirror=True)


@pytest.fixture(scope="session")
def fd2(cube):
    return domains.adjacent_mixed_twist(cube)


@pytest.fixture(scope="session")
def realization(cube):
    return geometry.load_realization(cube)


# ---------------------------------------------------------------------------
# The ball model: certificate for the bundled regular ideal cube
# ---------------------------------------------------------------------------

Point3 = collections.namedtuple("Point3", "x y z")


def inscribed_cube_vertices():
    """The 8 vertices (+-1/sqrt3, +-1/sqrt3, 1 +- 1/sqrt3) of the cube
    inscribed in the unit sphere centered at (0, 0, 1)."""
    r = 1 / SQRT3
    pts = []
    for sz in (1, -1):
        for sy in (1, -1):
            for sx in (1, -1):
                pts.append(Point3(sx * r, sy * r, 1 + sz * r))
    return pts


def ball_to_uhs(p, tol=EPS_GEO):
    """Ball-model ideal point to a boundary complex number.

    Invert about the sphere of radius 2 centered at (0, 0, 2), then reflect
    across the xy-plane.  Points on the unit sphere centered at (0, 0, 1)
    land on z=0; anything else is rejected.  The north pole (0, 0, 2) maps
    to infinity.
    """
    cx, cy, cz = p.x, p.y, p.z - 2
    rho2 = cx * cx + cy * cy + cz * cz
    if rho2 < tol * tol:
        return geometry.INF
    scale = 4 / rho2
    ix, iy, iz = scale * cx, scale * cy, 2 + scale * cz
    if abs(iz) > tol:
        raise geometry.GeometryError(
            f"point ({p.x}, {p.y}, {p.z}) is not an ideal point of the ball "
            f"(image height {iz:.3e})")
    return complex(ix, iy)


# The bundled cube's vertex names against the inscribed cube: combinatorial
# front is the ball +x side, right is +y, top is +z.  This labeling is what
# makes the quarter-twist opposite-face scheme reproduce the closed-form
# generator matrices in the tests.
BALL_FRONT = (1, 0)
BALL_RIGHT = (0, 1)


def cube_vertex_signs(name):
    """(x, y, z) signs of a cube vertex name, read from R/L, T/B, F/B."""
    return tuple(1 if name[i] == c else -1
                 for i, c in ((2, "R"), (1, "T"), (0, "F")))


def ball_model_cube_realization(poly):
    """vertex name -> boundary point of the inscribed cube's vertex that the
    cube naming (right +x, top +y, front +z) places there."""
    out = {}
    for name in poly.vertices:
        sx, sy, sz = cube_vertex_signs(name)
        a = sz * BALL_FRONT[0] + sx * BALL_RIGHT[0]
        b = sz * BALL_FRONT[1] + sx * BALL_RIGHT[1]
        r = 1 / SQRT3
        out[name] = ball_to_uhs(Point3(a * r, b * r, 1 + sy * r))
    return out


def prism_doc(n, flip):
    """The n-gonal prism's document: the faces a(n-1)..a0 and b0..b(n-1),
    then the sides a(i) a(i+1) b(i+1) b(i); `flip` reverses every face."""
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    faces = [a[::-1], b] + [[a[i], a[(i + 1) % n], b[(i + 1) % n], b[i]]
                            for i in range(n)]
    return {"name": f"prism{n}", "vertices": a + b,
            "faces": [f[::-1] for f in faces] if flip else faces}


def bipyramid_doc(n):
    """The n-gonal bipyramid's document: the triangles on apex p, then
    those on apex q, around the equator c0..c(n-1)."""
    c = [f"c{i}" for i in range(n)]
    return {"name": f"bipyramid{n}", "vertices": ["p", "q"] + c,
            "faces": [["p", c[i], c[(i + 1) % n]] for i in range(n)]
            + [["q", c[(i + 1) % n], c[i]] for i in range(n)]}


def verify_scheme(realization, scheme):
    """geometry.verify_words on the relators read off the scheme's edge
    orbits."""
    words = tuple(pairings.relator_word(o)
                  for o in pairings.edge_orbits(scheme))
    return geometry.verify_words(realization, scheme, words)


def enumerate_schemes(poly):
    """Every scheme of the polyhedron, by brute force: each perfect matching
    of equal-length faces crossed with every reversing correspondence per
    pair, exactly once each, once the scheme space passes the library's
    check.  Oracle for classify, which drops the elliptic pairings before
    the product and counts the schemes they remove in closed form.  Only
    the matching walk is the library's; the pairings are built here."""
    enumeration._check_scheme_space(poly)
    faces = range(poly.face_count())
    equal = {(f1, f2) for f1, f2 in itertools.combinations(faces, 2)
             if len(poly.faces[f1]) == len(poly.faces[f2])}
    for matching in enumeration._perfect_matchings(list(faces), equal):
        per_pair = [
            [pairings.make_pairing(symbol, f1, f2, corr)
             for corr in pairings.reversing_correspondences(poly, f1, f2)]
            for symbol, (f1, f2) in zip(string.ascii_uppercase, matching)]
        for ps in itertools.product(*per_pair):
            yield pairings.PairingScheme(poly, ps)


def scheme_keys(scheme, actions):
    """(rotation-group key, full-group key) of one scheme: its own entry in
    the image table of pairings.image_keys."""
    return pairings.image_keys(scheme, actions)[scheme_signature(scheme)]


def symmetry_group(poly):
    """Every automorphism as (vertex map, rotation flag), in the order of
    pairings.automorphism_actions."""
    return [action[:2] for action in pairings.automorphism_actions(poly)]


def canonicalize(scheme, group="all"):
    """The canonical key of the scheme over the chosen automorphism
    subgroup, from pairings.image_keys."""
    key_rotations, key_full = scheme_keys(
        scheme, pairings.automorphism_actions(scheme.poly))
    return key_full if group == "all" else key_rotations


def conjugation_canonicalize(scheme, group, automorphisms):
    """The canonical key by conjugation: every image scheme is rebuilt in
    full and serialized, one group at a time.  Oracle for the image table
    of pairings.image_keys."""
    best = None
    for vmap, orient in automorphisms:
        if group == "rotations" and not orient:
            continue
        sig = scheme_signature(conjugate_scheme(scheme, vmap))
        if best is None or sig < best:
            best = sig
    return repr(best)


def detect_elliptic_generator(scheme):
    """Pairings of adjacent faces whose correspondence maps the shared edge
    to itself (setwise): such a map rotates about that edge and has torsion.

    Oracle for the library's criterion, a size-1 edge class: it scans the
    shared edges directly instead of traversing flags."""
    inc = scheme.poly.incidence
    offending = []
    for p in scheme.pairings:
        src_edges = set(inc.face_edge_cycle[p.source])
        dst_edges = set(inc.face_edge_cycle[p.target])
        m = p.mapping()
        for eid in src_edges & dst_edges:
            image = frozenset(m[v] for v in inc.edges[eid])
            if image == inc.edges[eid]:
                offending.append(p)
                break
    return offending


def conjugate_scheme(scheme, vmap):
    """The scheme's image under a polyhedron automorphism, rebuilt as a
    scheme pairing by pairing.

    Oracle for the conjugation that pairings.signature does on the fly
    from precomputed face permutations."""
    poly = scheme.poly
    face_ids = {frozenset(f): i for i, f in enumerate(poly.faces)}
    images = []
    for p in scheme.pairings:
        nsrc = face_ids[frozenset(vmap[v] for v in poly.faces[p.source])]
        ntgt = face_ids[frozenset(vmap[v] for v in poly.faces[p.target])]
        corr = {vmap[a]: vmap[b] for a, b in p.corr}
        images.append(pairings.make_pairing(p.gen, nsrc, ntgt, corr))
    return pairings.PairingScheme(poly, tuple(images))


def scheme_signature(scheme):
    """Symbol-free serialization: pairs direction-normalized and sorted."""
    items = []
    for p in scheme.pairings:
        src, tgt, corr = p.source, p.target, p.mapping()
        if src > tgt:
            src, tgt, corr = tgt, src, p.inverse_mapping()
        items.append((src, tgt, tuple(sorted(corr.items()))))
    return tuple(sorted(items))


# The standard drawing's edge numbering, as vertex pairs: 1 front-bottom,
# 2 bottom-left, 3 bottom-right, 4 back-bottom, 5 front-top, 6 top-left,
# 7 top-right, 8 back-top, 9 front-left, 10 front-right, 11 back-right,
# 12 back-left.
DRAWN_EDGES = {
    1: ("FBL", "FBR"), 2: ("BBL", "FBL"), 3: ("BBR", "FBR"),
    4: ("BBL", "BBR"), 5: ("FTL", "FTR"), 6: ("BTL", "FTL"),
    7: ("FTR", "BTR"), 8: ("BTL", "BTR"), 9: ("FTL", "FBL"),
    10: ("FTR", "FBR"), 11: ("BTR", "BBR"), 12: ("BTL", "BBL"),
}


def drawn(inc, numbers):
    return {inc.edge_id(*DRAWN_EDGES[n]) for n in numbers}


# the two edge classes of the quarter-twist opposite-face scheme, and of its
# mirror, in drawing numbers
FD1_CLASSES = ({1, 3, 7, 8, 9, 12}, {2, 4, 5, 6, 10, 11})
FD1_MIRROR_CLASSES = ({1, 2, 6, 8, 10, 11}, {3, 4, 5, 7, 9, 12})
FD2_CLASSES = ({1, 2, 7, 8, 9, 11}, {3, 4, 5, 6, 10, 12})

# exterior dihedral angles of the non-regular 5-7 assignment in the drawing
FIVE_SEVEN_CLASSES = ({2, 5, 6, 10, 11}, {1, 3, 4, 7, 8, 9, 12})
FIVE_SEVEN_ANGLES = {
    1: Fraction(3, 5), 2: Fraction(3, 5), 3: Fraction(4, 5),
    4: Fraction(3, 5), 5: Fraction(3, 5), 6: Fraction(3, 5),
    7: Fraction(4, 5), 8: Fraction(3, 5), 9: Fraction(4, 5),
    10: Fraction(3, 5), 11: Fraction(3, 5), 12: Fraction(4, 5),
}


def reference_generators():
    """Closed forms of the three quarter-twist opposite-face generators on
    the regular ideal cube (front-to-back, left-to-right, top-to-bottom),
    exact in Z[sqrt3, i]:
      A = [[i - sqrt3, 4], [1, i - sqrt3]],
      B = [[1 - sqrt3 i, 4], [-1, 1 - sqrt3 i]],
      C = [[(1 - sqrt3)(1 - i), 0], [0, -(1 + sqrt3)(1 + i)]]."""
    a = Z3i(0, -1, 1, 0)
    b = Z3i(1, 0, 0, -1)
    A = MobiusMap(a, 4, 1, a)
    B = MobiusMap(b, 4, -1, b)
    C = MobiusMap(Z3i(1, -1, -1, 1), 0, 0, Z3i(-1, -1, -1, -1))
    return {"A": A, "B": B, "C": C}


def reference_adjacent_generators():
    """Closed forms for the mixed adjacent-twist scheme: P front-to-back,
    Q top-to-left, R right-to-bottom, exact in Z[sqrt3, i]:
      P = [[2(1 + i), -4 sqrt3 (1 + i)], [-sqrt3 (1 + i), 2(1 + i)]],
      Q = [[(2 + 2 sqrt3) + i(-2 + 2 sqrt3), (20 + 12 sqrt3) + i(4 + 4 sqrt3)],
           [(sqrt3 - 1) + i(-1 - sqrt3), (-2 - 2 sqrt3) + i(10 + 6 sqrt3)]],
      R = [[(-18 + 10 sqrt3) + i(-10 + 6 sqrt3),
            (20 - 12 sqrt3) + i(-36 + 20 sqrt3)],
           [(-3 + sqrt3) + i(-1 + sqrt3), (-2 + 2 sqrt3) + i(6 - 2 sqrt3)]]."""
    P = MobiusMap(Z3i(2, 0, 2, 0), Z3i(0, -4, 0, -4), Z3i(0, -1, 0, -1),
                  Z3i(2, 0, 2, 0))
    Q = MobiusMap(Z3i(2, 2, -2, 2), Z3i(20, 12, 4, 4), Z3i(-1, 1, -1, -1),
                  Z3i(-2, -2, 10, 6))
    R = MobiusMap(Z3i(-18, 10, -10, 6), Z3i(20, -12, -36, 20),
                  Z3i(-3, 1, -1, 1), Z3i(-2, 2, 6, -2))
    return {"P": P, "Q": Q, "R": R}
