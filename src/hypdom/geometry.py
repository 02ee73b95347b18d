"""Hyperbolic realization of the regular ideal cube and Mobius machinery.

Ideal points are tracked on the upper-half-space boundary as complex numbers
plus the point at infinity (the string "inf", following the usual convention
for extended-complex code).  Mobius maps are 2x2 complex matrices acting as
z -> (az+b)/(cz+d), identified projectively.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import angles, pairings, polytope

EPS_GEO = 1e-9
EPS_ID = 1e-9
EPS_CLS = 1e-8
EPS_DET = 1e-12

INF = "inf"

SQRT3 = math.sqrt(3.0)


class GeometryError(ValueError):
    """Degenerate input to a geometric construction."""


class FourthVertexError(GeometryError):
    """The Mobius map from three vertices fails on the fourth."""

    def __init__(self, vertex, error):
        super().__init__(f"vertex {vertex!r} off by {error:.3e}")
        self.vertex = vertex
        self.error = error


class NotRealizableError(GeometryError):
    """Candidate's angle solution is incompatible with the realization."""


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise GeometryError("non-finite coordinate")


def is_infinity(z):
    return isinstance(z, str) and z == INF


@dataclass(frozen=True)
class MobiusMap:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.det) < EPS_DET:
            raise GeometryError(f"singular matrix, |det|={abs(self.det):.3e}")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def trace(self):
        return self.a + self.d

    def __call__(self, z):
        if is_infinity(z):
            if abs(self.c) < EPS_DET:
                return INF
            return self.a / self.c
        den = self.c * z + self.d
        if abs(den) < EPS_DET * max(1.0, abs(z)):
            return INF
        return (self.a * z + self.b) / den

    def compose(self, other):
        """self after other (matrix product self * other)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def normalized(self):
        """Scale to determinant 1 (sign of the square root is arbitrary)."""
        s = cmath.sqrt(self.det)
        return MobiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = MobiusMap(1, 0, 0, 1)


def sign_fixed(m):
    """Det-1 normalization with the sign fixed by the first nonzero entry."""
    n = m.normalized()
    for e in n.entries():
        if abs(e) > EPS_DET:
            if e.real < -EPS_DET or (abs(e.real) <= EPS_DET and e.imag < 0):
                return MobiusMap(-n.a, -n.b, -n.c, -n.d)
            return n
    return n


def projective_distance(m1, m2):
    """min over sign of the max entrywise distance after det-1 normalization."""
    n1, n2 = m1.normalized(), m2.normalized()
    d_plus = max(abs(x - y) for x, y in zip(n1.entries(), n2.entries()))
    d_minus = max(abs(x + y) for x, y in zip(n1.entries(), n2.entries()))
    return min(d_plus, d_minus)


def projectively_equal(m1, m2, tol=EPS_ID):
    return projective_distance(m1, m2) <= tol


def classify_element(m, tol_id=EPS_ID, tol_cls=EPS_CLS):
    """identity / parabolic / elliptic / loxodromic by the squared trace."""
    n = m.normalized()
    if projective_distance(n, IDENTITY) <= tol_id:
        return "identity"
    tau = n.trace ** 2
    if abs(tau - 4) <= tol_cls:
        return "parabolic"
    if abs(tau.imag) <= tol_cls and -tol_cls <= tau.real < 4:
        return "elliptic"
    return "loxodromic"


# ---------------------------------------------------------------------------
# Regular ideal cube realization
# ---------------------------------------------------------------------------

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
        return INF
    scale = 4 / rho2
    ix, iy, iz = scale * cx, scale * cy, 2 + scale * cz
    if abs(iz) > tol:
        raise GeometryError(
            f"point ({p.x}, {p.y}, {p.z}) is not an ideal point of the ball "
            f"(image height {iz:.3e})")
    return complex(ix, iy)


# The bundled cube's vertex names against the inscribed cube: combinatorial
# front is the ball +x side, right is +y, top is +z.  This labeling is what
# makes the quarter-twist opposite-face scheme reproduce the closed-form
# generator matrices in the tests.
_BALL_FRONT = (1, 0)
_BALL_RIGHT = (0, 1)


def regular_cube_realization(poly):
    """vertex name -> boundary complex number for the bundled cube document."""
    out = {}
    for name in poly.vertices:
        sx, sy, sz = pairings._cube_vertex_coords(name)
        a = sz * _BALL_FRONT[0] + sx * _BALL_RIGHT[0]
        b = sz * _BALL_FRONT[1] + sx * _BALL_RIGHT[1]
        r = 1 / SQRT3
        out[name] = ball_to_uhs(Point3(a * r, b * r, 1 + sy * r))
    if len(set(out.values())) != len(out):
        raise GeometryError("realization images are not distinct")
    return out


def realization_to_json_dict(realization):
    doc = {}
    for name, z in sorted(realization.items()):
        doc[name] = INF if is_infinity(z) else [z.real, z.imag]
    return doc


def realization_from_json_dict(doc):
    out = {}
    for name, val in doc.items():
        out[name] = INF if val == INF else complex(val[0], val[1])
    return out


# ---------------------------------------------------------------------------
# Cross-ratio and map construction
# ---------------------------------------------------------------------------

def cross_ratio(z, p1, p2, p3):
    """(z - p2)(p1 - p3) / ((z - p3)(p1 - p2)); sends p2->0, p1->1, p3->inf.

    Standard infinity conventions: the two factors containing an infinite
    point cancel.
    """
    pts = (p1, p2, p3)
    finite = [p for p in pts if not is_infinity(p)]
    if len(set(finite)) != len(finite) or sum(is_infinity(p) for p in pts) > 1:
        raise GeometryError("cross-ratio reference points must be distinct")
    m = _to_reference(p1, p2, p3)
    return m(z)


def _to_reference(p1, p2, p3):
    """Matrix sending (p2, p1, p3) -> (0, 1, inf)."""
    if is_infinity(p1):
        return MobiusMap(1, -p2, 1, -p3)
    if is_infinity(p2):
        return MobiusMap(0, p1 - p3, 1, -p3)
    if is_infinity(p3):
        return MobiusMap(1, -p2, 0, p1 - p2)
    return MobiusMap(p1 - p3, -p2 * (p1 - p3), p1 - p2, -p3 * (p1 - p2))


def mobius_from_triples(src, dst):
    """The unique map with src[i] -> dst[i], built as Y^-1 o X where X and Y
    send the triples to the (0, 1, inf) reference."""
    for triple in (src, dst):
        finite = [p for p in triple if not is_infinity(p)]
        if len(set(finite)) != len(finite) or sum(map(is_infinity, triple)) > 1:
            raise GeometryError("triple points must be pairwise distinct")
    return _to_reference(*dst).inverse().compose(_to_reference(*src)).normalized()


def face_pairing_maps(realization, scheme, inc=None, tol=EPS_GEO):
    """One Mobius map per pairing, from three consecutive boundary vertices.

    The reference triple is the three consecutive source-boundary vertices
    starting at the lexicographically smallest vertex name; every remaining
    boundary vertex must land on its image within tol, otherwise the scheme
    is not realizable on this vertex placement.
    """
    poly = scheme.poly
    maps = {}
    for p in scheme.pairings:
        cycle = poly.faces[p.source]
        n = len(cycle)
        start = min(range(n), key=lambda i: cycle[i])
        ordered = [cycle[(start + i) % n] for i in range(n)]
        corr = p.mapping()
        src = [realization[v] for v in ordered[:3]]
        dst = [realization[corr[v]] for v in ordered[:3]]
        m = mobius_from_triples(src, dst)
        for v in ordered[3:]:
            image = m(realization[v])
            expect = realization[corr[v]]
            err = _point_distance(image, expect)
            if err > tol:
                raise FourthVertexError(v, err)
        maps[p.gen] = m
    return maps


def _point_distance(z, w):
    if is_infinity(z) or is_infinity(w):
        return 0.0 if is_infinity(z) and is_infinity(w) else math.inf
    return abs(z - w)


def relator_product(generators, word):
    """Evaluate a traversal word: the first letter acts first, so the matrix
    product is taken with the last letter leftmost."""
    m = IDENTITY
    for gen, sign in word.letters if isinstance(word, pairings.RelatorWord) else word:
        g = generators[gen]
        g = g if sign > 0 else g.inverse()
        m = g.compose(m)
    return m.normalized()


@dataclass(frozen=True)
class GroupPresentation:
    generators: dict   # symbol -> MobiusMap
    relators: tuple    # RelatorWord
    verification: tuple  # per-relator classification string

    def confirmed(self):
        return all(v == "identity" for v in self.verification)


def verify_scheme(realization, scheme, inc=None, tol_id=EPS_ID, tol_geo=EPS_GEO):
    """Build generators and classify every relator product."""
    inc = inc or polytope.build_incidence(scheme.poly)
    gens = face_pairing_maps(realization, scheme, inc, tol=tol_geo)
    orbits = pairings.edge_orbits(scheme, inc)
    words = tuple(pairings.relator_word(o) for o in orbits)
    verdicts = tuple(
        classify_element(relator_product(gens, w), tol_id=tol_id) for w in words)
    return GroupPresentation(gens, words, verdicts)


def verify_candidate(candidate, realization=None, tol_id=EPS_ID,
                     tol_geo=EPS_GEO):
    """Verification for an enumeration survivor on the regular ideal cube.

    The candidate's angle system must admit the all-2/3 point (the regular
    ideal cube's exterior angles); anything else is not realizable here.
    """
    scheme = candidate.scheme
    inc = polytope.build_incidence(scheme.poly)
    regular = {eid: Fraction(2, 3) for eid in range(len(inc.edges))}
    if not candidate.solution.contains(regular):
        raise NotRealizableError(
            "angle system does not admit the regular all-2/3 solution")
    realization = realization or regular_cube_realization(scheme.poly)
    return verify_scheme(realization, scheme, inc, tol_id=tol_id,
                         tol_geo=tol_geo)


def presentation_to_json_dict(presentation):
    """Generators as det-1 matrices (4 entries, re/im pairs) plus verdicts."""
    gens = {}
    for sym, m in sorted(presentation.generators.items()):
        n = m.normalized()
        gens[sym] = [[e.real, e.imag] for e in n.entries()]
    return {
        "generators": gens,
        "relators": [
            {"word": [[g, s] for g, s in w.letters], "product": verdict}
            for w, verdict in zip(presentation.relators,
                                  presentation.verification)],
        "confirmed": presentation.confirmed(),
    }
