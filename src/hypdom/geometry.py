"""Regular ideal realizations and Mobius machinery.

Ideal points are tracked on the upper-half-space boundary as complex numbers
plus the point at infinity (the string "inf", following the usual convention
for extended-complex code).  Mobius maps are 2x2 complex matrices acting as
z -> (az+b)/(cz+d), identified projectively.

A realization places each vertex of a solid on the boundary.  The regular
ideal ones are data: one document per solid under data/realizations, named
after the polyhedron document's "name" (the cube and the octahedron are
bundled), loaded and validated by load_realization.
"""

import cmath
import collections
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import pairings

EPS_GEO = 1e-9
EPS_ID = 1e-9
EPS_CLS = 1e-8
EPS_DET = 1e-12

INF = "inf"


class GeometryError(ValueError):
    """Degenerate input to a geometric construction."""


class FourthVertexError(GeometryError):
    """The Mobius map from three vertices fails on the fourth."""

    def __init__(self, vertex, error):
        super().__init__(f"vertex {vertex!r} off by {error:.3e}")
        self.vertex = vertex
        self.error = error


class NotRealizableError(GeometryError):
    """No realization is bundled for the solid, or the candidate's angle
    solution is incompatible with it."""


class RealizationError(GeometryError):
    """A realization document does not fit its polyhedron."""


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


def projective_distance(m1, m2):
    """min over sign of the max entrywise distance after det-1 normalization."""
    n1, n2 = m1.normalized(), m2.normalized()
    d_plus = max(abs(x - y) for x, y in zip(n1.entries(), n2.entries()))
    d_minus = max(abs(x + y) for x, y in zip(n1.entries(), n2.entries()))
    return min(d_plus, d_minus)


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
# Regular ideal realizations, bundled as data
# ---------------------------------------------------------------------------

def load_realization(poly):
    """vertex name -> boundary point of the regular ideal realization
    bundled under `poly.name`, validated against `poly`.

    Raises NotRealizableError when no realization is bundled for the
    solid, and RealizationError when the document does not fit it.
    """
    folder = resources.files("hypdom.data") / "realizations"
    filename = f"{poly.name}.json"
    if filename not in {p.name for p in folder.iterdir()}:
        raise NotRealizableError(
            f"no regular ideal realization is bundled for {poly.name!r}")
    doc = json.loads((folder / filename).read_text())
    if not isinstance(doc, dict) or set(doc) != set(poly.vertices):
        raise RealizationError(f"the {poly.name!r} realization does not "
                               "name exactly the polyhedron's vertices")
    _regular_degree(poly)
    return realization_from_json_dict(doc)


def _regular_degree(poly):
    """The common vertex degree d.  The regular ideal realization has
    exterior angle 2/d (in units of pi) on every edge, since the exterior
    angles at an ideal vertex sum to 2."""
    degrees = set(collections.Counter(
        v for face in poly.faces for v in face).values())
    if len(degrees) != 1:
        raise RealizationError(f"vertex degrees {sorted(degrees)} differ: "
                               "no regular ideal realization")
    return degrees.pop()


def realization_to_json_dict(realization):
    doc = {}
    for name, z in sorted(realization.items()):
        doc[name] = INF if is_infinity(z) else [z.real, z.imag]
    return doc


def realization_from_json_dict(doc):
    """Parse vertex name -> [re, im] or "inf"; the points must be pairwise
    distinct, so at most one is at infinity."""
    out = {}
    for name, val in doc.items():
        if val == INF:
            out[name] = INF
        elif (isinstance(val, list) and len(val) == 2 and all(
                type(x) in (int, float) and math.isfinite(x) for x in val)):
            out[name] = complex(val[0], val[1])
        else:
            raise RealizationError(f"vertex {name!r}: {val!r} is neither "
                                   '"inf" nor two finite numbers')
    if len(set(out.values())) != len(out):
        raise RealizationError("realization points are not pairwise distinct")
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


def face_pairing_maps(realization, scheme, tol=EPS_GEO):
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


def verify_words(realization, scheme, words, tol_id=EPS_ID, tol_geo=EPS_GEO):
    """Build generators and classify the product of each relator word."""
    gens = face_pairing_maps(realization, scheme, tol=tol_geo)
    verdicts = tuple(
        classify_element(relator_product(gens, w), tol_id=tol_id) for w in words)
    return GroupPresentation(gens, words, verdicts)


def verify_candidate(candidate, tol_id=EPS_ID, tol_geo=EPS_GEO):
    """Verification of an enumeration survivor on its solid's bundled
    regular ideal realization.

    The candidate's angle system must admit the regular point, exterior
    angle 2/d on every edge (2/3 on the cube, 1/2 on the octahedron);
    anything else is not realizable here.
    """
    scheme = candidate.scheme
    realization = load_realization(scheme.poly)
    angle = Fraction(2, _regular_degree(scheme.poly))
    regular = {eid: angle for eid in range(scheme.poly.edge_count())}
    if not candidate.solution.contains(regular):
        raise NotRealizableError(
            f"angle system does not admit the regular all-{angle} solution")
    return verify_words(realization, scheme, candidate.words, tol_id, tol_geo)


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
