"""Regular ideal realizations and exact Mobius machinery.

Ideal points are tracked on the upper-half-space boundary as elements of
the ring Z[sqrt3, i] (the type Z3i) plus the point at infinity (the string
"inf", following the usual convention for extended-complex code).  Both
bundled realizations lie in that ring: each cube coordinate is
+-(sqrt3 - 1) or +-(sqrt3 + 1), and the octahedron sits at inf, 0, +-1 and
+-i.  Mobius maps are 2x2 matrices over the ring acting as
z -> (az+b)/(cz+d), identified projectively, so every verdict below is an
equality of ring elements: there is no tolerance anywhere.  A ring element
is a tuple of its four integer parts and a map a tuple of its four
entries; products run on the parts through one formula, _ring_product,
and only a map built from outside data has its determinant checked.

A realization places each vertex of a solid on the boundary.  The regular
ideal ones are data: one document per solid under data/realizations, named
after the polyhedron document's "name" (the cube and the octahedron are
bundled).  A process fits each once per solid name, vertices and faces,
against the bundled solid of that name; load_realization copies the fit.
"""

import collections
import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from importlib import resources

from . import angles, polytope

INF = "inf"
_new = tuple.__new__  # builds a Z3i or MobiusMap from a tuple, unchecked


class GeometryError(ValueError):
    """Degenerate input to a geometric construction."""


class FourthVertexError(GeometryError):
    """The Mobius map from three vertices misses the image of another."""


class NotRealizableError(GeometryError):
    """No realization is bundled for the solid, or the candidate's angle
    solution is incompatible with it."""


class RealizationError(GeometryError):
    """A realization document does not fit its polyhedron."""


def is_infinity(z):
    return isinstance(z, str) and z == INF


def _ring_product(x, y):
    """The parts of the product of two ring elements given by their parts
    (a, b, c, d), for a + b sqrt3 + i (c + d sqrt3): the one place where
    sqrt3^2 = 3 and i^2 = -1 enter the arithmetic."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + 3 * b * f - c * g - 3 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 3 * b * h + c * e + 3 * d * f,
            a * h + b * g + c * f + d * e)


class Z3i(collections.namedtuple("Z3i", "a b c d", defaults=(0, 0, 0))):
    """a + b sqrt3 + i (c + d sqrt3), with integers a, b, c, d: a tuple of
    the four, so a value is one tuple.__new__ and products read its parts
    directly.  +, - and * take only another Z3i, else raise TypeError."""
    __slots__ = ()

    def __add__(self, o):
        (a, b, c, d), (e, f, g, h) = self, _operand(o)
        return _new(Z3i, (a + e, b + f, c + g, d + h))

    def __sub__(self, o):
        (a, b, c, d), (e, f, g, h) = self, _operand(o)
        return _new(Z3i, (a - e, b - f, c - g, d - h))

    def __neg__(self):
        a, b, c, d = self
        return _new(Z3i, (-a, -b, -c, -d))

    def __mul__(self, o):
        return _new(Z3i, _ring_product(self, _operand(o)))

    # else (1, 0, 0, 0) + z and 2 * z would fall back to the tuple's
    # concatenation and repetition; the ring is commutative
    __radd__, __rmul__ = __add__, __mul__

    def __bool__(self):
        return any(self)

    def conjugate(self):
        return _new(Z3i, (self.a, self.b, -self.c, -self.d))

    def real_sign(self):
        """Sign of the real part a + b sqrt3: where a and b differ in sign
        the larger of a^2 and 3b^2 decides (they are equal only at 0)."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        return sa if self.a * self.a > 3 * self.b * self.b else sb

    def parts(self):
        return tuple(self)


def _operand(o):
    if type(o) is not Z3i:
        raise TypeError(f"ring arithmetic on a Z3i and a {type(o).__name__}")
    return o


class MobiusMap(collections.namedtuple("MobiusMap", "a b c d")):
    """[[a, b], [c, d]] over the ring, a tuple of four Z3i entries (an int
    entry n is read as Z3i(n)); a singular one raises GeometryError.
    compose and inverse build their result unchecked: products and inverses
    of invertible matrices are invertible, so only maps built from outside
    data need the check."""
    __slots__ = ()

    def __new__(cls, a, b, c, d):
        m = _new(cls, (Z3i(x) if isinstance(x, int) else x
                       for x in (a, b, c, d)))
        if not m.det:
            raise GeometryError("singular matrix")
        return m

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def trace(self):
        return self.a + self.d

    def sends(self, z, w):
        """True iff the map takes boundary point z to w: the image
        (a x + b y : c x + d y) of z = (x : y) is the point w = (u : v)."""
        x, y = _homogeneous(z)
        u, v = _homogeneous(w)
        return (self.a * x + self.b * y) * v == (self.c * x + self.d * y) * u

    def compose(self, other):
        """self after other (matrix product self * other), divided by the
        gcd of its 16 integers so that entries stay small."""
        (a, b, c, d), (e, f, g, h) = self, other
        parts = [*map(operator.add, _ring_product(a, e), _ring_product(b, g)),
                 *map(operator.add, _ring_product(a, f), _ring_product(b, h)),
                 *map(operator.add, _ring_product(c, e), _ring_product(d, g)),
                 *map(operator.add, _ring_product(c, f), _ring_product(d, h))]
        n = math.gcd(*parts)
        q = [x // n for x in parts]
        return _new(MobiusMap, (_new(Z3i, q[:4]), _new(Z3i, q[4:8]),
                                _new(Z3i, q[8:12]), _new(Z3i, q[12:])))

    def inverse(self):
        a, b, c, d = self
        return _new(MobiusMap, (d, -b, -c, a))

    def __add__(self, o):
        raise TypeError("a MobiusMap has no + or *: compose maps instead")

    __radd__ = __mul__ = __rmul__ = __add__  # else the tuple's, as for Z3i

    def entries(self):
        return tuple(self)


def _homogeneous(z):
    return (Z3i(1), Z3i(0)) if is_infinity(z) else (z, Z3i(1))


IDENTITY = MobiusMap(1, 0, 0, 1)


def projective_distance(m1, m2):
    """0 iff m1 and m2 are the same map, that is, their entry vectors are
    proportional and all six cross-minors vanish; otherwise the number of
    minors that do not."""
    u, v = m1.entries(), m2.entries()
    return sum(u[i] * v[j] != u[j] * v[i]
               for i, j in itertools.combinations(range(4), 2))


def classify_element(m):
    """identity / parabolic / elliptic / loxodromic, decided exactly.

    With t = tr^2 / det, the squared trace of the det-1 scaling, m is
    parabolic iff t = 4 and elliptic iff t is real in [0, 4).  Multiplied by
    |det|^2 this stays in the ring: t |det|^2 = tr^2 conj(det).
    """
    if not m.b and not m.c and m.a == m.d:
        return "identity"
    tr2, det = m.trace * m.trace, m.det
    if tr2 == det * Z3i(4):
        return "parabolic"
    x = tr2 * det.conjugate()
    if (not (x.c or x.d) and x.real_sign() >= 0
            and (det * det.conjugate() * Z3i(4) - x).real_sign() > 0):
        return "elliptic"
    return "loxodromic"


# ---------------------------------------------------------------------------
# Regular ideal realizations, bundled as data
# ---------------------------------------------------------------------------

def load_realization(poly):
    """vertex name -> boundary point of the regular ideal realization
    bundled under `poly.name`, validated against `poly`: a fresh dict of
    the one fit per solid name, vertices and faces that a process makes.

    Raises NotRealizableError when no realization is bundled for the
    solid, and RealizationError when the document does not fit it: each
    face of `poly` must be, up to rotation and reversal, a face of the
    bundled polyhedron document of that name, whose vertices it places.
    """
    return dict(_fit(poly.name, poly.vertices, poly.faces)[0])


@functools.cache
def _fit(name, vertices, faces):
    """(points, common vertex degree) of the realization bundled under
    `name`, checked as load_realization says; a failure is not cached."""
    filename = f"{name}.json"
    path = resources.files("hypdom.data") / "realizations" / filename
    try:  # no file has a name with a separator, or one too long for any
        bundled = path.name == filename and path.is_file()
    except OSError:
        bundled = False
    if not bundled:
        raise NotRealizableError(
            f"no regular ideal realization is bundled for {name!r}")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or set(doc) != set(vertices):
        raise RealizationError(f"the {name!r} realization does not "
                               "name exactly the polyhedron's vertices")
    degrees = set(collections.Counter(
        v for face in faces for v in face).values())
    if len(degrees) != 1:
        raise RealizationError(f"vertex degrees {sorted(degrees)} differ: "
                               "no regular ideal realization")
    points = realization_from_json_dict(doc)
    solid = {_edge_set(face) for face in polytope.bundled(name).faces}
    for face in faces:
        if _edge_set(face) not in solid:
            raise RealizationError(
                f"face {list(face)} is not a face of the bundled "
                f"{name!r}, whose vertices the realization places")
    return points, degrees.pop()


def _edge_set(face):
    """The edges of a face cycle, which fix it up to rotation and reversal."""
    return frozenset(map(frozenset, zip(face, face[1:] + face[:1])))


def ring_to_json(z):
    """[[a, b], [c, d]] for a + b sqrt3 + i (c + d sqrt3)."""
    return [[z.a, z.b], [z.c, z.d]]


def ring_from_json(val):
    """The ring element written [[a, b], [c, d]] in integers, else None."""
    if (isinstance(val, list) and len(val) == 2 and all(
            isinstance(part, list) and len(part) == 2
            and all(type(x) is int for x in part) for part in val)):
        return Z3i(val[0][0], val[0][1], val[1][0], val[1][1])
    return None


def realization_to_json_dict(realization):
    return {name: z if is_infinity(z) else ring_to_json(z)
            for name, z in realization.items()}


def realization_from_json_dict(doc):
    """Parse vertex name -> [[a, b], [c, d]] or "inf"; the points must be
    pairwise distinct, so at most one is at infinity."""
    out = {}
    for name, val in doc.items():
        out[name] = INF if val == INF else ring_from_json(val)
        if out[name] is None:
            raise RealizationError(
                f"vertex {name!r}: {val!r} is neither \"inf\" nor "
                "[[a, b], [c, d]] in integers")
    if len(set(out.values())) != len(out):
        raise RealizationError("realization points are not pairwise distinct")
    return out


# ---------------------------------------------------------------------------
# Map construction and verification
# ---------------------------------------------------------------------------

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
    return _to_reference(*dst).inverse().compose(_to_reference(*src))


def face_pairing_maps(realization, scheme):
    """One Mobius map per pairing, from three consecutive boundary vertices.

    The reference triple is the three consecutive source-boundary vertices
    starting at the lexicographically smallest vertex name; every remaining
    boundary vertex must land exactly on its image, otherwise the scheme is
    not realizable on this vertex placement.
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
            if not m.sends(realization[v], realization[corr[v]]):
                raise FourthVertexError(
                    f"vertex {v!r} does not land on its image")
        maps[p.gen] = m
    return maps


def relator_product(generators, word):
    """Evaluate a traversal word: the first letter acts first, so the matrix
    product is taken with the last letter leftmost.  The fold starts from
    the first letter; only the empty word gives IDENTITY."""
    letters = (generators[gen] if sign > 0 else generators[gen].inverse()
               for gen, sign in word)
    m = next(letters, IDENTITY)
    for g in letters:
        m = g.compose(m)
    return m


def verify_words(realization, scheme, words):
    """The `verify` document of the relator words on the realization: each
    generator's exact entries a, b, c, d (each written as by ring_to_json,
    the 16 integers without a common factor) and type, each word with the
    type of its product, and the verdict, CONFIRMED when every product is
    the identity and REJECTED otherwise."""
    gens = face_pairing_maps(realization, scheme)
    products = [classify_element(relator_product(gens, w)) for w in words]
    confirmed = all(p == "identity" for p in products)
    return {
        "generators": {sym: [ring_to_json(e) for e in m.entries()]
                       for sym, m in gens.items()},
        "generator_types": {sym: classify_element(m)
                            for sym, m in gens.items()},
        "relators": [{"word": [[g, s] for g, s in w], "product": product}
                     for w, product in zip(words, products)],
        "confirmed": confirmed,
        "status": "CONFIRMED" if confirmed else "REJECTED",
    }


def verify_candidate(candidate):
    """The `verify` document (see verify_words) of an enumeration survivor
    on its solid's bundled regular ideal realization.

    The candidate's angle system must admit the regular point, exterior
    angle 2/d on every edge, since the exterior angles at an ideal vertex
    of degree d sum to 2; anything else is not realizable here.  It
    solves a class row of k edges iff k = 2d/(d - 2): 6 on the cube, 4 on
    the octahedron.  So the verdict is known (the regular-symmetry lemma):
    every pairing is an isometry of regular ideal faces, so each edge cycle
    fixes a point of its axis and a relator is the identity exactly when
    its class has 2d/(d - 2) edges, elliptic otherwise; every cusp keeps
    a horosphere.  The Mobius check certifies that answer.
    """
    poly = candidate.scheme.poly
    realization, degree = _fit(poly.name, poly.vertices, poly.faces)
    angle = Fraction(2, degree)
    regular = {eid: angle for eid in range(poly.edge_count())}
    if not angles.satisfies(candidate.system, regular):
        raise NotRealizableError(
            f"angle system does not admit the regular all-{angle} solution")
    return verify_words(realization, candidate.scheme, candidate.words)
