"""Floating-point Mobius machinery: the oracle for the exact library code.

This is verification as hypdom.geometry did it before it decided by
equality over Z[sqrt3, i]: complex 2x2 matrices, det-1 normalization and
tolerances.  The tests run it next to the exact code and require the same
verdicts; the ball-model certificate, the cross-ratio invariance property
and the random-matrix commutation properties run against it directly.
"""

import cmath
import math
from dataclasses import dataclass

from hypdom import geometry

SQRT3 = math.sqrt(3.0)

EPS_GEO = 1e-9
EPS_ID = 1e-9
EPS_CLS = 1e-8
EPS_DET = 1e-12

INF = geometry.INF
is_infinity = geometry.is_infinity


def to_complex(z):
    """A ring element as a complex number; "inf" stays "inf"."""
    if is_infinity(z):
        return z
    return complex(z.a + z.b * SQRT3, z.c + z.d * SQRT3)


def float_realization(realization):
    return {name: to_complex(z) for name, z in realization.items()}


@dataclass(frozen=True)
class MobiusMap:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.det) < EPS_DET:
            raise geometry.GeometryError(
                f"singular matrix, |det|={abs(self.det):.3e}")

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


def from_exact(m):
    """The complex matrix of an exact geometry.MobiusMap."""
    return MobiusMap(*map(to_complex, m.entries()))


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


def commutes(g1, g2, tol=EPS_ID):
    """True iff the commutator g1 g2 g1^-1 g2^-1 is projectively +-I."""
    comm = g1.compose(g2).compose(g1.inverse()).compose(g2.inverse())
    return projective_distance(comm, IDENTITY) <= tol


def sign_fixed(m):
    """Det-1 normalization with the sign fixed by the first nonzero entry."""
    n = m.normalized()
    for e in n.entries():
        if abs(e) > EPS_DET:
            if e.real < -EPS_DET or (abs(e.real) <= EPS_DET and e.imag < 0):
                return MobiusMap(-n.a, -n.b, -n.c, -n.d)
            return n
    return n


def cross_ratio(z, p1, p2, p3):
    """(z - p2)(p1 - p3) / ((z - p3)(p1 - p2)); sends p2->0, p1->1, p3->inf.

    Standard infinity conventions: the two factors containing an infinite
    point cancel.
    """
    pts = (p1, p2, p3)
    finite = [p for p in pts if not is_infinity(p)]
    if len(set(finite)) != len(finite) or sum(is_infinity(p) for p in pts) > 1:
        raise geometry.GeometryError(
            "cross-ratio reference points must be distinct")
    return _to_reference(p1, p2, p3)(z)


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
            raise geometry.GeometryError(
                "triple points must be pairwise distinct")
    return _to_reference(*dst).inverse().compose(
        _to_reference(*src)).normalized()


def _point_distance(z, w):
    if is_infinity(z) or is_infinity(w):
        return 0.0 if is_infinity(z) and is_infinity(w) else math.inf
    return abs(z - w)


def face_pairing_maps(realization, scheme, tol=EPS_GEO):
    """One map per pairing from the same reference triple as the library's
    face_pairing_maps; every other boundary vertex must land within tol."""
    poly = scheme.poly
    maps = {}
    for p in scheme.pairings:
        cycle = poly.faces[p.source]
        n = len(cycle)
        start = min(range(n), key=lambda i: cycle[i])
        ordered = [cycle[(start + i) % n] for i in range(n)]
        corr = p.mapping()
        m = mobius_from_triples([realization[v] for v in ordered[:3]],
                                [realization[corr[v]] for v in ordered[:3]])
        for v in ordered[3:]:
            err = _point_distance(m(realization[v]), realization[corr[v]])
            if err > tol:
                raise geometry.FourthVertexError(v)
        maps[p.gen] = m
    return maps


def relator_product(generators, word):
    """The first letter acts first: the last letter is leftmost."""
    m = IDENTITY
    for gen, sign in word:
        g = generators[gen]
        m = (g if sign > 0 else g.inverse()).compose(m)
    return m.normalized()
