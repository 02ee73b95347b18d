"""Face-identification schemes: orbits, relator words, symmetries, twist sugar.

A scheme pairs the faces of a polyhedron into source/target pairs, each with
an orientation-reversing boundary-vertex correspondence.  Edge classes are
computed by flag traversal: from the flag (edge, side face) apply the signed
generator attached to that face, land on the image edge on the generator's
codomain face, then flip to the image edge's other side.  Words are the
signed generator letters in traversal order.
"""

import itertools
from dataclasses import dataclass

from . import polytope


class SchemeError(ValueError):
    """Scheme fails a structural invariant (coverage, orientation, length)."""


class CensusError(RuntimeError):
    """Quotient census arithmetic broke an identity it must satisfy."""


@dataclass(frozen=True)
class FacePairing:
    gen: str
    source: int
    target: int
    corr: tuple  # sorted tuple of (source vertex, target vertex)

    def mapping(self):
        return dict(self.corr)

    def inverse_mapping(self):
        return {v: k for k, v in self.corr}


@dataclass(frozen=True)
class PairingScheme:
    poly: polytope.AbstractPolyhedron
    pairings: tuple

    def generator_symbols(self):
        return tuple(p.gen for p in self.pairings)


@dataclass(frozen=True)
class EdgeOrbit:
    steps: tuple  # (edge id, side face id, (gen symbol, sign))

    @property
    def edges(self):
        return tuple(e for e, _, _ in self.steps)

    @property
    def size(self):
        return len(self.steps)


@dataclass(frozen=True)
class RelatorWord:
    letters: tuple  # (gen symbol, +1|-1) in traversal order

    def __len__(self):
        return len(self.letters)

    def cyclically_reduced(self):
        n = len(self.letters)
        if n < 2:
            return True
        for i in range(n):
            g1, s1 = self.letters[i]
            g2, s2 = self.letters[(i + 1) % n]
            if g1 == g2 and s1 == -s2:
                return False
        return True


@dataclass(frozen=True)
class QuotientCensus:
    vertex_classes: int
    edge_classes: int
    face_classes: int
    interiors: int

    @property
    def euler(self):
        return (self.vertex_classes - self.edge_classes
                + self.face_classes - self.interiors)


def make_pairing(poly, gen, source, target, mapping):
    return FacePairing(gen, source, target, tuple(sorted(mapping.items())))


def _cycle_maps_reversed(src_cycle, dst_cycle, mapping):
    """mapping sends consecutive source vertices to consecutive vertices of
    the reversed target cycle."""
    n = len(src_cycle)
    images = [mapping[v] for v in src_cycle]
    rev = list(reversed(dst_cycle))
    try:
        k = rev.index(images[0])
    except ValueError:
        return False
    return all(images[i] == rev[(k + i) % n] for i in range(n))


def validate_scheme(scheme):
    """Check fixed-point-freeness, lengths, orientation reversal, coverage."""
    poly = scheme.poly
    for p in scheme.pairings:
        if p.source == p.target:
            raise SchemeError(f"pairing {p.gen} identifies face {p.source} with itself")
        src, dst = poly.faces[p.source], poly.faces[p.target]
        if len(src) != len(dst):
            raise SchemeError(
                f"pairing {p.gen}: faces of lengths {len(src)} and {len(dst)}")
        m = p.mapping()
        if set(m) != set(src) or set(m.values()) != set(dst):
            raise SchemeError(f"pairing {p.gen}: correspondence domain mismatch")
        if not _cycle_maps_reversed(src, dst, m):
            raise SchemeError(
                f"pairing {p.gen}: correspondence does not reverse orientation")
    used = [fid for p in scheme.pairings for fid in (p.source, p.target)]
    if sorted(used) != list(range(poly.face_count())):
        raise SchemeError("pairings do not cover every face exactly once")
    symbols = [p.gen for p in scheme.pairings]
    if len(set(symbols)) != len(symbols):
        raise SchemeError("generator symbols are not distinct")
    return scheme


def _signed_generators(scheme):
    """face id -> (codomain face, vertex map, (symbol, sign))."""
    table = {}
    for p in scheme.pairings:
        table[p.source] = (p.target, p.mapping(), (p.gen, +1))
        table[p.target] = (p.source, p.inverse_mapping(), (p.gen, -1))
    return table


def edge_orbits(scheme, inc=None):
    """Edge classes by flag traversal, one orbit per class.

    Each orbit starts at its lowest-id unvisited edge with the lower face id
    as the side, for determinism.  The reverse flag orbit traverses the same
    class backwards; its flags are consumed and its steps dropped.
    """
    poly = scheme.poly
    inc = inc or polytope.build_incidence(poly)
    table = _signed_generators(scheme)
    flags = {(eid, fid) for eid in range(len(inc.edges))
             for fid in inc.edge_faces[eid]}
    orbits = []
    claimed = set()
    while flags:
        start = min(flags)
        steps = []
        flag = start
        while True:
            eid, fid = flag
            flags.discard(flag)
            tgt, vmap, letter = table[fid]
            steps.append((eid, fid, letter))
            image = frozenset(vmap[v] for v in inc.edges[eid])
            eid2 = inc.edge_id(*image)
            other = [f for f in inc.edge_faces[eid2] if f != tgt]
            flag = (eid2, other[0] if other else tgt)
            if flag == start:
                break
        if start[0] not in claimed:
            orbits.append(EdgeOrbit(tuple(steps)))
            claimed.update(e for e, _, _ in steps)
    covered = sorted(e for o in orbits for e in o.edges)
    if covered != list(range(len(inc.edges))):
        raise CensusError("edge orbits do not partition the edge set")
    return orbits


def relator_word(orbit):
    word = RelatorWord(tuple(letter for _, _, letter in orbit.steps))
    if not word.cyclically_reduced():
        raise CensusError(f"traversal produced a reducible word: {word.letters}")
    return word


def vertex_orbits(scheme):
    """Vertex classes under all correspondences, by union-find."""
    poly = scheme.poly
    parent = {v: v for v in poly.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in scheme.pairings:
        for a, b in p.corr:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in poly.vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def detect_elliptic_generator(scheme, inc=None):
    """Pairings of adjacent faces whose correspondence maps the shared edge
    to itself (setwise): such a map rotates about that edge and has torsion."""
    inc = inc or polytope.build_incidence(scheme.poly)
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


def quotient_census(scheme, orbits=None, inc=None):
    poly = scheme.poly
    inc = inc or polytope.build_incidence(poly)
    orbits = orbits or edge_orbits(scheme, inc)
    v_bar, e_bar, f_bar = (poly.vertex_count(), poly.edge_count(),
                           poly.face_count())
    if v_bar - e_bar + f_bar != 2:
        raise CensusError("polyhedron lost its Euler identity")
    if sum(o.size for o in orbits) != e_bar:
        raise CensusError("orbit sizes do not sum to the edge count")
    census = QuotientCensus(
        vertex_classes=len(vertex_orbits(scheme)),
        edge_classes=len(orbits),
        face_classes=f_bar // 2,
        interiors=1,
    )
    return census


def symmetry_group(poly):
    """All combinatorial automorphisms, as (vertex map, orientation flag).

    orientation flag is True when every face cycle maps onto a face cycle
    with its cyclic order preserved (rotation) rather than reversed.
    """
    inc = polytope.build_incidence(poly)
    adjacency = {v: set() for v in poly.vertices}
    for pair in inc.edges:
        u, v = tuple(pair)
        adjacency[u].add(v)
        adjacency[v].add(u)
    face_sets = {frozenset(f): f for f in poly.faces}
    verts = sorted(poly.vertices, key=lambda v: -len(adjacency[v]))
    out = []

    def extend(partial):
        if len(partial) == len(verts):
            vmap = dict(partial)
            orient = _orientation_of(poly, face_sets, vmap)
            if orient is not None:
                out.append((vmap, orient))
            return
        v = verts[len(partial)]
        mapped = dict(partial)
        used = set(mapped.values())
        candidates = set(poly.vertices) - used
        for u in mapped:
            if u in adjacency[v]:
                candidates &= adjacency[mapped[u]]
            else:
                candidates -= adjacency[mapped[u]]
        for c in sorted(candidates):
            if len(adjacency[c]) != len(adjacency[v]):
                continue
            extend(partial + [(v, c)])

    extend([])
    return out


def _orientation_of(poly, face_sets, vmap):
    """True/False when all faces map consistently rotated/reversed, else None."""
    senses = set()
    for f in poly.faces:
        image = [vmap[v] for v in f]
        key = frozenset(image)
        if key not in face_sets:
            return None
        target = face_sets[key]
        if _is_rotation(image, target):
            senses.add(True)
        elif _is_rotation(image, list(reversed(target))):
            senses.add(False)
        else:
            return None
    if len(senses) != 1:
        return None
    return senses.pop()


def _is_rotation(a, b):
    n = len(b)
    if len(a) != n:
        return False
    doubled = list(b) + list(b)
    return any(doubled[i:i + n] == list(a) for i in range(n))


def conjugate_scheme(scheme, vmap):
    """The scheme's image under a polyhedron automorphism."""
    poly = scheme.poly
    face_ids = {frozenset(f): i for i, f in enumerate(poly.faces)}
    pairings = []
    for p in scheme.pairings:
        nsrc = face_ids[frozenset(vmap[v] for v in poly.faces[p.source])]
        ntgt = face_ids[frozenset(vmap[v] for v in poly.faces[p.target])]
        corr = {vmap[a]: vmap[b] for a, b in p.corr}
        pairings.append(make_pairing(poly, p.gen, nsrc, ntgt, corr))
    return PairingScheme(poly, tuple(pairings))


def _scheme_signature(scheme):
    """Symbol-free serialization: pairs direction-normalized and sorted."""
    items = []
    for p in scheme.pairings:
        src, tgt, corr = p.source, p.target, p.mapping()
        if src > tgt:
            src, tgt, corr = tgt, src, p.inverse_mapping()
        items.append((src, tgt, tuple(sorted(corr.items()))))
    return tuple(sorted(items))


def canonicalize(scheme, group="all", automorphisms=None):
    """Minimal serialized form over the chosen automorphism subgroup."""
    if group not in ("all", "rotations"):
        raise ValueError(f"unknown group choice {group!r}")
    autos = automorphisms if automorphisms is not None else symmetry_group(scheme.poly)
    best = None
    for vmap, orient in autos:
        if group == "rotations" and not orient:
            continue
        sig = _scheme_signature(conjugate_scheme(scheme, vmap))
        if best is None or sig < best:
            best = sig
    return repr(best).encode()


def words_equivalent(w1, w2):
    """Equality up to cyclic rotation, formal inversion, and a consistent
    renaming (bijection) of the generator symbols."""
    a = w1.letters if isinstance(w1, RelatorWord) else tuple(w1)
    b = w2.letters if isinstance(w2, RelatorWord) else tuple(w2)
    if len(a) != len(b):
        return False

    def inverse(word):
        return tuple((g, -s) for g, s in reversed(word))

    def match(x, y):
        ren = {}
        for (g1, s1), (g2, s2) in zip(x, y):
            if s1 != s2:
                return False
            if g1 in ren and ren[g1] != g2:
                return False
            ren[g1] = g2
        return len(set(ren.values())) == len(ren)

    n = len(a)
    for target in (b, inverse(b)):
        doubled = target + target
        for k in range(n):
            if match(a, doubled[k:k + n]):
                return True
    return n == 0


# ---------------------------------------------------------------------------
# Cube twist sugar
# ---------------------------------------------------------------------------
# Vertex names of the bundled cube encode coordinates: F/B (front z=+1 /
# back z=-1), T/B (top y=+1 / bottom), R/L (right x=+1 / left).  A pairing
# "from face f1 to face f2 with twist k quarter turns, sense cw" expands as
# R^(+-k) o base where base is the straight translation (opposite faces) or
# the hinge fold over the shared edge (adjacent faces), and R is the
# right-hand quarter turn about the target face's outward normal; "cw" means
# clockwise as seen from the cube's interior.

CUBE_FACE_NORMALS = {
    "front": (0, 0, 1), "back": (0, 0, -1),
    "top": (0, 1, 0), "bottom": (0, -1, 0),
    "left": (-1, 0, 0), "right": (1, 0, 0),
}


def _cube_vertex_coords(name):
    if len(name) != 3 or name[0] not in "FB" or name[1] not in "TB" or name[2] not in "RL":
        raise SchemeError(f"vertex {name!r} does not follow the cube naming scheme")
    sz = 1 if name[0] == "F" else -1
    sy = 1 if name[1] == "T" else -1
    sx = 1 if name[2] == "R" else -1
    return (sx, sy, sz)


def _cube_vertex_name(coords):
    sx, sy, sz = coords
    return ("F" if sz > 0 else "B") + ("T" if sy > 0 else "B") + ("R" if sx > 0 else "L")


def cube_face_ids(poly):
    """face name -> face id for a cube document using the standard naming."""
    wanted = {}
    for name, normal in CUBE_FACE_NORMALS.items():
        members = frozenset(
            _cube_vertex_name(c) for c in itertools.product((1, -1), repeat=3)
            if (c[0], c[1], c[2])[_axis_of(normal)] == _sign_of(normal))
        wanted[members] = name
    out = {}
    for fid, face in enumerate(poly.faces):
        key = frozenset(face)
        if key not in wanted:
            raise SchemeError("polyhedron is not the standard named cube")
        out[wanted[key]] = fid
    if len(out) != 6:
        raise SchemeError("polyhedron is not the standard named cube")
    return out


def _axis_of(normal):
    return next(i for i, c in enumerate(normal) if c)


def _sign_of(normal):
    return normal[_axis_of(normal)]


def _rot_about(normal, quarter):
    ax, s = _axis_of(normal), _sign_of(normal)
    i, j = [(1, 2), (2, 0), (0, 1)][ax]

    def rot90(p):
        p = list(p)
        if s > 0:
            p[i], p[j] = -p[j], p[i]
        else:
            p[i], p[j] = p[j], -p[i]
        return tuple(p)

    def apply(p):
        for _ in range(quarter % 4):
            p = rot90(p)
        return p

    return apply


def _base_motion(n1, n2):
    dot = sum(a * b for a, b in zip(n1, n2))
    if dot == -1:
        return lambda p: tuple(x - 2 * n for x, n in zip(p, n1))
    hinge_dir = (n1[1] * n2[2] - n1[2] * n2[1],
                 n1[2] * n2[0] - n1[0] * n2[2],
                 n1[0] * n2[1] - n1[1] * n2[0])
    neg_n2 = tuple(-x for x in n2)
    rot = _rot_about(hinge_dir, 1)
    if rot(n1) != neg_n2:
        rot = _rot_about(hinge_dir, 3)
    center = tuple(a + b for a, b in zip(n1, n2))

    def fold(p):
        q = tuple(x - c for x, c in zip(p, center))
        return tuple(x + c for x, c in zip(rot(q), center))

    return fold


def twist_pairing(poly, gen, from_name, to_name, quarter_turns, sense="cw"):
    """Expand cube twist sugar into an explicit FacePairing."""
    if sense not in ("cw", "ccw"):
        raise SchemeError(f"sense must be 'cw' or 'ccw', got {sense!r}")
    if quarter_turns not in (0, 1, 2, 3):
        raise SchemeError("twist_quarter_turns must be 0..3")
    fids = cube_face_ids(poly)
    if from_name not in fids or to_name not in fids:
        raise SchemeError(f"unknown cube face in {from_name!r}->{to_name!r}")
    n1, n2 = CUBE_FACE_NORMALS[from_name], CUBE_FACE_NORMALS[to_name]
    if n1 == n2:
        raise SchemeError("cannot pair a face with itself")
    base = _base_motion(n1, n2)
    turns = quarter_turns if sense == "cw" else (4 - quarter_turns) % 4
    rot = _rot_about(n2, turns)
    corr = {}
    for vname in poly.faces[fids[from_name]]:
        image = rot(base(_cube_vertex_coords(vname)))
        corr[vname] = _cube_vertex_name(image)
    return make_pairing(poly, gen, fids[from_name], fids[to_name], corr)


# ---------------------------------------------------------------------------
# Scheme JSON
# ---------------------------------------------------------------------------

def scheme_to_json_dict(scheme):
    return {"pairings": [
        {"gen": p.gen, "from": p.source, "to": p.target, "map": dict(p.corr)}
        for p in scheme.pairings]}


def scheme_from_json_dict(poly, doc):
    pairings = []
    for item in doc["pairings"]:
        if "map" in item:
            fids = {"from": item["from"], "to": item["to"]}
            if isinstance(fids["from"], str):
                names = cube_face_ids(poly)
                fids = {k: names[v] for k, v in fids.items()}
            pairings.append(make_pairing(
                poly, item["gen"], fids["from"], fids["to"], dict(item["map"])))
        else:
            pairings.append(twist_pairing(
                poly, item["gen"], item["from"], item["to"],
                item["twist_quarter_turns"], item.get("sense", "cw")))
    return validate_scheme(PairingScheme(poly, tuple(pairings)))
