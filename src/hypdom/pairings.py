"""Face-identification schemes: orbits, relator words, symmetries, twist sugar.

A scheme pairs the faces of a polyhedron into source/target pairs, each with
an orientation-reversing boundary-vertex correspondence, one of the pair's
`reversing_correspondences` (the cube's twist sugar picks one by face names
and twist).  That list is the one definition of a valid correspondence: a
scheme read from a document is checked against it (`validate_scheme`), and
the search builds its pairings from it and checks nothing.  A pairing
compiles into the next-dart slices of its two faces (`pairing_darts`), in
the one dart numbering of `poly.incidence`.  Edge classes are the cycles
of a scheme's dart moves, walked by one traversal (`dart_cycles`); a move
that fixes its dart makes the pairing, and every scheme using it,
elliptic.  An automorphism is a dart map spread from one dart along twin
and next, kept as an `Action` (its vertex map, rotation flag and face and
edge permutations).  It carries a pairing to the image pairing
`pair_image`, and a scheme's dart cycles onto the image scheme's, so
class count and class sizes are the same across a symmetry orbit of
schemes; the search decides them once per orbit of face matchings.
Words are the signed generator letters in traversal order.
"""

import collections


class SchemeError(ValueError):
    """Scheme fails a structural invariant (coverage, orientation, length)."""


class CensusError(RuntimeError):
    """Quotient census arithmetic broke an identity it must satisfy."""


class FacePairing(collections.namedtuple("FacePairing",
                                         "gen source target corr")):
    """Generator `gen` carrying face `source` onto face `target`; corr is
    the sorted tuple of (source vertex, target vertex)."""
    __slots__ = ()

    def mapping(self):
        return dict(self.corr)

    def inverse_mapping(self):
        return {v: k for k, v in self.corr}


class PairingScheme(collections.namedtuple("PairingScheme", "poly pairings")):
    """A polyhedron and a tuple of FacePairings."""
    __slots__ = ()


class EdgeOrbit(collections.namedtuple("EdgeOrbit", "steps")):
    """An edge class in traversal order: steps holds one (edge id, side
    face id, (gen symbol, sign)) per edge."""
    __slots__ = ()

    @property
    def edges(self):
        return tuple(e for e, _, _ in self.steps)

    @property
    def size(self):
        return len(self.steps)


def make_pairing(gen, source, target, mapping):
    return FacePairing(gen, source, target, tuple(sorted(mapping.items())))


def reversing_correspondences(poly, f1, f2):
    """The orientation-reversing correspondences of face f1 onto face f2,
    one per rotation of the reversed f2 cycle against the f1 cycle."""
    c1, c2 = poly.faces[f1], poly.faces[f2]
    rev = list(reversed(c2))
    n = len(c1)
    return [{c1[i]: rev[(i + k) % n] for i in range(n)} for k in range(n)]


def validate_scheme(scheme):
    """The scheme, if each pairing joins two distinct faces of one length
    by one of their `reversing_correspondences`, and the pairings cover
    every face exactly once under distinct string symbols; otherwise a
    SchemeError naming the first fault in that order."""
    poly = scheme.poly
    for p in scheme.pairings:
        if p.source == p.target:
            raise SchemeError(
                f"pairing {p.gen} identifies face {p.source} with itself")
        n1, n2 = len(poly.faces[p.source]), len(poly.faces[p.target])
        if n1 != n2:
            raise SchemeError(f"pairing {p.gen}: faces of lengths {n1} and {n2}")
        if p.mapping() not in reversing_correspondences(poly, p.source,
                                                        p.target):
            raise SchemeError(f"pairing {p.gen}: correspondence does not "
                              "reverse orientation")
    used = sorted(fid for p in scheme.pairings for fid in (p.source, p.target))
    if used != list(range(poly.face_count())):
        raise SchemeError("pairings do not cover every face exactly once")
    symbols = [p.gen for p in scheme.pairings]
    if not all(isinstance(s, str) for s in symbols):
        raise SchemeError(f"generator symbols {symbols} are not all strings")
    if len(set(symbols)) != len(symbols):
        raise SchemeError("generator symbols are not distinct")
    return scheme


def pairing_darts(poly, p):
    """The pairing's dart moves as (first dart, next darts) for its source
    face (the map) and its target face (the inverse): dart first + i moves
    to dart next darts[i], in the dart numbering of `poly.incidence`.

    A dart is the edge (u, v) on the side face whose cycle runs u -> v.
    The generator m on that face reverses orientation, so (m[u], m[v])
    runs against its codomain face and is already the dart across the
    image edge.  A move that fixes its dart (next darts[i] == first + i)
    is a rotation about an edge the two faces share: the pairing is
    elliptic, and so is every scheme that uses it.
    """
    inc = poly.incidence
    faces = []
    for fid, vmap in ((p.source, p.mapping()),
                      (p.target, p.inverse_mapping())):
        images = [vmap[v] for v in poly.faces[fid]]
        faces.append((inc.first[fid], tuple(map(
            inc.darts.__getitem__, zip(images, images[1:] + images[:1])))))
    return tuple(faces)


def dart_cycles(poly, nxt):
    """Edge classes by dart traversal, one dart cycle per class: `nxt` is
    the scheme's move table, nxt[d] the dart its generator sends dart d to.

    Each cycle starts at the lower-face dart of the least edge no cycle
    has reached, for determinism; the reverse traversal of a class is not
    walked, its darts are dropped with the class.  A cycle of length 1 is
    a generator fixing an edge of a face it shares with its codomain: a
    rotation about that edge (elliptic).  A walk longer than the move
    table means a pairing that does not reverse orientation: its moves are
    not a permutation, and it raises CensusError.  So do cycles that miss
    an edge or whose lengths sum past the edge count (an edge walked
    twice, by pigeonhole): they do not partition the edge set.
    """
    inc = poly.incidence
    edge = inc.dart_edge
    reached = [False] * len(inc.edge_dart)
    cycles, walked = [], 0
    bound = range(len(nxt))  # no cycle is longer than the move table
    for start in inc.edge_dart:
        if reached[edge[start]]:
            continue
        cycle, dart = [], start
        for _ in bound:
            cycle.append(dart)
            reached[edge[dart]] = True
            dart = nxt[dart]
            if dart == start:
                break
        else:
            raise CensusError(f"the walk from dart {start} never returns: "
                              "the dart moves are not a permutation")
        cycles.append(cycle)
        walked += len(cycle)
    if walked != len(reached) or not all(reached):
        raise CensusError("edge orbits do not partition the edge set")
    return cycles


def cycle_orbits(poly, cycles, pairs):
    """The EdgeOrbit of each dart cycle of a scheme with pairings `pairs`:
    the step of dart d is (edge id, face id, (gen symbol, sign)), the sign
    +1 on the source face of the pairing's generator, -1 on its target."""
    letter = {}
    for p in pairs:
        letter[p.source], letter[p.target] = (p.gen, +1), (p.gen, -1)
    edge, face = poly.incidence.dart_edge, poly.incidence.dart_face
    return [EdgeOrbit(tuple([(edge[d], face[d], letter[face[d]])
                             for d in cycle])) for cycle in cycles]


def edge_orbits(scheme):
    """Edge classes by dart traversal (`dart_cycles`), one orbit per
    class, each orbit the steps of its cycle."""
    poly = scheme.poly
    nxt = [None] * len(poly.incidence.dart_edge)
    for p in scheme.pairings:
        for first, ids in pairing_darts(poly, p):
            nxt[first:first + len(ids)] = ids
    if None in nxt:
        raise CensusError("a face is in no pairing: the dart moves are not "
                          "a permutation")
    return cycle_orbits(poly, dart_cycles(poly, nxt), scheme.pairings)


def relator_word(orbit):
    """The orbit's word: its (gen symbol, +1|-1) letters in traversal
    order, checked to be cyclically reduced."""
    word = tuple(letter for _, _, letter in orbit.steps)
    if any(word[i - 1] == (gen, -sign) for i, (gen, sign) in enumerate(word)):
        raise CensusError(f"traversal produced a reducible word: {word}")
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


def quotient_census(scheme, orbits):
    """The quotient's cell counts: vertex, edge and face classes V, E, F,
    one interior P, and its Euler number q = V - E + F - P."""
    poly = scheme.poly
    v_bar, e_bar, f_bar = (poly.vertex_count(), poly.edge_count(),
                           poly.face_count())
    if v_bar - e_bar + f_bar != 2:
        raise CensusError("polyhedron lost its Euler identity")
    if sum(o.size for o in orbits) != e_bar:
        raise CensusError("orbit sizes do not sum to the edge count")
    v, e, f = len(vertex_orbits(scheme)), len(orbits), f_bar // 2
    return {"V": v, "E": e, "F": f, "P": 1, "q": v - e + f - 1}


Action = collections.namedtuple("Action", "vmap rotation faces edges")
Action.__doc__ = """A combinatorial automorphism: its vertex map, rotation
flag (False for a reflection), and face and edge permutations, face f
going to faces[f] and edge e to edges[e]."""


def automorphism_actions(poly):
    """All combinatorial automorphisms, each an Action, all read off its
    dart map.

    The vertex graph is 3-connected, so its embedding is unique (Whitney):
    an automorphism is a dart map that commutes with twin and sends next
    to next (a rotation, flag True) or to previous, fixed by the image of
    one dart.  Maps come in the lexicographic order of the images of the
    vertices taken by descending degree, stable in document order.
    """
    inc = poly.incidence
    tail, head = zip(*inc.darts)
    degree = collections.Counter(tail)
    order = sorted(poly.vertices, key=lambda v: -degree[v])
    outs = [tail.index(v) for v in order]  # a dart out of each vertex
    prev = [None] * len(tail)
    for dart, after in enumerate(inc.dart_next):
        prev[after] = dart
    found = []
    # a rotation sends a dart out of u to one out of vmap[u]; a reflection
    # sends dart (u, v) to the dart (vmap[v], vmap[u]), into vmap[u]
    for rotation, step, ends in ((True, inc.dart_next, tail),
                                 (False, prev, head)):
        for image in range(len(tail)):
            dmap = _dart_map(inc, step, image)
            if dmap is not None:
                key = tuple(ends[dmap[d]] for d in outs)
                found.append((key, Action(
                    dict(zip(order, key)), rotation,
                    tuple(inc.dart_face[dmap[d]] for d in inc.first),
                    tuple(inc.dart_edge[dmap[d]] for d in inc.edge_dart))))
    return [action for _, action in sorted(found)]


def _dart_map(inc, step, image):
    """The dart map sending dart 0 to `image`, twin to twin and next to
    `step`, or None on a conflict.  A surviving map is a bijection: its
    image is closed under twin and `step`, which reach every dart."""
    nxt, twin = inc.dart_next, inc.dart_twin
    dmap = [None] * len(nxt)
    dmap[0] = image
    stack = [0]
    while stack:
        dart = stack.pop()
        at = dmap[dart]
        for src, dst in ((nxt[dart], step[at]), (twin[dart], twin[at])):
            if dmap[src] is None:
                dmap[src] = dst
                stack.append(src)
            elif dmap[src] != dst:
                return None
    return dmap


def pair_image(action, source, target, corr):
    """The image (source, target, corr) of a pairing's faces and sorted
    correspondence under `action`, direction-normalized: the lower face id
    first, the inverse correspondence when the direction flips."""
    vmap, faces = action.vmap, action.faces
    src, tgt = faces[source], faces[target]
    if src < tgt:
        return src, tgt, tuple(sorted((vmap[a], vmap[b]) for a, b in corr))
    return tgt, src, tuple(sorted((vmap[b], vmap[a]) for a, b in corr))


def signature(scheme, action):
    """The symbol-free signature of the scheme's image under `action` (from
    automorphism_actions): each image pair by `pair_image`, and the pairs
    sorted.  At the identity action it is the scheme's own."""
    return tuple(sorted(pair_image(action, p.source, p.target, p.corr)
                        for p in scheme.pairings))


def image_keys(scheme, actions):
    """The signature of every image g.S of the scheme, mapped to the image's
    (rotation-group key, full-group key), in one pass over `actions`.

    A key is the minimal signature over an orbit.  The full-group orbit of
    g.S is every image.  The rotations are a subgroup of index at most 2,
    so the rotation orbit of g.S is g's coset: the rotation images when g
    is a rotation, the reflection images otherwise.  A family is one
    full-group orbit, so one pass keys every member, and the members share
    its key strings.
    """
    images = [(signature(scheme, action), action.rotation)
              for action in actions]
    full = repr(min(sig for sig, _ in images))
    coset = {kind: repr(min(sig for sig, rotation in images
                            if rotation == kind))
             for kind in {rotation for _, rotation in images}}
    return {sig: (coset[rotation], full) for sig, rotation in images}


# ---------------------------------------------------------------------------
# Cube twist sugar
# ---------------------------------------------------------------------------
# Cube vertex names spell F/B, T/B, R/L (front/back, top/bottom, right/left);
# a face is named by the letter its vertex names share.  Twist sugar picks a
# reversing correspondence: the base map (adjacent faces: the hinge fold,
# fixing the shared edge; opposite faces: the translation along edges), every
# image then moved k steps along the target's cycle, forward for "cw".

CUBE_FACES = {(0, "F"): "front", (0, "B"): "back", (1, "T"): "top",
              (1, "B"): "bottom", (2, "R"): "right", (2, "L"): "left"}
CUBE_VERTICES = {a + b + c for a in "FB" for b in "TB" for c in "RL"}


def cube_face_ids(poly):
    """face name -> face id for a cube document using the standard naming."""
    out = {}
    for fid, face in enumerate(poly.faces):
        shared = (set.intersection(*(set(enumerate(v)) for v in face))
                  if len(face) == 4 and set(face) <= CUBE_VERTICES else ())
        if len(shared) == 1:
            out[CUBE_FACES[shared.pop()]] = fid
    if len(out) != 6 or len(poly.faces) != 6:
        raise SchemeError("polyhedron is not the standard named cube")
    return out


def _cube_faces(poly, source, target):
    fids = cube_face_ids(poly)
    if not all(isinstance(n, str) and n in fids for n in (source, target)):
        raise SchemeError(f"unknown cube face in {source!r}->{target!r}")
    return fids[source], fids[target]


def twist_pairing(poly, gen, from_name, to_name, quarter_turns, sense="cw"):
    """Expand cube twist sugar into an explicit FacePairing."""
    if sense not in ("cw", "ccw"):
        raise SchemeError(f"sense must be 'cw' or 'ccw', got {sense!r}")
    if type(quarter_turns) is not int or quarter_turns not in range(4):
        raise SchemeError("twist_quarter_turns must be an integer 0..3")
    source, target = _cube_faces(poly, from_name, to_name)
    if source == target:
        raise SchemeError("cannot pair a face with itself")
    hinge = set(poly.faces[source]) & set(poly.faces[target])
    darts = poly.incidence.darts
    corrs = reversing_correspondences(poly, source, target)
    base = next(k for k, c in enumerate(corrs) if (
        all(c[v] == v for v in hinge) if hinge
        else all(pair in darts for pair in c.items())))
    # one step forward along the target cycle is one entry back in the list
    turns = quarter_turns if sense == "cw" else -quarter_turns
    return make_pairing(gen, source, target, corrs[(base - turns) % 4])


# ---------------------------------------------------------------------------
# Scheme JSON
# ---------------------------------------------------------------------------

def scheme_to_json_dict(scheme):
    return {"pairings": [
        {"gen": p.gen, "from": p.source, "to": p.target, "map": dict(p.corr)}
        for p in scheme.pairings]}


def scheme_from_json_dict(poly, doc):
    if not isinstance(doc, dict) or not isinstance(doc.get("pairings"), list):
        raise SchemeError("scheme document has no 'pairings' list")
    pairings = []
    for item in doc["pairings"]:
        if not isinstance(item, dict):
            raise SchemeError("pairing entry is not an object")
        keys = ("gen", "from", "to",
                "map" if "map" in item else "twist_quarter_turns")
        missing = [k for k in keys if k not in item]
        if missing:
            raise SchemeError(f"pairing entry has no {missing[0]!r}")
        if "map" in item:
            source, target, mapping = item["from"], item["to"], item["map"]
            if isinstance(source, str):
                source, target = _cube_faces(poly, source, target)
            count = poly.face_count()
            for fid in (source, target):
                if type(fid) is not int or fid not in range(count):
                    raise SchemeError(f"pairing {item['gen']!r}: {fid!r} is "
                                      f"not a face id in range({count})")
            if not (isinstance(mapping, dict) and all(
                    v in poly.vertices
                    for v in (*mapping, *mapping.values()))):
                raise SchemeError(f"pairing {item['gen']!r}: 'map' is not a "
                                  "mapping of vertex names to vertex names")
            pairings.append(make_pairing(item["gen"], source, target, mapping))
        else:
            pairings.append(twist_pairing(
                poly, item["gen"], item["from"], item["to"],
                item["twist_quarter_turns"], item.get("sense", "cw")))
    return validate_scheme(PairingScheme(poly, tuple(pairings)))
