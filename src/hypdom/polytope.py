"""Combinatorial polyhedra: validation, incidence data, dual graph, circuits.

Everything here is purely combinatorial.  A polyhedron is a sphere-like cell
complex given by its faces as cyclic vertex lists; edges and all incidence
structure are derived.  Face cycles are stored with the orientation given in
the input document, read as counterclockwise seen from outside.  The
darts (an edge on one of its faces) are numbered once, in integer arrays
that the orbits, the symmetries and the dual all walk.  Validation makes
that numbering, which refuses an incoherent orientation, and decides
3-connectivity by which vertices the faces share, without a graph search.
The dual's simple circuits are listed in full, uncapped, only as the
oracle of the light-cycle search in `angles`; no library path lists them.
"""

import collections
import functools
import itertools
import json
from importlib import resources


class PolyhedronError(ValueError):
    """Raised when a document fails polyhedron validation."""


class AbstractPolyhedron(collections.namedtuple("AbstractPolyhedron",
                                                 "name vertices faces")):
    """A polyhedron by its name, its vertex names and its faces, each face
    a cyclic tuple of vertex names.  It keeps an instance dict for the
    cached `incidence`."""

    def vertex_count(self):
        return len(self.vertices)

    def face_count(self):
        return len(self.faces)

    def edge_count(self):
        return sum(len(f) for f in self.faces) // 2

    @functools.cached_property
    def incidence(self):
        """The polyhedron's IncidenceData, built the first time it is read."""
        return build_incidence(self)


class IncidenceData(collections.namedtuple(
        "IncidenceData", "edges edge_faces vertex_edges face_edge_cycle darts "
        "first dart_edge dart_face dart_next dart_twin edge_dart")):
    """The incidence structure of a polyhedron, in one dart numbering:

    - edges: edge id -> frozenset({u, v}), indexed by position;
    - edge_faces: edge id -> (face id, face id);
    - vertex_edges: vertex name -> frozenset of edge ids;
    - face_edge_cycle: face id -> tuple of edge ids around the face;
    - darts: (u, v) on a face cycle -> dart id, in id order;
    - first: face id -> id of its first dart;
    - dart_edge: dart id -> edge id;
    - dart_face: dart id -> face id;
    - dart_next: dart id -> the next dart along its face;
    - dart_twin: dart id -> the dart across its edge;
    - edge_dart: edge id -> its dart on the lower face id.
    """
    __slots__ = ()

    def edge_id(self, u, v):
        return self.dart_edge[self.darts[u, v]]


class DualGraph(collections.namedtuple("DualGraph",
                                       "nodes links facial_cycles")):
    """The dual graph:

    - nodes: face ids of the primal;
    - links: link id == primal edge id -> (face id, face id);
    - facial_cycles: primal vertex -> cyclic tuple of link ids around it.
    """
    __slots__ = ()


def _face_pairs(face):
    n = len(face)
    return [(face[i], face[(i + 1) % n]) for i in range(n)]


def load_polyhedron(source):
    """Parse and validate a polyhedron document (a dict, or the path of a
    JSON file)."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PolyhedronError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolyhedronError("polyhedron document is not an object")
    for key, kind, what in (("name", str, "a string"),
                            ("vertices", (list, tuple), "a list"),
                            ("faces", (list, tuple), "a list")):
        if key not in doc:
            raise PolyhedronError(f"missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise PolyhedronError(f"{key!r} is not {what}")
    vertices = tuple(doc["vertices"])
    for v in vertices:
        if not isinstance(v, str):
            raise PolyhedronError(f"vertex name {v!r} is not a string")
    if len(set(vertices)) != len(vertices):
        raise PolyhedronError("duplicate vertex identifiers")
    faces = []
    for f in doc["faces"]:
        if not isinstance(f, (list, tuple)):
            raise PolyhedronError(f"face {f!r} is not a list of vertices")
        cyc = tuple(f)
        if len(cyc) < 3:
            raise PolyhedronError(f"face {cyc} has fewer than 3 vertices")
        for v in cyc:
            if v not in vertices:  # by equality: an unhashable v fails here
                raise PolyhedronError(f"face vertex {v!r} not declared")
        if len(set(cyc)) != len(cyc):
            raise PolyhedronError(f"repeated vertex within face {cyc}")
        faces.append(cyc)
    poly = AbstractPolyhedron(doc["name"], vertices, tuple(faces))
    _validate(poly)
    return poly


def _validate(poly):
    border = {}
    for fid, face in enumerate(poly.faces):
        for u, v in _face_pairs(face):
            border.setdefault(frozenset((u, v)), []).append(fid)
    for pair, fids in border.items():
        if len(fids) != 2:
            u, v = sorted(pair)
            raise PolyhedronError(
                f"edge {u}-{v} borders {len(fids)} faces, expected 2 (non-manifold)")
    v, e, f = poly.vertex_count(), len(border), poly.face_count()
    if v - e + f != 2:
        raise PolyhedronError(f"Euler formula violated: {v} - {e} + {f} != 2")
    # face-adjacency connectivity
    adj = {fid: set() for fid in range(f)}
    for f1, f2 in border.values():
        adj[f1].add(f2)
        adj[f2].add(f1)
    if not _connected(adj):
        raise PolyhedronError("face-adjacency graph is disconnected")
    touched = {v for face in poly.faces for v in face}
    if touched != set(poly.vertices):
        missing = sorted(set(poly.vertices) - touched)
        raise PolyhedronError(f"vertices not used by any face: {missing}")
    # coherent orientation: build_incidence refuses a directed edge met
    # twice, and validation shares the numbering it makes with every reader
    inc = poly.incidence
    if poly.vertex_count() < 4:
        raise PolyhedronError(f"{poly.vertex_count()} vertices: the vertex "
                              "graph is not 3-connected")
    # Steinitz: the vertex graph of a convex polyhedron is 3-connected.  On
    # a sphere map whose faces are simple cycles that holds iff any two
    # faces meet in nothing, one vertex or one edge (Mohar & Thomassen): a
    # loop through two faces that share any other pair meets the graph there
    shared = {}  # (face id, later face id) -> common vertices so far
    for v, star in inc.vertex_edges.items():
        fids = sorted({fid for eid in star for fid in inc.edge_faces[eid]})
        for pair in itertools.combinations(fids, 2):
            common = shared.setdefault(pair, [])
            for u in common:
                if border.get(frozenset((u, v))) != list(pair):
                    raise PolyhedronError(
                        f"removing vertices {u} and {v} disconnects the "
                        "vertex graph: it is not 3-connected")
            common.append(v)


def _connected(adj):
    """Is the graph of the adjacency map `adj` connected?"""
    stack = list(adj)[:1]
    seen = set(stack)
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(adj)


def build_incidence(poly):
    """Derive edges, darts and incidence maps.

    A dart is an edge on one of its faces, directed along the face's cycle.
    Darts are numbered face by face in document order, edges in order of
    first encounter, so both are stable for the same document, and an
    edge's first dart lies on its lower face id.  A directed edge met twice
    means the faces are not coherently oriented: PolyhedronError.
    """
    darts, first, dart_edge, edge_dart = {}, [], [], []
    for face in poly.faces:
        first.append(len(dart_edge))
        for u, v in _face_pairs(face):
            if (u, v) in darts:
                raise PolyhedronError(
                    f"directed edge {u}->{v} is used by two faces; faces are "
                    "not coherently oriented")
            twin = darts.get((v, u))
            if twin is None:  # a new edge, met first on this face
                edge_dart.append(len(dart_edge))
            darts[u, v] = len(dart_edge)
            dart_edge.append(len(edge_dart) - 1 if twin is None
                             else dart_edge[twin])
    ends = list(darts)  # dart id -> (u, v)
    twin = tuple(darts[v, u] for u, v in ends)
    dart_face = tuple(fid for fid, face in enumerate(poly.faces) for _ in face)
    vertex_edges = {v: set() for v in poly.vertices}
    for (u, _), eid in zip(ends, dart_edge):
        vertex_edges[u].add(eid)
    return IncidenceData(
        edges=tuple(frozenset(ends[d]) for d in edge_dart),
        edge_faces=tuple((dart_face[d], dart_face[twin[d]])
                         for d in edge_dart),
        vertex_edges={v: frozenset(s) for v, s in vertex_edges.items()},
        face_edge_cycle=tuple(tuple(dart_edge[d:d + len(face)])
                              for d, face in zip(first, poly.faces)),
        darts=darts,
        first=tuple(first),
        dart_edge=tuple(dart_edge),
        dart_face=dart_face,
        dart_next=tuple(d + (i + 1) % len(face)
                        for d, face in zip(first, poly.faces)
                        for i in range(len(face))),
        dart_twin=twin,
        edge_dart=tuple(edge_dart),
    )


def build_dual(poly, inc=None):
    """Dual graph: one node per face, one link per edge, plus the facial-cycle
    index mapping each primal vertex to the cyclic link sequence around it,
    walked from its least edge along d -> next[twin[d]] on the darts out."""
    inc = inc or poly.incidence
    facial = {}
    for v, star in inc.vertex_edges.items():
        (w,) = inc.edges[min(star)] - {v}
        around = [inc.darts[v, w]]
        while len(around) < len(star):
            around.append(inc.dart_next[inc.dart_twin[around[-1]]])
        facial[v] = tuple(inc.dart_edge[d] for d in around)
    return DualGraph(
        nodes=tuple(range(poly.face_count())),
        links=inc.edge_faces,
        facial_cycles=facial,
    )


def dual_adjacency(dual):
    """node -> its (neighbour, link id) pairs, sorted."""
    adj = {n: [] for n in dual.nodes}
    for lid, (f1, f2) in enumerate(dual.links):
        adj[f1].append((f2, lid))
        adj[f2].append((f1, lid))
    for n in adj:
        adj[n].sort()
    return adj


def simple_circuits(dual):
    """All simple circuits of the dual graph, each tagged facial or not.

    A circuit is a closed node walk with no repeated node, recorded as the
    link-id sequence.  Each circuit is emitted once (smallest node first,
    lexicographic tie-break on link ids).  A circuit is facial iff its links
    are exactly one primal vertex's incident edges: a simple circuit is
    fixed by its link set.
    """
    adj = dual_adjacency(dual)
    found = {}
    for s in dual.nodes:
        _extend_circuits(adj, found, s, s, {s}, [])
    stars = {frozenset(cyc) for cyc in dual.facial_cycles.values()}
    return [(found[key], key in stars)
            for key in sorted(found, key=lambda k: (len(k), sorted(k)))]


def _extend_circuits(adj, found, start, cur, visited, epath):
    """Record in `found` the circuits through `start` that extend the link
    path `epath` (start to `cur`) over later nodes; no closure, no cycle."""
    for nb, lid in adj[cur]:
        if nb == start and epath and lid != epath[0]:
            key = frozenset(epath + [lid])
            if key not in found:
                found[key] = tuple(epath + [lid])
        elif nb > start and nb not in visited:
            visited.add(nb)
            _extend_circuits(adj, found, start, nb, visited, epath + [lid])
            visited.discard(nb)


def bundled(name):
    """Load one of the shipped Platonic solid documents by name."""
    ref = resources.files("hypdom.data").joinpath(f"{name}.json")
    return load_polyhedron(json.loads(ref.read_text()))
