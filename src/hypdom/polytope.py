"""Combinatorial polyhedra: validation, incidence data, dual graph, circuits.

Everything here is purely combinatorial.  A polyhedron is a sphere-like cell
complex given by its faces as cyclic vertex lists; edges and all incidence
structure are derived.  Face cycles are stored with the orientation given in
the input document, read as counterclockwise seen from outside.
"""

import functools
import itertools
import json
from dataclasses import dataclass
from importlib import resources


class PolyhedronError(ValueError):
    """Raised when a document fails polyhedron validation."""


class CircuitCapExceeded(RuntimeError):
    """Raised when circuit enumeration exceeds the configured cap."""


DEFAULT_CIRCUIT_CAP = 100000


@dataclass(frozen=True)
class AbstractPolyhedron:
    name: str
    vertices: tuple
    faces: tuple  # tuple of cyclic vertex-name tuples

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


@dataclass(frozen=True)
class IncidenceData:
    edges: tuple               # edge id -> frozenset({u, v}), indexed by position
    edge_faces: tuple          # edge id -> (face id, face id)
    vertex_edges: dict         # vertex name -> frozenset of edge ids
    face_edge_cycle: tuple     # face id -> tuple of edge ids around the face
    darts: dict                # (u, v) on a face cycle -> (face id, index of u)

    def edge_id(self, u, v):
        fid, i = self.darts[u, v]
        return self.face_edge_cycle[fid][i]


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple               # face ids of the primal
    links: tuple               # link id == primal edge id -> (face id, face id)
    facial_cycles: dict        # primal vertex -> cyclic tuple of link ids around it


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
    for key in ("name", "vertices", "faces"):
        if key not in doc:
            raise PolyhedronError(f"missing key {key!r}")
        if key != "name" and not isinstance(doc[key], (list, tuple)):
            raise PolyhedronError(f"{key!r} is not a list")
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
    poly = AbstractPolyhedron(str(doc["name"]), vertices, tuple(faces))
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
    if not _connected(adj, set(adj)):
        raise PolyhedronError("face-adjacency graph is disconnected")
    touched = {v for face in poly.faces for v in face}
    if touched != set(poly.vertices):
        missing = sorted(set(poly.vertices) - touched)
        raise PolyhedronError(f"vertices not used by any face: {missing}")
    # coherent orientation: each directed edge is used by one face only
    directed = set()
    for face in poly.faces:
        for u, v in _face_pairs(face):
            if (u, v) in directed:
                raise PolyhedronError(
                    f"directed edge {u}->{v} is used by two faces; faces are "
                    "not coherently oriented")
            directed.add((u, v))
    # Steinitz: the vertex graph of a convex polyhedron is 3-connected
    nbrs = {u: set() for u in poly.vertices}
    for u, w in border:
        nbrs[u].add(w)
        nbrs[w].add(u)
    if poly.vertex_count() < 4:
        raise PolyhedronError(f"{poly.vertex_count()} vertices: the vertex "
                              "graph is not 3-connected")
    for cut in itertools.combinations(poly.vertices, 2):
        if not _connected(nbrs, set(poly.vertices) - set(cut)):
            raise PolyhedronError(
                f"removing vertices {cut[0]} and {cut[1]} disconnects the "
                "vertex graph: it is not 3-connected")


def _connected(adj, nodes):
    """Is the subgraph of `adj` induced on the set `nodes` connected?"""
    stack = list(nodes)[:1]
    seen = set(stack)
    while stack:
        for nb in adj[stack.pop()]:
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


def build_incidence(poly):
    """Derive edges and incidence maps.

    Edge ids are assigned in first-encounter order scanning faces in document
    order, so they are stable across runs for the same document.  Each edge
    has two darts, one per side face, directed along that face's cycle.
    """
    edge_index = {}
    edges = []
    edge_faces = {}
    face_cycles = []
    darts = {}
    for fid, face in enumerate(poly.faces):
        cycle = []
        for i, (u, v) in enumerate(_face_pairs(face)):
            darts[u, v] = (fid, i)
            pair = frozenset((u, v))
            if pair not in edge_index:
                edge_index[pair] = len(edges)
                edges.append(pair)
                edge_faces[edge_index[pair]] = []
            eid = edge_index[pair]
            edge_faces[eid].append(fid)
            cycle.append(eid)
        face_cycles.append(tuple(cycle))
    vertex_edges = {v: set() for v in poly.vertices}
    for eid, pair in enumerate(edges):
        for v in pair:
            vertex_edges[v].add(eid)
    return IncidenceData(
        edges=tuple(edges),
        edge_faces=tuple(tuple(edge_faces[i]) for i in range(len(edges))),
        vertex_edges={v: frozenset(s) for v, s in vertex_edges.items()},
        face_edge_cycle=tuple(face_cycles),
        darts=darts,
    )


def _rotation_at_vertex(poly, inc, vertex):
    """Cyclic order of the edges incident to `vertex`, walking face corners."""
    succ = {}
    for fid, face in enumerate(poly.faces):
        n = len(face)
        for i, v in enumerate(face):
            if v != vertex:
                continue
            e_in = inc.edge_id(face[(i - 1) % n], v)
            e_out = inc.edge_id(v, face[(i + 1) % n])
            succ[e_in] = e_out
    start = min(succ)
    cyc = [start]
    while True:
        nxt = succ[cyc[-1]]
        if nxt == start:
            break
        cyc.append(nxt)
    if len(cyc) != len(inc.vertex_edges[vertex]):
        raise PolyhedronError(f"edges around vertex {vertex} do not form one cycle")
    return tuple(cyc)


def build_dual(poly, inc=None):
    """Dual graph: one node per face, one link per edge, plus the facial-cycle
    index mapping each primal vertex to the cyclic link sequence around it."""
    inc = inc or poly.incidence
    facial = {v: _rotation_at_vertex(poly, inc, v) for v in poly.vertices}
    return DualGraph(
        nodes=tuple(range(poly.face_count())),
        links=inc.edge_faces,
        facial_cycles=facial,
    )


def simple_circuits(dual, cap=DEFAULT_CIRCUIT_CAP):
    """All simple circuits of the dual graph, each tagged facial or not.

    A circuit is a closed node walk with no repeated node, recorded as the
    link-id sequence.  Each circuit is emitted once (smallest node first,
    lexicographic tie-break on link ids).  A circuit is facial iff its links
    are exactly one primal vertex's incident edges: a simple circuit is
    fixed by its link set.
    """
    adj = {n: [] for n in dual.nodes}
    for lid, (f1, f2) in enumerate(dual.links):
        adj[f1].append((f2, lid))
        adj[f2].append((f1, lid))
    for n in adj:
        adj[n].sort()
    found = {}
    order = {n: i for i, n in enumerate(dual.nodes)}

    def dfs(start, cur, visited, epath):
        if len(found) > cap:
            raise CircuitCapExceeded(f"more than {cap} circuits")
        for nb, lid in adj[cur]:
            if nb == start and epath and lid != epath[0]:
                key = frozenset(epath + [lid])
                if key not in found:
                    found[key] = tuple(epath + [lid])
            elif nb not in visited and order[nb] > order[start]:
                visited.add(nb)
                dfs(start, nb, visited, epath + [lid])
                visited.discard(nb)

    for s in dual.nodes:
        dfs(s, s, {s}, [])
    stars = {frozenset(cyc) for cyc in dual.facial_cycles.values()}
    return [(found[key], key in stars)
            for key in sorted(found, key=lambda k: (len(k), sorted(k)))]


def bundled(name):
    """Load one of the shipped Platonic solid documents by name."""
    ref = resources.files("hypdom.data").joinpath(f"{name}.json")
    return load_polyhedron(json.loads(ref.read_text()))
