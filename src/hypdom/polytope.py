"""Combinatorial polyhedra: validation, incidence data, duals, circuit search.

Everything here is purely combinatorial.  A polyhedron is a sphere-like cell
complex given by its faces as cyclic vertex lists; edges and all incidence
structure are derived.  Face cycles are stored with the orientation given in
the input document, read as counterclockwise seen from outside.
"""

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


@dataclass(frozen=True)
class IncidenceData:
    edges: tuple               # edge id -> frozenset({u, v}), indexed by position
    edge_faces: tuple          # edge id -> (face id, face id)
    vertex_edges: dict         # vertex name -> frozenset of edge ids
    face_edge_cycle: tuple     # face id -> tuple of edge ids around the face

    def edge_id(self, u, v):
        pair = frozenset((u, v))
        try:
            return self._lookup[pair]
        except AttributeError:
            lookup = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_lookup", lookup)
            return self._lookup[pair]


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple               # face ids of the primal
    links: tuple               # link id == primal edge id -> (face id, face id)
    facial_cycles: dict        # primal vertex -> cyclic tuple of link ids around it


def _face_pairs(face):
    n = len(face)
    return [(face[i], face[(i + 1) % n]) for i in range(n)]


def load_polyhedron(source):
    """Parse and validate a polyhedron document (dict, JSON string, or path)."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        text = str(text)
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolyhedronError(f"not valid JSON: {exc}") from exc
    for key in ("name", "vertices", "faces"):
        if key not in doc:
            raise PolyhedronError(f"missing key {key!r}")
    vertices = tuple(doc["vertices"])
    if len(set(vertices)) != len(vertices):
        raise PolyhedronError("duplicate vertex identifiers")
    vset = set(vertices)
    faces = []
    for f in doc["faces"]:
        cyc = tuple(f)
        if len(cyc) < 3:
            raise PolyhedronError(f"face {cyc} has fewer than 3 vertices")
        if len(set(cyc)) != len(cyc):
            raise PolyhedronError(f"repeated vertex within face {cyc}")
        for v in cyc:
            if v not in vset:
                raise PolyhedronError(f"face vertex {v!r} not declared")
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
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != f:
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


def build_incidence(poly):
    """Derive edges and incidence maps.

    Edge ids are assigned in first-encounter order scanning faces in document
    order, so they are stable across runs for the same document.
    """
    edge_index = {}
    edges = []
    edge_faces = {}
    face_cycles = []
    for fid, face in enumerate(poly.faces):
        cycle = []
        for u, v in _face_pairs(face):
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
    inc = inc or build_incidence(poly)
    facial = {v: _rotation_at_vertex(poly, inc, v) for v in poly.vertices}
    return DualGraph(
        nodes=tuple(range(poly.face_count())),
        links=inc.edge_faces,
        facial_cycles=facial,
    )


def dual_polyhedron(poly, inc=None):
    """The dual as a polyhedron: vertices are primal face ids (as strings),
    one face per primal vertex, in the facial cyclic order around it."""
    inc = inc or build_incidence(poly)
    faces = []
    for v in poly.vertices:
        cyc = _rotation_at_vertex(poly, inc, v)
        # consecutive links around v share a face; take the shared face per step
        walk = []
        n = len(cyc)
        for i in range(n):
            shared = set(inc.edge_faces[cyc[i]]) & set(inc.edge_faces[cyc[(i + 1) % n]])
            walk.append(str(min(shared)) if len(shared) > 1 else str(shared.pop()))
        faces.append(walk)
    doc = {
        "name": poly.name + "*",
        "vertices": [str(fid) for fid in range(poly.face_count())],
        "faces": faces,
    }
    return load_polyhedron(doc)


def isomorphic_to(poly, other):
    """Check isomorphism via the canonical bijection of dual_polyhedron(dual).

    Used for the dual-of-dual round trip, where vertices of the double dual
    are primal vertex positions by construction, so the bijection is index i
    -> poly.vertices[i] and only the face structure needs checking.
    """
    if (poly.vertex_count() != other.vertex_count()
            or poly.face_count() != other.face_count()):
        return False
    mapping = {str(i): v for i, v in enumerate(poly.vertices)}
    try:
        mapped = {frozenset(mapping[v] for v in f) for f in other.faces}
    except KeyError:
        return False
    return mapped == {frozenset(f) for f in poly.faces}


def simple_circuits(dual, cap=DEFAULT_CIRCUIT_CAP):
    """All simple circuits of the dual graph, each tagged facial or not.

    A circuit is a closed node walk with no repeated node, recorded as the
    link-id sequence.  Each circuit is emitted once (smallest node first,
    lexicographic tie-break on link ids).  A circuit is facial iff its links
    are exactly one primal vertex's incident edges in their facial cyclic
    order.
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
    facial_sets = {}
    for v, cyc in dual.facial_cycles.items():
        facial_sets[frozenset(cyc)] = cyc
    out = []
    for key in sorted(found, key=lambda k: (len(k), sorted(k))):
        seq = found[key]
        facial = key in facial_sets and _cyclic_equal(seq, facial_sets[key])
        out.append((seq, facial))
    return out


def _cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = b + b
    rev = tuple(reversed(b)) + tuple(reversed(b))
    for i in range(len(b)):
        if doubled[i:i + len(a)] == a or rev[i:i + len(a)] == a:
            return True
    return False


def bundled(name):
    """Load one of the shipped Platonic solid documents by name."""
    ref = resources.files("hypdom.data").joinpath(f"{name}.json")
    return load_polyhedron(ref.read_text())
