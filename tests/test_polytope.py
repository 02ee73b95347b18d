import itertools
import json
import random
import re
from importlib import resources

import pytest

from hypdom import polytope

from conftest import DRAWN_EDGES, bipyramid_doc, prism_doc


def test_cube_counts(cube):
    assert cube.vertex_count() == 8
    assert cube.edge_count() == 12
    assert cube.face_count() == 6


def test_tetrahedron_counts(solids):
    t = solids["tetrahedron"]
    assert (t.vertex_count(), t.edge_count(), t.face_count()) == (4, 6, 4)


def test_path_starting_with_a_brace(tmp_path, monkeypatch, cube):
    # a path is read as a file whatever its first character
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{cube}.json").write_text(
        (resources.files("hypdom.data") / "cube.json").read_text())
    loaded = polytope.load_polyhedron("{cube}.json")
    assert (loaded.vertices, loaded.faces) == (cube.vertices, cube.faces)


def test_parse_error(tmp_path, cube):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(polytope.PolyhedronError, match="not valid JSON"):
        polytope.load_polyhedron(str(broken))
    five = tmp_path / "five.json"
    five.write_text("5")
    with pytest.raises(polytope.PolyhedronError, match="not an object"):
        polytope.load_polyhedron(str(five))
    good = {"name": "cube", "vertices": list(cube.vertices),
            "faces": [list(f) for f in cube.faces]}
    for key in good:
        with pytest.raises(polytope.PolyhedronError,
                           match=f"missing key {key!r}"):
            polytope.load_polyhedron({k: v for k, v in good.items()
                                      if k != key})
    with pytest.raises(polytope.PolyhedronError, match="duplicate vertex"):
        polytope.load_polyhedron({**good, "vertices": good["vertices"]
                                  + good["vertices"][:1]})
    for key, bad in (("vertices", "abcd"), ("vertices", 8),
                     ("faces", {"a": 1}), ("faces", None)):
        with pytest.raises(polytope.PolyhedronError, match="not a list"):
            polytope.load_polyhedron({**good, key: bad})
    for bad_face in ("FTLR", 3, None):
        doc = {**good, "faces": good["faces"][1:] + [bad_face]}
        with pytest.raises(polytope.PolyhedronError, match="not a list of"):
            polytope.load_polyhedron(doc)
    # unhashable vertex identifiers, declared or used in a face
    with pytest.raises(polytope.PolyhedronError, match="not a string"):
        polytope.load_polyhedron({**good, "vertices": good["vertices"][1:]
                                  + [["FTR"]]})
    for bad_vertex in (["FTR"], {"FTR": 1}):
        faces = [list(f) for f in good["faces"]]
        faces[0][0] = bad_vertex
        with pytest.raises(polytope.PolyhedronError, match="not declared"):
            polytope.load_polyhedron({**good, "faces": faces})


def test_nonmanifold_edge_rejected():
    doc = {"name": "bad", "vertices": ["a", "b", "c", "d", "e"],
           "faces": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]}
    with pytest.raises(polytope.PolyhedronError, match="borders 3"):
        polytope.load_polyhedron(doc)


def test_reversed_face_rejected(cube):
    # the bundled cube with its first face listed clockwise: every edge
    # still borders two faces, but four directed edges are used twice
    faces = [list(f) for f in cube.faces]
    faces[0].reverse()
    doc = {"name": "cube", "vertices": list(cube.vertices), "faces": faces}
    with pytest.raises(polytope.PolyhedronError, match="coherently oriented"):
        polytope.load_polyhedron(doc)


def test_euler_violation_rejected():
    # two disjoint tetrahedra: every edge is fine but chi = 4
    faces = []
    for tag in ("x", "y"):
        a, b, c, d = (f"{tag}{i}" for i in range(4))
        faces += [[a, b, c], [a, c, d], [a, d, b], [b, d, c]]
    doc = {"name": "twotets",
           "vertices": [f"{t}{i}" for t in ("x", "y") for i in range(4)],
           "faces": faces}
    with pytest.raises(polytope.PolyhedronError, match="Euler"):
        polytope.load_polyhedron(doc)


def test_short_face_rejected():
    doc = {"name": "bad", "vertices": ["a", "b"], "faces": [["a", "b"]]}
    with pytest.raises(polytope.PolyhedronError):
        polytope.load_polyhedron(doc)


def test_faceless_document_rejected():
    # two vertices and no faces satisfy Euler's formula (2 - 0 + 0)
    doc = {"name": "bad", "vertices": ["a", "b"], "faces": []}
    with pytest.raises(polytope.PolyhedronError, match="not used by any"):
        polytope.load_polyhedron(doc)


def test_repeated_vertex_in_face_rejected():
    doc = {"name": "bad", "vertices": ["a", "b", "c"],
           "faces": [["a", "b", "a"]]}
    with pytest.raises(polytope.PolyhedronError, match="repeated"):
        polytope.load_polyhedron(doc)


def test_cube_vertex_degrees(cube, cube_inc):
    for v in cube.vertices:
        assert len(cube_inc.vertex_edges[v]) == 3


def test_tetrahedron_face_boundaries(solids):
    inc = polytope.build_incidence(solids["tetrahedron"])
    assert all(len(cyc) == 3 for cyc in inc.face_edge_cycle)


def test_icosahedron_degrees(solids):
    # brute-force count straight from the face lists
    ico = solids["icosahedron"]
    count = {v: 0 for v in ico.vertices}
    for face in ico.faces:
        for v in face:
            count[v] += 1
    assert len(count) == 12
    assert all(c == 5 for c in count.values())
    inc = polytope.build_incidence(ico)
    assert all(len(inc.vertex_edges[v]) == 5 for v in ico.vertices)


def test_edge_ids_deterministic(cube):
    a = polytope.build_incidence(cube)
    b = polytope.build_incidence(polytope.bundled("cube"))
    assert a.edges == b.edges


def test_handshake_identities(solids):
    for poly in solids.values():
        inc = polytope.build_incidence(poly)
        e = len(inc.edges)
        assert sum(len(inc.vertex_edges[v]) for v in poly.vertices) == 2 * e
        assert sum(len(f) for f in poly.faces) == 2 * e
        assert poly.vertex_count() - e + poly.face_count() == 2


def test_cube_dual_is_octahedron_graph(cube, cube_dual):
    assert len(cube_dual.nodes) == 6
    assert len(cube_dual.links) == 12
    degree = {n: 0 for n in cube_dual.nodes}
    for f1, f2 in cube_dual.links:
        degree[f1] += 1
        degree[f2] += 1
    assert all(d == 4 for d in degree.values())
    # opposite faces share no edge
    adjacent = {frozenset(l) for l in cube_dual.links}
    assert len(adjacent) == 12


def dual_polyhedron(poly):
    """The dual as a polyhedron: vertices are primal face ids (as strings),
    one face per primal vertex, in the facial cyclic order around it."""
    inc = polytope.build_incidence(poly)
    dual = polytope.build_dual(poly, inc)
    faces = []
    for v in poly.vertices:
        cyc = dual.facial_cycles[v]
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
    return polytope.load_polyhedron(doc)


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


def test_tetrahedron_self_dual(solids):
    t = solids["tetrahedron"]
    d = dual_polyhedron(t)
    assert (d.vertex_count(), d.edge_count(), d.face_count()) == (4, 6, 4)


def test_dodecahedron_dual_is_icosahedron(solids):
    d = dual_polyhedron(solids["dodecahedron"])
    assert (d.vertex_count(), d.edge_count(), d.face_count()) == (12, 30, 20)
    inc = polytope.build_incidence(d)
    degrees = sorted(len(inc.vertex_edges[v]) for v in d.vertices)
    assert degrees == [5] * 12
    assert sorted(len(f) for f in d.faces) == [3] * 20


def test_dual_of_dual_reconstructs(solids):
    for poly in solids.values():
        dd = dual_polyhedron(dual_polyhedron(poly))
        assert isomorphic_to(poly, dd), poly.name


def test_facial_cycles_cover_vertex_edges(cube, cube_inc, cube_dual):
    for v in cube.vertices:
        assert set(cube_dual.facial_cycles[v]) == set(cube_inc.vertex_edges[v])


def _oracle_circuits(dual):
    """Exhaustive circuit enumeration over node subsets, for small graphs."""
    adj = {}
    for lid, (f1, f2) in enumerate(dual.links):
        adj.setdefault(f1, {})[f2] = lid
        adj.setdefault(f2, {})[f1] = lid
    found = set()
    nodes = list(dual.nodes)
    for k in range(3, len(nodes) + 1):
        for subset in itertools.combinations(nodes, k):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                walk = (first,) + perm
                links = []
                ok = True
                for i in range(k):
                    a, b = walk[i], walk[(i + 1) % k]
                    if b not in adj.get(a, {}):
                        ok = False
                        break
                    links.append(adj[a][b])
                if ok:
                    found.add(frozenset(links))
    return found


def test_simple_circuits_match_bruteforce(solids):
    for name in ("tetrahedron", "cube", "octahedron"):
        dual = polytope.build_dual(solids[name])
        ours = {frozenset(seq) for seq, _ in polytope.simple_circuits(dual)}
        assert ours == _oracle_circuits(dual)


def test_cube_dual_nonfacial_circuits_have_four_links(cube_dual):
    circuits = polytope.simple_circuits(cube_dual)
    assert len(circuits) == 63
    nonfacial = [seq for seq, facial in circuits if not facial]
    assert len(nonfacial) == 55
    assert all(len(seq) >= 4 for seq in nonfacial)


def test_tetrahedron_dual_three_circuits_facial(solids):
    dual = polytope.build_dual(solids["tetrahedron"])
    for seq, facial in polytope.simple_circuits(dual):
        if len(seq) == 3:
            assert facial


def test_facial_tag_follows_vertex_rotation(solids):
    # a circuit is tagged facial by its link set alone; on every bundled
    # solid each such circuit walks its vertex's links in their facial
    # cyclic order, one way round or the other, and there is one per vertex
    total = 0
    for poly in solids.values():
        dual = polytope.build_dual(poly)
        circuits = polytope.simple_circuits(dual)
        total += len(circuits)
        facial = [seq for seq, tag in circuits if tag]
        assert len(facial) == poly.vertex_count()
        for seq in facial:
            cyc = next(c for c in dual.facial_cycles.values()
                       if set(c) == set(seq))
            turns = {way[i:] + way[:i] for way in (cyc, cyc[::-1])
                     for i in range(len(cyc))}
            assert seq in turns
    assert total == 14144


def test_drawn_edges_all_present(cube_inc):
    ids = {cube_inc.edge_id(u, v) for u, v in DRAWN_EDGES.values()}
    assert ids == set(range(12))


def test_disconnected_with_euler_two_rejected():
    # a sphere next to a 7-vertex torus triangulation: every edge borders
    # two faces and the total Euler characteristic is 2, so only the
    # connectivity check can catch it
    faces = [["a", "b", "c"], ["a", "c", "d"], ["a", "d", "b"], ["b", "d", "c"]]
    for i in range(7):
        faces.append([f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"])
        faces.append([f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"])
    doc = {"name": "sphere+torus",
           "vertices": ["a", "b", "c", "d"] + [f"t{i}" for i in range(7)],
           "faces": faces}
    with pytest.raises(polytope.PolyhedronError, match="disconnected"):
        polytope.load_polyhedron(doc)


def test_not_three_connected_rejected():
    # both pass every other check (each edge borders two faces, chi = 2,
    # faces coherently oriented); Steinitz needs a 3-connected vertex graph
    two_triangles = {"name": "two triangles", "vertices": ["a", "b", "c"],
                     "faces": [["a", "b", "c"], ["c", "b", "a"]]}
    with pytest.raises(polytope.PolyhedronError, match="3-connected"):
        polytope.load_polyhedron(two_triangles)
    # three quadrilaterals between two poles: removing both poles
    # disconnects the three equator vertices
    pillow = {"name": "pillow", "vertices": ["n", "s", "a", "b", "c"],
              "faces": [["n", "a", "s", "b"], ["n", "b", "s", "c"],
                        ["n", "c", "s", "a"]]}
    with pytest.raises(polytope.PolyhedronError, match="n and s"):
        polytope.load_polyhedron(pillow)


def test_load_numbers_the_darts_once(monkeypatch):
    # validation reads the incidence, so the orientation check and every
    # later reader share one dart numbering
    calls = []
    build = polytope.build_incidence
    monkeypatch.setattr(polytope, "build_incidence",
                        lambda poly: calls.append(poly.name) or build(poly))
    cube = polytope.bundled("cube")
    assert calls == ["cube"]
    assert cube.incidence is cube.incidence
    assert calls == ["cube"]


# ---------------------------------------------------------------------------
# 3-connectivity: the face-pair rule against a vertex-cut search
# ---------------------------------------------------------------------------

def _disconnects(doc, cut):
    """Does removing the vertices `cut` disconnect the vertex graph?"""
    rest = set(doc["vertices"]) - set(cut)
    nbrs = {u: set() for u in rest}
    for face in doc["faces"]:
        for u, w in zip(face, face[1:] + face[:1]):
            if u in rest and w in rest:
                nbrs[u].add(w)
                nbrs[w].add(u)
    stack = list(rest)[:1]
    seen = set(stack)
    while stack:
        for nb in nbrs[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return seen != rest


def _oracle_cut(doc):
    """The first pair of vertices, in document order, whose removal
    disconnects the vertex graph, or None when it is 3-connected (given at
    least 4 vertices): an O(V^2 (V + E)) search that knows no faces."""
    return next((cut for cut in itertools.combinations(doc["vertices"], 2)
                 if _disconnects(doc, cut)), None)


def _bundled_doc(name):
    return json.loads((resources.files("hypdom.data") / f"{name}.json")
                      .read_text())


def _subdivided(doc):
    """`doc` with a new vertex "mid" on the first edge of its first face."""
    u, v = doc["faces"][0][:2]
    faces = []
    for face in doc["faces"]:
        n = len(face)
        at = next((i for i in range(n) if {face[i], face[(i + 1) % n]}
                   == {u, v}), None)
        faces.append(face if at is None
                     else face[:at + 1] + ["mid"] + face[at + 1:])
    return {"name": doc["name"] + "+mid", "vertices": doc["vertices"]
            + ["mid"], "faces": faces}


def _pillow(k):
    """k quadrilateral lunes between the poles n and s."""
    eq = [f"e{i}" for i in range(k)]
    return {"name": f"pillow{k}", "vertices": ["n", "s"] + eq,
            "faces": [["n", eq[i], "s", eq[(i + 1) % k]] for i in range(k)]}


# two diamonds u-x1-v-x2 with diagonal x1-x2, side by side: {u, v} is a
# 2-cut although every vertex has degree 3 or more
TWO_DIAMONDS = {"name": "two diamonds",
                "vertices": ["u", "a1", "a2", "b1", "b2", "v"],
                "faces": [["u", "a1", "a2"], ["a1", "v", "a2"],
                          ["u", "a2", "v", "b1"], ["u", "b1", "b2"],
                          ["b1", "v", "b2"], ["u", "b2", "v", "a1"]]}

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
CUT_CASES = [
    *(pytest.param(_bundled_doc(s), True, id=s) for s in SOLIDS),
    *(pytest.param(_subdivided(_bundled_doc(s)), False, id=f"{s}+mid")
      for s in SOLIDS),
    *(pytest.param(_pillow(k), False, id=f"pillow{k}") for k in range(2, 7)),
    *(pytest.param(prism_doc(n, flip), True, id=f"prism{n}{'-flipped' * flip}")
      for n in range(3, 8) for flip in (False, True)),
    *(pytest.param(bipyramid_doc(n), True, id=f"bipyramid{n}")
      for n in range(3, 8)),
    pytest.param(TWO_DIAMONDS, False, id="two-diamonds"),
]


def _relabelled(doc, seed):
    """`doc` with its vertices renamed and listed in a seeded order."""
    rng = random.Random(seed)
    names = [f"w{i}" for i in range(len(doc["vertices"]))]
    rng.shuffle(names)
    rename = dict(zip(doc["vertices"], names))
    rng.shuffle(names)
    return {"name": doc["name"], "vertices": names,
            "faces": [[rename[v] for v in face] for face in doc["faces"]]}


@pytest.mark.parametrize("doc, three_connected", CUT_CASES)
def test_face_pair_rule_matches_vertex_cut_search(doc, three_connected):
    # on a sphere map whose faces are simple cycles, 3-connectivity holds
    # exactly when any two faces meet in nothing, one vertex or one edge;
    # each rejection names a cut, in document order, that the search confirms
    for variant in [doc] + [_relabelled(doc, seed) for seed in range(3)]:
        assert (_oracle_cut(variant) is None) == three_connected
        if three_connected:
            polytope.load_polyhedron(variant)
            continue
        with pytest.raises(polytope.PolyhedronError,
                           match="not 3-connected") as err:
            polytope.load_polyhedron(variant)
        u, v = re.match(r"removing vertices (\S+) and (\S+) disconnects",
                        str(err.value)).groups()
        order = variant["vertices"]
        assert order.index(u) < order.index(v)
        assert _disconnects(variant, (u, v))
