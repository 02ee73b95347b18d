import itertools

import pytest

from hypdom import polytope

from conftest import DRAWN_EDGES


def test_cube_counts(cube):
    assert cube.vertex_count() == 8
    assert cube.edge_count() == 12
    assert cube.face_count() == 6


def test_tetrahedron_counts(solids):
    t = solids["tetrahedron"]
    assert (t.vertex_count(), t.edge_count(), t.face_count()) == (4, 6, 4)


def test_parse_error():
    with pytest.raises(polytope.PolyhedronError):
        polytope.load_polyhedron("{not json")


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


def test_tetrahedron_self_dual(solids):
    t = solids["tetrahedron"]
    d = polytope.dual_polyhedron(t)
    assert (d.vertex_count(), d.edge_count(), d.face_count()) == (4, 6, 4)


def test_dodecahedron_dual_is_icosahedron(solids):
    d = polytope.dual_polyhedron(solids["dodecahedron"])
    assert (d.vertex_count(), d.edge_count(), d.face_count()) == (12, 30, 20)
    inc = polytope.build_incidence(d)
    degrees = sorted(len(inc.vertex_edges[v]) for v in d.vertices)
    assert degrees == [5] * 12
    assert sorted(len(f) for f in d.faces) == [3] * 20


def test_dual_of_dual_reconstructs(solids):
    for poly in solids.values():
        dd = polytope.dual_polyhedron(polytope.dual_polyhedron(poly))
        assert polytope.isomorphic_to(poly, dd), poly.name


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


def test_circuit_cap(cube_dual):
    with pytest.raises(polytope.CircuitCapExceeded):
        polytope.simple_circuits(cube_dual, cap=5)


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
