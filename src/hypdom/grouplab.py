"""Word-level and counting restrictions linking relator shape to the scheme.

These are the machine-checkable shadows of the group-theoretic restrictions:
squared terms in relators against adjacent identified faces, size-3 classes
against short relators, the exact commutation test, and the edge-count
bound that forces commuting generators.  `restriction_report` gathers them
for one scheme into the document that `hypdom restrict` writes as it is.
Every restriction is about torsion-free orientable groups: no edge class
carries a cone order and no pairing keeps the face direction.
"""

import itertools

from . import geometry, pairings


def has_squared_term(words):
    """(flag, witnesses): some cyclic word repeats a signed letter adjacently."""
    witnesses = []
    for letters in words:
        n = len(letters)
        for i in range(n):
            if letters[i] == letters[(i + 1) % n]:
                witnesses.append((letters, i))
                break
    return bool(witnesses), tuple(witnesses)


def _is_y2z(letters):
    if len(letters) != 3:
        return False
    for i in range(3):
        a, b, c = letters[i], letters[(i + 1) % 3], letters[(i + 2) % 3]
        if a == b and c != a:
            return True
    return False


def commutes(g1, g2):
    """True iff g1 g2 and g2 g1 are the same map (projectively equal)."""
    return geometry.projective_distance(g1.compose(g2), g2.compose(g1)) == 0


def edge_bound_check(poly):
    """E <= 2V; when false, any torsion-free domain on this polyhedron must
    have a pair of commuting generators."""
    return poly.edge_count() <= 2 * poly.vertex_count()


def parity_check(orbits, words, poly):
    """When no word has a squared term, every orbit size and the global edge
    and vertex counts must be even; returns that verdict (vacuously true
    when a squared term exists).

    An open case: False on no cube survivor, but on one octahedron family
    of 12 survivors, class sizes 3, 3, 6, Rivin-feasible and outside the
    regular realization's scope; a shape solve of its non-regular
    realizations would decide it."""
    squared, _ = has_squared_term(words)
    if squared:
        return True
    sizes_even = all(o.size % 2 == 0 for o in orbits)
    return sizes_even and poly.edge_count() % 2 == 0 and poly.vertex_count() % 2 == 0


def adjacent_identified_sharing_edge(scheme):
    """Some pairing identifies two faces that share an edge."""
    inc = scheme.poly.incidence
    for p in scheme.pairings:
        if set(inc.face_edge_cycle[p.source]) & set(inc.face_edge_cycle[p.target]):
            return True
    return False


def restriction_report(scheme, generators=None):
    """The `hypdom restrict` document of one scheme: its size-3 class,
    YYZ relator, squared-term count, adjacent-identification, edge-bound
    and parity verdicts, and, given the generator maps (symbol ->
    MobiusMap), each commuting pair of symbols in sorted order
    (`commuting_generator_pairs`, None without the maps).

    'Some class has size 3' and 'some relator has shape YYZ' are two
    flags, not one: they can genuinely disagree, since a 3-class can read
    three distinct letters."""
    poly = scheme.poly
    orbits = pairings.edge_orbits(scheme)
    words = tuple(pairings.relator_word(o) for o in orbits)
    commuting = None
    if generators is not None:
        commuting = [[s, t] for s, t in
                     itertools.combinations(sorted(generators), 2)
                     if commutes(generators[s], generators[t])]
    return {
        "has_size3_class": any(o.size == 3 for o in orbits),
        "has_y2z_relator": any(_is_y2z(w) for w in words),
        "squared_terms": len(has_squared_term(words)[1]),
        "adjacent_identified_sharing_edge":
            adjacent_identified_sharing_edge(scheme),
        "edge_bound_ok": edge_bound_check(poly),
        "parity_ok": parity_check(orbits, words, poly),
        "commuting_generator_pairs": commuting,
    }
