"""Exhaustive face-pairing search and the torsion-free candidate pipeline.

classify() composes three stages: the structural stream of schemes
(`scheme_stream`), the angle verdict per edge partition (`angle_record`)
and the family keys of each survivor (`family_keys`).
"""

import collections
import functools
import itertools
import math
import operator
import string
from fractions import Fraction

from . import angles, pairings, polytope


class EnumerationError(ValueError):
    """The polyhedron cannot be enumerated (odd face count, unmatchable)."""


class SchemeCapExceeded(RuntimeError):
    """The scheme space is larger than DEFAULT_SCHEME_CAP."""


DEFAULT_SCHEME_CAP = 200000


class CandidateDomain(collections.namedtuple(
        "CandidateDomain", "scheme orbits witness key_rotations key_full")):
    """A surviving scheme (a PairingScheme) with its edge orbits (a tuple
    of EdgeOrbits), a strict witness of its angle system (an
    AngleAssignment) and its canonical keys under the rotations and the
    full group (strings); the rest, the angle system (one class row per
    orbit) among it, is derived from the scheme and the orbits when read,
    and cached in the instance dict."""

    @property
    def class_sizes(self):
        return tuple(sorted(o.size for o in self.orbits))

    @functools.cached_property
    def system(self):
        return angles.assemble_system(self.scheme.poly,
                                      [set(o.edges) for o in self.orbits])

    @functools.cached_property
    def words(self):
        return tuple(pairings.relator_word(o) for o in self.orbits)

    @functools.cached_property
    def census(self):
        return pairings.quotient_census(self.scheme, self.orbits)


REJECTIONS = ("elliptic", "class_count", "class_size", "system_infeasible",
              "rivin_infeasible")


class EnumerationReport:
    """What `classify` found, filled in as it runs: the total scheme
    count, the rejection count per filter (keyed by REJECTIONS), the
    surviving CandidateDomains sorted by (full-group key, rotation-group
    key), and in `families_full` the survivors grouped by full-group key,
    keys inserted in sorted order, the order in which every output lists
    the families; each rotation class lies inside one of them."""

    def __init__(self):
        self.total = 0
        self.rejected = dict.fromkeys(REJECTIONS, 0)
        self.survivors = []
        self.families_full = {}

    def counts_consistent(self):
        return self.total == sum(self.rejected.values()) + len(self.survivors)


def _perfect_matchings(items, moves):
    """Each perfect matching of `items` whose every pair (item, later item)
    is a key of `moves`, first item first."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        if (first, items[i]) not in moves:
            continue
        rest = items[1:i] + items[i + 1:]
        for rest_match in _perfect_matchings(rest, moves):
            yield [(first, items[i])] + rest_match


def scheme_space_size(poly):
    """Closed-form count: faces can only pair within equal-length groups;
    a group of n same-length L faces contributes (n-1)!! matchings with L
    orientation-reversing correspondences per pair."""
    if poly.face_count() % 2 != 0:
        raise EnumerationError(f"odd face count {poly.face_count()}")
    groups = collections.Counter(map(len, poly.faces))
    if any(n % 2 for n in groups.values()):
        return 0
    return math.prod(math.prod(range(n - 1, 0, -2)) * length ** (n // 2)
                     for length, n in groups.items())


def _check_scheme_space(poly):
    size = scheme_space_size(poly)
    if size > DEFAULT_SCHEME_CAP:
        raise SchemeCapExceeded(
            f"{size} schemes exceeds cap {DEFAULT_SCHEME_CAP}")
    return size


def _pairing_table(poly):
    """Each pair of equal-length faces (f1, f2), f1 < f2, with the list of
    its non-elliptic correspondences as (corr, `pairings.pairing_darts`
    moves); a correspondence is elliptic when one of its moves fixes its
    dart.  A pair's moves do not depend on the matching, so each pairing
    is compiled once per polyhedron."""
    table = {}
    for f1, f2 in itertools.combinations(range(poly.face_count()), 2):
        if len(poly.faces[f1]) != len(poly.faces[f2]):
            continue
        kept = table[f1, f2] = []
        for corr in pairings.reversing_correspondences(poly, f1, f2):
            p = pairings.make_pairing(None, f1, f2, corr)
            moves = pairings.pairing_darts(poly, p)
            if all(nxt != dart for first, ids in moves
                   for dart, nxt in enumerate(ids, first)):
                kept.append((p.corr, moves))
    return table


def _carried_indices(table, representative, action, matching, passing):
    """The index tuples, on `matching`, of the images under `action` of the
    representative matching's passing schemes (index tuples `passing`),
    read through one map, built once per matching, from each (slot,
    index) of the representative that they use to the (slot, index) of
    its `pairings.pair_image`.  An image correspondence missing from its
    pair's table list raises AssertionError."""
    slot = {pair: j for j, pair in enumerate(matching)}
    moved = {}
    for r, i in {entry for index in passing for entry in enumerate(index)}:
        f1, f2 = representative[r]
        src, tgt, image = pairings.pair_image(action, f1, f2,
                                              table[f1, f2][i][0])
        found = [k for k, (corr, _) in enumerate(table[src, tgt])
                 if corr == image]
        if not found:
            raise AssertionError("a symmetry's image of a non-elliptic "
                                 "pairing is not in the pairing table")
        moved[r, i] = slot[src, tgt], found[0]
    for index in passing:
        image = [None] * len(matching)
        for entry in enumerate(index):
            j, image[j] = moved[entry]
        yield tuple(image)


def scheme_stream(poly, report, actions):
    """Each scheme past the structural filters, as (chosen pairings, edge
    orbits), matching by matching in `_perfect_matchings` order, the pairs
    of a matching named A, B, C, ... in turn, the schemes of a matching in
    `itertools.product` order over its pairs' lists in `_pairing_table`;
    `report.total` and the elliptic, class-count and class-size rejections
    are counted as it goes.  `actions` are the solid's `Action`s, each
    checked by `classify` to map the vertex set of face f onto that of
    face faces[f].

    Elliptic pairings (a dart move fixes its dart: a rotation about an
    edge) are dropped from the pairing table before the product, the
    schemes they remove counted in closed form.  The class filters (the
    class count, then the class size) are invariant under the actions,
    so they are decided once per orbit of matchings under the face
    permutations.  One walk serves every matching: each scheme it picks
    has its moves written into one reused table and its dart cycles
    walked and filtered, and only a scheme that passes gets named
    pairings and orbit steps.  The orbit's first matching, its
    representative, picks every scheme and then publishes its rejection
    counts and passing index tuples under each action's image of it.  A
    later member picks only the images of those passing schemes, pair by
    pair (`pairings.pair_image`), in product order, and takes the
    representative's counts; a picked scheme that fails a filter, or
    whose image pairing is not in the table, raises AssertionError.
    """
    required = angles.required_class_count(poly)
    rejected = report.rejected
    table = _pairing_table(poly)
    nxt = [None] * len(poly.incidence.dart_edge)  # the scheme's moves
    # a face pair's key is the mask 1 << f1 | 1 << f2, the same in either
    # direction, and a matching's the set of its pairs' keys; each action's
    # face masks are listed once
    masks = [[1 << f for f in action.faces] for action in actions]
    # matching image's key -> (representative, action, the representative's
    # rejection counts and passing index tuples)
    carried = {}

    @functools.cache
    def pairing(symbol, pair, i):
        """The pairing in one slot: frozen, so schemes share it."""
        return pairings.FacePairing(symbol, *pair, table[pair][i][0])

    for matching in _perfect_matchings(list(range(poly.face_count())), table):
        kept = [table[pair] for pair in matching]
        built = math.prod(len(poly.faces[f1]) for f1, _ in matching)
        report.total += built
        rejected["elliptic"] += built - math.prod(map(len, kept))
        found = carried.get(frozenset(1 << f1 | 1 << f2
                                      for f1, f2 in matching))
        if found is None:
            counts = collections.Counter()
            indices = itertools.product(*(range(len(k)) for k in kept))
        else:
            representative, action, counts, passing = found
            indices = sorted(_carried_indices(table, representative, action,
                                              matching, passing))
        passed = []
        for index in indices:
            for i, pairs in zip(index, kept):
                for first, ids in pairs[i][1]:
                    nxt[first:first + len(ids)] = ids
            cycles = pairings.dart_cycles(poly, nxt)
            shortest = min(map(len, cycles))
            if shortest == 1:
                raise AssertionError("an elliptic pairing passed the filter")
            failed = ("class_count" if len(cycles) != required
                      else "class_size" if shortest < 3 else None)
            if failed and found:
                raise AssertionError(
                    f"a carried scheme failed the {failed} filter")
            if failed:
                counts[failed] += 1
                continue
            passed.append(index)
            chosen = tuple(map(pairing, string.ascii_uppercase, matching,
                               index))
            yield chosen, pairings.cycle_orbits(poly, cycles, chosen)
        if found is None:
            for action, mask in zip(actions, masks):
                carried.setdefault(frozenset(mask[f1] | mask[f2]
                                             for f1, f2 in matching),
                                   (matching, action, counts, passed))
        for name, n in counts.items():
            rejected[name] += n


def angle_record(poly, dual, actions, records, partition):
    """(status, witness) of an edge partition, the strict witness None when
    the Rivin region is empty, kept in `records` (partition -> pair).  The
    verdict is symmetry-invariant: a partition that an edge permutation
    perm of `actions` (each checked by `classify` to carry the vertex
    stars onto themselves) sends onto a recorded one takes its status,
    the witness read through perm, edge e taking the angle of perm[e]
    (built by `_make`, unchecked: its values are the recorded witness's,
    already checked); only a partition with no recorded image runs
    `angles.feasible` on its own system and the dual graph `dual` of
    `poly`.
    """
    if partition in records:
        return records[partition]
    for action in actions:
        perm = action.edges
        image = frozenset(frozenset(perm[e] for e in cl) for cl in partition)
        if image in records:
            status, witness = records[image]
            if witness is not None:
                witness = angles.AngleAssignment._make(
                    ({e: witness.values[perm[e]] for e in range(len(perm))},))
            break
    else:
        solution, witness = angles.feasible(angles.assemble_system(
            poly, [set(cl) for cl in sorted(partition, key=sorted)]), dual)
        status = solution.status
    records[partition] = (status, witness)
    return records[partition]


def family_keys(scheme, actions, identity, keys):
    """(rotation-group key, full-group key) of a survivor from `keys`, the
    image table (signature -> keys) of the families seen: a family's first
    survivor adds all its images in one `pairings.image_keys` pass, and
    later members look up their own signature at the `identity` action."""
    sig = pairings.signature(scheme, identity)
    if sig not in keys:
        keys.update(pairings.image_keys(scheme, actions))
    return keys[sig]


def classify(poly):
    """The three stages composed, the survivors grouped into families under
    the rotations and the full symmetry group; the counts must sum up.  The
    dual graph is built once, for every `angles.feasible` call; no circuit
    list is built.  Each action's edge permutation must carry the set of
    vertex stars onto itself, so that it carries every partition's vertex
    rows, class rows and dual circuits onto its image's and `angle_record`
    may read a witness through it; and its face permutation must agree
    with its vertex map, so that `scheme_stream` may carry a matching's
    passing schemes onto its images."""
    # class count, face count and scheme cap first, and an empty scheme
    # space answered, before the dual and the symmetries are built
    angles.required_class_count(poly)
    report = EnumerationReport()
    if _check_scheme_space(poly) == 0:
        return report
    dual = polytope.build_dual(poly)
    actions = pairings.automorphism_actions(poly)
    identity = next(a for a in actions
                    if all(u == v for u, v in a.vmap.items()))
    stars = set(poly.incidence.vertex_edges.values())
    faces = [set(face) for face in poly.faces]
    for action in actions:
        perm, vmap = action.edges, action.vmap
        if {frozenset(perm[e] for e in star) for star in stars} != stars:
            raise AssertionError("an action does not carry the vertex stars "
                                 "onto themselves")
        if any({vmap[v] for v in face} != faces[image]
               for face, image in zip(faces, action.faces)):
            raise AssertionError("an action's face permutation does not "
                                 "agree with its vertex map")
    records, keys = {}, {}
    for chosen, orbits in scheme_stream(poly, report, actions):
        status, witness = angle_record(
            poly, dual, actions, records,
            frozenset(frozenset(o.edges) for o in orbits))
        if witness is None:
            report.rejected["system_infeasible" if status == "infeasible"
                            else "rivin_infeasible"] += 1
            continue
        scheme = pairings.PairingScheme(poly, chosen)
        report.survivors.append(CandidateDomain(
            scheme, tuple(orbits), witness,
            *family_keys(scheme, actions, identity, keys)))
    if not report.counts_consistent():
        raise AssertionError("report counts do not sum to the total")
    report.survivors.sort(key=operator.attrgetter("key_full", "key_rotations"))
    for cand in report.survivors:
        report.families_full.setdefault(cand.key_full, []).append(cand)
    return report


# ---------------------------------------------------------------------------
# Candidate persistence
# ---------------------------------------------------------------------------

def candidate_to_json_dict(candidate):
    return {
        "scheme": pairings.scheme_to_json_dict(candidate.scheme),
        "orbits": [o.steps for o in candidate.orbits],
        "words": candidate.words,
        "class_sizes": list(candidate.class_sizes),
        "witness": candidate.witness.to_json_dict(),
        "census": candidate.census,
        "key_rotations": candidate.key_rotations,
        "key_full": candidate.key_full,
    }


def candidate_scheme(poly, doc):
    """The pairing scheme of a persisted candidate document."""
    if not isinstance(doc, dict) or "scheme" not in doc:
        raise EnumerationError("candidate document has no 'scheme'")
    return pairings.scheme_from_json_dict(poly, doc["scheme"])


def candidate_from_json_dict(poly, doc):
    """Rebuild a candidate from its persisted scheme, re-deriving the rest,
    and check its persisted witness exactly instead of searching again.
    The check reads the candidate's own angle system, so that system is
    assembled once, here, after the cheap checks, and kept for `angles`
    and `verify`.  The canonical keys are taken as persisted: no caller
    of a reloaded candidate groups it into families."""
    scheme = candidate_scheme(poly, doc)
    witness = _parsed_witness(poly, doc.get("witness"))
    keys = [doc.get(name) for name in ("key_rotations", "key_full")]
    if not all(isinstance(key, str) for key in keys):
        raise EnumerationError(
            "candidate has no string 'key_rotations' and 'key_full'")
    cand = CandidateDomain(scheme, tuple(pairings.edge_orbits(scheme)),
                           witness, *keys)
    _check_witness(cand)
    return cand


def _parsed_witness(poly, raw):
    """The persisted witness, if it is one: a value in (0, 1) on every edge
    id."""
    if not isinstance(raw, dict):
        raise EnumerationError("candidate has no persisted witness")
    if set(raw) != {str(eid) for eid in range(poly.edge_count())}:
        raise EnumerationError("witness keys are not the edge ids")
    try:
        return angles.AngleAssignment.from_json_dict(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise EnumerationError(f"witness is not valid: {exc}") from exc


def _check_witness(cand):
    """Check that the candidate's witness solves its own angle system and
    lies strictly inside every non-facial circuit inequality.  The last is
    checked over the witness's common denominator D: a circuit whose
    D-scaled sum is below 2D + 1 (`angles.light_cycles`) sums to at most
    2."""
    values = cand.witness.values
    if not angles.satisfies(cand.system, values):
        raise EnumerationError("witness does not solve the angle system")
    scaled, den = angles.common_denominator(values.values())
    weight = dict(zip(values, scaled))
    light = angles.light_cycles(polytope.build_dual(cand.scheme.poly), weight,
                                2 * den + 1)
    if light:
        total = Fraction(sum(weight[eid] for eid in light[0]), den)
        raise EnumerationError("witness fails the strict Rivin circuit "
                               f"inequality at {light[0]}: {total}")


def report_to_json_dict(report):
    families_full = [{
        "size": len(members),
        "class_sizes": list(members[0].class_sizes),
        "rotation_classes": len({m.key_rotations for m in members}),
    } for members in report.families_full.values()]
    return {
        "total_schemes": report.total,
        "rejected": dict(report.rejected),
        "survivors": len(report.survivors),
        "families_full_group": families_full,
        "families_rotation_group": sum(family["rotation_classes"]
                                       for family in families_full),
    }
