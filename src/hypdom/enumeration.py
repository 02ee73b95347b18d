"""Exhaustive face-pairing search and the torsion-free candidate pipeline.

classify() streams every scheme through cheap structural filters first
(elliptic detection, class count, class size), then the exact angle solve
and the strict Rivin feasibility test, memoized per edge partition.
Survivors are grouped into families under both the rotation subgroup and
the full symmetry group.
"""

import itertools
import string
from dataclasses import dataclass, field

from . import angles, pairings, polytope


class EnumerationError(ValueError):
    """The polyhedron cannot be enumerated (odd face count, unmatchable)."""


class SchemeCapExceeded(RuntimeError):
    """The scheme space is past desk scale."""


DEFAULT_SCHEME_CAP = 200000


@dataclass(frozen=True)
class CandidateDomain:
    scheme: pairings.PairingScheme
    orbits: tuple
    words: tuple
    solution: angles.SolutionSet
    witness: angles.AngleAssignment
    census: pairings.QuotientCensus
    key_rotations: bytes
    key_full: bytes

    @property
    def class_sizes(self):
        return tuple(sorted(o.size for o in self.orbits))


@dataclass
class EnumerationReport:
    total: int = 0
    rejected: dict = field(default_factory=dict)
    survivors: list = field(default_factory=list)
    families_full: dict = field(default_factory=dict)
    families_rotations: dict = field(default_factory=dict)

    def counts_consistent(self):
        return self.total == sum(self.rejected.values()) + len(self.survivors)


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for rest_match in _perfect_matchings(rest):
            yield [(first, items[i])] + rest_match


def _reversing_correspondences(poly, f1, f2):
    c1, c2 = poly.faces[f1], poly.faces[f2]
    rev = list(reversed(c2))
    n = len(c1)
    return [{c1[i]: rev[(i + k) % n] for i in range(n)} for k in range(n)]


def scheme_space_size(poly):
    """Closed-form count: faces can only pair within equal-length groups;
    a group of n same-length L faces contributes (n-1)!! matchings with L
    orientation-reversing correspondences per pair."""
    faces = list(range(poly.face_count()))
    if len(faces) % 2 != 0:
        raise EnumerationError(f"odd face count {len(faces)}")
    groups = {}
    for fid in faces:
        groups.setdefault(len(poly.faces[fid]), []).append(fid)
    total = 1
    for length, members in groups.items():
        n = len(members)
        if n % 2 != 0:
            return 0
        double_fact = 1
        for k in range(n - 1, 0, -2):
            double_fact *= k
        total *= double_fact * length ** (n // 2)
    return total


def enumerate_schemes(poly, cap=DEFAULT_SCHEME_CAP):
    """Every perfect matching of faces crossed with every orientation-
    reversing boundary correspondence per pair, exactly once each."""
    faces = list(range(poly.face_count()))
    if len(faces) % 2 != 0:
        raise EnumerationError(f"odd face count {len(faces)}")
    if scheme_space_size(poly) > cap:
        raise SchemeCapExceeded(
            f"{scheme_space_size(poly)} schemes exceeds cap {cap}")
    symbols = string.ascii_uppercase
    for matching in _perfect_matchings(faces):
        if any(len(poly.faces[f1]) != len(poly.faces[f2]) for f1, f2 in matching):
            continue
        per_pair = [_reversing_correspondences(poly, f1, f2) for f1, f2 in matching]
        for combo in itertools.product(*[range(len(c)) for c in per_pair]):
            ps = tuple(
                pairings.make_pairing(poly, symbols[t], matching[t][0],
                                      matching[t][1], per_pair[t][combo[t]])
                for t in range(len(matching)))
            yield pairings.PairingScheme(poly, ps)


def classify(poly, circuit_cap=polytope.DEFAULT_CIRCUIT_CAP,
             scheme_cap=DEFAULT_SCHEME_CAP):
    """Run the full candidate pipeline and group survivors by symmetry."""
    inc = polytope.build_incidence(poly)
    dual = polytope.build_dual(poly, inc)
    required = angles.required_class_count(poly)
    autos = pairings.symmetry_group(poly)
    # edge-id permutation per automorphism, to pool angle systems that are
    # symmetry images of each other
    edge_perms = []
    for vmap, _ in autos:
        perm = tuple(inc.edge_id(*(vmap[v] for v in inc.edges[eid]))
                     for eid in range(len(inc.edges)))
        edge_perms.append(perm)

    def canonical_partition(partition):
        best = None
        for perm in edge_perms:
            image = frozenset(frozenset(perm[e] for e in cl)
                              for cl in partition)
            key = tuple(sorted(tuple(sorted(cl)) for cl in image))
            if best is None or key < best[0]:
                best = (key, perm)
        return best

    report = EnumerationReport()
    rejected = report.rejected
    for key in ("elliptic", "class_count", "class_size",
                "system_infeasible", "rivin_infeasible"):
        rejected[key] = 0
    partition_cache = {}
    canon_cache = {}
    for scheme in enumerate_schemes(poly, cap=scheme_cap):
        report.total += 1
        pairings.validate_scheme(scheme)
        if pairings.detect_elliptic_generator(scheme, inc):
            rejected["elliptic"] += 1
            continue
        orbits = pairings.edge_orbits(scheme, inc)
        if len(orbits) != required:
            rejected["class_count"] += 1
            continue
        if any(o.size < 3 for o in orbits):
            rejected["class_size"] += 1
            continue
        partition = frozenset(frozenset(o.edges) for o in orbits)
        if partition not in partition_cache:
            # the strict-feasibility verdict is symmetry-invariant: run the
            # expensive elimination once per canonical partition and pull
            # the witness back through the canonicalizing edge permutation
            key, perm = canonical_partition(partition)
            if key not in canon_cache:
                canon_classes = [set(cl) for cl in key]
                canon_system = angles.assemble_system(poly, canon_classes, inc)
                canon_cache[key] = angles.feasible(
                    canon_system, dual, cap=circuit_cap)
            canon_solution, canon_witness = canon_cache[key]
            # a rejected partition keeps its canonical image's solution set:
            # only its status, which the symmetry preserves, is read
            record = (canon_solution, None)
            if canon_witness is not None:
                system = angles.assemble_system(
                    poly, [set(p) for p in sorted(partition, key=sorted)], inc)
                solution = angles.solve_exact(system)
                witness = angles.AngleAssignment(
                    {eid: canon_witness.values[perm[eid]]
                     for eid in range(len(inc.edges))})
                if not solution.contains(witness.values):
                    raise AssertionError("witness pull-back failed")
                record = (solution, witness)
            partition_cache[partition] = record
        solution, witness = partition_cache[partition]
        if solution.status == "infeasible":
            rejected["system_infeasible"] += 1
            continue
        if witness is None:
            rejected["rivin_infeasible"] += 1
            continue
        words = tuple(pairings.relator_word(o) for o in orbits)
        census = pairings.quotient_census(scheme, orbits, inc)
        candidate = CandidateDomain(
            scheme=scheme,
            orbits=tuple(orbits),
            words=words,
            solution=solution,
            witness=witness,
            census=census,
            key_rotations=pairings.canonicalize(scheme, "rotations", autos),
            key_full=pairings.canonicalize(scheme, "all", autos),
        )
        report.survivors.append(candidate)
    report.survivors.sort(key=lambda c: (c.key_full, c.key_rotations))
    for cand in report.survivors:
        report.families_full.setdefault(cand.key_full, []).append(cand)
        report.families_rotations.setdefault(cand.key_rotations, []).append(cand)
    return report


# ---------------------------------------------------------------------------
# Candidate persistence
# ---------------------------------------------------------------------------

def candidate_to_json_dict(candidate):
    return {
        "scheme": pairings.scheme_to_json_dict(candidate.scheme),
        "orbits": [[list(step[:2]) + [list(step[2])] for step in o.steps]
                   for o in candidate.orbits],
        "words": [[[g, s] for g, s in w.letters] for w in candidate.words],
        "class_sizes": list(candidate.class_sizes),
        "witness": candidate.witness.to_json_dict(),
        "census": {
            "V": candidate.census.vertex_classes,
            "E": candidate.census.edge_classes,
            "F": candidate.census.face_classes,
            "P": candidate.census.interiors,
            "q": candidate.census.euler,
        },
        "key_rotations": candidate.key_rotations.decode(),
        "key_full": candidate.key_full.decode(),
    }


def candidate_from_json_dict(poly, doc):
    """Rebuild a candidate from its persisted scheme, re-deriving the rest,
    and check its persisted witness exactly instead of searching again."""
    scheme = pairings.scheme_from_json_dict(poly, doc["scheme"])
    inc = polytope.build_incidence(poly)
    dual = polytope.build_dual(poly, inc)
    orbits = pairings.edge_orbits(scheme, inc)
    words = tuple(pairings.relator_word(o) for o in orbits)
    system = angles.assemble_system(poly, [set(o.edges) for o in orbits], inc)
    solution = angles.solve_exact(system)
    witness = _checked_witness(poly, inc, dual, solution, doc.get("witness"))
    census = pairings.quotient_census(scheme, orbits, inc)
    autos = pairings.symmetry_group(poly)
    return CandidateDomain(
        scheme=scheme, orbits=tuple(orbits), words=words,
        solution=solution, witness=witness, census=census,
        key_rotations=pairings.canonicalize(scheme, "rotations", autos),
        key_full=pairings.canonicalize(scheme, "all", autos),
    )


def _checked_witness(poly, inc, dual, solution, raw):
    """The persisted witness, if it is one: a value in (0, 1) on every edge
    id, a solution of the scheme's own angle system, and strictly inside
    every non-facial circuit inequality."""
    if not isinstance(raw, dict):
        raise EnumerationError("candidate has no persisted witness")
    if set(raw) != {str(eid) for eid in range(len(inc.edges))}:
        raise EnumerationError("witness keys are not the edge ids")
    try:
        witness = angles.AngleAssignment.from_json_dict(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise EnumerationError(f"witness is not valid: {exc}") from exc
    if not solution.contains(witness.values):
        raise EnumerationError("witness does not solve the angle system")
    ok, failures = angles.check_inequalities(poly, dual, witness)
    if not ok:
        kind, where, value = failures[0]
        raise EnumerationError(
            f"witness fails the strict Rivin {kind} inequality at {where}: "
            f"{value}")
    return witness


def report_to_json_dict(report):
    families_full = []
    for key, members in sorted(report.families_full.items()):
        families_full.append({
            "size": len(members),
            "class_sizes": list(members[0].class_sizes),
            "rotation_classes": len({m.key_rotations for m in members}),
        })
    return {
        "total_schemes": report.total,
        "rejected": dict(sorted(report.rejected.items())),
        "survivors": len(report.survivors),
        "families_full_group": families_full,
        "families_rotation_group": len(report.families_rotations),
    }
