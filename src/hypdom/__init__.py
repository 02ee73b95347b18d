"""hypdom: torsion-free fundamental domain search on abstract polyhedra."""

from .polytope import (AbstractPolyhedron, DualGraph, IncidenceData,
                       PolyhedronError, build_dual, build_incidence, bundled,
                       load_polyhedron, simple_circuits)
from .angles import (AngleAssignment, LinearSystem, SolutionSet,
                     assemble_system, check_inequalities, feasible,
                     required_class_count, satisfies, solve_exact)
from .pairings import (EdgeOrbit, FacePairing, PairingScheme, SchemeError,
                       edge_orbits, image_keys, quotient_census, relator_word,
                       twist_pairing, validate_scheme, vertex_orbits)
from .enumeration import CandidateDomain, EnumerationReport, classify
from .geometry import (INF, MobiusMap, Z3i, classify_element,
                       face_pairing_maps, load_realization,
                       mobius_from_triples, relator_product,
                       verify_candidate, verify_words)
from .grouplab import (commutes, edge_bound_check, has_squared_term,
                       parity_check, restriction_report)

__all__ = [name for name in dir() if not name.startswith("_")]
