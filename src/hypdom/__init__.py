"""hypdom: torsion-free fundamental domain search on abstract polyhedra.
The package exports nothing: each name is imported from its own module."""
