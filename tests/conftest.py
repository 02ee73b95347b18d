import math
from fractions import Fraction

import pytest

from hypdom import domains, enumeration, geometry, polytope

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="session")
def solids():
    return {name: polytope.bundled(name)
            for name in ("tetrahedron", "cube", "octahedron",
                         "dodecahedron", "icosahedron")}


@pytest.fixture(scope="session")
def cube(solids):
    return solids["cube"]


@pytest.fixture(scope="session")
def cube_inc(cube):
    return polytope.build_incidence(cube)


@pytest.fixture(scope="session")
def cube_dual(cube, cube_inc):
    return polytope.build_dual(cube, cube_inc)


@pytest.fixture(scope="session")
def cube_report(cube):
    """The exhaustive cube classification, computed once per session; the
    report and its survivors are shared, so tests must not mutate them."""
    return enumeration.classify(cube)


@pytest.fixture(scope="session")
def fd1(cube):
    return domains.opposite_quarter_twist(cube)


@pytest.fixture(scope="session")
def fd1_mirror(cube):
    return domains.opposite_quarter_twist(cube, mirror=True)


@pytest.fixture(scope="session")
def fd2(cube):
    return domains.adjacent_mixed_twist(cube)


@pytest.fixture(scope="session")
def fd3u(cube):
    """The third surviving family: uniform quarter twists on the adjacent
    matching."""
    return domains.adjacent_uniform_twist(cube)


@pytest.fixture(scope="session")
def realization(cube):
    return geometry.regular_cube_realization(cube)


def classes_by_pairs(inc, pairs):
    """Set of edge ids from a list of vertex-name pairs."""
    return {inc.edge_id(u, v) for u, v in pairs}


# The standard drawing's edge numbering, as vertex pairs: 1 front-bottom,
# 2 bottom-left, 3 bottom-right, 4 back-bottom, 5 front-top, 6 top-left,
# 7 top-right, 8 back-top, 9 front-left, 10 front-right, 11 back-right,
# 12 back-left.
DRAWN_EDGES = {
    1: ("FBL", "FBR"), 2: ("BBL", "FBL"), 3: ("BBR", "FBR"),
    4: ("BBL", "BBR"), 5: ("FTL", "FTR"), 6: ("BTL", "FTL"),
    7: ("FTR", "BTR"), 8: ("BTL", "BTR"), 9: ("FTL", "FBL"),
    10: ("FTR", "FBR"), 11: ("BTR", "BBR"), 12: ("BTL", "BBL"),
}


def drawn(inc, numbers):
    return {inc.edge_id(*DRAWN_EDGES[n]) for n in numbers}


# the two edge classes of the quarter-twist opposite-face scheme, and of its
# mirror, in drawing numbers
FD1_CLASSES = ({1, 3, 7, 8, 9, 12}, {2, 4, 5, 6, 10, 11})
FD1_MIRROR_CLASSES = ({1, 2, 6, 8, 10, 11}, {3, 4, 5, 7, 9, 12})
FD2_CLASSES = ({1, 2, 7, 8, 9, 11}, {3, 4, 5, 6, 10, 12})

# exterior dihedral angles of the non-regular 5-7 assignment in the drawing
FIVE_SEVEN_CLASSES = ({2, 5, 6, 10, 11}, {1, 3, 4, 7, 8, 9, 12})
FIVE_SEVEN_ANGLES = {
    1: Fraction(3, 5), 2: Fraction(3, 5), 3: Fraction(4, 5),
    4: Fraction(3, 5), 5: Fraction(3, 5), 6: Fraction(3, 5),
    7: Fraction(4, 5), 8: Fraction(3, 5), 9: Fraction(4, 5),
    10: Fraction(3, 5), 11: Fraction(3, 5), 12: Fraction(4, 5),
}


def reference_generators():
    """Closed forms of the three quarter-twist opposite-face generators on
    the regular ideal cube (front-to-back, left-to-right, top-to-bottom)."""
    A = geometry.MobiusMap(1j - SQRT3, 4, 1, 1j - SQRT3)
    B = geometry.MobiusMap(1 - SQRT3 * 1j, 4, -1, 1 - SQRT3 * 1j)
    C = geometry.MobiusMap((1 - SQRT3) * (1 - 1j), 0, 0, -(1 + SQRT3) * (1 + 1j))
    return {"A": A, "B": B, "C": C}


def reference_adjacent_generators():
    """Closed forms for the mixed adjacent-twist scheme: P front-to-back,
    Q top-to-left, R right-to-bottom."""
    P = geometry.MobiusMap(2 * (1 + 1j), -4 * SQRT3 * (1 + 1j),
                           -SQRT3 * (1 + 1j), 2 * (1 + 1j))
    Q = geometry.MobiusMap((2 + 2 * SQRT3) + 1j * (-2 + 2 * SQRT3),
                           (20 + 12 * SQRT3) + 1j * (4 + 4 * SQRT3),
                           (SQRT3 - 1) + 1j * (-1 - SQRT3),
                           (-2 * SQRT3 - 2) + 1j * (10 + 6 * SQRT3))
    R = geometry.MobiusMap((10 * SQRT3 - 18) + (6 * SQRT3 - 10) * 1j,
                           (-12 * SQRT3 + 20) + (20 * SQRT3 - 36) * 1j,
                           (SQRT3 - 3) + (-1 + SQRT3) * 1j,
                           (2 * SQRT3 - 2) + (6 - 2 * SQRT3) * 1j)
    return {"P": P, "Q": Q, "R": R}
