"""Reference face-identification schemes on the bundled cube.

These are the three inequivalent schemes that survive the full torsion-free
candidate pipeline on the cube (see enumeration.classify), expressed in
twist sugar.  The opposite-pair and uniform-adjacent schemes are chiral
(their mirrors are rotation-inequivalent); the mixed-adjacent scheme equals
its own mirror up to rotation.
"""

from hypdom import pairings


def opposite_quarter_twist(poly, mirror=False):
    """All three opposite face pairs, each with a quarter twist.

    Senses are calibrated so the two edge classes are the two complementary
    Hamiltonian 6-cycles of the dual octahedron in the standard drawing; the
    mirror flips every sense.
    """
    s = ("ccw", "cw", "ccw") if mirror else ("cw", "ccw", "cw")
    return pairings.validate_scheme(pairings.PairingScheme(poly, (
        pairings.twist_pairing(poly, "A", "front", "back", 1, s[0]),
        pairings.twist_pairing(poly, "B", "left", "right", 1, s[1]),
        pairings.twist_pairing(poly, "C", "top", "bottom", 1, s[2]),
    )))


def adjacent_mixed_twist(poly):
    """Two adjacent pairs with opposite quarter twists plus a half-turned
    opposite pair.  Amphichiral: rotation-equivalent to its mirror."""
    return pairings.validate_scheme(pairings.PairingScheme(poly, (
        pairings.twist_pairing(poly, "P", "front", "back", 2, "cw"),
        pairings.twist_pairing(poly, "Q", "top", "left", 1, "cw"),
        pairings.twist_pairing(poly, "R", "right", "bottom", 1, "ccw"),
    )))


def adjacent_uniform_twist(poly, mirror=False):
    """The same matching shape as adjacent_mixed_twist but with all three
    twists a quarter turn in the same sense."""
    s = "ccw" if mirror else "cw"
    return pairings.validate_scheme(pairings.PairingScheme(poly, (
        pairings.twist_pairing(poly, "U", "top", "left", 1, s),
        pairings.twist_pairing(poly, "V", "right", "bottom", 1, s),
        pairings.twist_pairing(poly, "W", "front", "back", 1, s),
    )))
