"""Exact angle systems: vertex equations, edge-class equations, feasibility.

All angles live in units of pi as exact rationals.  An exterior dihedral
angle q means q*pi radians; the interior angle is (1-q)*pi.  The linear
system for a polyhedron with a chosen edge partition has one row per vertex
(incident angles sum to 2) and one row per class (angles sum to size-2).
Strict inequalities (0 < q < 1 per edge, sum > 2 over every non-facial
simple circuit of the dual) are decided exactly by a max-slack linear
program over the solution family, solved by the simplex method.

Both the Gauss-Jordan solve and the simplex are fraction-free inside: a
tableau row is a list of integers over one positive denominator, divided
by its content after every pivot (Bareiss, Math. Comp. 1968; Edmonds,
J. Res. NBS 1967).  Only the results are Fractions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polytope


class AngleDomainError(ValueError):
    """Angle value outside the open interval (0, 1)."""


class ClassCountError(ValueError):
    """No torsion-free class count exists (parity or sign failure)."""


class PartitionError(ValueError):
    """Classes do not partition the edge set, or a class is too small."""


@dataclass(frozen=True)
class AngleAssignment:
    """Exterior dihedral angle per edge, as rationals in units of pi."""
    values: dict  # edge id -> Fraction in (0, 1)

    def __post_init__(self):
        for eid, q in self.values.items():
            if not 0 < q < 1:
                raise AngleDomainError(f"edge {eid}: q={q} outside (0, 1)")

    def to_json_dict(self):
        return {str(eid): f"{q.numerator}/{q.denominator}"
                for eid, q in sorted(self.values.items())}

    @classmethod
    def from_json_dict(cls, doc):
        return cls({int(k): Fraction(v) for k, v in doc.items()})


@dataclass(frozen=True)
class LinearSystem:
    columns: tuple     # edge ids, in column order
    rows: tuple        # (coefficient tuple, rhs), rational; int when assembled
    provenance: tuple  # ("vertex", name) or ("class", index) per row


@dataclass(frozen=True)
class SolutionSet:
    status: str        # "infeasible" | "unique" | "affine-family"
    particular: dict   # edge id -> Fraction, or None when infeasible
    basis: tuple       # null-space basis vectors (tuples over columns)
    rank: int
    columns: tuple


def required_class_count(poly):
    """(edges - vertices) / 2; the only class count a torsion-free domain
    on this polyhedron can have."""
    e, v = poly.edge_count(), poly.vertex_count()
    if (e - v) % 2 != 0:
        raise ClassCountError(f"E - V = {e - v} is odd; no torsion-free domain")
    k = (e - v) // 2
    if k <= 0:
        raise ClassCountError(f"E - V = {e - v} is not positive")
    return k


def assemble_system(poly, classes):
    """Vertex rows plus one row per edge class.

    `classes` is a partition of the edge-id set, no edge listed twice; classes
    of size 1 or 2 are rejected up front (their interior angles would have to
    sum to 2*pi with too few strictly-positive terms, forcing an exterior
    angle sum of zero).
    """
    inc = poly.incidence
    all_edges = set(range(len(inc.edges)))
    seen = set()
    for cl in classes:
        if len(set(cl)) != len(cl):
            again = next(e for i, e in enumerate(cl) if e in cl[:i])
            raise PartitionError(f"a class lists edge {again} more than once")
        cl = set(cl)
        if cl & seen:
            raise PartitionError("classes overlap")
        if not cl <= all_edges:
            raise PartitionError("class contains unknown edge id")
        if len(cl) < 3:
            raise PartitionError(
                f"class of size {len(cl)} is analytically infeasible")
        seen |= cl
    if seen != all_edges:
        raise PartitionError("classes do not cover the edge set")
    columns = tuple(sorted(all_edges))
    supports = [(inc.vertex_edges[v], 2, ("vertex", v)) for v in poly.vertices]
    supports += [(cl, len(cl) - 2, ("class", i))
                 for i, cl in enumerate(classes)]
    rows = [(tuple([int(eid in support) for eid in columns]), rhs)
            for support, rhs, _ in supports]
    provenance = [origin for _, _, origin in supports]
    return LinearSystem(columns, tuple(rows), tuple(provenance))


def solve_exact(system):
    """Gauss-Jordan over the rationals, carried out on integer rows (see
    _pivot); everything returned is exact.  Each row carries its
    right-hand side as its last entry."""
    tab, den = _tableau([*coef, rhs] for coef, rhs in system.rows)
    ncol = len(system.columns)
    pivots = []
    r = 0
    for c in range(ncol):
        p = next((i for i in range(r, len(tab)) if tab[i][c]), None)
        if p is None:
            continue
        tab[r], tab[p] = tab[p], tab[r]
        den[r], den[p] = den[p], den[r]
        _pivot(tab, den, r, c)
        pivots.append(c)
        r += 1
        if r == len(tab):
            break
    # the rows past the rank are zero left of their right-hand side
    if any(row[-1] for row in tab[r:]):
        return SolutionSet("infeasible", None, (), r, system.columns)
    particular = dict.fromkeys(system.columns, Fraction(0))
    for row, d, c in zip(tab, den, pivots):
        particular[system.columns[c]] = Fraction(row[-1], d)
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncol
        vec[fcol] = Fraction(1)
        for row, d, c in zip(tab, den, pivots):
            vec[c] = Fraction(-row[fcol], d)
        basis.append(tuple(vec))
    status = "unique" if not free else "affine-family"
    return SolutionSet(status, particular, tuple(basis), r, system.columns)


def satisfies(system, values):
    """Does the edge -> Fraction map `values` solve every row of `system`,
    by exact substitution?"""
    return all(sum(c * values[eid] for c, eid in zip(coef, system.columns)
                   if c) == rhs
               for coef, rhs in system.rows)


def nonfacial_circuits(dual):
    return [seq for seq, facial in polytope.simple_circuits(dual) if not facial]


def check_inequalities(poly, dual, assignment):
    """Strict Rivin checks for a full assignment.

    Returns (ok, failures); each failure is ("edge", id, value) for a range
    violation or ("circuit", link sequence, total) for a non-facial simple
    circuit whose angle sum is not > 2.
    """
    vals = assignment.values if isinstance(assignment, AngleAssignment) else assignment
    failures = []
    for eid in sorted(vals):
        if not 0 < vals[eid] < 1:
            failures.append(("edge", eid, vals[eid]))
    for seq in nonfacial_circuits(dual):
        total = sum(vals[eid] for eid in seq)
        if not total > 2:
            failures.append(("circuit", seq, total))
    return (not failures), failures


def feasible(system, circuits):
    """Decide whether the open Rivin polytope meets the solution family.

    `circuits` are the non-facial simple circuits of the dual, as returned by
    nonfacial_circuits.  Returns (solution_set, witness) where witness is an
    AngleAssignment satisfying every equation and every strict inequality, or
    None when the region is empty.

    Over the common denominator D of the particular solution and the basis
    the family is q = P/D + B.t, with P and B integer and t the null-space
    coordinates scaled by 1/D.  In t every strict condition reads a.t < b
    with integer a and b in (1/D)Z.  The exact linear program max s subject
    to a.t + s <= b and s <= 1 has an optimum s* > 0 iff the open region is
    non-empty, and its optimal t meets every condition with slack s*, so it
    is itself the witness.
    """
    sol = solve_exact(system)
    if sol.status == "infeasible":
        return sol, None
    m = len(sol.basis)
    particular = [sol.particular[eid] for eid in sol.columns]
    den = math.lcm(*(q.denominator for q in particular),
                   *(x.denominator for vec in sol.basis for x in vec))
    p = [q.numerator * (den // q.denominator) for q in particular]
    # coef[i] is row i of B.  Tuples are built from lists, not generators:
    # a tuple built from a generator is allocated at a guessed length and
    # resized, so it never reuses the free list of its final length, which
    # it joins when freed; that list grew by every row of every call
    # (50 KiB more heap at the peak of a cube pipeline)
    coef = [tuple([vec[i].numerator * (den // vec[i].denominator)
                   for vec in sol.basis]) for i in range(len(particular))]
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = {}  # a -> smallest D*b: of two rows with equal a only it binds

    def add(a, rhs):
        if a not in cons or rhs < cons[a]:
            cons[a] = rhs

    for a, pi in zip(coef, p):
        add(tuple([-x for x in a]), pi)                 # q > 0
        add(a, den - pi)                                # q < 1
    for seq in circuits:
        idxs = [col[eid] for eid in seq]
        add(tuple([-sum(coef[i][k] for i in idxs) for k in range(m)]),
            sum(p[i] for i in idxs) - 2 * den)          # sum > 2
    t, slack = _max_slack([(a, Fraction(rhs, den)) for a, rhs in cons.items()],
                          m)
    if slack <= 0:
        return sol, None
    # the witness q = P/D + B.t over the denominator D * lcm(t)
    tden = math.lcm(*[x.denominator for x in t])
    tnum = [x.numerator * (tden // x.denominator) for x in t]
    return sol, AngleAssignment({
        eid: Fraction(pi * tden + den * sum(x * y for x, y in zip(a, tnum)),
                      den * tden)
        for eid, pi, a in zip(sol.columns, p, coef)})


def _max_slack(rows, m):
    """(t, s) maximizing s subject to a.t + s <= b for each (a, b) in rows
    and s <= 1, with t of length m.

    Solves the dual, min sum(b_i y_i) + w subject to sum(y_i a_i) = 0,
    sum(y_i) + w = 1 and y, w >= 0, by the simplex method on a dense
    tableau of integer rows (see _pivot) with m + 1 constraint rows and a
    reduced-cost row, pivoted with the others.  Bland's rule (lowest index
    with negative reduced cost enters, ties in the ratio test leave by
    lowest index) rules out cycling.  The tableau carries B^-1 in m + 1
    extra columns that start as the identity, at cost 0, so the primal
    optimum (t, s) = c_B B^-1 is the negated reduced costs of those columns
    in the final basis.
    """
    n = len(rows)
    unit = [[int(i == k) for k in range(m + 1)] for i in range(m + 1)]
    tab, den = _tableau(
        [[a[i] for a, _ in rows] + [0] + unit[i] + [0] for i in range(m)]
        + [[1] * (n + 1) + unit[m] + [1],
           # costs b_i for y_i and 1 for w, less the cost of the starting
           # basis {w}: one times the row sum(y_i) + w = 1
           [b - 1 for _, b in rows] + [0] * (m + 1) + [-1, -1]])
    basis = [None] * m + [n]  # None: a zero-level row with no dual variable

    # the rows sum(y_i a_i) = 0 have right-hand side 0, so pivoting on any
    # nonzero entry keeps the basis feasible; a row with none is redundant
    for r in range(m):
        j = next((j for j in range(n) if tab[r][j]), None)
        if j is not None:
            _pivot(tab, den, r, j)
            basis[r] = j

    while True:
        cost = tab[m + 1]
        j = next((j for j in range(n + 1) if cost[j] < 0), None)
        if j is None:
            break
        r = min((i for i in range(m + 1) if tab[i][j] > 0),
                key=lambda i: (Fraction(tab[i][-1], tab[i][j]), basis[i]))
        _pivot(tab, den, r, j)
        basis[r] = j
    u = [Fraction(-x, den[m + 1]) for x in tab[m + 1][n + 1:n + 2 + m]]
    return u[:m], u[m]


def _tableau(rows):
    """(integer rows, denominators) for the rational rows `rows`."""
    tab, den = [], []
    for values in rows:
        row, d = _integer_row(values)
        tab.append(row)
        den.append(d)
    return tab, den


def _integer_row(values):
    """The rational vector `values` as (integers, positive denominator) in
    lowest terms."""
    d = math.lcm(*[x.denominator for x in values])
    return _lowest([x.numerator * (d // x.denominator) for x in values], d)


def _lowest(row, d):
    """(row, d) divided by their content, gcd(d, *row)."""
    g = math.gcd(d, *row)
    if g == 1:
        return row, d
    return [x // g for x in row], d // g


def _pivot(tab, den, r, j):
    """Pivot a tableau whose row i stands for tab[i] / den[i], den[i] > 0.

    Row r is scaled so that entry j is 1, and column j is cleared in every
    other row by subtracting a multiple of row r: all in integers, by cross
    multiplication.  Each changed row is then divided by its content, the
    gcd of its denominator and its entries, so every row stays in lowest
    terms and the sign of an entry is the sign of its integer.
    """
    row, p = tab[r], tab[r][j]
    if p < 0:
        row, p = [-x for x in row], -p
    tab[r], den[r] = _lowest(row, p)
    row, p = tab[r], den[r]
    for i, other in enumerate(tab):
        f = other[j]
        if i != r and f:
            tab[i], den[i] = _lowest(
                [x * p - f * y for x, y in zip(other, row)], den[i] * p)
