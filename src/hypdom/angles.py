"""Exact angle systems: vertex equations, edge-class equations, feasibility.

All angles live in units of pi as exact rationals.  An exterior dihedral
angle q means q*pi radians; the interior angle is (1-q)*pi.  The linear
system for a polyhedron with a chosen edge partition has one row per vertex
(incident angles sum to 2) and one row per class (angles sum to size-2).
Strict inequalities (0 < q < 1 per edge, sum > 2 over every non-facial
simple circuit of the dual) are decided exactly by a max-slack linear
program over the solution family, solved by the simplex method in Fraction
arithmetic.
"""

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
    rows: tuple        # (coefficient tuple, rhs), all Fraction
    provenance: tuple  # ("vertex", name) or ("class", index) per row


@dataclass(frozen=True)
class SolutionSet:
    status: str        # "infeasible" | "unique" | "affine-family"
    particular: dict   # edge id -> Fraction, or None when infeasible
    basis: tuple       # null-space basis vectors (tuples over columns)
    rank: int
    columns: tuple

    def point(self, coeffs):
        """particular + sum coeffs[j]*basis[j], as an edge->value dict."""
        vals = dict(self.particular)
        for t, vec in zip(coeffs, self.basis):
            for eid, x in zip(self.columns, vec):
                vals[eid] += t * x
        return vals


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

    `classes` is a partition of the edge-id set; classes of size 1 or 2 are
    rejected up front (their interior angles would have to sum to 2*pi with
    too few strictly-positive terms, forcing an exterior angle sum of zero).
    """
    inc = poly.incidence
    all_edges = set(range(len(inc.edges)))
    seen = set()
    for cl in classes:
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
    col = {eid: i for i, eid in enumerate(columns)}
    rows = []
    provenance = []
    for v in poly.vertices:
        coef = [Fraction(0)] * len(columns)
        for eid in inc.vertex_edges[v]:
            coef[col[eid]] = Fraction(1)
        rows.append((tuple(coef), Fraction(2)))
        provenance.append(("vertex", v))
    for i, cl in enumerate(classes):
        coef = [Fraction(0)] * len(columns)
        for eid in cl:
            coef[col[eid]] = Fraction(1)
        rows.append((tuple(coef), Fraction(len(cl) - 2)))
        provenance.append(("class", i))
    return LinearSystem(columns, tuple(rows), tuple(provenance))


def solve_exact(system):
    """Gauss-Jordan over the rationals; everything returned is exact.  Each
    row carries its right-hand side as its last entry."""
    rows = [[Fraction(x) for x in coef] + [Fraction(rhs)]
            for coef, rhs in system.rows]
    ncol = len(system.columns)
    pivots = []
    r = 0
    for c in range(ncol):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for row in rows[r:]:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return SolutionSet("infeasible", None, (), r, system.columns)
    particular = {eid: Fraction(0) for eid in system.columns}
    for row, c in zip(rows, pivots):
        particular[system.columns[c]] = row[-1]
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncol
        vec[fcol] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[fcol]
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

    In the null-space coordinates t every strict condition reads a.t < b.
    The exact linear program max s subject to a.t + s <= b and s <= 1 has
    an optimum s* > 0 iff the open region is non-empty, and its optimal t
    meets every condition with slack s*, so it is itself the witness.
    """
    sol = solve_exact(system)
    if sol.status == "infeasible":
        return sol, None
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = {}  # a -> smallest b: of two rows with equal a only that one binds

    def add(a, b):
        a = tuple(a)
        if a not in cons or b < cons[a]:
            cons[a] = b

    for i, eid in enumerate(sol.columns):
        a = [vec[i] for vec in sol.basis]
        add([-x for x in a], sol.particular[eid])       # q > 0
        add(a, 1 - sol.particular[eid])                 # q < 1
    for seq in circuits:
        idxs = [col[eid] for eid in seq]
        a = [sum(vec[i] for i in idxs) for vec in sol.basis]
        b = sum(sol.particular[sol.columns[i]] for i in idxs)
        add([-x for x in a], b - 2)                     # sum > 2
    t, slack = _max_slack(list(cons.items()), len(sol.basis))
    if slack <= 0:
        return sol, None
    return sol, AngleAssignment(sol.point(t))


def _max_slack(rows, m):
    """(t, s) maximizing s subject to a.t + s <= b for each (a, b) in rows
    and s <= 1, with t of length m.

    Solves the dual, min sum(b_i y_i) + w subject to sum(y_i a_i) = 0,
    sum(y_i) + w = 1 and y, w >= 0, by the simplex method on a dense
    Fraction tableau with m + 1 rows.  Bland's rule (lowest index enters,
    ties in the ratio test leave by lowest index) rules out cycling.  The
    tableau carries B^-1 in m + 1 extra columns that start as the identity,
    so the primal optimum (t, s) = c_B B^-1 is read from the final basis.
    """
    n = len(rows)
    cost = [b for _, b in rows] + [Fraction(1)]     # y_0 .. y_{n-1}, w
    unit = [[Fraction(int(i == k)) for k in range(m + 1)] for i in range(m + 1)]
    tab = [[a[i] for a, _ in rows] + [Fraction(0)] + unit[i] + [Fraction(0)]
           for i in range(m)]
    tab.append([Fraction(1)] * (n + 1) + unit[m] + [Fraction(1)])
    basis = [None] * m + [n]  # None: a zero-level row with no dual variable

    # the rows sum(y_i a_i) = 0 have right-hand side 0, so pivoting on any
    # nonzero entry keeps the basis feasible; a row with none is redundant
    for r in range(m):
        j = next((j for j in range(n) if tab[r][j]), None)
        if j is not None:
            _pivot(tab, r, j)
            basis[r] = j

    def price(column):
        return sum(cost[b] * tab[i][column]
                   for i, b in enumerate(basis) if b is not None)

    while True:
        j = next((j for j in range(n + 1) if cost[j] < price(j)), None)
        if j is None:
            break
        r = min((i for i in range(m + 1) if tab[i][j] > 0),
                key=lambda i: (tab[i][-1] / tab[i][j], basis[i]))
        _pivot(tab, r, j)
        basis[r] = j
    u = [price(n + 1 + k) for k in range(m + 1)]
    return u[:m], u[m]


def _pivot(tab, r, j):
    """Scale row r so that entry j is 1, then clear column j in every other
    row by subtracting multiples of row r."""
    inv = 1 / tab[r][j]
    tab[r] = [x * inv for x in tab[r]]
    for i, row in enumerate(tab):
        f = row[j]
        if i != r and f:
            tab[i] = [x - f * y for x, y in zip(row, tab[r])]
