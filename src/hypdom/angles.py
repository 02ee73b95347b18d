"""Exact angle systems: vertex equations, edge-class equations, feasibility.

All angles live in units of pi as exact rationals.  An exterior dihedral
angle q means q*pi radians; the interior angle is (1-q)*pi.  The linear
system for a polyhedron with a chosen edge partition has one row per vertex
(incident angles sum to 2) and one row per class (angles sum to size-2).
Strict inequalities (0 < q < 1 per edge, sum > 2 over every non-facial
simple circuit of the dual) are decided exactly by a max-slack linear
program over the solution family, solved by the simplex method.  The
circuits are never listed: the program's circuit rows are generated by a
search of the dual for the circuits lighter than a bound (`light_cycles`),
which also checks a stored witness.  `check_inequalities` checks a point
against the full list of circuits, as an independent oracle.

Both the Gauss-Jordan solve and the simplex are fraction-free: a tableau
row is a list of integers over one positive denominator, divided by its
content after every pivot (Bareiss, Math. Comp. 1968; Edmonds, J. Res. NBS
1967).  Rows go in and optima come out as integers; only the solution set
and the witness are Fractions.  Every rational point goes over its least
common denominator in one place, `common_denominator`.
"""

import collections
import heapq
import math
import re
from fractions import Fraction

from . import polytope

_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")  # what to_json_dict writes


class AngleDomainError(ValueError):
    """Angle value outside the open interval (0, 1)."""


class ClassCountError(ValueError):
    """No torsion-free class count exists (parity or sign failure)."""


class PartitionError(ValueError):
    """Classes do not partition the edge set, or a class is too small."""


class AngleAssignment(collections.namedtuple("AngleAssignment", "values")):
    """Exterior dihedral angle per edge, as rationals in units of pi:
    values maps edge id -> Fraction in (0, 1).  AngleAssignment(values)
    checks that range and raises AngleDomainError outside it.  `_make`
    and `_replace` build one unchecked; they serve only to permute the
    values of an already checked assignment (a witness read through a
    symmetry)."""
    __slots__ = ()

    def __new__(cls, values):
        for eid, q in values.items():
            if not 0 < q < 1:
                raise AngleDomainError(f"edge {eid}: q={q} outside (0, 1)")
        return super().__new__(cls, values)

    def to_json_dict(self):
        return {str(eid): f"{q.numerator}/{q.denominator}"
                for eid, q in self.values.items()}

    @classmethod
    def from_json_dict(cls, doc):
        """The assignment `to_json_dict` writes: each value a string of the
        form [-]digits[/digits], such as "2/3".  Any other value is a
        ValueError, so neither a JSON number (an infinite one among them)
        nor a decimal or exponent string, whose exponent `Fraction` would
        expand in full, enters the exact path."""
        for v in doc.values():
            if not (isinstance(v, str) and _RATIONAL.fullmatch(v)):
                raise ValueError(f"angle {v!r} is not a string of the form "
                                 "[-]digits[/digits]")
        return cls({int(k): Fraction(v) for k, v in doc.items()})


class LinearSystem(collections.namedtuple("LinearSystem",
                                          "columns rows provenance")):
    """A linear system over the edge angles:

    - columns: edge ids, in column order;
    - rows: (coefficient tuple, rhs) per row, integers;
    - provenance: ("vertex", name) or ("class", index) per row.
    """
    __slots__ = ()


class SolutionSet(collections.namedtuple(
        "SolutionSet", "status particular basis rank columns")):
    """The exact solution set of a LinearSystem:

    - status: "infeasible", "unique" or "affine-family";
    - particular: edge id -> Fraction, or None when infeasible;
    - basis: null-space basis vectors (tuples over columns);
    - rank: the rank of the system;
    - columns: the system's columns.
    """
    __slots__ = ()


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
    tab = [[*coef, rhs] for coef, rhs in system.rows]
    den = [1] * len(tab)
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
    """Does the edge -> rational map `values` solve every row of `system`,
    by exact substitution?  The values are put over their common
    denominator D once, and each row's sum compared with D times its
    right-hand side."""
    scaled, den = common_denominator([values[eid] for eid in system.columns])
    return all(sum([c * x for c, x in zip(coef, scaled) if c]) == rhs * den
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


def light_cycles(dual, weight, bound):
    """The non-facial simple circuits of `dual` lighter than `bound`: those
    whose link weights weight[lid], positive integers, sum to less.

    Each comes once, as a link-id tuple, in the order of nonfacial_circuits
    and written as it writes it.  The search is the walk of
    polytope.simple_circuits, from each start node over later nodes only,
    pruned where the path's weight plus the exact distance back to the
    start over those nodes (Dijkstra) reaches `bound`.  No path of a
    circuit lighter than `bound` is pruned, in either direction.  Every
    weight is positive, so the pruning ends every path.
    """
    adj = polytope.dual_adjacency(dual)
    found = {}
    for start in dual.nodes:
        room = {n: bound - d
                for n, d in _distances(adj, weight, start).items()}
        _extend_light(adj, weight, room, found, start, start, 0, {start}, [])
    stars = {frozenset(cyc) for cyc in dual.facial_cycles.values()}
    return [found[key]
            for key in sorted(found, key=lambda k: (len(k), sorted(k)))
            if key not in stars]


def _distances(adj, weight, start):
    """node -> least weight of a path from `start` over later nodes."""
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, cur = heapq.heappop(heap)
        if d > dist[cur]:
            continue  # a stale entry
        for nb, lid in adj[cur]:
            if nb > start and (nb not in dist or d + weight[lid] < dist[nb]):
                dist[nb] = d + weight[lid]
                heapq.heappush(heap, (dist[nb], nb))
    return dist


def _extend_light(adj, weight, room, found, start, cur, total, visited, path):
    """Record in `found` the circuits through `start` that extend the link
    path `path` (start to `cur`, of weight `total`) over later nodes and
    stay lighter than the bound: a path may reach node n only with weight
    below room[n], the bound less n's distance back to `start`."""
    for nb, lid in adj[cur]:
        reach = total + weight[lid]
        if nb == start:
            if path and lid != path[0] and reach < room[start]:
                found.setdefault(frozenset(path + [lid]), tuple(path + [lid]))
        elif nb > start and nb not in visited and reach < room[nb]:
            visited.add(nb)
            _extend_light(adj, weight, room, found, start, nb, reach, visited,
                          path + [lid])
            visited.discard(nb)


def feasible(system, dual):
    """Decide whether the open Rivin polytope meets the solution family.

    `dual` is the dual graph of the system's polyhedron, whose non-facial
    simple circuits carry the inequalities sum > 2.  Returns
    (solution_set, witness) where witness is an AngleAssignment satisfying
    every equation and every strict inequality, or None when the region is
    empty.

    Over the common denominator D of the particular solution and the basis
    the family is q = P/D + B.t, with P and B integer and t the null-space
    coordinates scaled by 1/D.  In t every strict condition reads a.t < b
    with integer a and b in (1/D)Z, kept as the integer pair (a, D*b).  The
    exact linear program max s subject to a.t + s <= b and s <= 1 has an
    optimum s* > 0 iff the open region is non-empty, and its optimal t,
    integers over one denominator, meets every condition with slack s*, so
    it is itself the witness.

    The circuit rows are generated, not listed (the cutting-plane form of
    separation; Grotschel, Lovasz and Schrijver, Combinatorica 1981): the
    program starts from the edge bounds alone, and at each optimum (t, s)
    the circuits lighter than 2 + s (`light_cycles`) join it as rows.  An
    optimum s <= 0 shows the region empty, since a relaxation already is;
    an optimum with no light circuit meets every row of the full program,
    so it is that program's optimum, and the witness.
    """
    sol = solve_exact(system)
    if sol.status == "infeasible":
        return sol, None
    n, m = len(sol.columns), len(sol.basis)
    scaled, den = common_denominator(
        [sol.particular[eid] for eid in sol.columns]
        + [x for vec in sol.basis for x in vec])
    p = scaled[:n]
    # coef[i] is row i of B.  Tuples are built from lists, not generators:
    # a tuple built from a generator is allocated at a guessed length and
    # resized, so it never reuses the free list of its final length, which
    # it joins when freed; that list grew by every row of every call
    # (50 KiB more heap at the peak of a cube pipeline)
    coef = [tuple(scaled[n + i::n]) for i in range(n)]
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = {}  # a -> smallest D*b: of two rows with equal a only it binds
    for a, pi in zip(coef, p):
        for row, rhs in ((tuple([-x for x in a]), pi), (a, den - pi)):
            cons[row] = min(cons.get(row, rhs), rhs)    # q > 0, q < 1
    while True:
        tnum, snum, tden = _max_slack(cons.items(), den, m)
        if snum <= 0:
            return sol, None
        # q = P/D + B.t and s over the denominator D * tden
        weight = {eid: pi * tden + den * sum(x * y for x, y in zip(a, tnum))
                  for eid, pi, a in zip(sol.columns, p, coef)}
        light = light_cycles(dual, weight, den * (2 * tden + snum))
        if not light:
            return sol, AngleAssignment(
                {eid: Fraction(w, den * tden) for eid, w in weight.items()})
        for seq in light:
            idxs = [col[eid] for eid in seq]
            a = tuple([-sum(coef[i][k] for i in idxs) for k in range(m)])
            rhs = sum(p[i] for i in idxs) - 2 * den     # sum > 2
            cons[a] = min(cons.get(a, rhs), rhs)


def _max_slack(rows, den, m):
    """(t numerators, s numerator, d) for the (t, s) maximizing s subject to
    a.t + s <= b/den for each integer pair (a, b) in rows and s <= 1, with
    t of length m and t, s over the one positive denominator d.

    Solves the dual, min sum(b_i y_i)/den + w subject to sum(y_i a_i) = 0,
    sum(y_i) + w = 1 and y, w >= 0, by the simplex method on a dense
    tableau of integer rows (see _pivot) with m + 1 constraint rows over 1
    and a reduced-cost row over den, pivoted with the others.  Bland's rule
    (lowest index with negative reduced cost enters, ties in the ratio test
    leave by lowest index) rules out cycling.  The tableau carries B^-1 in
    m + 1 extra columns that start as the identity, at cost 0, so the
    primal optimum (t, s) = c_B B^-1 is the negated reduced costs of those
    columns in the final basis.
    """
    n = len(rows)
    unit = [[int(i == k) for k in range(m + 1)] for i in range(m + 1)]
    tab = ([[a[i] for a, _ in rows] + [0] + unit[i] + [0] for i in range(m)]
           + [[1] * (n + 1) + unit[m] + [1],
              # costs b_i/den for y_i and 1 for w, less the cost of the
              # starting basis {w}: one times the row sum(y_i) + w = 1
              [b - den for _, b in rows] + [0] * (m + 1) + [-den, -den]])
    dens = [1] * (m + 1) + [den]
    basis = [None] * m + [n]  # None: a zero-level row with no dual variable

    # the rows sum(y_i a_i) = 0 have right-hand side 0, so pivoting on any
    # nonzero entry keeps the basis feasible; a row with none is redundant
    for r in range(m):
        j = next((j for j in range(n) if tab[r][j]), None)
        if j is not None:
            _pivot(tab, dens, r, j)
            basis[r] = j

    while True:
        cost = tab[m + 1]
        j = next((j for j in range(n + 1) if cost[j] < 0), None)
        if j is None:
            break
        r = None  # the least ratio rhs / entry, by cross multiplication
        for i in range(m + 1):
            if tab[i][j] > 0 and (r is None or (
                    (tab[i][-1] * tab[r][j], basis[i])
                    < (tab[r][-1] * tab[i][j], basis[r]))):
                r = i
        _pivot(tab, dens, r, j)
        basis[r] = j
    u = [-x for x in tab[m + 1][n + 1:n + 2 + m]]
    return u[:m], u[m], dens[m + 1]


def common_denominator(values):
    """(integers, D) with values[i] == integers[i] / D for the rationals
    `values`, D the lcm of their denominators.  That is lowest terms,
    gcd(D, *integers) == 1: a prime's highest power in D divides some
    value's own denominator, so it does not divide that value's integer."""
    d = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


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
    gcd of its denominator and its entries, so it is in lowest terms, and
    the sign of an entry is always the sign of its integer.
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
