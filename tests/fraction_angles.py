"""Fraction Gauss-Jordan and max-slack simplex: the oracle for the
fraction-free angle stage.

This is the arithmetic core of hypdom.angles as it was before the library
moved to integer rows over one positive denominator: every tableau entry a
`fractions.Fraction`, every pivot a gcd per entry.  The tests run it next to
the library and require the same solution sets, the same max-slack optima
and the same witnesses.
"""

from fractions import Fraction

from hypdom.angles import AngleAssignment, SolutionSet


def solution_point(sol, coeffs):
    """particular + sum coeffs[j]*basis[j] of a SolutionSet, as an
    edge->value dict."""
    vals = dict(sol.particular)
    for t, vec in zip(coeffs, sol.basis):
        for eid, x in zip(sol.columns, vec):
            vals[eid] += t * x
    return vals


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


def rivin_rows(sol, circuits):
    """The strict Rivin conditions on the family `sol` as rows (a, b) of
    a.t < b in its null-space coordinates t, one per distinct a with the
    smallest b: of two rows with equal a only that one binds."""
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = {}

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
    return list(cons.items())


def feasible(system, circuits):
    """(solution_set, witness) as hypdom.angles.feasible returns them."""
    sol = solve_exact(system)
    if sol.status == "infeasible":
        return sol, None
    t, slack = _max_slack(rivin_rows(sol, circuits), len(sol.basis))
    if slack <= 0:
        return sol, None
    return sol, AngleAssignment(solution_point(sol, t))


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
