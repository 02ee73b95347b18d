import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypdom import angles, enumeration, pairings, polytope

import fraction_angles
from fraction_angles import solution_point
from conftest import (FD1_CLASSES, FIVE_SEVEN_ANGLES, FIVE_SEVEN_CLASSES,
                      drawn, enumerate_schemes, prism_doc)

THIRD = Fraction(2, 3)
NO_DUAL = polytope.DualGraph((), (), {})  # no circuit rows, for toy systems


def test_required_counts(solids):
    expected = {"tetrahedron": 1, "cube": 2, "octahedron": 3,
                "dodecahedron": 5, "icosahedron": 9}
    for name, k in expected.items():
        assert angles.required_class_count(solids[name]) == k


def test_required_count_parity_error():
    # 9 edges, 6 vertices: odd difference
    prism = polytope.load_polyhedron(prism_doc(3, False))
    with pytest.raises(angles.ClassCountError, match="odd"):
        angles.required_class_count(prism)


def fd1_class_sets(inc):
    return [drawn(inc, FD1_CLASSES[0]), drawn(inc, FD1_CLASSES[1])]


def test_assemble_fd1(cube, cube_inc):
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    assert len(system.rows) == 10
    vertex_rows = [r for r, p in zip(system.rows, system.provenance)
                   if p[0] == "vertex"]
    class_rows = [r for r, p in zip(system.rows, system.provenance)
                  if p[0] == "class"]
    assert len(vertex_rows) == 8 and len(class_rows) == 2
    for coef, rhs in vertex_rows:
        assert rhs == 2 and sum(coef) == 3
    for coef, rhs in class_rows:
        assert rhs == 4 and sum(coef) == 6


def test_assemble_rejects_small_class(cube):
    bad = [{0, 1}, set(range(2, 12))]
    with pytest.raises(angles.PartitionError, match="size 2"):
        angles.assemble_system(cube, bad)


def test_assemble_rejects_repeated_edge(cube):
    # a class listing an edge twice would get a right-hand side counted
    # from its length (5), not from its 6 distinct edges (4)
    with pytest.raises(angles.PartitionError, match="edge 0 more than once"):
        angles.assemble_system(cube, [[0, 0, 1, 2, 3, 4, 5], list(range(6, 12))])
    # nor may an edge lie in two classes, be unknown, or be left out
    for classes, message in (
            ([set(range(6)), set(range(5, 12))], "classes overlap"),
            ([set(range(6)), set(range(6, 13))], "unknown edge id"),
            ([set(range(6)), set(range(6, 11))], "do not cover")):
        with pytest.raises(angles.PartitionError, match=message):
            angles.assemble_system(cube, classes)


def test_assemble_five_seven_rhs(cube, cube_inc):
    classes = [drawn(cube_inc, FIVE_SEVEN_CLASSES[0]),
               drawn(cube_inc, FIVE_SEVEN_CLASSES[1])]
    system = angles.assemble_system(cube, classes)
    rhs = sorted(r for (c, r), p in zip(system.rows, system.provenance)
                 if p[0] == "class")
    assert rhs == [3, 5]


def test_solve_fd1_family_contains_regular_point(cube, cube_inc):
    # The 10-row system is consistent but underdetermined: rank 8 with a
    # 4-dimensional family.  The all-2/3 point lies inside it, but so do
    # others, e.g. (5/6, 1/2, 1/2, 5/6, 2/3, ...) in drawing order.
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    sol = angles.solve_exact(system)
    assert sol.status == "affine-family"
    assert sol.rank == 8
    assert len(sol.basis) == 4
    # the family is the solution set: its particular point and each unit
    # step along the basis solve the rows, and rank + basis = 12 unknowns
    assert angles.satisfies(system, sol.particular)
    for k in range(4):
        assert angles.satisfies(system, solution_point(
            sol, [int(j == k) for j in range(4)]))
    regular = {eid: THIRD for eid in range(12)}
    assert angles.satisfies(system, regular)
    second = {drawn(cube_inc, {n}).pop(): q for n, q in {
        1: Fraction(5, 6), 2: Fraction(1, 2), 3: Fraction(1, 2),
        4: Fraction(5, 6), 5: THIRD, 6: THIRD, 7: THIRD, 8: THIRD,
        9: THIRD, 10: THIRD, 11: THIRD, 12: THIRD}.items()}
    assert angles.satisfies(system, second)
    assert second != regular
    off = {**regular, drawn(cube_inc, {1}).pop(): Fraction(1, 2)}
    assert not angles.satisfies(system, off)


def fraction_substitution(system, values):
    """satisfies by Fraction arithmetic, row by row."""
    return all(sum((Fraction(c) * values[eid]
                    for c, eid in zip(coef, system.columns)), Fraction(0))
               == rhs for coef, rhs in system.rows)


def test_satisfies_matches_fraction_substitution(cube, cube_inc):
    # seeded rational points of the fd1 family, some moved off it, and
    # random rational systems with Fraction coefficients and right-hand
    # sides, each with a point that solves it and one that does not
    rng = random.Random(20261019)
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    sol = angles.solve_exact(system)
    verdicts = collections.Counter()
    for _ in range(200):
        point = solution_point(sol, [Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 12))
                                     for _ in sol.basis])
        if rng.random() < 0.5:
            eid = rng.choice(system.columns)
            point[eid] += Fraction(rng.choice([-1, 1]), rng.randint(1, 30))
        verdict = angles.satisfies(system, point)
        assert verdict == fraction_substitution(system, point)
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) > 50
    for kind in ("unique", "deficient"):
        for _ in range(40):
            rational = random_system(rng, kind)
            oracle = fraction_angles.solve_exact(rational)
            if oracle.status == "infeasible":
                continue
            point = solution_point(oracle, [Fraction(rng.randint(-5, 5), 7)
                                            for _ in oracle.basis])
            assert angles.satisfies(rational, point)
            point[rational.columns[0]] += Fraction(1, 3)
            assert (angles.satisfies(rational, point)
                    == fraction_substitution(rational, point))


def test_solve_substitute_back_exact(cube, cube_inc, cube_dual):
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    sol, witness = angles.feasible(system, cube_dual)
    vals = witness.values
    for coef, rhs in system.rows:
        assert sum(c * vals[eid] for c, eid in zip(coef, system.columns)) == rhs


def test_solve_infeasible_rows():
    # x0 + x1 = 2 and x0 + x1 = 3 cannot both hold
    system = angles.LinearSystem(
        columns=(0, 1),
        rows=(((1, 1), 2), ((1, 1), 3)),
        provenance=(("vertex", "u"), ("vertex", "w")))
    sol = angles.solve_exact(system)
    assert sol.status == "infeasible"


def test_five_seven_assignment_satisfies_everything(cube, cube_inc, cube_dual):
    classes = [drawn(cube_inc, FIVE_SEVEN_CLASSES[0]),
               drawn(cube_inc, FIVE_SEVEN_CLASSES[1])]
    system = angles.assemble_system(cube, classes)
    vals = {drawn(cube_inc, {n}).pop(): q for n, q in FIVE_SEVEN_ANGLES.items()}
    for coef, rhs in system.rows:
        assert sum(c * vals[eid] for c, eid in zip(coef, system.columns)) == rhs
    ok, failures = angles.check_inequalities(
        cube, cube_dual, angles.AngleAssignment(vals))
    assert ok, failures


def test_check_inequalities_fd1_regular(cube, cube_dual):
    assignment = angles.AngleAssignment({eid: THIRD for eid in range(12)})
    ok, failures = angles.check_inequalities(cube, cube_dual, assignment)
    assert ok
    # minimal non-facial circuit: four links summing to 8/3 > 2
    sums = [sum(THIRD for _ in seq)
            for seq in angles.nonfacial_circuits(cube_dual) if len(seq) == 4]
    assert min(sums) == Fraction(8, 3)


def test_five_seven_minimum_circuit(cube, cube_inc, cube_dual):
    vals = {drawn(cube_inc, {n}).pop(): q for n, q in FIVE_SEVEN_ANGLES.items()}
    totals = [sum(vals[eid] for eid in seq)
              for seq in angles.nonfacial_circuits(cube_dual)]
    assert min(totals) == Fraction(12, 5)


def test_check_inequalities_waist_failure(cube, cube_inc, cube_dual):
    # vertical edges at exactly 1/2 each: the side-face 4-circuit sums to 2
    vals = {}
    for n in range(1, 13):
        eid = drawn(cube_inc, {n}).pop()
        vals[eid] = Fraction(1, 2) if n in (9, 10, 11, 12) else Fraction(3, 4)
    ok, failures = angles.check_inequalities(
        cube, cube_dual, angles.AngleAssignment(vals))
    assert not ok
    circuit_failures = [f for f in failures if f[0] == "circuit"]
    assert circuit_failures
    waist = drawn(cube_inc, {9, 10, 11, 12})
    assert any(set(f[1]) == waist and f[2] == 2 for f in circuit_failures)
    # a plain dict is taken as given: a value outside (0, 1) is named
    top = drawn(cube_inc, {1}).pop()
    vals[top] = Fraction(1)
    ok, failures = angles.check_inequalities(cube, cube_dual, vals)
    assert not ok
    assert [f for f in failures if f[0] == "edge"] == [("edge", top, 1)]


def test_feasible_fd1(cube, cube_inc, cube_dual):
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    sol, witness = angles.feasible(system, cube_dual)
    assert witness is not None
    ok, _ = angles.check_inequalities(cube, cube_dual, witness)
    assert ok


def test_feasible_rejects_opposite_vertex_three_class(cube, cube_inc,
                                                      cube_dual):
    # a 3-class spanning two opposite corners forces an angle >= 1
    three = drawn(cube_inc, {5, 9, 2})   # FTR-FTL-FBL-BBL path
    rest = set(range(12)) - three
    system = angles.assemble_system(cube, [three, rest])
    sol, witness = angles.feasible(system, cube_dual)
    assert witness is None


def test_feasible_toy_system_matches_grid_oracle():
    # one vertex-like equation x + y + z = 2 with the box constraints only;
    # grid search over rational points confirms feasibility and the witness
    system = angles.LinearSystem(
        columns=(0, 1, 2),
        rows=(((1, 1, 1), 2),),
        provenance=(("vertex", "v"),))
    sol, witness = angles.feasible(system, NO_DUAL)
    assert witness is not None
    vals = witness.values
    assert sum(vals.values()) == 2
    assert all(0 < q < 1 for q in vals.values())
    grid = [Fraction(n, 8) for n in range(1, 8)]
    oracle_hit = any(
        x + y + z == 2
        for x in grid for y in grid for z in grid)
    assert oracle_hit


def test_feasible_nine_free_variables():
    # x0 + ... + x9 = r over ten columns leaves nine free variables; r = 2
    # has interior points, r = 10 would need every angle at 1
    ones = (1,) * 10
    witnesses = {}
    for rhs in (2, 10):
        system = angles.LinearSystem(
            columns=tuple(range(10)), rows=((ones, rhs),),
            provenance=(("vertex", "v"),))
        sol, witnesses[rhs] = angles.feasible(system, NO_DUAL)
        assert len(sol.basis) == 9
    assert witnesses[10] is None
    assert sum(witnesses[2].values.values()) == 2


def test_feasibility_agrees_with_seeded_sampling(cube, cube_inc, cube_dual):
    # For several partitions compare the feasibility verdict against seeded
    # rational sampling of the solution family (soundness in both directions:
    # every sampled valid point implies feasibility; the witness must
    # validate).
    rng = random.Random(20260808)
    partitions = [
        fd1_class_sets(cube_inc),
        [drawn(cube_inc, FIVE_SEVEN_CLASSES[0]),
         drawn(cube_inc, FIVE_SEVEN_CLASSES[1])],
        [drawn(cube_inc, {2, 5, 7, 9, 11}), drawn(cube_inc, {1, 3, 4, 6, 8, 10, 12})],
        [drawn(cube_inc, {1, 2, 7, 8, 9, 11}), drawn(cube_inc, {3, 4, 5, 6, 10, 12})],
    ]
    for classes in partitions:
        system = angles.assemble_system(cube, classes)
        sol, witness = angles.feasible(system, cube_dual)
        if sol.status == "infeasible":
            continue
        assert len(sol.basis) <= 5
        sampled_valid = False
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-6, 6), 12) for _ in sol.basis]
            point = solution_point(sol, coeffs)
            if all(0 < q < 1 for q in point.values()):
                ok, _ = angles.check_inequalities(
                    cube, cube_dual, point)
                if ok:
                    sampled_valid = True
                    break
        if witness is None:
            assert not sampled_valid
        else:
            ok, _ = angles.check_inequalities(cube, cube_dual, witness)
            assert ok


def test_angle_assignment_serialization():
    a = angles.AngleAssignment({0: THIRD, 1: Fraction(3, 5)})
    doc = a.to_json_dict()
    assert doc == {"0": "2/3", "1": "3/5"}
    assert angles.AngleAssignment.from_json_dict(doc).values == a.values


def test_angle_assignment_range():
    with pytest.raises(angles.AngleDomainError):
        angles.AngleAssignment({0: Fraction(1)})


def test_solution_angle_sum_equals_vertex_count(cube, cube_inc, cube_dual):
    # summing the vertex rows double-counts each edge, so any solution's
    # total angle equals the vertex count; per class the total is size-2
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    sol, witness = angles.feasible(system, cube_dual)
    assert sum(witness.values.values()) == cube.vertex_count()
    for cl in fd1_class_sets(cube_inc):
        assert sum(witness.values[e] for e in cl) == len(cl) - 2


def test_rank_cross_checked_with_sympy(cube, cube_inc):
    sympy = pytest.importorskip("sympy")
    system = angles.assemble_system(cube, fd1_class_sets(cube_inc))
    M = sympy.Matrix([[int(c) for c in coef] for coef, _ in system.rows])
    b = sympy.Matrix([sympy.Rational(r.numerator, r.denominator)
                      for _, r in system.rows])
    assert M.rank() == 8
    assert M.row_join(b).rank() == 8
    assert len(M.nullspace()) == 4
    ours = angles.solve_exact(system)
    assert ours.rank == 8 and len(ours.basis) == 4


def test_five_seven_orbit_partitions_force_degenerate_angle(cube, cube_inc):
    # independent of the feasibility code: solving the system symbolically
    # shows the back-bottom angle is pinned to exactly 1 (a flat edge)
    sympy = pytest.importorskip("sympy")
    five = drawn(cube_inc, {3, 5, 6, 10, 12})
    seven = set(range(12)) - five
    system = angles.assemble_system(cube, [five, seven])
    xs = sympy.symbols("x0:12")
    eqs = [sum(int(c) * xs[i] for i, c in enumerate(coef))
           - sympy.Rational(rhs.numerator, rhs.denominator)
           for coef, rhs in system.rows]
    (expr,) = sympy.linsolve(eqs, xs)
    pinned = drawn(cube_inc, {4}).pop()
    assert sympy.simplify(expr[pinned]) == 1


# ---------------------------------------------------------------------------
# Fourier-Motzkin reference engine (test-only oracle)
# ---------------------------------------------------------------------------

def _fm_normalized(a, b):
    scale = max(max((abs(x) for x in a), default=Fraction(0)), abs(b))
    if scale == 0:
        return tuple(a), b
    return tuple(x / scale for x in a), b / scale


def _fm_eliminate(cons, k):
    """One Fourier-Motzkin step on strict constraints a.t < b, eliminating
    t[k]; None when a constant row 0 < b with b <= 0 shows the region empty."""
    pos, neg, out = [], [], {}

    def keep(a, b):
        if not any(a):
            return b > 0
        a, b = _fm_normalized(a, b)
        if a not in out or b < out[a]:
            out[a] = b
        return True

    for a, b in cons:
        if a[k] > 0:
            pos.append((a, b))
        elif a[k] < 0:
            neg.append((a, b))
        elif not keep(a, b):
            return None
    for ap, bp in pos:
        for an, bn in neg:
            a = tuple(x * -an[k] + y * ap[k] for x, y in zip(ap, an))
            if not keep(a, bp * -an[k] + bn * ap[k]):
                return None
    return sorted(out.items())


def fourier_motzkin_feasible(system, circuits):
    """Does the open Rivin region meet the solution family?  Decided by
    exact Fourier-Motzkin elimination over the null-space coordinates,
    cheapest variable (fewest pairwise products) first."""
    sol = angles.solve_exact(system)
    if sol.status == "infeasible":
        return False
    m = len(sol.basis)
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = []
    for i, eid in enumerate(sol.columns):
        a = [vec[i] for vec in sol.basis]
        cons.append(([-x for x in a], sol.particular[eid]))    # q > 0
        cons.append((a, 1 - sol.particular[eid]))              # q < 1
    for seq in circuits:
        idxs = [col[eid] for eid in seq]
        a = [sum(vec[i] for i in idxs) for vec in sol.basis]
        b = sum(sol.particular[sol.columns[i]] for i in idxs)
        cons.append(([-x for x in a], b - 2))                  # sum > 2
    cur = sorted({_fm_normalized(a, b) for a, b in cons})
    remaining = list(range(m))
    while remaining:
        k = min(remaining, key=lambda k: (sum(a[k] > 0 for a, _ in cur)
                                          * sum(a[k] < 0 for a, _ in cur)))
        remaining.remove(k)
        cur = _fm_eliminate(cur, k)
        if cur is None:
            return False
    return all(b > 0 for _, b in cur)


def distinct_partitions(poly):
    """Every distinct edge partition into orbits of the right count and of
    size at least 3, over all pairing schemes of `poly`."""
    required = angles.required_class_count(poly)
    found = set()
    for scheme in enumerate_schemes(poly):
        orbits = pairings.edge_orbits(scheme)
        if len(orbits) == required and all(o.size >= 3 for o in orbits):
            found.add(frozenset(frozenset(o.edges) for o in orbits))
    return sorted(found, key=lambda p: sorted(sorted(cl) for cl in p))


def test_feasible_agrees_with_fourier_motzkin_on_cube(cube, cube_dual,
                                                     cube_circuits):
    partitions = distinct_partitions(cube)
    assert len(partitions) == 105
    n_feasible = 0
    for partition in partitions:
        system = angles.assemble_system(
            cube, [set(cl) for cl in partition])
        _, witness = angles.feasible(system, cube_dual)
        assert ((witness is not None)
                == fourier_motzkin_feasible(system, cube_circuits))
        if witness is not None:
            n_feasible += 1
            assert angles.satisfies(system, witness.values)
            assert angles.check_inequalities(cube, cube_dual, witness)[0]
    assert n_feasible == 10


def test_octahedron_partitions_feasible_with_witness(solids):
    # checked by the witnesses: each must solve its own system exactly and
    # pass every strict inequality
    octa = solids["octahedron"]
    dual = polytope.build_dual(octa)
    partitions = distinct_partitions(octa)
    assert len(partitions) == 96
    for partition in partitions:
        system = angles.assemble_system(
            octa, [set(cl) for cl in partition])
        _, witness = angles.feasible(system, dual)
        assert witness is not None
        assert angles.satisfies(system, witness.values)
        ok, failures = angles.check_inequalities(octa, dual, witness)
        assert ok, failures


# ---------------------------------------------------------------------------
# The fraction-free core against the Fraction oracle (tests/fraction_angles.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, count", [("cube", 105), ("octahedron", 96)])
def test_integer_core_matches_fraction_oracle(solids, name, count):
    # on every distinct structural partition: the same solution set, the
    # same witness and the same max-slack optimum, for the integer rows
    # (D*a, D*b) over the common denominator D that feasible builds, whose
    # optimum has its t scaled by 1/D
    poly = solids[name]
    dual = polytope.build_dual(poly)
    circuits = angles.nonfacial_circuits(dual)
    partitions = distinct_partitions(poly)
    assert len(partitions) == count
    rref_dens, witness_dens = set(), set()
    for partition in partitions:
        system = angles.assemble_system(poly, [set(cl) for cl in partition])
        sol, witness = angles.feasible(system, dual)
        assert angles.solve_exact(system) == sol
        oracle_sol, oracle_witness = fraction_angles.feasible(system,
                                                              circuits)
        assert sol == oracle_sol
        assert witness == oracle_witness
        if sol.status == "infeasible":
            continue
        m = len(sol.basis)
        rows = fraction_angles.rivin_rows(sol, circuits)
        t, s = fraction_angles._max_slack(rows, m)
        den = math.lcm(*(q.denominator for q in sol.particular.values()),
                       *(x.denominator for vec in sol.basis for x in vec))
        scaled = [(tuple(int(x * den) for x in a), int(b * den))
                  for a, b in rows]
        tnum, snum, d = angles._max_slack(scaled, den, m)
        assert all(type(x) is int for x in (*tnum, snum, d))
        assert [Fraction(x, d) for x in tnum] == [x / den for x in t]
        assert Fraction(snum, d) == s
        rref_dens.add(den)
        if witness is not None:
            witness_dens |= {q.denominator for q in witness.values.values()}
    if name == "octahedron":
        assert max(rref_dens) > 1 and 7 in witness_dens


@pytest.mark.parametrize("name, count", [("cube", 105), ("octahedron", 96)])
def test_max_slack_builds_no_fraction(solids, name, count, monkeypatch):
    # the simplex takes and returns integers: with angles.Fraction a stub
    # that raises, it still finds the Fraction oracle's optimum on every
    # distinct partition's rows over the family's denominator
    poly = solids[name]
    circuits = angles.nonfacial_circuits(polytope.build_dual(poly))
    systems = [angles.assemble_system(poly, [set(cl) for cl in partition])
               for partition in distinct_partitions(poly)]
    assert len(systems) == count
    programs = [(sol, *scaled_rivin_rows(sol, circuits))
                for sol in map(angles.solve_exact, systems)
                if sol.status != "infeasible"]

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(angles, "Fraction", no_fraction)
    for sol, den, rows in programs:
        m = len(sol.basis)
        tnum, snum, d = angles._max_slack(rows, den, m)
        t, s = fraction_angles._max_slack(
            fraction_angles.rivin_rows(sol, circuits), m)
        assert [Fraction(x, d) for x in tnum] == [x / den for x in t]
        assert Fraction(snum, d) == s


def random_system(rng, kind):
    """A small rational system of the given kind: "unique" (square, and
    nonsingular unless the draw is), "deficient" (consistent, rank below
    the column count) or "inconsistent" (a combination of the rows with its
    right-hand side moved reads 0 = c with c != 0).  Each row is scaled by
    the lcm of its denominators, so the system is in integers and has the
    same solutions."""
    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def dot(a, x):
        return sum((u * v for u, v in zip(a, x)), Fraction(0))

    ncol = rng.randint(1, 5)
    point = [q() for _ in range(ncol)]
    if kind == "unique":
        nrow = rank = ncol
    else:
        rank = rng.randint(0, ncol - 1)
        nrow = rng.randint(rank + 1, ncol + 2)
    rows = [[q() for _ in range(ncol)] for _ in range(rank)]
    while len(rows) < nrow:
        mult = [q() for _ in range(rank)]
        rows.append([dot(mult, col) for col in zip(*rows[:rank])]
                    if rank else [Fraction(0)] * ncol)
    rows = [(a, dot(a, point)) for a in rows]
    if kind == "inconsistent":
        a, b = rows[-1]
        rows[-1] = (a, b + rng.choice([-2, -1, 1, 2]))
    rng.shuffle(rows)
    scales = [math.lcm(*[x.denominator for x in (*a, b)]) for a, b in rows]
    return angles.LinearSystem(
        columns=tuple(range(10, 10 + ncol)),
        rows=tuple((tuple([int(x * k) for x in a]), int(b * k))
                   for (a, b), k in zip(rows, scales)),
        provenance=tuple(("vertex", str(i)) for i in range(nrow)))


@pytest.mark.parametrize("kind", ["unique", "deficient", "inconsistent"])
def test_solve_exact_matches_fraction_oracle_on_random_systems(kind):
    rng = random.Random(20261018)
    statuses = set()
    checked = 0
    while checked < 60:
        system = random_system(rng, kind)
        ours = angles.solve_exact(system)
        oracle = fraction_angles.solve_exact(system)
        if kind == "unique" and oracle.rank < len(system.columns):
            continue   # a singular draw
        assert ours.status == oracle.status
        assert ours.rank == oracle.rank
        assert ours.particular == oracle.particular
        assert ours.basis == oracle.basis
        assert ours.columns == oracle.columns
        if ours.particular is not None:
            assert all(type(x) is Fraction
                       for x in ours.particular.values())
        statuses.add(ours.status)
        checked += 1
    expected = {"unique": {"unique"}, "deficient": {"affine-family"},
                "inconsistent": {"infeasible"}}[kind]
    assert statuses == expected


def test_solve_exact_zero_rows():
    # a zero row with a nonzero right-hand side is 0 = c; with 0 it is void
    # (the first row is x0 - x1/2 = 1/3, over 6)
    for rhs, status in ((3, "infeasible"), (0, "affine-family")):
        system = angles.LinearSystem(
            columns=(0, 1),
            rows=(((6, -3), 2), ((0, 0), rhs)),
            provenance=(("vertex", "u"), ("vertex", "w")))
        ours = angles.solve_exact(system)
        assert ours == fraction_angles.solve_exact(system)
        assert ours.status == status and ours.rank == 1


def test_common_denominator_is_lowest_terms():
    # D is the lcm of the denominators, and the integers over it are already
    # in lowest terms: dividing by gcd(D, *integers) would change nothing
    rng = random.Random(11)
    for _ in range(2000):
        values = [rng.choice([0, rng.randint(-9, 9), Fraction(
                      rng.randint(-30, 30), rng.randint(1, 36))])
                  for _ in range(rng.randint(1, 8))]
        ints, d = angles.common_denominator(values)
        assert d == math.lcm(*[Fraction(x).denominator for x in values])
        assert math.gcd(d, *ints) == 1
        assert [Fraction(x, d) for x in ints] == values


def test_pivot_keeps_rows_in_lowest_terms():
    # after every pivot each row has a positive denominator and content 1,
    # and stands for the same rational row as the Fraction oracle's
    rng = random.Random(7)
    for _ in range(40):
        nrow, ncol = rng.randint(1, 4), rng.randint(2, 6)
        rational = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(ncol)] for _ in range(nrow)]
        tab, den = map(list, zip(*(angles.common_denominator(row)
                                   for row in rational)))
        for _ in range(4):
            entries = [(i, j) for i in range(nrow) for j in range(ncol)
                       if rational[i][j]]
            if not entries:
                break
            r, j = rng.choice(entries)
            angles._pivot(tab, den, r, j)
            fraction_angles._pivot(rational, r, j)
            for row, d, exact in zip(tab, den, rational):
                assert d > 0 and math.gcd(d, *row) == 1
                assert [Fraction(x, d) for x in row] == exact


# ---------------------------------------------------------------------------
# Row generation: the light-cycle search, and feasible against the program
# over every circuit row
# ---------------------------------------------------------------------------

def test_light_cycles_match_circuit_list(solids):
    # against the list of every non-facial circuit on all five duals:
    # seeded random positive weights, and weights near the regular point
    # (exterior angle 2/d at vertex degree d, over the denominator 60),
    # each with a bound drawn among the circuit sums, so that it cuts
    # through them; a bound at the lightest sum leaves nothing
    rng = random.Random(20261019)
    for name, poly in sorted(solids.items()):
        dual = polytope.build_dual(poly)
        circuits = angles.nonfacial_circuits(dual)
        regular = 120 * poly.vertex_count() // (2 * poly.edge_count())
        cut = 0
        for trial in range(12):
            weight = [rng.randint(1, 20) if trial % 2
                      else regular + rng.randint(-6, 6) for _ in dual.links]
            sums = [sum(weight[lid] for lid in seq) for seq in circuits]
            bound = rng.choice(sums) + rng.randint(0, 1)
            light = angles.light_cycles(dual, weight, bound)
            assert light == [seq for seq, total in zip(circuits, sums)
                             if total < bound]
            cut += 0 < len(light) < len(circuits)
            assert angles.light_cycles(dual, weight, min(sums)) == []
            assert len(angles.light_cycles(dual, weight, min(sums) + 1)) > 0
        assert cut > 0


def matching_partitions(poly, k, monkeypatch):
    """The distinct edge partitions of the schemes of the k-th matching of
    enumeration._perfect_matchings that pass the structural filters, in
    stream order.  The matching is taken before the walk is patched: the
    walk recurses through the module attribute."""
    matching = next(itertools.islice(enumeration._perfect_matchings(
        list(range(poly.face_count())), enumeration._pairing_table(poly)),
        k, None))
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_perfect_matchings",
                      lambda items, moves: iter([matching]))
        partitions = dict.fromkeys(
            frozenset(frozenset(o.edges) for o in orbits)
            for _, orbits in enumeration.scheme_stream(
                poly, enumeration.EnumerationReport(),
                pairings.automorphism_actions(poly)))
    return list(partitions)


def scaled_rivin_rows(sol, circuits):
    """(D, rows): fraction_angles.rivin_rows(sol, circuits) with each a
    and b scaled by the common denominator D of the family, as the
    fraction-oracle test scales them, but summed in integers: the Fraction
    sums take seconds over the dodecahedron's 12,858 circuits."""
    den = math.lcm(*(q.denominator for q in sol.particular.values()),
                   *(x.denominator for vec in sol.basis for x in vec))
    p = [int(sol.particular[eid] * den) for eid in sol.columns]
    coef = [[int(vec[i] * den) for vec in sol.basis]
            for i in range(len(sol.columns))]
    col = {eid: i for i, eid in enumerate(sol.columns)}
    cons = {}

    def add(a, b):
        a = tuple(a)
        if a not in cons or b < cons[a]:
            cons[a] = b

    for a, pi in zip(coef, p):
        add([-x for x in a], pi)                           # q > 0
        add(a, den - pi)                                   # q < 1
    for seq in circuits:
        idxs = [col[eid] for eid in seq]
        add([-sum(column) for column in zip(*[coef[i] for i in idxs])],
            sum(p[i] for i in idxs) - 2 * den)             # sum > 2
    return den, list(cons.items())


def test_feasible_matches_full_list_program_on_dodecahedron(solids,
                                                           monkeypatch):
    # the first feasible and the first Rivin-empty partition of the first
    # matching, which the edge bounds decide, the first feasible one of the
    # eleventh matching that takes a circuit row, and the first
    # system_infeasible one of the sixteenth: the verdict and the witness
    # are those of the max-slack program over all 12,858 circuit rows, and
    # every witness passes check_inequalities
    poly = solids["dodecahedron"]
    dual = polytope.build_dual(poly)
    circuits = angles.nonfacial_circuits(dual)
    assert len(circuits) == 12858
    found = []
    light_cycles = angles.light_cycles
    monkeypatch.setattr(angles, "light_cycles",
                        lambda *a: found.append(light_cycles(*a)) or found[-1])

    def decided(k):
        for partition in matching_partitions(poly, k, monkeypatch):
            system = angles.assemble_system(
                poly, [set(cl) for cl in sorted(partition, key=sorted)])
            found.clear()
            sol, witness = angles.feasible(system, dual)
            yield system, sol, witness, len(found)

    first = list(decided(0))
    assert len(first) == 33
    assert sum(witness is not None for *_, witness, _ in first) == 6
    assert all(rounds <= 1 for *_, rounds in first)
    chosen = [next(d for d in first if d[2] is not None),
              next(d for d in first
                   if d[2] is None and d[1].status != "infeasible"),
              next(d for d in decided(10) if d[3] == 2)]
    assert chosen[2][2] is not None
    sol = chosen[0][1]
    den, rows = scaled_rivin_rows(sol, circuits[:400])
    assert rows == [(tuple(int(x * den) for x in a), b * den) for a, b
                    in fraction_angles.rivin_rows(sol, circuits[:400])]
    for _, sol, witness, _ in chosen:
        den, rows = scaled_rivin_rows(sol, circuits)
        tnum, snum, d = angles._max_slack(rows, den, len(sol.basis))
        assert (witness is not None) == (snum > 0)
        if witness is not None:
            assert witness.values == solution_point(
                sol, [Fraction(x * den, d) for x in tnum])
            assert angles.check_inequalities(poly, dual, witness)[0]
    system = next(
        system for system in (
            angles.assemble_system(
                poly, [set(cl) for cl in sorted(partition, key=sorted)])
            for partition in matching_partitions(poly, 15, monkeypatch))
        if angles.solve_exact(system).status == "infeasible")
    assert fraction_angles.solve_exact(system).status == "infeasible"
    found.clear()
    sol, witness = angles.feasible(system, dual)
    assert sol.status == "infeasible" and witness is None and not found
