"""Bound specifications, their polytopes, and exact integral enumeration."""

import copy
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flips import flip
from graphs import walked_cut
from tropclust.errors import (
    DimensionMismatch,
    EmptyInput,
    InvariantViolation,
    NotStasheff,
    SizeMismatch,
    Unbounded,
)
from tropclust.laminations import (
    Lamination,
    TropicalCoords,
    _CompiledChart,
    _compiled,
    chart_change,
    chart_coords,
    lamination_from_coords,
)
from tropclust.polygon import (
    Segment,
    Triangulation,
    diagonals,
    fan_triangulation,
    triangulations,
)
from tropclust import laminations, polytopes
from tropclust.basis import product_expand
from tropclust.polytopes import (
    StasheffSpec,
    _scan_chart,
    chart_inequalities,
    contains,
    coordinate_bounds,
    is_nondegenerate,
    is_stasheff,
    lattice_points,
    minkowski_spec,
    minkowski_sum,
    shift_to_negative_part,
    vertex,
    vertex_flags,
)
from tropclust.weighted_graphs import _tables, dominates, wrap_vertex


def fan_coords(n_gon, values):
    fan = fan_triangulation(n_gon)
    return TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), values)))


def point(n_gon, values):
    return lamination_from_coords(fan_coords(n_gon, values))


def const_spec(n_gon, c):
    return StasheffSpec.of(n_gon, {d: c for d in diagonals(n_gon)})


BIG = StasheffSpec.of(5, {(1, 3): 20, (1, 4): 10, (2, 4): 20, (2, 5): 20, (3, 5): 30})


def test_spec_validation():
    with pytest.raises(SizeMismatch):
        StasheffSpec.of(5, {(1, 3): 1})
    with pytest.raises(SizeMismatch):
        StasheffSpec.of(5, {**{tuple(d): 0 for d in diagonals(5)}, (1, 2): 0})
    with pytest.raises(InvariantViolation):
        StasheffSpec.of(5, {**{tuple(d): 0 for d in diagonals(5)}, (1, 3): 0.5})


def test_spec_accessors():
    s = const_spec(5, 2)
    assert s.as_dict()[Segment(1, 3)] == 2
    assert s.as_dict()[(3, 5)] == 2
    assert Segment(1, 2) not in s.as_dict()
    assert s.as_dict() == {d: 2 for d in diagonals(5)}


def side_slacks(spec, p, q, r, s):
    """Reference: the crossing-diagonal bounds minus the bounds of each pair
    of opposite sides, ({p, s}, {q, r}) and then ({p, q}, {r, s}),
    boundary edges read as 0."""
    c = spec.as_dict()

    def side(i, j):
        seg = Segment(i, j)
        return 0 if seg.is_edge(spec.n_gon) else c[seg]

    cross = side(p, r) + side(q, s)
    return cross - side(p, s) - side(q, r), cross - side(p, q) - side(r, s)


def quadruple_slack(spec, p, q, r, s):
    """Reference for the quadruple criterion: crossing-diagonal bound minus
    the larger opposite-side bound, boundary edges read as 0."""
    return min(side_slacks(spec, p, q, r, s))


def test_quadruple_slack_by_hand():
    s = const_spec(5, 1)
    # crossing pair {1,3},{2,4} against sides {1,2},{3,4},{2,3},{1,4}
    assert quadruple_slack(s, 1, 2, 3, 4) == 1 + 1 - max(0 + 0, 0 + 1)
    t = StasheffSpec.of(5, {(1, 3): -1, (1, 4): 0, (2, 4): 0, (2, 5): 0, (3, 5): 0})
    assert quadruple_slack(t, 1, 2, 3, 4) == -1
    # (1, 2, 3, 4) is the thin quadruple of {2, 4}: the weight
    # w(2, 4) = c(2, 4) + c(1, 3) - c(2, 3) - c(1, 4) alone is the slack of
    # its side ({1, 4}, {2, 3}), the smaller side here
    k = _tables(5).slot[Segment(2, 4)]
    assert polytopes._spec_weights(s)[k] == 1
    assert polytopes._spec_weights(t)[k] == -1


def seeded_specs(n_gon, rng):
    """A Minkowski spec of one to three seeded points, a rational variant
    and an integer one lowered or raised by up to 2 per diagonal; most of
    the variants are not Stasheff."""
    spec = minkowski_spec([
        point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
        for _ in range(rng.randint(1, 3))
    ])
    return (
        spec,
        StasheffSpec.of(n_gon, {
            d: v + Fraction(rng.randint(-2, 2), rng.randint(2, 5)) for d, v in spec.c
        }),
        StasheffSpec.of(n_gon, {d: v + rng.randint(-2, 1) for d, v in spec.c}),
    )


def test_slacks_are_box_sums_of_the_spec_weights():
    """On every quadruple p < q < r < s of seeded 4- to 12-gon specs, the
    slack of each side, scaled by the lcm of the bounds' denominators, is
    the sum of the spec's graph weights over its box, labels mod N:
    ({p, s}, {q, r}) over (p, q] x (r, s] and ({p, q}, {r, s}) over
    (q, r] x (s, p + N], every term a diagonal.  The recognizers agree
    with the reference formula, and all three outcomes occur."""
    rng = random.Random(2601)
    seen = set()
    for n_gon in range(4, 13):
        slot = _tables(n_gon).slot
        for _ in range(6):
            for spec in seeded_specs(n_gon, rng):
                w = polytopes._spec_weights(spec)
                scale = lcm(*(Fraction(v).denominator for _, v in spec.c))

                def box(a_lo, a_hi, b_lo, b_hi):
                    return sum(
                        w[slot[tuple(sorted((wrap_vertex(a, n_gon), wrap_vertex(b, n_gon))))]]
                        for a in range(a_lo + 1, a_hi + 1) for b in range(b_lo + 1, b_hi + 1)
                    )

                slacks = []
                for p, q, r, s in itertools.combinations(range(1, n_gon + 1), 4):
                    sides = side_slacks(spec, p, q, r, s)
                    assert [scale * x for x in sides] == [
                        box(p, q, r, s), box(q, r, s, p + n_gon)
                    ]
                    slacks.append(min(sides))
                assert is_stasheff(spec) == all(x >= 0 for x in slacks)
                assert is_nondegenerate(spec) == all(x > 0 for x in slacks)
                seen.add((is_stasheff(spec), is_nondegenerate(spec)))
    assert seen == {(True, True), (True, False), (False, False)}


def test_spec_weights_of_a_minkowski_spec_are_the_summed_weights():
    """The spec's graph of ``minkowski_spec(points)`` has the diagonal
    weights of the points' summed graph, scaled by the lcm of the bounds'
    denominators, on seeded 5- to 12-gon products of integral and
    rational points."""
    rng = random.Random(3801)
    for n_gon in range(5, 13):
        diags = _tables(n_gon).diagonals
        for factor in (1, 1, Fraction(1, 2), Fraction(2, 3)):
            points = [
                point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) * factor
                for _ in range(rng.randint(1, 4))
            ]
            spec = minkowski_spec(points)
            summed = [sum(ws) for ws in zip(*(p.graph.w for p in points))]
            scale = lcm(*(Fraction(v).denominator for _, v in spec.c))
            assert polytopes._spec_weights(spec) == [scale * summed[k] for k in diags]


def test_recognizers():
    assert is_stasheff(const_spec(5, 1))
    assert is_nondegenerate(const_spec(5, 1))
    assert is_stasheff(BIG)
    assert is_nondegenerate(BIG)
    bad = StasheffSpec.of(5, {(1, 3): -1, (1, 4): 0, (2, 4): 0, (2, 5): 0, (3, 5): 0})
    assert not is_stasheff(bad)
    # a single point: criterion holds with equality somewhere
    pt_spec = minkowski_spec([point(5, (2, 1))])
    assert is_stasheff(pt_spec)
    assert not is_nondegenerate(pt_spec)


def test_vertices_restrict_the_bounds():
    expected = {
        ((1, 3), (1, 4)): (20, 10),
        ((1, 3), (3, 5)): (20, 30),
        ((1, 4), (2, 4)): (10, 20),
        ((2, 4), (2, 5)): (20, 20),
        ((2, 5), (3, 5)): (20, 30),
    }
    seen = set()
    for tri in triangulations(5):
        v = vertex(BIG, tri)
        key = tuple(tuple(d) for d in tri.sorted_diagonals())
        assert v.vector() == expected[key]
        lam = lamination_from_coords(v)
        assert contains(BIG, lam)
        seen.add(lam)
    assert len(seen) == 5  # nondegenerate: all corners distinct


def test_contains_checks_every_diagonal():
    ones = const_spec(5, 1)
    assert contains(ones, Lamination.zero(5))
    assert contains(ones, point(5, (1, 1)))
    assert not contains(ones, point(5, (2, 0)))
    assert not contains(ones, point(5, (-9, 0)))  # other diagonals overflow
    with pytest.raises(SizeMismatch):
        contains(ones, Lamination.zero(6))


@pytest.mark.parametrize("n_gon", range(5, 13))
def test_contains_and_dominates_match_the_walked_cuts(n_gon):
    """Membership and the cut-mass order, which stop at the first failing
    diagonal, answer as every diagonal's walked cut mass does, on seeded
    lattice points of a product's spec, on seeded laminations of the fan
    box [-2, 2], and on both scaled by 1/3.  A point lies in the spec of a
    product exactly when its graph is below the product's."""
    rng = random.Random(4100 + n_gon)
    factors = [point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(2)]
    spec = minkowski_spec(factors)
    total = factors[0].graph + factors[1].graph
    inside = lattice_points(spec)
    points = [rng.choice(inside) for _ in range(6)]
    points += [point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(6)]
    answers = set()
    for p in points + [p * Fraction(1, 3) for p in points]:
        cuts = [walked_cut(p.graph, *d) for d, _ in spec.c]
        want = all(m <= 2 * c for m, (_, c) in zip(cuts, spec.c))
        assert contains(spec, p) == want == dominates(p.graph, total)
        above = [walked_cut(total, *d) for d, _ in spec.c]
        assert dominates(total, p.graph) == all(map(operator.ge, cuts, above))
        answers.add(want)
    assert answers == {True, False}


def test_minkowski_spec_of_points():
    p, q = point(5, (1, 0)), point(5, (0, 1))
    sp = minkowski_spec([p, q])
    for d in diagonals(5):
        assert 2 * sp.as_dict()[d] == walked_cut(p.graph, *d) + walked_cut(q.graph, *d)
    with pytest.raises(EmptyInput):
        minkowski_spec([])
    with pytest.raises(SizeMismatch):
        minkowski_spec([p, Lamination.zero(6)])


def test_minkowski_sum_adds_bounds():
    a, b = const_spec(5, 1), const_spec(5, 2)
    assert minkowski_sum(a, b) == const_spec(5, 3)
    bad = StasheffSpec.of(5, {(1, 3): -1, (1, 4): 0, (2, 4): 0, (2, 5): 0, (3, 5): 0})
    with pytest.raises(NotStasheff):
        minkowski_sum(a, bad)


def test_linear_core_feasible():
    # unit square
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert coordinate_bounds(square, 2) == [(0, 1), (0, 1)]
    empty = square + [((1, 1), Fraction(-1, 2))]
    assert coordinate_bounds(empty, 2) is None


# -- Fourier-Motzkin oracle --------------------------------------------------
#
# Exact elimination, kept here as an independent check of the library's
# simplex (Schrijver, Theory of Linear and Integer Programming, ch. 12).
# Rows are (coeffs, rhs) meaning coeffs . a <= rhs.


def fm_canonical(ineqs):
    """Rows scaled to integer content-1 directions, the tightest rhs each;
    None for an infeasible constant row."""
    best = {}
    for coeffs, rhs in ineqs:
        coeffs = [Fraction(x) for x in coeffs]
        rhs = Fraction(rhs)
        if all(x == 0 for x in coeffs):
            if rhs < 0:
                return None
            continue
        denom = 1
        for x in coeffs:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        numer = 0
        for x in coeffs:
            numer = gcd(numer, x.numerator * (denom // x.denominator))
        scale = Fraction(denom, numer)
        key = tuple(x * scale for x in coeffs)
        if key not in best or rhs * scale < best[key]:
            best[key] = rhs * scale
    return list(best.items())


def fm_eliminate(ineqs, k):
    """Project the system onto the other coordinates; None if infeasible."""
    pos = [(c, r) for c, r in ineqs if c[k] > 0]
    neg = [(c, r) for c, r in ineqs if c[k] < 0]
    out = [(c, r) for c, r in ineqs if c[k] == 0]
    for cp, rp in pos:
        for cn, rn in neg:
            mp, mn = -cn[k], cp[k]
            coeffs = tuple(mp * a + mn * b for a, b in zip(cp, cn))
            out.append((coeffs, mp * rp + mn * rn))
    return fm_canonical(out)


def fm_feasible(ineqs, nvars):
    system = fm_canonical(ineqs)
    for k in range(nvars):
        if system is None:
            return False
        system = fm_eliminate(system, k)
    return system is not None


def fm_bounds(ineqs, nvars):
    """Per-coordinate bounds by eliminating every other coordinate."""
    system = fm_canonical(ineqs)
    if system is None:
        return None
    bounds = []
    for k in range(nvars):
        reduced = system
        for j in range(nvars):
            if j != k:
                reduced = fm_eliminate(reduced, j)
                if reduced is None:
                    return None
        his = [r / c[k] for c, r in reduced if c[k] > 0]
        los = [r / c[k] for c, r in reduced if c[k] < 0]
        if not his or not los:
            raise Unbounded(f"coordinate {k} has no finite bound")
        if max(los) > min(his):
            return None
        bounds.append((max(los), min(his)))
    return bounds


def test_linear_core_eliminate():
    sys = [((1, 1), 3), ((-1, 0), 0), ((1, -1), 1)]
    projected = fm_eliminate(sys, 0)
    # y from: x <= 3 - y and x <= 1 + y combined with -x <= 0
    assert projected is not None
    # emptiness is tested first, so Unbounded means a nonempty region
    with pytest.raises(Unbounded):
        coordinate_bounds(projected, 2)
    assert fm_feasible(sys, 2)
    assert coordinate_bounds(sys, 2)[1] == (-1, 3)


def test_linear_core_unbounded():
    half = [((1, 0), 1), ((0, 1), 1)]
    with pytest.raises(Unbounded):
        coordinate_bounds(half, 2)


def test_linear_core_degenerate_single_point():
    """Eight tight rows through one point: every basis is degenerate, and
    Bland's rule must still terminate."""
    octant_rows = [
        ((sx, sy, sz), 0) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    ]
    assert coordinate_bounds(octant_rows, 3) == [(0, 0)] * 3
    assert fm_bounds(octant_rows, 3) == [(0, 0)] * 3


def test_linear_core_rank_deficient_is_unbounded():
    slab = [((1, 1), 1), ((-1, -1), 0)]
    with pytest.raises(Unbounded):
        coordinate_bounds(slab, 2)


def test_linear_core_duplicate_and_redundant_rows():
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    noisy = square + [
        ((1, 0), 1),  # duplicate
        ((2, 0), 2),  # same half-space, scaled
        ((1, 0), 3),  # looser parallel row
        ((1, 1), 5),  # redundant
        ((0, 0), 0),  # constant, always true
    ]
    assert coordinate_bounds(noisy, 2) == [(0, 1), (0, 1)]
    assert coordinate_bounds(noisy + [((0, 0), -1)], 2) is None


def test_linear_core_rational_bound():
    triangle = [((1, 2), Fraction(1, 3)), ((-1, 0), 0), ((0, -1), 0)]
    bounds = coordinate_bounds(triangle, 2)
    assert bounds == [(0, Fraction(1, 3)), (0, Fraction(1, 6))]
    assert isinstance(bounds[1][1], Fraction)
    assert bounds == fm_bounds(triangle, 2)


def oracle_specs():
    """Seeded Minkowski specs on 5- to 7-gons, half of them with rational
    bounds pulled down (many of those are empty), in the fan and in seeded
    non-fan charts."""
    rng = random.Random(2011)
    cases = []
    for n_gon, count in ((5, 24), (6, 20), (7, 16)):
        fan = fan_triangulation(n_gon)
        others = [t for t in triangulations(n_gon) if t != fan]
        for i in range(count):
            pts = [
                point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
                for _ in range(rng.randint(1, 3))
            ]
            spec = minkowski_spec(pts)
            if i % 2:
                spec = StasheffSpec.of(n_gon, {
                    d: v + Fraction(rng.randint(-3, 1), rng.randint(2, 4))
                    for d, v in spec.c
                })
            chart = fan if i % 4 < 2 else rng.choice(others)
            cases.append((spec, chart))
    return cases


def generic_systems():
    """Seeded systems in 0 to 4 variables with up to 9 rows, about a third
    of the coefficients and every right-hand side rational, so that
    ``coordinate_bounds`` must clear each row's denominators."""
    rng = random.Random(2401)

    def coefficient():
        if rng.random() < 1 / 3:
            return Fraction(rng.randint(-3, 3), rng.randint(2, 3))
        return rng.randint(-2, 2)

    systems = []
    for _ in range(400):
        nvars = rng.randint(0, 4)
        rows = [
            (tuple(coefficient() for _ in range(nvars)),
             Fraction(rng.randint(-2, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 9))
        ]
        systems.append((rows, nvars))
    return systems


def bounds_or_unbounded(solve, ineqs, nvars):
    try:
        return solve(ineqs, nvars)
    except Unbounded as exc:
        return f"Unbounded: {exc}"


def test_coordinate_bounds_match_fourier_motzkin():
    outcomes = set()
    for spec, chart in oracle_specs():
        ineqs = chart_inequalities(spec, chart)
        bounds = coordinate_bounds(ineqs, spec.n_gon - 3)
        assert bounds == fm_bounds(ineqs, spec.n_gon - 3)
        if bounds is None:
            outcomes.add("empty")
        elif all(Fraction(x).denominator == 1 for pair in bounds for x in pair):
            outcomes.add("integer")
        else:
            outcomes.add("rational")
    assert outcomes == {"empty", "integer", "rational"}
    tally = Counter()
    for rows, nvars in generic_systems():
        bounds = bounds_or_unbounded(coordinate_bounds, rows, nvars)
        assert bounds == bounds_or_unbounded(fm_bounds, rows, nvars)
        tally["empty" if bounds is None else "unbounded" if isinstance(bounds, str) else "box"] += 1
    assert min(tally.values()) >= 50 and len(tally) == 3


def test_coordinate_bounds_rejects_rows_of_the_wrong_length():
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    lifted = [((x, y, 0), r) for (x, y), r in square] + [((0, 0, 1), -5), ((0, 0, -1), 10)]
    assert coordinate_bounds(lifted, 3) == [(0, 1), (0, 1), (-10, -5)]
    # extra coefficients would otherwise be cut off: z <= -5 read as 0 <= -5
    with pytest.raises(DimensionMismatch):
        coordinate_bounds(square + [((0, 0, 1), -5), ((0, 0, -1), 10)], 2)
    with pytest.raises(DimensionMismatch):
        coordinate_bounds(square + [((1,), 1)], 2)
    with pytest.raises(DimensionMismatch):
        coordinate_bounds([((), 1)], 1)


def test_coordinate_bounds_rejects_inexact_entries():
    """A float coefficient, a float right-hand side or a bool anywhere is
    an InvariantViolation, not an AttributeError from the LP."""
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    for bad in [
        [((1,), 0.5)],
        [((0.5,), 1), ((-1,), 0)],
        square + [((1.0, 0), 1)],
        square + [((1, 0), 1.0)],
        square + [((True, 0), 1)],
        square + [((1, 0), False)],
    ]:
        nvars = len(bad[0][0])
        with pytest.raises(InvariantViolation, match="inequality entries must be exact numbers"):
            coordinate_bounds(bad, nvars)
    assert coordinate_bounds(square + [((Fraction(1, 2), 0), Fraction(1, 3))], 2) == [
        (0, Fraction(2, 3)), (0, 1)
    ]


def octagon_cases():
    """Seeded octagon specs: a Minkowski spec (integral box), the same
    raised by thirds (rational box) and lowered by one (empty), in the fan
    and in charts one and three flips away.  Fourier-Motzkin takes seconds
    on some octagon charts, so only some variants are kept."""
    rng = random.Random(1901)
    cases = []
    for flips, tags in enumerate(("irl", "l", "", "r")):
        spec = minkowski_spec(
            [point(8, [rng.randint(-1, 1) for _ in range(5)]) for _ in range(2)]
        )
        chart = fan_triangulation(8)
        for _ in range(flips):
            chart = flip(chart, rng.choice(chart.sorted_diagonals()))[0]
        raised = StasheffSpec.of(8, {d: v + Fraction(rng.randint(0, 2), 3) for d, v in spec.c})
        lowered = StasheffSpec.of(8, {d: v - 1 for d, v in spec.c})
        for tag, variant in zip("irl", (spec, raised, lowered)):
            if tag in tags:
                cases.append((variant, chart))
    return cases


def test_coordinate_bounds_match_fourier_motzkin_on_octagons():
    outcomes = set()
    for spec, chart in octagon_cases():
        ineqs = chart_inequalities(spec, chart)
        bounds = coordinate_bounds(ineqs, 5)
        assert bounds == fm_bounds(ineqs, 5)
        if bounds is None:
            outcomes.add("empty")
        elif all(x.denominator == 1 for pair in bounds for x in pair):
            outcomes.add("integer")
        else:
            outcomes.add("rational")
    assert outcomes == {"empty", "integer", "rational"}


def test_box_without_coordinates():
    """The triangle's chart has no coordinates: the box is empty unless a
    constant row is violated."""
    assert coordinate_bounds([], 0) == [] == fm_bounds([], 0)
    assert coordinate_bounds([((), 0), ((), Fraction(1, 2))], 0) == []
    assert coordinate_bounds([((), -1)], 0) is None
    triangle = StasheffSpec.of(3, {})
    assert coordinate_bounds(chart_inequalities(triangle, fan_triangulation(3)), 0) == []


def test_box_rank_deficient_nonempty_is_unbounded():
    """a_0 and a_1 are boxed, a_2 appears in no row: the system is
    nonempty, and the dual of max +-a_2 has the equation 0 = +-1, so a_2 is
    unbounded."""
    rows = [((1, 0, 0), 2), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1)]
    with pytest.raises(Unbounded):
        fm_bounds(rows, 3)
    with pytest.raises(Unbounded, match="coordinate 2"):
        coordinate_bounds(rows, 3)
    # rank one, and the first dual is already infeasible
    tilted = [((1, 1), 1), ((-1, -1), 1), ((1, 0), 3)]
    with pytest.raises(Unbounded, match="coordinate 0"):
        coordinate_bounds(tilted, 2)


def test_box_empty_with_an_infeasible_first_dual():
    """No row bounds a_0, so the first dual is infeasible, and the rows on
    a_1 contradict each other: Farkas decides empty."""
    rows = [((0, 1), -1), ((0, -1), 0)]
    assert coordinate_bounds(rows, 2) is None
    assert fm_bounds(rows, 2) is None
    # the same first dual on a nonempty system: a_0 is unbounded
    with pytest.raises(Unbounded, match="coordinate 0"):
        coordinate_bounds([((0, 1), 1), ((0, -1), 0)], 2)


def test_bland_rule_terminates_on_degenerate_cross_polytopes():
    """Every rhs of the 16 rows +-a_0 +- a_1 +- a_2 +- a_3 <= c is the same,
    and the right-hand side +-e_k of every dual has three zeros, so the
    simplex meets ties and degenerate pivots: the smallest-index rule must
    still terminate, at the corners of the cross-polytope."""
    signs = list(itertools.product((1, -1), repeat=4))
    for c, corner in ((0, 0), (1, 1), (Fraction(2, 3), Fraction(2, 3))):
        rows = [(s, c) for s in signs]
        assert coordinate_bounds(rows, 4) == [(-corner, corner)] * 4 == fm_bounds(rows, 4)


def nonagon_products():
    """Two two-factor products from the fan box [-1, 1] and one
    three-factor product from [-2, 2], seeded."""
    out = []
    for seed, factors, box in ((6, 2, 1), (9, 2, 1), (3, 3, 2)):
        rng = random.Random(seed)
        out.append([
            point(9, [rng.randint(-box, box) for _ in range(6)])
            for _ in range(factors)
        ])
    return out


def test_nonagon_support_equals_lattice_points():
    sizes = []
    for pts in nonagon_products():
        lattice = lattice_points(minkowski_spec(pts))
        assert set(product_expand(pts).support()) == set(lattice)
        sizes.append(len(lattice))
    assert sizes == [33, 18, 224]


def test_chart_inequalities_cover_all_diagonals():
    ones = const_spec(5, 1)
    fan = fan_triangulation(5)
    ineqs = chart_inequalities(ones, fan)
    # one row per linear form; five diagonals, chart members give one row each
    assert ((1, 0), 1) in [(tuple(c), r) for c, r in ineqs]
    assert len(ineqs) >= 5
    with pytest.raises(SizeMismatch):
        chart_inequalities(ones, fan_triangulation(6))


def test_lattice_points_unit_pentagon():
    ones = const_spec(5, 1)
    pts = lattice_points(ones)
    assert len(pts) == 6
    vectors = {chart_coords(p, fan_triangulation(5)).vector() for p in pts}
    assert vectors == {(0, 0), (1, 1), (1, 0), (0, 1), (-1, 0), (0, -1)}
    # the five corners plus the center
    corners = {
        lamination_from_coords(vertex(ones, t)) for t in triangulations(5)
    }
    assert corners <= set(pts)
    assert Lamination.zero(5) in pts


def test_lattice_points_match_across_charts():
    for spec, count in [(const_spec(5, 1), 6), (const_spec(5, 3), 31)]:
        reference = None
        for tri in triangulations(5):
            pts = lattice_points(spec, tri)
            assert len(pts) == count
            if reference is None:
                reference = set(pts)
            assert set(pts) == reference


@pytest.mark.parametrize("n_gon, sample", [(6, None), (7, 10)])
def test_compiled_chart_points_match_cut_masses(n_gon, sample):
    """Each lattice point, built from its scanned vector by the compiled
    chart, has that vector as its cut-mass coordinates."""
    rng = random.Random(900 + n_gon)
    spec = minkowski_spec(
        [point(n_gon, [rng.randint(-3, 3) for _ in range(n_gon - 3)]) for _ in range(4)]
    )
    tris = triangulations(n_gon)
    if sample is not None:
        tris = rng.sample(tris, sample)
    sizes = set()
    for tri in tris:
        pts = lattice_points(spec, tri)
        vectors = [chart_coords(lam, tri).vector() for lam in pts]
        assert vectors == _scan_chart(spec, tri)[1]
        assert vectors == sorted(vectors)
        sizes.add(len(pts))
    assert len(sizes) == 1 and min(sizes) > 20


def product_scan(spec, chart, solve=coordinate_bounds):
    """Oracle for the interval scan: every integral vector of the coordinate
    box that ``solve`` gives, in ``itertools.product`` order, that meets
    every chart inequality."""
    ineqs = chart_inequalities(spec, chart)
    bounds = solve(ineqs, spec.n_gon - 3)
    if bounds is None:
        return []
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in bounds]
    return [
        p for p in itertools.product(*ranges)
        if all(sum(map(mul, form, p)) <= rhs for form, rhs in ineqs)
    ]


def test_interval_scan_matches_the_product_filter():
    """Fan and non-fan charts of the 5- to 8-gon, on Minkowski specs, their
    halves (rational bounds) and perturbations (most not Stasheff, some
    empty)."""
    rng = random.Random(1400)
    seen_empty = seen_full = 0
    for n_gon, count, box in [(5, 8, 2), (6, 6, 2), (7, 4, 1), (8, 3, 1)]:
        for _ in range(count):
            spec = minkowski_spec([
                point(n_gon, [rng.randint(-box, box) for _ in range(n_gon - 3)])
                for _ in range(rng.randint(1, 3))
            ])
            c = spec.as_dict()
            variants = [
                spec,
                StasheffSpec.of(n_gon, {d: Fraction(v, 2) for d, v in c.items()}),
                StasheffSpec.of(n_gon, {d: v + rng.randint(-2, 1) for d, v in c.items()}),
            ]
            fan = tri = fan_triangulation(n_gon)
            for variant in variants:
                while tri == fan:
                    tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
                for chart in (fan, tri):
                    vectors = _scan_chart(variant, chart)[1]
                    assert vectors == product_scan(variant, chart)
                    seen_empty += not vectors
                    seen_full += bool(vectors)
                tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
    assert seen_empty >= 5 and seen_full >= 50


def test_interval_scan_on_empty_polytopes():
    for n_gon in (5, 6, 7):
        spec = const_spec(n_gon, -1)
        for chart in triangulations(n_gon)[:3]:
            assert product_scan(spec, chart) == []
            assert _scan_chart(spec, chart)[1] == []
            assert lattice_points(spec, chart) == []


def compiled_route_cases():
    """Every chart of the 4- to 6-gons and seeded charts of the 7- and
    8-gons, each with a seeded Minkowski spec, the same lowered by one
    (often empty) and a random rational spec."""
    rng = random.Random(2323)
    cases = []
    for n_gon, sample in ((4, None), (5, None), (6, None), (7, 6), (8, 3)):
        charts = triangulations(n_gon)
        if sample is not None:
            charts = rng.sample(charts, sample)
        box = 2 if n_gon < 7 else 1
        for chart in charts:
            spec = minkowski_spec([
                point(n_gon, [rng.randint(-box, box) for _ in range(n_gon - 3)])
                for _ in range(rng.randint(1, 2))
            ])
            lowered = StasheffSpec.of(n_gon, {d: v - 1 for d, v in spec.c})
            rational = StasheffSpec.of(n_gon, {
                d: Fraction(rng.randint(-2, 5), rng.randint(1, 4)) for d in diagonals(n_gon)
            })
            cases += [(spec, chart), (lowered, chart), (rational, chart)]
    return cases


def test_compiled_chart_scan_matches_fourier_motzkin(monkeypatch):
    """The scan of a compiled chart, which reads no box, gives the integral
    points of the Fourier-Motzkin box of the chart inequalities that meet
    every inequality, and each of them lies inside that box.  Elimination
    takes seconds on octagon charts, so those cases take the box from
    ``coordinate_bounds``.  The Farkas gate proves some of the specs that
    fail the quadruple criterion free of integral points, some of them
    with a nonempty rational box."""
    farkas = []
    real = polytopes._is_empty

    def recorded(*args):
        farkas.append(real(*args))
        return farkas[-1]

    monkeypatch.setattr(polytopes, "_is_empty", recorded)
    outcomes = set()
    proved = Counter()
    rationally_nonempty = 0
    for spec, chart in compiled_route_cases():
        oracle = fm_bounds if spec.n_gon < 8 else coordinate_bounds
        bounds = oracle(chart_inequalities(spec, chart), spec.n_gon - 3)
        farkas.clear()
        vectors = _scan_chart(spec, chart)[1]
        if any(farkas):
            assert not is_stasheff(spec) and vectors == []
            rationally_nonempty += bounds is not None
            proved[oracle.__name__] += 1
        assert vectors == product_scan(spec, chart, oracle)
        if bounds is None:
            assert vectors == []
            outcomes.add("empty")
            continue
        assert all(lo <= x <= hi for v in vectors for x, (lo, hi) in zip(v, bounds))
        rational = any(x.denominator > 1 for pair in bounds for x in pair)
        outcomes.add(("rational" if rational else "integer", bool(vectors)))
    assert outcomes == {"empty", ("integer", True), ("rational", True), ("rational", False)}
    assert proved["fm_bounds"] > 0 and rationally_nonempty > 0


def test_scans_leave_the_compiled_chart_as_built(monkeypatch):
    """A cold chart reached first through ``lamination_from_coords`` and
    ``chart_change`` builds its row table once, at compile time.  Scanning
    A, B, an empty spec and A again on it, then reading
    ``chart_inequalities``, gives A the same points both times, builds no
    row table and leaves every field of the compiled chart, the row table
    included, as it was built.  The Stasheff specs A and B run no simplex;
    the empty spec fails the quadruple criterion and runs one Farkas
    test."""
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(laminations, "_RowTable")
    for name in ("_phase_one", "_phase_two", "_is_empty"):
        counted(polytopes, name)

    def state(compiled):
        return {**vars(compiled), "rows": vars(compiled.rows)}
    rng = random.Random(2324)
    chart = flip(fan_triangulation(7), Segment(1, 4))[0]
    a = minkowski_spec([point(7, [rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)])
    b = StasheffSpec.of(7, {d: v + Fraction(4, 3) for d, v in a.c})
    empty = StasheffSpec.of(7, {d: v - 1 for d, v in a.c})
    assert is_stasheff(a) and is_stasheff(b) and not is_stasheff(empty)
    _compiled.cache_clear()
    coords = TropicalCoords.of(chart, dict.fromkeys(chart.sorted_diagonals(), 1))
    lamination_from_coords(coords)
    chart_change(coords, fan_triangulation(7))
    assert calls == {"_RowTable": 1}
    compiled = _compiled(chart)
    rows = compiled.rows
    built = copy.deepcopy(state(compiled))
    calls.clear()
    first = _scan_chart(a, chart)[1]
    assert len(_scan_chart(b, chart)[1]) > len(first) > 0
    assert calls == {}
    assert _scan_chart(empty, chart)[1] == []
    assert calls == {"_is_empty": 1, "_phase_one": 1, "_phase_two": 1}
    calls.clear()
    assert _scan_chart(a, chart)[1] == first
    assert chart_inequalities(a, chart)
    assert calls == {}
    assert _compiled(chart) is compiled and compiled.rows is rows
    assert state(compiled) == built


def test_scans_floor_the_bounds_once(monkeypatch):
    """``_scan_chart`` floors a spec's bounds once, for the Farkas gate and
    the scan both, in the fan and in another chart: a Stasheff spec skips
    the gate; a non-Stasheff spec with integral points and an empty one each
    run one Farkas test on the same floors."""
    calls = Counter()
    real_floors, real_is_empty = laminations._RowTable.floors, polytopes._is_empty

    def floors(self, values):
        calls["floors"] += 1
        return real_floors(self, values)

    def is_empty(*args):
        calls["_is_empty"] += 1
        return real_is_empty(*args)

    monkeypatch.setattr(laminations._RowTable, "floors", floors)
    monkeypatch.setattr(polytopes, "_is_empty", is_empty)
    rng = random.Random(3802)
    a = minkowski_spec([point(7, [rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)])
    # raising one bound keeps a's points and breaks the criterion
    raised = StasheffSpec.of(7, {d: v + 2 * (d == Segment(2, 5)) for d, v in a.c})
    empty = const_spec(7, -1)
    assert is_stasheff(a) and not is_stasheff(raised) and not is_stasheff(empty)
    for chart in (fan_triangulation(7), flip(fan_triangulation(7), Segment(1, 4))[0]):
        for spec, gated, nonempty in ((a, 0, True), (raised, 1, True), (empty, 1, False)):
            calls.clear()
            assert bool(_scan_chart(spec, chart)[1]) == nonempty
            assert calls == Counter(floors=1, _is_empty=gated)


@pytest.mark.parametrize("n_gon, k, low, high", [
    *(pytest.param(n_gon, k, -1, -1, id=f"{n_gon}-{k}")
      for n_gon, k in [(6, 300), (7, 60), (8, 25)]),
    *(pytest.param(n_gon, k, Fraction(-1, 3), Fraction(2, 3), id=f"{n_gon}-{k}-rational")
      for n_gon, k in [(6, 300), (7, 60), (8, 25)]),
])
def test_farkas_gate_ends_empty_scans_before_the_prefixes(monkeypatch, n_gon, k, low, high):
    """In the fan chart the diagonals {1, N-1}, {2, N} and {N-2, N} carry
    the forms +-a_last alone.  Bound ``high`` on {1, N-1}, ``low`` on the
    other two and K elsewhere leave no integral point only by the rows of
    the last depth, which the scan meets after walking about K^(N-4)
    prefixes: with -1 the polytope is empty, and with 2/3 and -1/3 it keeps
    the rational points with 1/3 <= a_last <= 2/3.  The spec fails the
    quadruple criterion, so the Farkas test on the floored bounds proves
    it free of integral points and the scan never starts."""
    bounds = {Segment(1, n_gon - 1): high, Segment(2, n_gon): low, Segment(n_gon - 2, n_gon): low}
    spec = StasheffSpec.of(n_gon, {d: bounds.get(d, k) for d in diagonals(n_gon)})
    assert not is_stasheff(spec)

    def no_scan(*args):
        raise AssertionError("the Farkas test proves the spec free of integral points")

    monkeypatch.setattr(polytopes, "_interval_scan", no_scan)
    assert _scan_chart(spec, fan_triangulation(n_gon))[1] == []
    assert lattice_points(spec) == []


def test_mismatched_sizes_compile_no_chart():
    """A spec and a chart of different polygons raise SizeMismatch before
    the chart is compiled, so the call caches nothing."""
    _compiled.cache_clear()
    with pytest.raises(SizeMismatch):
        _scan_chart(const_spec(5, 1), fan_triangulation(6))
    assert _compiled.cache_info().currsize == 0


def test_every_chart_bounds_every_depth_on_both_sides():
    """Every chart of the 4- to 9-gon (624 charts) and the fan chart up to
    N = 20 file a row with a positive and a row with a negative last
    coefficient at every coordinate, so no bound leaves the scan open."""
    charts = [chart for n_gon in range(4, 10) for chart in triangulations(n_gon)]
    assert len(charts) == 624
    charts += [fan_triangulation(n_gon) for n_gon in range(3, 21)]
    for chart in charts:
        filed = laminations._RowTable(_CompiledChart(chart).forms, chart).filed
        assert len(filed) == chart.n_gon - 3
        assert all(upper and lower for upper, lower in filed)


def test_forms_that_leave_a_depth_open_are_rejected():
    """Hand-made forms on the pentagon's fan chart (1-3, 1-4) that bound
    some coordinate on one side only, given the ones before it, raise
    InvariantViolation naming the chart and the coordinate, and so does a
    zero form, naming its diagonal."""
    fan = fan_triangulation(5)
    box = [[(1, 0)], [(-1, 0)], [(0, 1)], [(0, -1)], []]
    assert laminations._RowTable(box, fan).filed
    for forms, k, side in [
        ([[(1, 0)], [(-1, 0)], [(0, 1)], [(1, 1)], []], 1, "below"),
        ([[(1, 0)], [(-1, 1)], [(0, -1)], [], []], 0, "below"),
        ([[(1, 0)], [(-1, 0)], [(2, -1)], [], []], 1, "above"),
        ([[(1, 0)], [(-1, 0)], [], [], []], 1, "above or below"),
    ]:
        diagonal = "1-3" if k == 0 else "1-4"
        with pytest.raises(InvariantViolation, match=(
            f"^chart '1-3,1-4' has no row bounding coordinate {k} \\({diagonal}\\) from {side}$"
        )):
            laminations._RowTable(forms, fan)
    with pytest.raises(InvariantViolation, match=(
        "^chart '1-3,1-4' has a zero form on diagonal 2-5$"
    )):
        laminations._RowTable([[(1, 0)], [(-1, 0)], [(0, 1)], [(0, -1), (0, 0)], []], fan)


def sample(n_gon, k, seed):
    """k laminations from fan coordinates in [-2, 2], drawn in diagonal
    order from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(k)]


def test_d10_fan_scan_matches_the_product_filter():
    spec = minkowski_spec(sample(10, 4, 10))
    fan = fan_triangulation(10)
    vectors = _scan_chart(spec, fan)[1]
    assert len(vectors) == 2950
    assert vectors == product_scan(spec, fan)


def test_minkowski_spec_matches_the_validated_constructor():
    """On seeded 4- to 10-gon products, integral and rational, the spec
    equals the one the validated constructor makes of the halved summed cut
    masses, in ``==``, in ``repr`` and in value types: an integral product's
    bound is an int exactly where its cut mass is even."""
    rng = random.Random(2325)
    types = set()
    for n_gon in range(4, 11):
        for trial in range(3):
            pts = [
                point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
                for _ in range(rng.randint(1, 3))
            ]
            if trial == 2:
                pts = [p * Fraction(1, rng.randint(2, 3)) for p in pts]
            masses = {
                d: sum(walked_cut(p.graph, *d) for p in pts) for d in diagonals(n_gon)
            }
            spec = minkowski_spec(pts)
            validated = StasheffSpec.of(n_gon, {d: Fraction(m, 2) for d, m in masses.items()})
            assert spec == validated
            assert repr(spec) == repr(validated)
            assert [type(v) for _, v in spec.c] == [type(v) for _, v in validated.c]
            if trial < 2:
                assert all((type(v) is int) == (masses[d] % 2 == 0) for d, v in spec.c)
            types |= {type(v) for _, v in spec.c}
    assert types == {int, Fraction}


def test_lattice_points_on_the_triangle_and_the_square():
    """A triangle has no diagonal: one empty vector, the zero lamination.
    A square's one coordinate a runs over [-c(2,4), c(1,3)]."""
    triangle = StasheffSpec.of(3, {})
    fan = fan_triangulation(3)
    assert _scan_chart(triangle, fan)[1] == [()] == product_scan(triangle, fan)
    assert lattice_points(triangle) == [Lamination.zero(3)]
    square = StasheffSpec.of(4, {(1, 3): 2, (2, 4): 1})
    for chart, vectors in [
        (fan_triangulation(4), [(-1,), (0,), (1,), (2,)]),
        (Triangulation.of(4, [(2, 4)]), [(-2,), (-1,), (0,), (1,)]),
    ]:
        assert _scan_chart(square, chart)[1] == vectors == product_scan(square, chart)
        pts = lattice_points(square, chart)
        assert [chart_coords(p, chart).vector() for p in pts] == vectors
    assert Lamination.zero(4) in lattice_points(square)


def test_lattice_points_tropicalizes_each_segment_once(monkeypatch):
    """A cold call compiles its chart once: a single exchange walk resolves
    every diagonal off the chart exactly once, with one exit search
    (``_apexes``) each, and nothing else does.  The compile is kept, so a
    second call on an equal chart resolves nothing."""
    calls = []
    resolve = laminations._apexes

    def counting(members, n, i, j):
        calls.append(((i, j), members))
        return resolve(members, n, i, j)

    monkeypatch.setattr(laminations, "_apexes", counting)
    _compiled.cache_clear()
    chart = triangulations(6)[5]
    pts = lattice_points(const_spec(6, 3), chart)
    assert len(pts) >= 100
    off_chart = [d for d in diagonals(6) if d not in chart.diagonals]
    assert sorted(seg for seg, _ in calls) == off_chart
    assert {members for _, members in calls} == {chart.diagonals}
    again = Triangulation.of(6, chart.sorted_diagonals())
    assert lattice_points(const_spec(6, 2), again) == lattice_points(const_spec(6, 2), chart)
    assert len(calls) == len(off_chart)


def test_lattice_points_empty_and_point():
    empty = StasheffSpec.of(
        5, {(1, 3): -1, (1, 4): 0, (2, 4): 0, (2, 5): 0, (3, 5): 0}
    )
    assert lattice_points(empty) == []
    lone = point(5, (2, -1))
    assert lattice_points(minkowski_spec([lone])) == [lone]


def test_lattice_points_big_pentagon_census():
    assert len(lattice_points(BIG)) == 951


def test_shift_to_negative_part():
    shift, shifted = shift_to_negative_part(BIG)
    fan = fan_triangulation(5)
    assert chart_coords(shift, fan).vector() == (-20, -20)
    assert is_stasheff(shifted)
    for d in fan.sorted_diagonals():
        assert shifted.as_dict()[d] <= 0
    # translating fan coordinates by the shift keeps points inside
    small_shift, small_spec = shift_to_negative_part(const_spec(5, 1))
    delta = chart_coords(small_shift, fan)
    for lam in lattice_points(const_spec(5, 1)):
        vec = chart_coords(lam, fan).vector()
        moved_vec = tuple(a + b for a, b in zip(vec, delta.vector()))
        moved = point(5, moved_vec)
        assert contains(small_spec, moved)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_specs_recognizer_matches_vertex_containment(data):
    """The quadruple criterion agrees with all corners lying inside."""
    vals = {d: data.draw(st.integers(-2, 2)) for d in diagonals(5)}
    spec = StasheffSpec.of(5, vals)
    by_slack = is_stasheff(spec)
    by_corners = all(
        contains(spec, lamination_from_coords(vertex(spec, t)))
        for t in triangulations(5)
    )
    assert by_slack == by_corners


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_minkowski_spec_polytopes_contain_their_generators(data):
    pts = [
        point(5, (data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))))
        for _ in range(3)
    ]
    spec = minkowski_spec(pts)
    assert is_stasheff(spec)
    fan = fan_triangulation(5)
    summed = tuple(
        sum(chart_coords(p, fan).vector()[k] for p in pts) for k in range(2)
    )
    assert contains(spec, point(5, summed))


@pytest.mark.parametrize("n_gon", range(5, 10))
def test_vertex_flags_match_the_catalan_scan(n_gon):
    """A lattice point is flagged a vertex exactly when the diagonals where
    its tropical coordinate meets the bound hold the diagonals of one of the
    Catalan-many charts; on seeded Minkowski specs and a rational spec, in
    the fan and a seeded chart.  The flagged points are the integral chart
    vertices."""
    rng = random.Random(2300 + n_gon)
    charts = triangulations(n_gon)
    for trial in range(2):
        factors = [point(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
                   for _ in range(2 if n_gon < 9 else 1)]
        spec = minkowski_spec(factors)
        if trial:
            spec = StasheffSpec.of(n_gon, {d: c + Fraction(1, 2) for d, c in spec.c})
        for chart in (fan_triangulation(n_gon), rng.choice(charts)):
            points = lattice_points(spec, chart)
            expected = []
            for p in points:
                tight = {d for d in diagonals(n_gon)
                         if walked_cut(p.graph, *d) == 2 * spec.as_dict()[d]}
                expected.append(any(t.diagonals <= tight for t in charts))
            assert vertex_flags(spec, [p.graph.w for p in points]) == expected
            corners = (lamination_from_coords(vertex(spec, t)) for t in charts)
            assert {p.graph for p, flag in zip(points, expected) if flag} == {
                lam.graph for lam in corners if lam.domain == "int"
            }
