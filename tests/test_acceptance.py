"""Acceptance gate: ten end-to-end guarantees checked in exact arithmetic.

Each test covers one headline property of the library at desk scale and
finishes by printing a single PASS line (visible under ``pytest -s``); the
test node's own outcome is the authoritative pass/fail signal.  Randomized
checks use fixed seeds so the gate is deterministic.
"""

import itertools
import random

from tropclust.basis import (
    a2_coefficient,
    product_expand,
    product_graph,
    verify_positive_basis,
)
from tropclust.laminations import (
    Lamination,
    TropicalCoords,
    chart_change,
    chart_coords,
    lamination_from_coords,
)
from tropclust.polygon import (
    Segment,
    crosses,
    diagonals,
    fan_triangulation,
    triangulations,
)
from tropclust.polytopes import (
    StasheffSpec,
    contains,
    is_nondegenerate,
    is_stasheff,
    lattice_points,
    minkowski_spec,
    minkowski_sum,
    vertex,
)
from tropclust.weighted_graphs import dominates


def _passed(label: str) -> None:
    print(f"PASS {label}")


def pt(n_gon, vec):
    """Integral lamination with the given fan-chart coordinates."""
    fan = fan_triangulation(n_gon)
    return lamination_from_coords(
        TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), vec)))
    )


# Pentagon unit curves in cyclic order: consecutive ones share a polygon
# vertex, curves two steps apart cross exactly once.
UNITS = {
    1: pt(5, (-1, 0)),  # curve along {1,4}
    2: pt(5, (0, 1)),  # curve along {1,3}
    3: pt(5, (1, 1)),  # curve along {3,5}
    4: pt(5, (1, 0)),  # curve along {2,5}
    5: pt(5, (0, -1)),  # curve along {2,4}
}

UNIT_BY_CHORD = {
    Segment(1, 4): UNITS[1],
    Segment(1, 3): UNITS[2],
    Segment(3, 5): UNITS[3],
    Segment(2, 5): UNITS[4],
    Segment(2, 4): UNITS[5],
}

BIG = StasheffSpec.of(5, {(1, 3): 20, (1, 4): 10, (2, 4): 20, (2, 5): 20, (3, 5): 30})


def max_diagonal_weight(lam):
    n = lam.n_gon
    return max(
        (w for a, b, w in lam.graph.sparse_items() if Segment(a, b).is_diagonal(n)),
        default=0,
    )


def random_lamination(rng, n_gon, box, weight_cap=None):
    """Random integral lamination from a fan-coordinate box, optionally
    redrawn until no diagonal carries more than ``weight_cap``."""
    while True:
        lam = pt(n_gon, tuple(rng.randint(-box, box) for _ in range(n_gon - 3)))
        if weight_cap is None or max_diagonal_weight(lam) <= weight_cap:
            return lam


def pentagon_laminations_weight_at_most_3():
    """Every integral pentagon lamination whose diagonal weights are <= 3.

    The loaded diagonals of a lamination are pairwise non-crossing, so the
    support is empty, a single chord, or one of the five adjacent chord
    pairs; weights 1..3 on each loaded chord give 1 + 5*3 + 5*9 = 61 graphs.
    """
    segs = diagonals(5)
    subsets = [()] + [(d,) for d in segs]
    subsets += [p for p in itertools.combinations(segs, 2) if not crosses(*p)]
    out = []
    for sub in subsets:
        for weights in itertools.product(range(1, 4), repeat=len(sub)):
            lam = Lamination.zero(5)
            for chord, w in zip(sub, weights):
                lam = lam + w * UNIT_BY_CHORD[chord]
            out.append(lam)
    return out


def test_c01_pentagon_products_exhaust_minkowski_lattice():
    """Support of every small pentagon product equals the lattice points of
    the Minkowski bound spec of its factors: all multisets of at most three
    laminations with diagonal weights at most 3, deduplicated by the summed
    graph (which determines both sides)."""
    lams = pentagon_laminations_weight_at_most_3()
    assert len(lams) == 61
    seen = set()
    checked = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(range(len(lams)), size):
            points = [lams[i] for i in combo]
            key = product_graph(points)
            if key in seen:
                continue
            seen.add(key)
            support = product_expand(points).support()
            assert set(support) == set(lattice_points(minkowski_spec(points)))
            checked += 1
    assert checked == 7174
    _passed(
        "criterion 1: exhaustive pentagon products match Minkowski lattice "
        f"points ({checked} distinct summed graphs)"
    )


def test_c02_hexagon_products_match_minkowski_lattice_randomized():
    """Same set equality on 200 random hexagon instances, products of at
    most two laminations with diagonal weights at most 2."""
    rng = random.Random(20260815)
    for _ in range(200):
        points = [
            random_lamination(rng, 6, box=2, weight_cap=2)
            for _ in range(rng.randint(1, 2))
        ]
        support = product_expand(points).support()
        assert set(support) == set(lattice_points(minkowski_spec(points)))
    _passed("criterion 2: 200 random hexagon products match Minkowski lattice points")


def _check_pentagon_closed_form(d):
    """Compare the closed-form pentagon coefficients against an actual
    product expansion, across every sector, and confirm the closed form
    accounts for the whole coefficient mass exactly once."""
    points = []
    for i, mult in enumerate(d):
        points.extend([UNITS[i + 1]] * mult)
    exp = product_expand(points)
    total = sum(d)
    accounted = 0
    for i in range(1, 6):
        for b in range(total + 1):
            for c in range(total + 1):
                target = b * UNITS[i] + c * UNITS[i % 5 + 1]
                assert exp.coefficient(target) == a2_coefficient(d, i, b, c)
                if b > 0:  # each support point lands in exactly one sector
                    accounted += a2_coefficient(d, i, b, c)
    accounted += a2_coefficient(d, 1, 0, 0)  # the origin, counted once
    assert accounted == sum(coeff for _, coeff in exp)


def test_c03_pentagon_closed_form_matches_expansion():
    count = 0
    for d in itertools.product(range(7), repeat=5):
        if 0 < sum(d) <= 6:
            _check_pentagon_closed_form(d)
            count += 1
    assert count == 461
    _check_pentagon_closed_form((1, 3, 1, 2, 3))
    _passed(
        "criterion 3: pentagon closed form matches expansions for all 461 "
        "multiplicity vectors with sum <= 6 plus the scaled (1,3,1,2,3) instance"
    )


def _corner_recognizer(spec, tris):
    return all(
        contains(spec, lamination_from_coords(vertex(spec, t))) for t in tris
    )


def test_c04_quadruple_recognizer_equals_corner_recognizer():
    """The quadruple-inequality recognizer agrees with checking that every
    chart corner satisfies the defining inequalities: exhaustively over
    pentagon specs with bounds in -2..2, then on 500 hexagon specs (400
    uniform draws plus 100 Minkowski specs so both outcomes occur)."""
    tris5 = triangulations(5)
    outcomes = {True: 0, False: 0}
    for vals in itertools.product(range(-2, 3), repeat=5):
        spec = StasheffSpec.of(5, dict(zip(diagonals(5), vals)))
        by_slack = is_stasheff(spec)
        assert by_slack == _corner_recognizer(spec, tris5)
        outcomes[by_slack] += 1
    assert outcomes[True] and outcomes[False]

    rng = random.Random(42)
    tris6 = triangulations(6)
    outcomes = {True: 0, False: 0}
    for k in range(500):
        if k % 5 == 0:
            spec = minkowski_spec(
                [random_lamination(rng, 6, box=2) for _ in range(rng.randint(1, 2))]
            )
        else:
            spec = StasheffSpec.of(6, {d: rng.randint(-2, 2) for d in diagonals(6)})
        by_slack = is_stasheff(spec)
        assert by_slack == _corner_recognizer(spec, tris6)
        outcomes[by_slack] += 1
    assert outcomes[True] and outcomes[False]
    _passed(
        "criterion 4: quadruple and corner recognizers agree on 3125 pentagon "
        "and 500 hexagon specs"
    )


def test_c05_worked_pentagon_spec_vertices_and_census():
    """The (20,10,20,20,30) pentagon spec is a nondegenerate Stasheff spec;
    each of its five chart corners satisfies every inequality, and its
    lattice census is the same in all five charts and under an independent
    window scan."""
    assert is_stasheff(BIG) and is_nondegenerate(BIG)
    expected = {
        ((1, 3), (1, 4)): (20, 10),
        ((1, 3), (3, 5)): (20, 30),
        ((1, 4), (2, 4)): (10, 20),
        ((2, 4), (2, 5)): (20, 20),
        ((2, 5), (3, 5)): (20, 30),
    }
    corners = set()
    for tri in triangulations(5):
        v = vertex(BIG, tri)
        key = tuple(tuple(d) for d in tri.sorted_diagonals())
        assert v.vector() == expected[key]
        lam = lamination_from_coords(v)
        assert contains(BIG, lam)
        corners.add(lam)
    assert len(corners) == 5

    reference = None
    for tri in triangulations(5):
        pts = lattice_points(BIG, tri)
        assert len(pts) == 951
        if reference is None:
            reference = set(pts)
        assert set(pts) == reference

    # Independent census: exchange relations pinch every feasible fan
    # coordinate into (-30, 30), so scanning that window with the membership
    # predicate alone must reproduce the same point set.
    scan = {
        pt(5, (a, b))
        for a in range(-30, 31)
        for b in range(-30, 31)
        if contains(BIG, pt(5, (a, b)))
    }
    assert scan == reference
    _passed(
        "criterion 5: worked pentagon spec has its five corners and a "
        "951-point census identical in all charts and under a window scan"
    )


def test_c06_coordinate_bijection_roundtrip_and_coherence():
    """Chart coordinates and lamination reconstruction invert each other on
    1000 random integral laminations (polygon sizes 5..7), and changing
    charts commutes with reading coordinates directly."""
    rng = random.Random(6)
    for n_gon, count in ((5, 334), (6, 333), (7, 333)):
        tris = triangulations(n_gon)
        for _ in range(count):
            tri = rng.choice(tris)
            vec = tuple(rng.randint(-5, 5) for _ in range(n_gon - 3))
            coords = TropicalCoords.of(tri, dict(zip(tri.sorted_diagonals(), vec)))
            lam = lamination_from_coords(coords)
            back = chart_coords(lam, tri)
            assert back == coords
            assert lamination_from_coords(back) == lam

    for n_gon in (5, 6):
        tris = triangulations(n_gon)
        for _ in range(10):
            lam = random_lamination(rng, n_gon, box=3)
            for t1 in tris:
                c1 = chart_coords(lam, t1)
                for t2 in tris:
                    assert chart_change(c1, t2) == chart_coords(lam, t2)
    _passed(
        "criterion 6: 1000 coordinate roundtrips and all-chart-pair "
        "coherence hold exactly"
    )


def test_c07_basis_functions_positive_in_every_chart():
    """Basis functions of 50 random laminations re-expand with nonnegative
    coefficients in every chart of the atlas (5 pentagon charts, 14 hexagon
    charts), with every division exact."""
    rng = random.Random(7)
    for _ in range(25):
        assert verify_positive_basis(random_lamination(rng, 5, box=3))
    for _ in range(25):
        assert verify_positive_basis(random_lamination(rng, 6, box=2))
    _passed("criterion 7: 50 random basis functions stay positive in every chart")


def test_c08_cut_mass_order_matches_support_inclusion():
    """On 200 pentagon product pairs, the cut-mass partial order of the
    summed graphs coincides with inclusion of expansion supports.  Draws mix
    identical pairs and support-member singletons with uniform pairs so both
    outcomes occur."""
    rng = random.Random(8)
    outcomes = {True: 0, False: 0}
    for k in range(200):
        first = [
            random_lamination(rng, 5, box=2) for _ in range(rng.randint(1, 2))
        ]
        second = [
            random_lamination(rng, 5, box=2) for _ in range(rng.randint(1, 2))
        ]
        if k % 4 == 0:
            second = list(first)
        elif k % 4 == 1:
            members = product_expand(second).support()
            first = [members[rng.randrange(len(members))]]
        dominated = dominates(product_graph(first), product_graph(second))
        included = set(product_expand(first).support()) <= set(
            product_expand(second).support()
        )
        assert dominated == included
        outcomes[included] += 1
    assert outcomes[True] and outcomes[False]
    _passed(
        "criterion 8: cut-mass order matches support inclusion on 200 "
        "product pairs"
    )


def test_c09_monomial_maxima_add_under_minkowski_sum():
    """For 100 random pentagon Stasheff spec pairs and 30 nonnegative chart
    monomials each, the maximum of the monomial's exponent form over the
    lattice points of the Minkowski sum equals the sum of the maxima over
    the summands."""
    rng = random.Random(9)
    tris5 = triangulations(5)

    def random_spec():
        return minkowski_spec(
            [random_lamination(rng, 5, box=2) for _ in range(rng.randint(1, 2))]
        )

    for _ in range(100):
        spec1, spec2 = random_spec(), random_spec()
        total = minkowski_sum(spec1, spec2)
        assert is_stasheff(spec1) and is_stasheff(spec2) and is_stasheff(total)
        points = {
            "a": lattice_points(spec1),
            "b": lattice_points(spec2),
            "ab": lattice_points(total),
        }
        vectors = {}

        def chart_vectors(tag, tri):
            if (tag, tri) not in vectors:
                vectors[(tag, tri)] = [
                    chart_coords(p, tri).vector() for p in points[tag]
                ]
            return vectors[(tag, tri)]

        for _ in range(30):
            tri = rng.choice(tris5)
            exponents = tuple(rng.randint(0, 3) for _ in range(2))

            def best(tag):
                return max(
                    sum(e * x for e, x in zip(exponents, vec))
                    for vec in chart_vectors(tag, tri)
                )

            assert best("ab") == best("a") + best("b")
    _passed(
        "criterion 9: nonnegative monomial maxima are additive over 100 "
        "Minkowski sum pairs"
    )


def test_c10_singleton_specs_have_singleton_lattice():
    """The Minkowski spec of a single lamination contains exactly that
    lamination: 100 random cases over pentagon and hexagon."""
    rng = random.Random(10)
    for _ in range(50):
        lam = random_lamination(rng, 5, box=4)
        assert lattice_points(minkowski_spec([lam])) == [lam]
    for _ in range(50):
        lam = random_lamination(rng, 6, box=3)
        assert lattice_points(minkowski_spec([lam])) == [lam]
    _passed("criterion 10: 100 singleton specs enumerate to exactly their point")
