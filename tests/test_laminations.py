"""Measured curve systems and their tropical chart coordinates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropclust.errors import NotADiagonal, NotALamination
from tropclust.laminations import (
    Lamination,
    TropicalCoords,
    chart_change,
    chart_coords,
    lamination_from_coords,
    tropical_coordinate,
)
from tropclust.polygon import (
    Segment,
    diagonals,
    fan_triangulation,
    triangulations,
)
from tropclust.weighted_graphs import WeightedGraph


def graph(n, weights):
    return WeightedGraph.from_weights(
        n, {Segment(i, j): w for (i, j), w in weights.items()}
    )


def curve(n, a, b):
    """The unit curve running parallel to the chord {a, b}.

    Weight one on the chord, compensated by alternating side weights along
    a boundary path of odd length (so every vertex carries zero mass).
    A path of even length cannot be balanced; then no such integral curve
    exists on its own.
    """
    k, l = Segment(a, b)
    if (l - k) % 2 == 1:
        path = list(range(k, l + 1))
    elif (n - (l - k)) % 2 == 1:
        path = list(range(l, n + 1)) + list(range(1, k + 1))
    else:
        raise ValueError(f"chord ({a},{b}) in a {n}-gon has no lone unit curve")
    weights = {(k, l): 1}
    for idx, (p, q) in enumerate(zip(path, path[1:])):
        weights[tuple(Segment(p, q))] = 1 if idx % 2 else -1
    return Lamination(graph(n, weights))


def fan_coords(n_gon, values):
    fan = fan_triangulation(n_gon)
    return TropicalCoords.of(
        fan, dict(zip(fan.sorted_diagonals(), values))
    )


def coords_box(draw_int, tri):
    return TropicalCoords.of(
        tri, {d: draw_int() for d in tri.sorted_diagonals()}
    )


def test_curve_helper_is_a_lamination():
    c = curve(5, 2, 5)
    assert not c.is_zero()
    assert c.graph.weight(2, 5) == 1
    assert c.graph.weight(2, 3) == -1


def test_rejects_nonzero_vertex_mass():
    with pytest.raises(NotALamination):
        Lamination(graph(6, {(1, 3): 1}))


def test_rejects_crossing_loaded_diagonals():
    g = graph(
        6,
        {(1, 4): 1, (2, 5): 1, (1, 2): -1, (4, 5): -1, (2, 3): -1, (5, 6): 1,
         (3, 4): 1, (1, 6): -1},
    )
    with pytest.raises(NotALamination):
        Lamination(g)


def test_rejects_fractional_weights_in_int_domain():
    h = Fraction(1, 2)
    g = graph(5, {(1, 3): h, (3, 4): -h, (4, 5): h, (1, 5): -h})
    with pytest.raises(NotALamination):
        Lamination(g, "int")
    lam = Lamination(g, "rat")
    assert tropical_coordinate(lam, Segment(1, 4)) == h
    assert tropical_coordinate(lam, Segment(1, 3)) == 0


def test_zero_lamination():
    z = Lamination.zero(5)
    assert z.is_zero()
    assert chart_coords(z, fan_triangulation(5)).vector() == (0, 0)


def test_pentagon_unit_curve_coordinate_table():
    """Fan coordinates of all five pentagon curves, checked by hand via cut masses."""
    table = {
        (1, 3): (0, 1),
        (2, 4): (0, -1),
        (3, 5): (1, 1),
        (1, 4): (-1, 0),
        (2, 5): (1, 0),
    }
    fan = fan_triangulation(5)
    for (a, b), vec in table.items():
        assert chart_coords(curve(5, a, b), fan).vector() == vec


def test_coordinate_on_own_chord_counts_no_crossings():
    for a, b in [(1, 3), (2, 5), (1, 4)]:
        assert tropical_coordinate(curve(5, a, b), Segment(a, b)) == 0


def test_tropical_coordinate_rejects_edges():
    with pytest.raises(NotADiagonal):
        tropical_coordinate(curve(5, 1, 3), Segment(4, 5))


def test_coords_chart_mismatch():
    c = fan_coords(5, (1, 2))
    with pytest.raises(NotADiagonal):
        c.value(Segment(2, 4))
    assert c.value(Segment(1, 3)) == 1
    assert c.as_dict() == {Segment(1, 3): 1, Segment(1, 4): 2}
    assert c.is_integral()


def test_coordinates_are_additive():
    a = curve(5, 1, 3)
    b = curve(5, 1, 4)
    fan = fan_triangulation(5)
    va = chart_coords(a, fan).vector()
    vb = chart_coords(b, fan).vector()
    vs = chart_coords(a + b, fan).vector()
    assert vs == tuple(x + y for x, y in zip(va, vb))


def test_scalar_multiplication():
    c = curve(5, 2, 5)
    fan = fan_triangulation(5)
    assert chart_coords(3 * c, fan).vector() == (3, 0)
    half = c * Fraction(1, 2)
    assert half.domain == "rat"
    assert chart_coords(half, fan).vector() == (Fraction(1, 2), 0)
    with pytest.raises(NotALamination):
        (-1) * c


def test_unit_vectors_reconstruct_known_curves():
    assert lamination_from_coords(fan_coords(5, (1, 0))) == curve(5, 2, 5)
    assert lamination_from_coords(fan_coords(5, (0, 1))) == curve(5, 1, 3)
    assert lamination_from_coords(fan_coords(5, (-1, 0))) == curve(5, 1, 4)
    got = lamination_from_coords(fan_coords(6, (1, 0, 0)))
    assert got == curve(6, 2, 5)


def test_short_hexagon_chords_only_pair_up():
    """A lone unit curve on a short chord of an even polygon cannot balance.

    Both boundary paths between the endpoints have even length, so the
    alternating side compensation has no integral solution; the integral
    point pairs the chord with the opposite one instead.
    """
    with pytest.raises(NotALamination):
        Lamination(graph(6, {(1, 3): 1, (1, 2): -1, (2, 3): -1}))
    with pytest.raises(ValueError):
        curve(6, 1, 3)
    paired = lamination_from_coords(fan_coords(6, (0, 1, 1)))
    assert paired.graph.weight(1, 3) == 1
    assert paired.graph.weight(4, 6) == 1
    assert paired.domain == "int"


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(5, 7))
def test_coords_roundtrip_integer_box(data, n_gon):
    tris = triangulations(n_gon)
    tri = data.draw(st.sampled_from(tris))
    coords = coords_box(lambda: data.draw(st.integers(-3, 3)), tri)
    lam = lamination_from_coords(coords)
    assert chart_coords(lam, tri) == coords
    assert lam.domain == "int"


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coords_roundtrip_rational_box(data):
    tri = data.draw(st.sampled_from(triangulations(6)))
    coords = coords_box(
        lambda: Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 3))),
        tri,
    )
    lam = lamination_from_coords(coords)
    assert chart_coords(lam, tri) == coords


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_chart_change_matches_direct_recomputation(data):
    n_gon = data.draw(st.integers(5, 6))
    tris = triangulations(n_gon)
    t1 = data.draw(st.sampled_from(tris))
    t2 = data.draw(st.sampled_from(tris))
    coords = coords_box(lambda: data.draw(st.integers(-3, 3)), t1)
    moved = chart_change(coords, t2)
    assert moved.chart == t2
    direct = chart_coords(lamination_from_coords(coords), t2)
    assert moved == direct


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tropical_exchange_equality(data):
    """Coordinates of any lamination satisfy the quadruple exchange identity."""
    n_gon = data.draw(st.integers(5, 7))
    tri = data.draw(st.sampled_from(triangulations(n_gon)))
    coords = coords_box(lambda: data.draw(st.integers(-4, 4)), tri)
    lam = lamination_from_coords(coords)

    def a(p, q):
        seg = Segment(p, q)
        if seg.is_edge(n_gon):
            return 0
        return tropical_coordinate(lam, seg)

    quad = sorted(data.draw(st.sets(st.integers(1, n_gon), min_size=4, max_size=4)))
    p, q, r, s = quad
    assert a(p, r) + a(q, s) == max(a(p, q) + a(r, s), a(q, r) + a(p, s))


def test_chart_coords_all_charts_consistent():
    lam = curve(6, 1, 4) + 2 * lamination_from_coords(fan_coords(6, (0, 1, 1)))
    for tri in triangulations(6):
        coords = chart_coords(lam, tri)
        for d in tri.sorted_diagonals():
            assert coords.value(d) == tropical_coordinate(lam, d)
        assert lamination_from_coords(coords) == lam


def lamination_from_weights(rng, n_gon):
    """A random integral lamination built from its weights, not its coordinates.

    Nonnegative weights go on the diagonals of a random triangulation; the
    boundary edges then solve the zero-vertex-mass equations
    e(p-1, p) + e(p, p+1) = -load(p).  An odd polygon has one solution
    (weights are doubled when it is half-integral); an even one needs the
    alternating sum of loads to vanish and leaves one free edge weight.
    """
    while True:
        tri = rng.choice(triangulations(n_gon))
        weights = {d: rng.randint(0, 3) for d in tri.sorted_diagonals()}
        load = [0] * (n_gon + 1)
        for d, w in weights.items():
            load[d.i] += w
            load[d.j] += w
        # edge[p] is the weight on (p, p+1) if (n, 1) carried 0; weight t on
        # (n, 1) adds (-1)^p t to it, and the last edge must come out as t
        edge = [0] * (n_gon + 1)
        for p in range(1, n_gon + 1):
            edge[p] = -load[p] - edge[p - 1]
        gap = edge[n_gon]
        if n_gon % 2 == 1:  # gap - t == t
            if gap % 2:
                weights = {d: 2 * w for d, w in weights.items()}
                edge = [2 * x for x in edge]
                gap *= 2
            t = gap // 2
        elif gap != 0:  # gap + t == t has no solution
            continue
        else:
            t = rng.randint(-2, 2)
        for p in range(1, n_gon + 1):
            weights[Segment(p, p % n_gon + 1)] = edge[p] + (-1) ** p * t
        return Lamination(WeightedGraph.from_weights(n_gon, weights))


@pytest.mark.parametrize("n_gon", [8, 9])
def test_coords_roundtrip_from_weights_in_non_fan_charts(n_gon):
    rng = random.Random(2000 + n_gon)
    fan = fan_triangulation(n_gon)
    charts = [t for t in triangulations(n_gon) if t != fan]
    for _ in range(6):
        lam = lamination_from_weights(rng, n_gon)
        tri = rng.choice(charts)
        assert lamination_from_coords(chart_coords(lam, tri)) == lam


def test_chart_change_matches_cut_masses_on_heptagon_chart_pairs():
    rng = random.Random(77)
    tris = triangulations(7)
    for _ in range(20):
        lam = lamination_from_weights(rng, 7)
        t1, t2 = rng.choice(tris), rng.choice(tris)
        assert chart_change(chart_coords(lam, t1), t2) == chart_coords(lam, t2)
