"""Measured curve systems and their tropical chart coordinates."""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_oracle import exit_quadrilateral, triangles
from exchange_oracle import point_weights
from flips import flip
from graphs import graph_from_weights, piece_laminations, walked_cut, weight
from tropclust.errors import (
    InvariantViolation,
    NonIntegral,
    NotALamination,
    SizeMismatch,
)
from tropclust.jsonio import graph_to_json, lamination_from_json
from tropclust.laminations import (
    Lamination,
    TropicalCoords,
    _CompiledChart,
    _edge_cycle,
    _exchange_walk,
    _piece_chords,
    chart_change,
    chart_coords,
    lamination_from_coords,
)
from tropclust.polygon import (
    Segment,
    _apexes,
    crosses,
    diagonals,
    fan_triangulation,
    triangulations,
)
from tropclust.polytopes import StasheffSpec, _scan_chart, lattice_points, minkowski_spec
from tropclust.values import _normalize
from tropclust.weighted_graphs import (
    WeightedGraph,
    _half_cuts,
    _tables,
    pairs,
    wrap_vertex,
)


def graph(n, weights):
    return graph_from_weights(
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


def point_coords(tri, values):
    """The coordinates with the given values, in the order of the chart's
    sorted diagonals."""
    return TropicalCoords.of(tri, dict(zip(tri.sorted_diagonals(), values)))


def fan_coords(n_gon, values):
    return point_coords(fan_triangulation(n_gon), values)


def coords_box(draw_int, tri):
    return TropicalCoords.of(
        tri, {d: draw_int() for d in tri.sorted_diagonals()}
    )


def test_curve_helper_is_a_lamination():
    c = curve(5, 2, 5)
    assert any(c.graph.w)
    assert weight(c.graph, 2, 5) == 1
    assert weight(c.graph, 2, 3) == -1


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


@pytest.mark.parametrize("n_gon", [5, 6, 7, 8])
def test_rejections_name_the_first_offender(n_gon):
    """With two offenders of a kind, the error names the first one: the
    first negative diagonal in pair order, the first crossing pair in
    pairwise order of the loaded diagonals, the lowest vertex of nonzero
    mass."""
    rng = random.Random(900 + n_gon)
    diags = diagonals(n_gon)
    for _ in range(12):
        s, t = sorted(rng.sample(diags, 2))
        with pytest.raises(InvariantViolation) as info:
            graph(n_gon, {tuple(s): -1, tuple(t): -rng.randint(1, 3), (1, 2): 5})
        assert str(info.value) == f"negative weight on diagonal ({s.i},{s.j})"

        crossing = []
        while len(crossing) < 2:
            loaded = sorted(rng.sample(diags, rng.randint(3, min(6, len(diags)))))
            crossing = [(a, b) for a in loaded for b in loaded if a < b and crosses(a, b)]
        a, b = crossing[0]
        with pytest.raises(NotALamination) as info:
            Lamination(graph(n_gon, {tuple(d): rng.randint(1, 3) for d in loaded}))
        assert str(info.value) == f"diagonals {a} and {b} cross"

        lam = lamination_from_coords(TropicalCoords.of(
            fan_triangulation(n_gon),
            {d: rng.randint(-2, 2) for d in fan_triangulation(n_gon).sorted_diagonals()},
        ))
        p = rng.randint(1, n_gon - 1)
        weights = {(i, j): w for i, j, w in lam.graph.sparse_items()}
        weights[p, p + 1] = weights.get((p, p + 1), 0) + rng.choice((-2, -1, 1, 2))
        with pytest.raises(NotALamination, match=f"^vertex {p} has nonzero total weight$"):
            Lamination(graph(n_gon, weights))


@pytest.mark.parametrize("n_gon", [5, 6, 7, 8])
def test_sums_check_crossings_but_not_graphs(n_gon):
    """A sum of unit curves is a lamination exactly when the chords do not
    cross: the summed graph is built unchecked, the lamination checks
    still run."""
    curves = []
    for d in diagonals(n_gon):
        try:
            curves.append((d, curve(n_gon, *d)))
        except ValueError:  # no lone unit curve on this chord
            pass
    for (s, a), (t, b) in itertools.combinations(curves, 2):
        if crosses(s, t):
            with pytest.raises(NotALamination, match="^diagonals .* cross$"):
                a + b
        else:
            sums = tuple(map(sum, zip(a.graph.w, b.graph.w)))
            assert (a + b).graph == WeightedGraph(n_gon, sums)


def test_rejects_fractional_weights_in_int_domain():
    """The domain is a document tag only: an ``"int"`` (or untagged)
    document with a fractional weight is refused before the lamination is
    built, so even when its diagonals also cross; tagged ``"rat"``, the
    same weights read."""
    h = Fraction(1, 2)
    g = graph(5, {(1, 3): h, (3, 4): -h, (4, 5): h, (1, 5): -h})
    crossing = graph_to_json(graph(5, {(1, 3): h, (2, 4): h}))
    for doc in (graph_to_json(g), crossing):
        for tagged in ({**doc, "domain": "int"}, doc):
            with pytest.raises(NotALamination) as info:
                lamination_from_json(tagged)
            assert str(info.value) == "integral domain but fractional weights"
    with pytest.raises(NotALamination, match="cross"):
        lamination_from_json({**crossing, "domain": "rat"})
    lam = lamination_from_json({**graph_to_json(g), "domain": "rat"})
    assert lam == Lamination(g)
    assert walked_cut(lam.graph, 1, 4) == 2 * h
    assert walked_cut(lam.graph, 1, 3) == 0


def test_domain_follows_the_weights():
    """The constructor takes the graph alone and stores the domain its
    weights fix; equality and hashing read the graph."""
    h = Fraction(1, 2)
    g = graph(5, {(1, 3): h, (3, 4): -h, (4, 5): h, (1, 5): -h})
    assert Lamination(g).domain == "rat"
    assert Lamination(g + g).domain == "int"
    assert Lamination(g) * 2 == Lamination(g + g)
    assert hash(Lamination(g) * 2) == hash(Lamination(g + g))
    with pytest.raises(TypeError):
        Lamination(g, "int")


def test_zero_lamination():
    z = Lamination.zero(5)
    assert not any(z.graph.w)
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
    slot = _tables(5).slot
    for a, b in [(1, 3), (2, 5), (1, 4)]:
        assert _half_cuts(5, curve(5, a, b).graph.w)[slot[Segment(a, b)]] == 0


def test_coords_chart_mismatch():
    c = fan_coords(5, (1, 2))
    assert Segment(2, 4) not in dict(c.values)
    assert dict(c.values)[Segment(1, 3)] == 1
    assert dict(c.values) == {Segment(1, 3): 1, Segment(1, 4): 2}


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
    assert weight(paired.graph, 1, 3) == 1
    assert weight(paired.graph, 4, 6) == 1
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
        return Fraction(walked_cut(lam.graph, p, q), 2)

    quad = sorted(data.draw(st.sets(st.integers(1, n_gon), min_size=4, max_size=4)))
    p, q, r, s = quad
    assert a(p, r) + a(q, s) == max(a(p, q) + a(r, s), a(q, r) + a(p, s))


def test_chart_coords_all_charts_consistent():
    lam = curve(6, 1, 4) + 2 * lamination_from_coords(fan_coords(6, (0, 1, 1)))
    for tri in triangulations(6):
        coords = chart_coords(lam, tri)
        for d in tri.sorted_diagonals():
            assert 2 * dict(coords.values)[d] == walked_cut(lam.graph, *d)
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
        return Lamination(graph_from_weights(n_gon, weights))


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


def test_rational_coords_in_non_fan_charts_give_rat_laminations():
    rng = random.Random(31)
    fan = fan_triangulation(6)
    for tri in triangulations(6):
        if tri == fan:
            continue
        coords = coords_box(lambda: Fraction(2 * rng.randint(-4, 3) + 1, 2), tri)
        lam = lamination_from_coords(coords)
        assert lam.domain == "rat"
        assert chart_coords(lam, tri) == coords
        assert lamination_from_coords(chart_coords(lam, fan)) == lam


def test_coordinates_must_name_exactly_the_chart_diagonals():
    """A point reaches a compiled chart only through ``TropicalCoords``,
    which refuses too few values and a value off the chart's diagonals, so
    ``lamination_from_coords`` has no length check of its own."""
    fan = fan_triangulation(6)
    for values in (
        [((1, 3), 1), ((1, 4), 2)],
        [((1, 3), 1), ((1, 4), 2), ((1, 5), 3), ((2, 4), 4)],
        [((1, 3), 1), ((1, 4), 2), ((2, 4), 4)],
    ):
        with pytest.raises(SizeMismatch, match="^coordinate segments must be exactly the chart diagonals$"):
            TropicalCoords(fan, tuple(values))


def test_exchange_steps_exit_where_the_oracle_search_does():
    """The walk finds each exit with the flip's apex search; the oracle
    scans the chart's triangles and counts crossings.  For every diagonal
    off every chart of the 4- to 9-gons, both give the same exit diagonal
    and the same two pairs of opposite sides, and the walk resolves each
    such diagonal once."""
    for n in range(4, 10):
        for tri in triangulations(n):
            faces = triangles(tri)
            _, steps = _exchange_walk(tri)
            walked = {s: (ear, tuple(sides)) for s, ear, *sides in steps}
            off_chart = [d for d in diagonals(n) if d not in tri.diagonals]
            assert len(steps) == len(off_chart) and sorted(walked) == off_chart
            for d in off_chart:
                ear, sides = exit_quadrilateral(d, tri, faces)
                assert Segment(*_apexes(tri.diagonals, n, *d)) == ear
                assert walked[d] == (ear, sides)


def _dense_lamination(tri, compiled, point):
    """The lamination at a point by the dense route: each diagonal's value
    is the max of its linear forms at the point, and each weight is the
    inclusion-exclusion w(p, q) = v(p, q) + v(p-1, q-1) - v(p, q-1) - v(p-1, q)
    over wrapped labels, with v = 0 off the diagonals."""
    n = tri.n_gon
    values = {
        d: max(sum(map(mul, f, point)) for f in forms)
        for d, forms in zip(diagonals(n), compiled.forms)
    }

    def v(a, b):
        a, b = wrap_vertex(a, n), wrap_vertex(b, n)
        return values.get(Segment(a, b), 0) if a != b else 0

    return Lamination(WeightedGraph(n, tuple(
        _normalize(v(p, q) + v(p - 1, q - 1) - v(p, q - 1) - v(p - 1, q)) for p, q in pairs(n)
    )))


def test_exchange_steps_match_the_dense_forms():
    """The tropical exchange relation against the max of the linear forms.

    On every chart of the 3- to 8-gon and on the fan and five seeded charts
    of the 10- and 12-gon, integral and half-integral points (the latter as
    Fractions, integral values included) give the same lamination, entry
    types included, both ways; each diagonal's cut mass is the dense value.
    """
    rng = random.Random(14)
    charts = [t for n in range(3, 9) for t in triangulations(n)]
    for n in (10, 12):
        charts.append(fan_triangulation(n))
        for _ in range(5):
            tri = fan_triangulation(n)
            for _ in range(3 * n):
                tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
            charts.append(tri)
    for tri in charts:
        compiled = _CompiledChart(tri)
        dim = tri.n_gon - 3
        points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(2)]
        points += [tuple(Fraction(rng.randint(-7, 7), 2) for _ in range(dim)) for _ in range(2)]
        for point in points:
            lam = lamination_from_coords(point_coords(tri, point))
            dense = _dense_lamination(tri, compiled, point)
            assert repr(lam) == repr(dense)
            values = [max(sum(map(mul, f, point)) for f in forms) for forms in compiled.forms]
            walked = [walked_cut(lam.graph, *d) for d in diagonals(tri.n_gon)]
            assert walked == [2 * v for v in values]


@pytest.mark.parametrize("n_gon", range(5, 11))
def test_compiled_points_pass_the_validating_constructors(n_gon):
    """A chart point becomes a lamination unchecked; on the fan and three
    seeded charts, at integral, all-negative and Fraction points (integral
    values included), it is what the validating constructors make of its
    weights, entry types and domain included."""
    rng = random.Random(1700 + n_gon)
    tri = fan_triangulation(n_gon)
    charts = [tri]
    for _ in range(3):
        for _ in range(3 * n_gon):
            tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
        charts.append(tri)
    dim = n_gon - 3
    for tri in charts:
        compiled = _CompiledChart(tri)
        points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)]
        points.append(tuple(rng.randint(-3, -1) for _ in range(dim)))
        points += [tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3))) for _ in range(dim))
                   for _ in range(3)]
        points.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)))
        for point in points:
            lam = lamination_from_coords(point_coords(tri, point))
            checked = Lamination(WeightedGraph(n_gon, lam.graph.w))
            assert repr(lam) == repr(checked)


def _seeded_charts(n_gon, rng, count):
    """The fan and ``count`` charts reached from it by seeded flips."""
    tri = fan_triangulation(n_gon)
    charts = [tri]
    for _ in range(count):
        for _ in range(3 * n_gon):
            tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
        charts.append(tri)
    return charts


@pytest.mark.parametrize("n_gon", range(3, 11))
def test_batch_kernel_matches_the_per_point_exchange(n_gon):
    """``_CompiledChart.weights`` over a batch gives, row by row, the
    per-point exchange arithmetic of ``tests/exchange_oracle.py``: on the
    fan and three flipped charts, on seeded integral points (all-negative
    ones included), on the polytope's scanned lattice points, and on a
    batch of one and no points."""
    rng = random.Random(2100 + n_gon)
    dim = n_gon - 3
    for tri in _seeded_charts(n_gon, rng, 3 if dim else 0):
        compiled = _CompiledChart(tri)
        points = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(25)]
        points.append(tuple(rng.randint(-3, -1) for _ in range(dim)))
        spec = minkowski_spec([lamination_from_coords(point_coords(tri, p)) for p in points[:2]])
        _, scanned = _scan_chart(spec, tri)
        for batch in (points, scanned, points[:1], []):
            rows = compiled.weights(batch)
            assert rows == point_weights(tri, batch)
            assert all(type(x) is int for row in rows for x in row)
        lattice = lattice_points(spec, tri)
        assert [lam.graph.w for lam in lattice] == compiled.weights(scanned)
        assert [lam.domain for lam in lattice] == ["int"] * len(scanned)


def test_triangle_has_one_point_the_zero_lamination():
    """With no chart diagonals a point is the empty tuple: the kernel
    gives one zero row per point, and the triangle's polytope has exactly
    the zero lamination."""
    tri = fan_triangulation(3)
    compiled = _CompiledChart(tri)
    assert compiled.weights([()]) == [(0, 0, 0)]
    assert compiled.weights([(), ()]) == [(0, 0, 0)] * 2
    spec = StasheffSpec.of(3, {})
    assert lattice_points(spec) == [Lamination.zero(3)]
    assert lattice_points(spec)[0].domain == "int"
    assert lamination_from_coords(TropicalCoords(tri, ())) == Lamination.zero(3)


@pytest.mark.parametrize("n_gon", [5, 6, 8])
def test_empty_scans_give_no_laminations(n_gon):
    spec = StasheffSpec.of(n_gon, {d: -1 for d in diagonals(n_gon)})
    for tri in _seeded_charts(n_gon, random.Random(n_gon), 2):
        compiled, scanned = _scan_chart(spec, tri)
        assert scanned == []
        assert compiled.weights(scanned) == []
        assert lattice_points(spec, tri) == []


@pytest.mark.parametrize("n_gon", range(4, 11))
def test_rational_points_through_lamination_from_coords(n_gon):
    """A rational point is a batch of one: its weights are the per-point
    arithmetic's, normalized (a Fraction with denominator 1 reads as an
    int), and its domain is ``"int"`` exactly when every weight is an
    integer."""
    rng = random.Random(2200 + n_gon)
    dim = n_gon - 3
    domains = set()
    for tri in _seeded_charts(n_gon, rng, 2):
        for _ in range(6):
            den = rng.choice((1, 2, 3, 6))
            values = [Fraction(rng.randint(-9, 9), den) for _ in range(dim)]
            coords = TropicalCoords.of(tri, dict(zip(tri.sorted_diagonals(), values)))
            lam = lamination_from_coords(coords)
            (expected,) = point_weights(tri, [tuple(map(_normalize, values))])
            assert repr(lam.graph.w) == repr(expected)
            integral = all(type(x) is int for x in expected)
            assert lam.domain == ("int" if integral else "rat")
            assert lam == Lamination(WeightedGraph(n_gon, expected))
            domains.add(lam.domain)
    assert domains == {"int", "rat"}


def _seeded_pieces_laminations(n_gon):
    """Seeded integral laminations of an N-gon: six from the fan box
    [-2, 2], and up to 10-gons four more built from their weights, with
    diagonal weights up to 3."""
    rng = random.Random(3600 + n_gon)
    out = [
        lamination_from_coords(fan_coords(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]))
        for _ in range(6)
    ]
    if n_gon <= 10:
        out += [lamination_from_weights(rng, n_gon) for _ in range(4)]
    return out


@pytest.mark.parametrize("n_gon", range(5, 13))
def test_pieces_are_laminations_that_sum_back_to_the_graph(n_gon):
    """Each piece passes the validating constructors, comes once, with a
    positive int multiplicity, and the pieces times their multiplicities
    sum to the lamination's graph."""
    for lam in _seeded_pieces_laminations(n_gon):
        pieces = piece_laminations(lam)
        total = [0] * len(lam.graph.w)
        for piece, k in pieces:
            assert piece == Lamination(WeightedGraph(n_gon, piece.graph.w))
            assert piece.domain == "int"
            assert type(k) is int and k > 0
            total = [a + k * b for a, b in zip(total, piece.graph.w)]
        assert tuple(total) == lam.graph.w
        assert len({piece for piece, _ in pieces}) == len(pieces)


@pytest.mark.parametrize("n_gon", [6, 7, 8, 9])
def test_pieces_carry_one_or_two_unit_diagonals(n_gon):
    """At odd N a piece is one unit diagonal with its completion; at even N
    one with ends of opposite parity, an even-even unit with an odd-odd
    one, or no diagonal at all (the alternating edge lamination, which
    alone loads edge {1, N})."""
    edge = pairs(n_gon).index((1, n_gon))
    diagonal_slots = [k for k, (i, j) in enumerate(pairs(n_gon)) if 1 < j - i < n_gon - 1]
    for lam in _seeded_pieces_laminations(n_gon):
        for piece, _ in piece_laminations(lam):
            w = piece.graph.w
            loaded = [pairs(n_gon)[k] for k in diagonal_slots if w[k]]
            assert all(w[pairs(n_gon).index(d)] == 1 for d in loaded)
            if n_gon % 2:
                assert len(loaded) == 1
            elif not loaded:
                assert w[edge] in (1, -1) and set(w) - {0} == {1, -1}
            else:
                assert w[edge] == 0
                parities = sorted((i % 2, j % 2) for i, j in loaded)
                assert parities in ([(0, 1)], [(1, 0)], [(0, 0), (1, 1)])


def test_pieces_of_the_zero_lamination_a_rational_one_and_a_bad_graph():
    """No pieces for a zero lamination; a rational lamination, and an
    unchecked graph with one short hexagon chord, which no lamination
    loads, are refused."""
    for n_gon in range(3, 9):
        assert _piece_chords(Lamination.zero(n_gon)) == ()
    half = lamination_from_coords(fan_coords(6, (1, 0, 0))) * Fraction(1, 2)
    with pytest.raises(NonIntegral, match="^pieces are integral laminations$"):
        _piece_chords(half)
    w = [0] * len(pairs(6))
    w[pairs(6).index((1, 3))] = 1
    lone = Lamination._trusted(WeightedGraph._trusted(6, tuple(w)), "int")
    with pytest.raises(InvariantViolation, match="^even-even and odd-odd units differ in number$"):
        _piece_chords(lone)
    with pytest.raises(InvariantViolation, match="no completion on a 6-gon$"):
        _edge_cycle(6, ((1, 3),))
