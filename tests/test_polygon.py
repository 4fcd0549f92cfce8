import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropclust.errors import (
    IncompleteTriangulation,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NotADiagonal,
)
from tropclust.polygon import (
    Segment,
    Triangulation,
    crosses,
    diagonals,
    edges,
    fan_triangulation,
    flip,
    has_triangulation,
    triangulations,
)

CATALAN = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}


def test_segment_canonicalizes_order():
    assert Segment(4, 2) == Segment(2, 4)
    assert Segment(4, 2).i == 2


def test_segment_rejects_degenerate():
    with pytest.raises(InvalidVertex):
        Segment(3, 3)


def test_segment_validate_bounds():
    Segment(1, 5).validate(5)
    with pytest.raises(InvalidVertex):
        Segment(1, 6).validate(5)
    with pytest.raises(InvalidVertex):
        Segment(0, 2).validate(5)


def test_edge_and_diagonal_split():
    n = 6
    for s in edges(n):
        assert s.is_edge(n) and not s.is_diagonal(n)
    for s in diagonals(n):
        assert s.is_diagonal(n) and not s.is_edge(n)
    assert len(list(edges(n))) == 6
    assert len(list(diagonals(n))) == 9


def test_crossing_is_strict_interleaving():
    assert crosses(Segment(1, 3), Segment(2, 4))
    assert not crosses(Segment(1, 3), Segment(3, 5))
    assert not crosses(Segment(1, 3), Segment(1, 4))
    assert crosses(Segment(2, 5), Segment(1, 3))


@given(st.integers(5, 9), st.data())
def test_crossing_symmetric(n, data):
    segs = sorted(diagonals(n))
    s = data.draw(st.sampled_from(segs))
    t = data.draw(st.sampled_from(segs))
    assert crosses(s, t) == crosses(t, s)
    if s == t:
        assert not crosses(s, t)


def test_triangulation_rejects_crossings():
    with pytest.raises(InvariantViolation):
        Triangulation(5, frozenset({Segment(1, 3), Segment(2, 4)}))


def test_triangulation_rejects_edges_as_members():
    with pytest.raises(NotADiagonal):
        Triangulation(5, frozenset({Segment(1, 2)}))


def test_complete_triangulation_sizes():
    for n in (4, 5, 6, 7):
        fan = fan_triangulation(n)
        assert len(fan.diagonals) == n - 3
        assert len(fan.triangles()) == n - 2


def test_incomplete_raises_on_demand():
    with pytest.raises(IncompleteTriangulation, match="need 3 diagonals, have 1"):
        Triangulation(6, frozenset({Segment(1, 3)}))
    with pytest.raises(IncompleteTriangulation, match="need 2 diagonals, have 0"):
        Triangulation.of(5, [])


def test_triangulation_counts_are_catalan():
    for n, expected in CATALAN.items():
        assert len(triangulations(n)) == expected


def test_triangulations_sorted_and_unique():
    """Sorted, distinct, and each chart, built by unchecked flips, passes
    the validating constructor."""
    for n in range(3, 10):
        tris = triangulations(n)
        keys = [t.key() for t in tris]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for t in tris:
            assert Triangulation(n, t.diagonals) == t


def test_every_triangulation_is_maximal():
    for t in triangulations(6):
        outside = [d for d in diagonals(6) if d not in t.diagonals]
        for d in outside:
            assert any(crosses(d, m) for m in t.diagonals)


def test_flip_square():
    t = fan_triangulation(4)
    t2, added, quad = flip(t, Segment(1, 3))
    assert added == Segment(2, 4)
    assert quad == (1, 2, 3, 4)
    assert t2.diagonals == frozenset({Segment(2, 4)})
    t3, back, _ = flip(t2, Segment(2, 4))
    assert back == Segment(1, 3) and t3 == t


def test_flip_requires_member_diagonal():
    with pytest.raises(NotADiagonal):
        flip(fan_triangulation(5), Segment(2, 4))


def test_flip_quad_lists_the_two_crossing_chords():
    for n in (5, 6, 7):
        for t in triangulations(n):
            for d in t.sorted_diagonals():
                t2, added, quad = flip(t, d)
                chords = {Segment(quad[0], quad[2]), Segment(quad[1], quad[3])}
                assert {d, added} == chords
                assert crosses(d, added)
                assert len(t2.diagonals) == n - 3


def test_flip_matches_the_validating_constructor():
    """A flip builds its result unchecked.  On every chart of the 4- to
    9-gon, the validating constructor accepts the same diagonals and gives
    an equal triangulation, and the new diagonal joins the apexes of the two
    triangles on the old one."""
    for n in range(4, 10):
        for t in triangulations(n):
            triangles = t.triangles()
            for d in t.sorted_diagonals():
                t2, added, _ = flip(t, d)
                checked = Triangulation(n, (t.diagonals - {d}) | {added})
                assert t2 == checked and hash(t2) == hash(checked)
                assert type(t2.diagonals) is frozenset
                assert t2.triangles() == checked.triangles()
                apexes = {v for tri in triangles if set(d) <= set(tri) for v in tri} - set(d)
                assert added == Segment(*apexes)


def test_flip_is_involutive_everywhere():
    for t in triangulations(6):
        for d in t.sorted_diagonals():
            t2, added, _ = flip(t, d)
            t3, back, _ = flip(t2, added)
            assert t3 == t and back == d


def test_fan_triangulation_shape():
    fan = fan_triangulation(7)
    assert fan.sorted_diagonals() == [
        Segment(1, 3),
        Segment(1, 4),
        Segment(1, 5),
        Segment(1, 6),
    ]


def test_invalid_polygon_sizes():
    assert fan_triangulation(3).sorted_diagonals() == []
    with pytest.raises(InvalidPolygon):
        fan_triangulation(2)
    with pytest.raises(InvalidPolygon):
        triangulations(2)


@settings(max_examples=30)
@given(st.integers(5, 8))
def test_triangles_tile_without_overlap(n):
    for t in triangulations(n)[:5]:
        tris = t.triangles()
        assert len(tris) == n - 2
        # each triangle's sides are edges or member diagonals
        for a, b, c in tris:
            for u, v in ((a, b), (b, c), (a, c)):
                side = Segment(u, v)
                assert side.is_edge(n) or side in t.diagonals


def test_triangles_match_a_scan_of_all_vertex_triples():
    """The neighbour-set construction finds exactly the triples whose three
    sides are edges or member diagonals, in increasing order."""
    for n in range(3, 10):
        for t in triangulations(n):
            scan = [
                tri
                for tri in itertools.combinations(range(1, n + 1), 3)
                if all(
                    Segment(u, v).is_edge(n) or Segment(u, v) in t.diagonals
                    for u, v in itertools.combinations(tri, 2)
                )
            ]
            assert t.triangles() == scan


@pytest.mark.parametrize("n", range(3, 10))
def test_interval_program_matches_the_catalan_scan(n):
    """``has_triangulation`` says whether a set of diagonals holds some
    complete triangulation: the same answer as a scan of all Catalan-many
    charts.  On every subset of the diagonals up to the heptagon; beyond
    it, on every chart's diagonals with and without one of them, and on
    seeded subsets of several densities, each with a chart added."""
    charts = triangulations(n)
    diags = diagonals(n)

    def scan(segments):
        return any(t.diagonals <= segments for t in charts)

    if n <= 7:
        subsets = [
            frozenset(c) for k in range(len(diags) + 1) for c in itertools.combinations(diags, k)
        ]
    else:
        rng = random.Random(n)
        subsets = []
        for t in charts:
            subsets.append(t.diagonals)
            subsets.append(t.diagonals - {rng.choice(t.sorted_diagonals())})
        for p in (0.3, 0.6, 0.8, 0.9):
            for _ in range(200):
                subset = frozenset(d for d in diags if rng.random() < p)
                subsets += [subset, subset | rng.choice(charts).diagonals]
    answers = [has_triangulation(n, s) for s in subsets]
    assert answers == [scan(s) for s in subsets]
    # the triangle's one chart has no diagonals
    assert set(answers) == ({True} if n == 3 else {True, False})
    assert has_triangulation(n, [tuple(d) for d in diags])
