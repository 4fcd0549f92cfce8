import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_oracle import triangles
from flips import flip
from tropclust.atlas import mutation_words
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
    _chart_text,
    crosses,
    diagonals,
    edges,
    fan_triangulation,
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


def test_segment_rejects_bool_labels():
    """True is an int but no vertex label: a chart on it would print as
    ``True-3``, which ``--chart`` cannot read back."""
    for i, j in ((True, 3), (3, False), (True, False)):
        with pytest.raises(InvalidVertex, match="^vertex labels must be integers"):
            Segment(i, j)
    with pytest.raises(InvalidVertex):
        Triangulation.of(5, [(True, 3), (1, 4)])


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
        assert len(triangles(fan)) == n - 2


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


# Per N-gon: the chart count and the leading hex digits of the SHA-256 of
# ``triangulations(N)``, one chart a line as ``_chart_text`` writes it, and
# of ``mutation_words(N - 3)``, one "chart word" line per entry in order.
FLIP_WALK_DIGESTS = {
    4: (2, "8ace993f34b68ffb4c9d0930afabde67", "4a21be2edfec6f03306ad58afbe0ae85"),
    5: (5, "ad09fd06cc9d888c1ed890209c908466", "ad833b23f126685d0d13808dbd2fa050"),
    6: (14, "c394299bc223bd635580d29288eec542", "3c7a48851cb22dd8ce7d3066184975fd"),
    7: (42, "c431b19c48d34184a658a9186b83ddf4", "3a6cef312f025cf7ab13b51e1cba3c04"),
    8: (132, "39e994dd926f061b13c893c4e74d447b", "a13037cd7481e51ce5a39e6b079a715b"),
    9: (429, "99b1a699d5451915ef48c75ec0a0a2b0", "ead0143aadbad1aac6183a5ec47582b3"),
    10: (1430, "ea7a8ae3035470100df18869042dcaef", "c25fb8e1e4bf35dc598b4d9737d932b7"),
    11: (4862, "a4f6dcf25191bb20583d817e44d8b6a5", "e77f9ab57c27ef47dfb77f4ca7a18534"),
    12: (16796, "d61e00af7a2bafe1f7af99f596c6b300", "f71f0e0b81f37ce9a29615306d767bfc"),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


@pytest.mark.parametrize("n", sorted(FLIP_WALK_DIGESTS))
def test_flip_walk_lists_the_recorded_charts_and_words(n):
    """``triangulations`` and ``mutation_words``, both read off the flip
    walk, give the recorded charts in order and the recorded word of each
    chart in walk order, from the 4-gon to the 12-gon."""
    count, charts, words = FLIP_WALK_DIGESTS[n]
    assert len(triangulations(n)) == count
    assert _digest(map(_chart_text, triangulations(n))) == charts
    assert _digest(
        ",".join(f"{d.i}-{d.j}" for d in key) + " " + ",".join(map(str, word))
        for key, word in mutation_words(n - 3).items()
    ) == words


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
            faces = triangles(t)
            for d in t.sorted_diagonals():
                t2, added, _ = flip(t, d)
                checked = Triangulation(n, (t.diagonals - {d}) | {added})
                assert t2 == checked and hash(t2) == hash(checked)
                assert type(t2.diagonals) is frozenset
                assert triangles(t2) == triangles(checked)
                apexes = {v for tri in faces if set(d) <= set(tri) for v in tri} - set(d)
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


def test_fan_triangulation_equals_the_validated_chart():
    """The fan is built unchecked; it is the chart the checking
    constructor builds from the same diagonals, and small polygons are
    still refused with the same error."""
    for n in range(3, 16):
        fan = fan_triangulation(n)
        checked = Triangulation.of(n, [(1, k) for k in range(3, n)])
        assert fan == checked and hash(fan) == hash(checked) and repr(fan) == repr(checked)
        assert type(fan.diagonals) is frozenset
    for n in (2, 1, 0, -1, "5"):
        with pytest.raises(InvalidPolygon) as got:
            fan_triangulation(n)
        assert str(got.value) == f"polygon needs at least 3 vertices, got {n!r}"


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
        tris = triangles(t)
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
            assert triangles(t) == scan


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
