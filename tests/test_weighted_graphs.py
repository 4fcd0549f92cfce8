"""Weighted graphs on polygon vertices and their mass bookkeeping."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import graph_from_weights, relabeled, walked_cut, weight
from tropclust.basis import _split_table
from tropclust.errors import InvariantViolation, SizeMismatch
from tropclust.polygon import Segment, all_segments, crosses, diagonals
from tropclust.weighted_graphs import (
    WeightedGraph,
    _half_cuts,
    _rotations,
    _tables,
    dominates,
    pairs,
    wrap_vertex,
)


def graph(n, weights):
    return graph_from_weights(n, {Segment(i, j): w for (i, j), w in weights.items()})


def interval(g, k, l):
    """Total weight of segments with both endpoints in [k, l]."""
    return sum(w for i, j, w in g.sparse_items() if k <= i and j <= l)


@st.composite
def graphs(draw, n_min=4, n_max=6, lo=0, hi=3):
    n = draw(st.integers(n_min, n_max))
    weights = {}
    for seg in all_segments(n):
        if seg.is_diagonal(n):
            w = draw(st.integers(max(lo, 0), hi))
        else:
            w = draw(st.integers(-hi, hi))
        if w:
            weights[tuple(seg)] = w
    return graph(n, weights)


def test_wrap_vertex_is_cyclic():
    assert wrap_vertex(6, 5) == 1
    assert wrap_vertex(0, 5) == 5
    assert wrap_vertex(-4, 5) == 1
    assert wrap_vertex(3, 5) == 3


def test_construction_and_lookup():
    g = graph(5, {(1, 3): 2, (2, 3): -1})
    assert weight(g, 1, 3) == 2
    assert weight(g, 3, 1) == 2
    assert weight(g, 2, 3) == -1
    assert weight(g, 1, 4) == 0
    assert set(g.sparse_items()) == {(1, 3, 2), (2, 3, -1)}
    assert g.is_integral()
    assert not graph(5, {(1, 2): Fraction(1, 2)}).is_integral()
    assert graph(5, {(1, 2): Fraction(4, 2)}).is_integral()


def test_flat_layout_is_row_major_over_pairs():
    g = graph_from_weights(5, {(1, 2): -1, (2, 4): 1})
    assert g.w == (-1, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    assert pairs(5)[5] == (2, 4)
    for n in (3, 4, 7):
        for k, (i, j) in enumerate(pairs(n)):
            assert graph_from_weights(n, {(i, j): 1}).w.index(1) == k
    with pytest.raises(InvariantViolation):
        WeightedGraph(5, g.w[:-1])
    with pytest.raises(InvariantViolation):
        WeightedGraph(5, g.w + (0,))


def test_validation_rejects_bad_matrices():
    with pytest.raises(InvariantViolation):
        WeightedGraph(4, ((0, 1), (1, 0)))
    with pytest.raises(InvariantViolation):
        WeightedGraph(3, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))  # a matrix is not flat
    with pytest.raises(InvariantViolation):
        graph(5, {(1, 3): -1})  # diagonals must stay nonnegative
    with pytest.raises(InvariantViolation):
        graph(5, {(1, 2): 0.5})
    graph(5, {(1, 2): -3})  # side weights may be negative
    graph(5, {(1, 5): -3})
    with pytest.raises(InvariantViolation):
        graph(5, {(2, 5): -1})


def test_addition_subtraction_common_part():
    a = graph(5, {(1, 3): 2, (1, 2): -1})
    b = graph(5, {(1, 3): 1, (2, 4): 1, (1, 2): 1})
    assert weight(a + b, 1, 3) == 3
    assert weight(a + b, 1, 2) == 0
    with pytest.raises(SizeMismatch):
        a + graph(6, {})


def test_stats_small_example_by_hand():
    g = graph(5, {(1, 3): 1, (1, 4): 2})
    assert g.vertex_masses() == (3, 0, 1, 2, 0)
    # interval {2,3} picks up nothing internal
    assert interval(g, 2, 3) == 0
    assert interval(g, 1, 3) == 1
    assert interval(g, 1, 4) == 3
    # the cut across {1,3} separates {2,3} from the rest; the masses over
    # the diagonals {1,3}, {1,4}, {2,4}, {2,5}, {3,5} are 1, 3, 3, 3, 2
    h = Fraction(1, 2)
    half = _half_cuts(5, g.w)
    assert half == [h, 3 * h, 3 * h, 3 * h, 1]
    assert type(half[-1]) is int


@settings(max_examples=40)
@given(graphs())
def test_vertex_masses_sum_to_twice_total(g):
    total = sum(w for _, _, w in g.sparse_items())
    assert sum(g.vertex_masses()) == 2 * total
    assert interval(g, 1, g.n_gon) == total


@settings(max_examples=40)
@given(graphs())
def test_cut_mass_symmetry(g):
    """Both sides of a cut see the same crossing mass."""
    masses = g.vertex_masses()
    n = g.n_gon
    for seg, half in zip(diagonals(n), _half_cuts(n, g.w)):
        complement_inside = sum(masses) - 2 * interval(g, seg.i + 1, seg.j)
        outside = [v for v in range(1, n + 1) if not seg.i < v <= seg.j]
        direct = sum(
            w
            for i, j, w in g.sparse_items()
            for _ in (0,)
            if (i in outside) != (j in outside)
        )
        assert 2 * half == direct
        outside_mass = sum(
            weight(g, i, j) for i in outside for j in outside if i < j
        )
        assert complement_inside - 4 * half == 2 * outside_mass


def _seeded_graph(rng, n, scale):
    """Diagonals in 0..3 and edges in -3..3, each times ``scale``."""
    return WeightedGraph(n, tuple(
        scale * rng.randint(0 if 1 < j - i < n - 1 else -3, 3) for i, j in pairs(n)
    ))


@pytest.mark.parametrize("n", range(3, 13))
def test_cut_matches_a_boundary_walk_for_every_label_pair(n):
    """Twice the half cut mass of each diagonal's slot is the walked cut
    mass across every label pair that names the diagonal, labels wrapped
    and either way round, on seeded int and Fraction graphs; the halves
    come in slot order, an int exactly where the mass is even.  A triangle
    has no diagonal."""
    rng = random.Random(1600 + n)
    slot = _tables(n).slot
    for scale in (1, Fraction(1, 3)):
        g = _seeded_graph(rng, n, scale)
        half = _half_cuts(n, g.w)
        assert len(half) == len(slot) == n * (n - 3) // 2
        for d, x in zip(slot, half):
            assert (type(x) is int) == (walked_cut(g, *d) % 2 == 0)
        for a in range(-n, 2 * n + 1):
            for b in range(-n, 2 * n + 1):
                d = tuple(sorted((wrap_vertex(a, n), wrap_vertex(b, n))))
                if d in slot:
                    assert 2 * half[slot[d]] == walked_cut(g, a, b), (a, b)


@pytest.mark.parametrize("n", range(3, 16))
def test_split_steps_lower_the_potential_by_the_closed_forms(n):
    """The number of rows through each pair is the number of chords
    ``crosses`` reports, each chord's two row masks name exactly the rows
    where it is the first or the second chord, and the two split steps of
    the row of a quad p < q < r < s carry those masks and lower the
    potential, each chord's weight times that number, by 2 (q - p)(s - r)
    and 2 (r - q)(N - s + p)."""
    tables = _tables(n)
    rows, (chords, steps) = _split_table(n)
    cr = {x: count for x, count, _, _ in chords}
    first = {x: mask for x, _, mask, _ in chords}
    second = {x: mask for x, _, _, mask in chords}
    for k, pair in enumerate(tables.pairs):
        crossing = sum(crosses(Segment(*pair), Segment(*other)) for other in tables.pairs)
        assert cr.get(k, 0) == crossing
        for masks, end in ((first, 0), (second, 1)):
            named = {pos for pos in range(len(rows)) if masks.get(k, 0) >> pos & 1}
            assert named == {pos for pos, row in enumerate(rows) if row[end] == k}
    quads = itertools.combinations(range(1, n + 1), 4)
    for (p, q, r, s), step, row in zip(quads, steps, rows, strict=True):
        a, b, not_fa, not_sa, not_fb, not_sb, sides = step
        assert (a, b) == row[:2]
        assert (~not_fa, ~not_sa, ~not_fb, ~not_sb) == (
            first.get(a, 0), second.get(a, 0), first.get(b, 0), second.get(b, 0)
        )
        for (c, d, fc, sc, fd, sd, drop), side, closed in zip(
            sides, row[2], (2 * (q - p) * (s - r), 2 * (r - q) * (n - s + p)), strict=True
        ):
            assert (c, d) == side
            assert (fc, sc, fd, sd) == (
                first.get(c, 0), second.get(c, 0), first.get(d, 0), second.get(d, 0)
            )
            assert cr[a] + cr[b] - cr.get(c, 0) - cr.get(d, 0) == drop == closed


@pytest.mark.parametrize("n", range(3, 13))
def test_rotations_relabel_the_vertices(n):
    """``_rotations`` yields the N rotations of a weight tuple in order:
    the r-th is the graph with every vertex label moved on by r, so it
    rotates the vertex masses and the half cut masses with the labels, and
    one more step of ``_tables(N).rotation`` comes back to the start.  On
    seeded int and Fraction graphs."""
    rng = random.Random(4400 + n)
    rotate = _tables(n).rotation
    slot = _tables(n).slot
    for scale in (1, Fraction(1, 2)):
        g = _seeded_graph(rng, n, scale)
        images = list(_rotations(n, g.w))
        assert len(images) == n and images[0] == g.w
        assert rotate(images[-1]) == g.w
        masses = g.vertex_masses()
        half = _half_cuts(n, g.w)
        for r, w in enumerate(images):
            assert w == relabeled(g, r).w
            # r = 0 included: masses[-0:] is the whole tuple, masses[:-0] empty
            assert WeightedGraph(n, w).vertex_masses() == masses[-r:] + masses[:-r]
            image_half = _half_cuts(n, w)
            for (i, j), x in zip(slot, half):
                d = tuple(sorted((wrap_vertex(i + r, n), wrap_vertex(j + r, n))))
                assert image_half[slot[d]] == x


def test_sums_match_the_validating_constructor():
    """Sums are built unchecked; on seeded int and Fraction graphs they
    print as the validating constructor's graph, entry types included."""
    rng = random.Random(16)
    for n in range(3, 10):
        for s1, s2 in ((1, 1), (1, Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))):
            g, h = _seeded_graph(rng, n, s1), _seeded_graph(rng, n, s2)
            sums = tuple(x + y for x, y in zip(g.w, h.w))
            assert repr(g + h) == repr(WeightedGraph(n, sums))


def test_dominates_requires_equal_vertex_masses():
    a = graph(5, {(1, 3): 1})
    b = graph(5, {(1, 3): 2})
    assert not dominates(a, b)
    assert dominates(a, a)


def test_dominates_orders_cut_masses():
    # same vertex masses, one graph concentrates crossings
    a = graph(6, {(1, 4): 1, (2, 5): 1})
    b = graph(6, {(1, 5): 1, (2, 4): 1})
    assert a.vertex_masses() == b.vertex_masses()
    lesser = dominates(b, a)
    greater = dominates(a, b)
    assert lesser != greater  # strictly comparable pair
    with pytest.raises(SizeMismatch):
        dominates(a, graph(5, {}))
