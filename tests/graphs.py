"""Weighted graphs from a weight per segment, for tests that write graphs by
hand, one segment's weight read off a graph, the cut mass by a walk along
the boundary (the tests' reference for the library's per-diagonal cut
getters), a graph rotated by relabeling its vertices (the tests' reference
for the library's rotation), a graph reflected the same way, and a
lamination's pieces as validated laminations.  The library
reads graphs from weight tuples and from JSON documents
(``jsonio.lamination_from_json``); nothing here is reached from the library.
"""
from __future__ import annotations

import itertools
from typing import Mapping

from tropclust.laminations import Lamination, _edge_cycle, _piece_chords
from tropclust.polygon import Segment
from tropclust.weighted_graphs import WeightedGraph, _tables, pairs, wrap_vertex


def graph_from_weights(n_gon: int, weights: Mapping) -> WeightedGraph:
    """The graph with the given weight on each segment, a ``Segment`` or an
    (i, j) pair, and 0 on every other."""
    w = [0] * len(pairs(n_gon))
    for key, value in weights.items():
        seg = Segment(*key).validate(n_gon)
        w[_tables(n_gon).index[seg]] = value
    return WeightedGraph(n_gon, tuple(w))


def weight(g: WeightedGraph, i: int, j: int):
    """The weight of the segment {i, j}, its ends given either way round."""
    return g.w[_tables(g.n_gon).index[i, j]]


def walked_cut(g: WeightedGraph, a: int, b: int):
    """The cut mass across {a, b} by walking the boundary: the weight of
    the pairs with one end among the vertices passed going clockwise from
    a to b, a excluded.  Labels wrap, and coinciding ends cut nothing.  A
    lamination's coordinate at a diagonal is half this mass."""
    n = g.n_gon
    a, b = wrap_vertex(a, n), wrap_vertex(b, n)
    passed = set()
    while a != b:
        a = wrap_vertex(a + 1, n)
        passed.add(a)
    return sum(
        weight(g, i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if (i in passed) != (j in passed)
    )


def relabeled(g: WeightedGraph, r: int) -> WeightedGraph:
    """The graph rotated by r: its weight on {p + r, q + r}, labels
    wrapped, is g's weight on {p, q}."""
    n = g.n_gon
    return graph_from_weights(
        n, {(wrap_vertex(i + r, n), wrap_vertex(j + r, n)): x for i, j, x in g.sparse_items()}
    )


def reflected(g: WeightedGraph) -> WeightedGraph:
    """The graph reflected by i -> N + 1 - i: its weight on
    {N + 1 - q, N + 1 - p} is g's weight on {p, q}."""
    n = g.n_gon
    return graph_from_weights(n, {(n + 1 - j, n + 1 - i): x for i, j, x in g.sparse_items()})


def piece_laminations(lam: Lamination) -> list:
    """The pieces ``_piece_chords`` names, as (lamination, multiplicity)
    pairs, each piece built by the validating constructors."""
    n = lam.n_gon
    return [
        (Lamination(WeightedGraph(n, _edge_cycle(n, chords, start))), m)
        for chords, start, m in _piece_chords(lam)
    ]
