"""Weighted graphs from a weight per segment, for tests that write graphs by
hand.  The library reads graphs from weight tuples and from JSON entries
(``jsonio.graph_from_json``); nothing here is reached from the library.
"""
from __future__ import annotations

from typing import Mapping

from tropclust.polygon import Segment
from tropclust.weighted_graphs import WeightedGraph, _index, pairs


def graph_from_weights(n_gon: int, weights: Mapping) -> WeightedGraph:
    """The graph with the given weight on each segment, a ``Segment`` or an
    (i, j) pair, and 0 on every other."""
    w = [0] * len(pairs(n_gon))
    for key, value in weights.items():
        seg = Segment(*key).validate(n_gon)
        w[_index(n_gon, seg.i, seg.j)] = value
    return WeightedGraph(n_gon, tuple(w))
