"""The tropical exchange relation one point at a time: a reference for the
batch kernel.

``laminations._CompiledChart.weights`` turns a batch of chart points into
weight tuples column by column, one pass over all the points per exchange
step and per weight, with the edges' zero terms left out.  This module
keeps the plain per-point arithmetic: fill the chart diagonals' values,
apply v(s) = max(v(a) + v(c), v(b) + v(d)) - v(e) once per step with edges
at 0, and read each weight as the inclusion-exclusion
v[p] + v[q] - v[r] - v[t] of four diagonal values, at the slot quadruples
of ``weighted_graphs._tables(N).weights``.  Nothing here is reached from
the library.
"""
from __future__ import annotations

from tropclust.laminations import _exchange_walk
from tropclust.polygon import Triangulation
from tropclust.values import _normalize
from tropclust.weighted_graphs import _tables


def point_weights(chart: Triangulation, points) -> list:
    """The weight tuples of the laminations with the given chart
    coordinates, one point after another, normalized, so a Fraction with
    denominator 1 reads as an int."""
    tables = _tables(chart.n_gon)
    slot = tables.slot
    zero = len(slot)
    _, steps = _exchange_walk(chart)
    out = []
    for point in points:
        v = [0] * (zero + 1)
        for d, x in zip(chart.sorted_diagonals(), point, strict=True):
            v[slot[d]] = x
        for s, e, (a, c), (b, d) in steps:
            x = v[slot.get(a, zero)] + v[slot.get(c, zero)]
            y = v[slot.get(b, zero)] + v[slot.get(d, zero)]
            v[slot[s]] = max(x, y) - v[slot[e]]
        w = (v[p] + v[q] - v[r] - v[t] for p, q, r, t in tables.weights)
        out.append(tuple(map(_normalize, w)))
    return out
