"""Cluster variables expanded with coefficients: a reference for the chart walk.

The library compiles a chart for the coordinate maps from exponent sets
alone (``tropclust.laminations._exchange_walk``): it follows the exchange
relation on crossing quadrilaterals, but keeps only each expansion's
exponent vectors.  The tests check that route against the full expansion: every
chart segment, diagonal or edge, gets its own variable, the edges frozen,
and every other segment is written as a Laurent polynomial in them by the
same exchange relation.  ``atlas_seed`` is the seed of a chart, read off
its triangles.  Nothing here is reached from the library.
"""
from __future__ import annotations

from rational_oracle import variable
from tropclust.atlas import Seed, label_text
from tropclust.laminations import _exit_quadrilateral
from tropclust.laurent import LaurentPolynomial
from tropclust.polygon import Segment, Triangulation, edges as polygon_edges


def a_variable_name(label) -> str:
    return "A" + label_text(label)


def chart_segments(tri: Triangulation) -> tuple[Segment, ...]:
    """Ordered variable segments of a chart: diagonals first, then edges."""
    return tuple(tri.sorted_diagonals()) + tuple(polygon_edges(tri.n_gon))


def atlas_seed(tri: Triangulation) -> Seed:
    """Seed of a complete triangulation: one direction per chart segment.

    Every triangle contributes a 3-cycle of arrows between its sides, taken
    clockwise; edges are frozen.
    """
    segs = chart_segments(tri)
    index = {s: i for i, s in enumerate(segs)}
    n = len(segs)
    eps = [[0] * n for _ in range(n)]
    for a, b, c in tri.triangles():
        sides = (Segment(a, b), Segment(b, c), Segment(a, c))
        for s, t in ((0, 1), (1, 2), (2, 0)):
            si, ti = index[sides[s]], index[sides[t]]
            eps[si][ti] += 1
            eps[ti][si] -= 1
    frozen = frozenset(s for s in segs if s.is_edge(tri.n_gon))
    return Seed(segs, frozen, tuple(map(tuple, eps)), (1,) * n)


def expand_cluster_variable(seg: Segment, tri: Triangulation) -> LaurentPolynomial:
    """Write the variable of a segment as a Laurent polynomial in one chart.

    Chart segments, diagonals and edges alike, map to themselves.
    Everything else resolves through the exchange relation on the
    quadrilateral formed with the chart diagonal that the segment exits
    through at its lower endpoint.  Results carry positive coefficients.
    """
    segs = chart_segments(tri)
    seg.validate(tri.n_gon)
    names = tuple(a_variable_name(s) for s in segs)
    triangles = tri.triangles()
    memo = {}

    def expand(s: Segment) -> LaurentPolynomial:
        hit = memo.get(s)
        if hit is None:
            if s in segs:
                hit = variable(names, a_variable_name(s))
            else:
                ear, sides = _exit_quadrilateral(s, tri, triangles)
                numer = LaurentPolynomial(names, {})
                for s1, s2 in sides:
                    numer = numer + expand(s1) * expand(s2)
                hit = numer * variable(names, a_variable_name(ear), -1)
            memo[s] = hit
        return hit

    return expand(seg)
