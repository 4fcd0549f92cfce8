"""Cluster variables expanded with coefficients: a reference for the chart walk.

The library compiles a chart for the coordinate maps from exponent sets
alone (``tropclust.laminations._exchange_walk``): it follows the exchange
relation on crossing quadrilaterals, but keeps only each expansion's
exponent vectors, and finds each segment's exit with the flip's apex
search (``tropclust.polygon._apexes``).  The tests check that route against
the full expansion: every chart segment, diagonal or edge, gets its own
variable, the edges frozen, and every other segment is written as a
Laurent polynomial in them by the same exchange relation.  The exits come
from a search of its own: the chart's triangles (``triangles``) are
scanned for the one at the segment's lower end that the segment leaves
through (``exit_quadrilateral``), and every side of the quadrilateral is
checked to cross fewer chart diagonals than the segment.  ``atlas_seed``
is the seed of a chart, read off its triangles.  Nothing here is reached
from the library, and nothing here comes from ``tropclust.laminations``.
"""
from __future__ import annotations

from rational_oracle import variable
from tropclust.atlas import Seed, label_text
from tropclust.errors import InvariantViolation
from tropclust.laurent import LaurentPolynomial
from tropclust.polygon import Segment, Triangulation, crosses, edges as polygon_edges


def triangles(tri: Triangulation) -> list[tuple[int, int, int]]:
    """The N-2 triangle faces, each a clockwise vertex triple (a<b<c)."""
    n = tri.n_gon
    # the neighbours of v along boundary edges and member diagonals
    near = {v: {v % n + 1, (v - 2) % n + 1} for v in range(1, n + 1)}
    for i, j in tri.diagonals:
        near[i].add(j)
        near[j].add(i)
    out = sorted(
        (a, b, c)
        for a in range(1, n + 1)
        for b in near[a]
        if b > a
        for c in near[a] & near[b]
        if c > b
    )
    if len(out) != n - 2:
        raise InvariantViolation("triangle count is off; triangulation corrupt")
    return out


def _crossing_count(seg: Segment, tri: Triangulation) -> int:
    return sum(1 for t in tri.diagonals if crosses(seg, t))


def exit_quadrilateral(seg: Segment, tri: Triangulation, faces: list) -> tuple:
    """Where the exchange relation resolves a segment off the chart.

    ``faces`` are the chart's triangles.  Returns the chart diagonal the
    segment exits through at its lower endpoint and the two pairs of
    opposite sides of the quadrilateral the two span; every side crosses
    fewer chart diagonals than the segment.
    """
    a = seg.i
    ear = None
    for p, q, r in faces:
        if a in (p, q, r):
            opposite = Segment(*(v for v in (p, q, r) if v != a))
            if crosses(opposite, seg):
                if ear is not None:
                    raise InvariantViolation("segment exits through two triangles")
                ear = opposite
    if ear is None:
        raise InvariantViolation("no chart diagonal crosses the segment")
    own = _crossing_count(seg, tri)
    quad = sorted((seg.i, seg.j, ear.i, ear.j))
    sides = (
        (Segment(quad[0], quad[1]), Segment(quad[2], quad[3])),
        (Segment(quad[0], quad[3]), Segment(quad[1], quad[2])),
    )
    for s1, s2 in sides:
        if max(_crossing_count(s1, tri), _crossing_count(s2, tri)) >= own:
            raise InvariantViolation("quadrilateral sides must cross fewer chart diagonals")
    return ear, sides


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
    for a, b, c in triangles(tri):
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
    faces = triangles(tri)
    memo = {}

    def expand(s: Segment) -> LaurentPolynomial:
        hit = memo.get(s)
        if hit is None:
            if s in segs:
                hit = variable(names, a_variable_name(s))
            else:
                ear, sides = exit_quadrilateral(s, tri, faces)
                numer = LaurentPolynomial(names, {})
                for s1, s2 in sides:
                    numer = numer + expand(s1) * expand(s2)
                hit = numer * variable(names, a_variable_name(ear), -1)
            memo[s] = hit
        return hit

    return expand(seg)
