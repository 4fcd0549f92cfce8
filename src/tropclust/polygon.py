"""Combinatorics of a convex polygon with clockwise-labelled vertices.

Vertices are labelled 1..N clockwise.  A segment is an unordered pair of
distinct vertices, stored with the smaller label first.  Segments whose
endpoints are adjacent on the boundary are edges; all others are diagonals.
Two segments cross when exactly one endpoint of the second lies strictly
between the endpoints of the first in cyclic order, which for canonically
ordered pairs reduces to a pair of label comparisons.  A triangulation is
always complete: N-3 pairwise noncrossing diagonals, checked once when it
is built, so every chart operation can rely on it.  Whether a set of
diagonals holds one is an interval program (``has_triangulation``), with
no scan of the Catalan-many charts.

The triangulations are the vertices of the Stasheff polytope and flips
are its edges.  One breadth-first flip walk from the fan (``_flip_walk``)
lists them all: ``triangulations`` sorts its charts, and
``atlas.mutation_words`` keeps its words.
"""
from __future__ import annotations

import itertools
from collections import deque, namedtuple
from functools import lru_cache

from .errors import (
    IncompleteTriangulation,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NotADiagonal,
)
from .values import Value


class Segment(namedtuple("Segment", ["i", "j"])):
    """Unordered pair of distinct vertex labels, canonically i < j."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        if not isinstance(i, int) or not isinstance(j, int):
            raise InvalidVertex(f"vertex labels must be integers, got ({i!r}, {j!r})")
        if i == j:
            raise InvalidVertex(f"segment endpoints must differ, got ({i}, {j})")
        if i > j:
            i, j = j, i
        return super().__new__(cls, i, j)

    def validate(self, n_gon: int) -> "Segment":
        check_polygon(n_gon)
        if not (1 <= self.i <= n_gon and 1 <= self.j <= n_gon):
            raise InvalidVertex(f"segment {tuple(self)} has labels outside 1..{n_gon}")
        return self

    def is_edge(self, n_gon: int) -> bool:
        self.validate(n_gon)
        return self.j - self.i == 1 or self.j - self.i == n_gon - 1

    def is_diagonal(self, n_gon: int) -> bool:
        return not self.is_edge(n_gon)


def check_polygon(n_gon: int) -> None:
    if not isinstance(n_gon, int) or n_gon < 3:
        raise InvalidPolygon(f"polygon needs at least 3 vertices, got {n_gon!r}")


def crosses(s1: Segment, s2: Segment) -> bool:
    """Whether two segments of the same polygon cross in the interior.

    Segments sharing an endpoint never cross.
    """
    i, j = s1
    k, l = s2
    return (i < k < j < l) or (k < i < l < j)


def all_segments(n_gon: int) -> list[Segment]:
    check_polygon(n_gon)
    return [Segment(i, j) for i, j in itertools.combinations(range(1, n_gon + 1), 2)]


def edges(n_gon: int) -> list[Segment]:
    return [s for s in all_segments(n_gon) if s.is_edge(n_gon)]


def diagonals(n_gon: int) -> list[Segment]:
    return [s for s in all_segments(n_gon) if s.is_diagonal(n_gon)]


class Triangulation(Value):
    """A complete triangulation: N-3 pairwise noncrossing diagonals of an
    N-gon, held as a frozenset of ``Segment``s."""

    __slots__ = ("n_gon", "diagonals")

    def __post_init__(self):
        check_polygon(self.n_gon)
        object.__setattr__(self, "diagonals", frozenset(self.diagonals))
        for d in self.diagonals:
            if not d.is_diagonal(self.n_gon):
                raise NotADiagonal(f"{tuple(d)} is an edge, not a diagonal")
        for a, b in itertools.combinations(sorted(self.diagonals), 2):
            if crosses(a, b):
                raise InvariantViolation(f"diagonals {tuple(a)} and {tuple(b)} cross")
        if len(self.diagonals) != self.n_gon - 3:
            raise IncompleteTriangulation(
                f"need {self.n_gon - 3} diagonals, have {len(self.diagonals)}"
            )

    @classmethod
    def _trusted(cls, n_gon: int, diagonals: frozenset) -> "Triangulation":
        """Wrap the diagonals of a closed operation on a valid triangulation."""
        tri = object.__new__(cls)
        object.__setattr__(tri, "n_gon", n_gon)
        object.__setattr__(tri, "diagonals", diagonals)
        return tri

    @classmethod
    def of(cls, n_gon: int, pairs) -> "Triangulation":
        return cls(n_gon, frozenset(Segment(i, j) for i, j in pairs))

    def sorted_diagonals(self) -> list[Segment]:
        return sorted(self.diagonals)

    def key(self) -> tuple:
        return tuple(self.sorted_diagonals())


def _chart_text(tri: Triangulation) -> str:
    """The chart's diagonals as text like ``1-3,1-4``, as ``--chart`` reads
    them."""
    return ",".join(f"{d.i}-{d.j}" for d in tri.sorted_diagonals())


def fan_triangulation(n_gon: int) -> Triangulation:
    """The fan at vertex 1: diagonals {1,3}, {1,4}, ..., {1,N-1}, which
    share vertex 1 and so never cross."""
    check_polygon(n_gon)
    return Triangulation._trusted(n_gon, frozenset(Segment(1, k) for k in range(3, n_gon)))


@lru_cache(maxsize=32)
def triangulations(n_gon: int) -> tuple[Triangulation, ...]:
    """All complete triangulations, lexicographically ordered: the charts
    ``_flip_walk`` reaches, sorted by ``Triangulation.key``."""
    return tuple(sorted((tri for tri, _word in _flip_walk(n_gon)), key=Triangulation.key))


def _flip_walk(n_gon: int):
    """Yield (triangulation, word) for every complete triangulation, found
    breadth-first by flips from the fan.

    Direction k = 1..N-3 starts on the fan's k-th diagonal and tracks the
    diagonal it currently labels, so a word is the flips that reach its
    chart.  The words are closed under prefixes and every parent
    ``word[:-1]`` comes before its children.  The search skips the flip back
    to a chart's parent, which is always found already, and tests every
    other flip's diagonal set against the charts found before it builds
    the flip, so only a new chart costs a ``flip``.
    """
    start = fan_triangulation(n_gon)
    # the diagonal sets found so far: cheaper to test than sorted keys
    seen = {start.diagonals}
    queue = deque([(start, tuple(start.sorted_diagonals()), ())])
    while queue:
        tri, labels, word = queue.popleft()
        yield tri, word
        back = word[-1] - 1 if word else -1  # the flip back to the parent
        members = tri.diagonals
        for k in range(n_gon - 3):
            if k == back:
                continue
            diag = labels[k]
            a, b = _apexes(members, n_gon, *diag)
            # a plain pair equals the Segment of the same ends, and hashes alike
            if (members - {diag}) | {(a, b) if a < b else (b, a)} not in seen:
                new_tri, new_diag, _quad = flip(tri, diag)
                seen.add(new_tri.diagonals)
                new_labels = labels[:k] + (new_diag,) + labels[k + 1 :]
                queue.append((new_tri, new_labels, word + (k + 1,)))


def has_triangulation(n_gon: int, segments) -> bool:
    """Whether the diagonals of some complete triangulation all lie among
    ``segments``, given as (i, j) pairs with i < j.

    An interval dynamic program, O(N^3): the vertices i..j span a
    triangulable sub-polygon when j = i + 1, or when its closing side
    {i, j} is among the segments (or is the edge {1, N}) and some k between
    splits it into triangulable sub-polygons i..k and k..j.
    """
    check_polygon(n_gon)
    allowed = set(segments)
    ok = [[j == i + 1 for j in range(n_gon + 1)] for i in range(n_gon + 1)]
    for span in range(2, n_gon):
        for i in range(1, n_gon - span + 1):
            j = i + span
            if span == n_gon - 1 or (i, j) in allowed:
                row = ok[i]
                row[j] = any(row[k] and ok[k][j] for k in range(i + 1, j))
    return ok[1][n_gon]


def flip(tri: Triangulation, diag: Segment):
    """Replace one diagonal by the crossing diagonal of its quadrilateral.

    Returns (new_triangulation, new_diagonal, quad) where quad lists the
    four quadrilateral vertices in increasing order; the removed and
    inserted diagonals are its two crossing diagonals, {quad[0], quad[2]}
    and {quad[1], quad[3]}, in one order or the other.  A flip of a valid
    triangulation is one, so the result is not checked again.
    """
    members = tri.diagonals
    if diag not in members:
        raise NotADiagonal(f"{diag} is not a diagonal of this triangulation")
    a, b = _apexes(members, tri.n_gon, *diag)
    new_diag = Segment(a, b)
    i, j = diag
    quad = (i, a, j, b) if j < b else (b, i, a, j)
    return Triangulation._trusted(tri.n_gon, (members - {diag}) | {new_diag}), new_diag, quad


def _apexes(members: frozenset, n: int, i: int, j: int) -> tuple:
    """The apexes a and b of the two triangles on the member diagonal
    {i, j}, a between i and j and b past j (or before i): the ends of the
    diagonal that flips it.  For a diagonal {i, j}, i < j, off the chart,
    the same search gives the triangle (i, a, b) that the segment leaves i
    through: it exits the triangle across {a, b}."""
    # Each apex is the neighbour of i, along an edge or a member diagonal,
    # nearest to j on its side, since a chord from i to a vertex between it
    # and j would cross the triangle's side at j.  Each search ends at i's
    # boundary neighbour, so only i's chords near j are looked up.
    for a in range(j - 1, i, -1):
        if (i, a) in members:
            break
    for b in (*range(j + 1, n + 1), *range(1, i)):
        if ((i, b) if i < b else (b, i)) in members:
            break
    return a, b
