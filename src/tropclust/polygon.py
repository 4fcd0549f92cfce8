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
lists them all, each chart an int bitmask of its vertex pairs, each flip
two XORs: ``triangulations`` sorts its charts, ``atlas.mutation_words``
keeps its words, and ``atlas._walk_plan`` reads each exchange step off the
quadrilateral a flip turns.  No ``Triangulation`` is flipped on the way.

The apex search, the neighbours of a diagonal's first end nearest its
second on each side, is written twice on purpose: the flip walk runs it
inline on its bitmasks, and ``_apexes`` runs it on a chart's frozenset
of diagonals for the chart compiler (``laminations``).  Sharing one
search made a cold walk slower, whether called once per label or as a
generator per chart.
"""
from __future__ import annotations

import itertools
from collections import deque, namedtuple

from .errors import (
    IncompleteTriangulation,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NotADiagonal,
)
from .values import Value, _is_int, _items


class Segment(namedtuple("Segment", ["i", "j"])):
    """Unordered pair of distinct vertex labels, canonically i < j."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        if not (_is_int(i) and _is_int(j)):
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
    if not _is_int(n_gon) or n_gon < 3:
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
        object.__setattr__(self, "diagonals", frozenset(_items(self.diagonals, "diagonals")))
        for d in self.diagonals:
            if not isinstance(d, Segment):
                raise InvariantViolation("a triangulation's diagonals must be Segments")
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


def triangulations(n_gon: int) -> tuple[Triangulation, ...]:
    """All complete triangulations, lexicographically ordered: the charts
    ``_flip_walk`` reaches, sorted by ``Triangulation.key``."""
    keys = sorted(tuple(sorted(labels)) for labels, *_ in _flip_walk(n_gon))
    return tuple(Triangulation._trusted(n_gon, frozenset(key)) for key in keys)


def _flip_walk(n_gon: int):
    """Yield (labels, word, parent, quad) for every complete triangulation,
    found breadth-first by flips from the fan.

    Direction k = 1..N-3 starts on the fan's k-th diagonal and tracks the
    diagonal it currently labels: ``labels[k - 1]``, a ``Segment``, so the
    chart's diagonals are its labels and ``word`` is the flips that reach
    it.  The words are closed under prefixes and every parent ``word[:-1]``
    comes before its children: ``parent`` is the parent's position in the
    walk and ``quad`` the quadrilateral (i, a, j, b) of the flip from it,
    the diagonal {i, j}, i < j, replaced by {a, b}, with a between i and j.
    The fan comes first, with parent and quad None.

    A chart is an int bitmask over the vertex pairs, the edges always set,
    so the apex search (the neighbours of i nearest j on each side, as
    ``_apexes`` finds them) reads edges and member diagonals alike, a flip
    is two XORs, and the charts found so far are a set of ints.  The search
    skips the flip back to a chart's parent, which is always found
    already, and yields every other new chart as it finds it.  The
    quadrilateral is all a mutation step needs: by the sign rule of
    Fomin-Shapiro-Thurston its sides give the exchange column of {i, j}
    (``atlas._walk_plan``).
    """
    check_polygon(n_gon)
    # bit[u][v] and segment[u][v] for every pair, either way round; row v
    # runs on past N, u < v again at u + N, so b's search never wraps
    bit = [[0] * (2 * n_gon) for _ in range(n_gon + 1)]
    segment = [[None] * (n_gon + 1) for _ in range(n_gon + 1)]
    for pos, (u, v) in enumerate(itertools.combinations(range(1, n_gon + 1), 2)):
        bit[u][v] = bit[v][u] = bit[v][u + n_gon] = 1 << pos
        segment[u][v] = segment[v][u] = Segment(u, v)
    labels = tuple(segment[1][k] for k in range(3, n_gon))
    mask = sum(bit[v][v + 1] for v in range(1, n_gon + 1))
    mask += sum(bit[1][k] for k in range(3, n_gon))
    seen = {mask}
    queue = deque([(mask, labels, -1, ())])
    yield labels, (), None, None
    parent = -1
    while queue:
        mask, labels, back, word = queue.popleft()
        parent += 1
        for k, (i, j) in enumerate(labels):
            if k == back:
                continue
            row = bit[i]
            a = j - 1
            while not mask & row[a]:
                a -= 1
            b = j + 1
            while not mask & row[b]:
                b += 1
            if b > n_gon:
                b -= n_gon
            new = mask ^ row[j] ^ bit[a][b]
            if new not in seen:
                seen.add(new)
                new_labels = labels[:k] + (segment[a][b],) + labels[k + 1 :]
                new_word = word + (k + 1,)
                queue.append((new, new_labels, k, new_word))
                yield new_labels, new_word, parent, (i, a, j, b)


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
