"""Combinatorics of a convex polygon with clockwise-labelled vertices.

Vertices are labelled 1..N clockwise.  A segment is an unordered pair of
distinct vertices, stored with the smaller label first.  Segments whose
endpoints are adjacent on the boundary are edges; all others are diagonals.
Two segments cross when exactly one endpoint of the second lies strictly
between the endpoints of the first in cyclic order, which for canonically
ordered pairs reduces to a pair of label comparisons.
"""
from __future__ import annotations

import itertools
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    IncompleteTriangulation,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NotADiagonal,
    SizeMismatch,
)


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


def segment_length(seg: Segment, n_gon: int) -> int:
    """Cyclic distance between the endpoints: min(|i-j|, N-|i-j|)."""
    seg.validate(n_gon)
    gap = seg.j - seg.i
    return min(gap, n_gon - gap)


def crosses(s1: Segment, s2: Segment, n_gon: int | None = None) -> bool:
    """Whether two segments of the same polygon cross in the interior.

    Segments sharing an endpoint never cross.
    """
    if n_gon is not None:
        s1.validate(n_gon)
        s2.validate(n_gon)
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


def compatibility_degree(s1: Segment, s2: Segment, n_gon: int) -> int:
    """Number of crossings between two diagonals: here always 0 or 1."""
    for s in (s1, s2):
        if not s.is_diagonal(n_gon):
            raise NotADiagonal(f"{tuple(s)} is a boundary edge of the {n_gon}-gon")
    return int(crosses(s1, s2))


@dataclass(frozen=True)
class Triangulation:
    """A set of pairwise noncrossing diagonals of an N-gon.

    Complete triangulations carry exactly N-3 diagonals; smaller sets are
    allowed and describe faces rather than charts.
    """

    n_gon: int
    diagonals: frozenset[Segment]

    def __post_init__(self):
        check_polygon(self.n_gon)
        object.__setattr__(self, "diagonals", frozenset(self.diagonals))
        for d in self.diagonals:
            if not d.is_diagonal(self.n_gon):
                raise NotADiagonal(f"{tuple(d)} is an edge, not a diagonal")
        for a, b in itertools.combinations(sorted(self.diagonals), 2):
            if crosses(a, b):
                raise InvariantViolation(f"diagonals {tuple(a)} and {tuple(b)} cross")

    @classmethod
    def of(cls, n_gon: int, pairs) -> "Triangulation":
        return cls(n_gon, frozenset(Segment(i, j) for i, j in pairs))

    @property
    def is_complete(self) -> bool:
        return len(self.diagonals) == self.n_gon - 3

    def sorted_diagonals(self) -> list[Segment]:
        return sorted(self.diagonals)

    def key(self) -> tuple:
        return tuple(self.sorted_diagonals())

    def contains_segment(self, seg: Segment) -> bool:
        """True for member diagonals and for boundary edges."""
        return seg.is_edge(self.n_gon) or seg in self.diagonals

    def require_complete(self) -> "Triangulation":
        if not self.is_complete:
            raise IncompleteTriangulation(
                f"need {self.n_gon - 3} diagonals, have {len(self.diagonals)}"
            )
        return self

    def triangles(self) -> list[tuple[int, int, int]]:
        """The N-2 triangle faces, each a clockwise vertex triple (a<b<c)."""
        self.require_complete()
        out = []
        for a, b, c in itertools.combinations(range(1, self.n_gon + 1), 3):
            if (
                self.contains_segment(Segment(a, b))
                and self.contains_segment(Segment(b, c))
                and self.contains_segment(Segment(a, c))
            ):
                out.append((a, b, c))
        if len(out) != self.n_gon - 2:
            raise InvariantViolation("triangle count is off; triangulation corrupt")
        return out


def fan_triangulation(n_gon: int) -> Triangulation:
    """The fan at vertex 1: diagonals {1,3}, {1,4}, ..., {1,N-1}."""
    check_polygon(n_gon)
    return Triangulation(n_gon, frozenset(Segment(1, k) for k in range(3, n_gon)))


def supplement(tri: Triangulation) -> list[Segment]:
    """Diagonals not in the set but compatible with every member."""
    out = []
    for d in diagonals(tri.n_gon):
        if d in tri.diagonals:
            continue
        if all(not crosses(d, t) for t in tri.diagonals):
            out.append(d)
    return out


@lru_cache(maxsize=None)
def triangulations(n_gon: int) -> tuple[Triangulation, ...]:
    """All complete triangulations, lexicographically ordered.

    Recursive ear decomposition: every triangulation of the polygon on a
    cyclic vertex list has a unique triangle on the chord between its first
    and last vertex; branch over its apex.
    """
    check_polygon(n_gon)

    def rec(verts: tuple[int, ...]):
        if len(verts) < 3:
            return [frozenset()]
        first, last = verts[0], verts[-1]
        found = []
        for idx in range(1, len(verts) - 1):
            apex = verts[idx]
            added = set()
            for u, v in ((first, apex), (apex, last)):
                s = Segment(u, v)
                if s.is_diagonal(n_gon):
                    added.add(s)
            for left in rec(verts[: idx + 1]):
                for right in rec(verts[idx:]):
                    found.append(frozenset(added) | left | right)
        return found

    sets = rec(tuple(range(1, n_gon + 1)))
    tris = sorted((Triangulation(n_gon, s) for s in sets), key=Triangulation.key)
    return tuple(tris)


def flip(tri: Triangulation, diag: Segment):
    """Replace one diagonal by the crossing diagonal of its quadrilateral.

    Returns (new_triangulation, new_diagonal, quad) where quad lists the
    four quadrilateral vertices in increasing order; the removed and
    inserted diagonals are its two crossing diagonals, {quad[0], quad[2]}
    and {quad[1], quad[3]}, in one order or the other.
    """
    tri.require_complete()
    if diag not in tri.diagonals:
        raise NotADiagonal(f"{diag} is not a diagonal of this triangulation")
    apexes = [
        next(v for v in t if v not in diag)
        for t in tri.triangles()
        if diag.i in t and diag.j in t
    ]
    if len(apexes) != 2:
        raise InvariantViolation("diagonal does not bound exactly two triangles")
    new_diag = Segment(*apexes)
    quad = tuple(sorted((diag.i, diag.j, *apexes)))
    if {diag, new_diag} != {Segment(quad[0], quad[2]), Segment(quad[1], quad[3])}:
        raise InvariantViolation("a flip must swap the two diagonals of a quadrilateral")
    new_tri = Triangulation(tri.n_gon, (tri.diagonals - {diag}) | {new_diag})
    return new_tri, new_diag, quad


def flip_path(tri1: Triangulation, tri2: Triangulation):
    """A shortest flip sequence from one complete triangulation to another.

    Each step is (removed_diagonal, added_diagonal, quad) as in flip().
    Deterministic: breadth-first with diagonals tried in sorted order.
    """
    if tri1.n_gon != tri2.n_gon:
        raise SizeMismatch("triangulations live on different polygons")
    tri1.require_complete()
    tri2.require_complete()
    goal_key = tri2.key()
    seen = {tri1.key(): None}
    queue = deque([tri1])
    while queue:
        tri = queue.popleft()
        if tri.key() == goal_key:
            steps = []
            cur = tri
            while seen[cur.key()] is not None:
                prev, removed, added, quad = seen[cur.key()]
                steps.append((removed, added, quad))
                cur = prev
            steps.reverse()
            return steps
        for d in tri.sorted_diagonals():
            new_tri, new_diag, quad = flip(tri, d)
            if new_tri.key() not in seen:
                seen[new_tri.key()] = (tri, d, new_diag, quad)
                queue.append(new_tri)
    raise InvariantViolation("flip search exhausted without reaching the target")
