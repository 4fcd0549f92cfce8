"""Weighted graphs on polygon segments and their boundary statistics.

A weighted graph assigns a weight to every segment of an N-gon: any exact
number on boundary edges, nonnegative on diagonals.  Entries may be ints or
Fractions; the statistics below are linear so both domains work unchanged.

Three families of statistics drive everything else:

* interval mass: for 1 <= k <= l <= N, the total weight of segments with
  both endpoints inside [k, l], computed on demand;
* vertex mass: the sum of weights incident to one vertex;
* cut mass: for a segment {k, l}, the total weight of segments separating
  the cyclic interval [k+1, l] from its complement.

Cut masses determine the graph, and the explicit inversion is implemented
in ``graph_from_cut_stats``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import (
    InvalidPolygon,
    InvariantViolation,
    NonIntegral,
    SizeMismatch,
)
from .polygon import Segment, all_segments, check_polygon, segment_length

Number = int | Fraction


def _is_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _normalize(x: Number) -> Number:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def wrap_vertex(v: int, n_gon: int) -> int:
    """Map an arbitrary integer onto the vertex labels 1..N."""
    return (v - 1) % n_gon + 1


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weight matrix over the segments of an N-gon."""

    n_gon: int
    w: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        check_polygon(self.n_gon)
        n = self.n_gon
        w = tuple(tuple(row) for row in self.w)
        if len(w) != n or any(len(row) != n for row in w):
            raise InvariantViolation(f"weight matrix must be {n}x{n}")
        for i in range(n):
            if not all(_is_number(x) for x in w[i]):
                raise InvariantViolation("weights must be ints or Fractions")
            if w[i][i] != 0:
                raise InvariantViolation(f"nonzero self-weight at vertex {i + 1}")
            for j in range(i + 1, n):
                if w[i][j] != w[j][i]:
                    raise InvariantViolation(f"asymmetric weights at ({i + 1},{j + 1})")
                if w[i][j] < 0 and Segment(i + 1, j + 1).is_diagonal(n):
                    raise InvariantViolation(
                        f"negative weight on diagonal ({i + 1},{j + 1})"
                    )
        object.__setattr__(self, "w", w)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n_gon: int) -> "WeightedGraph":
        return cls(n_gon, tuple((0,) * n_gon for _ in range(n_gon)))

    @classmethod
    def from_weights(cls, n_gon: int, weights: Mapping) -> "WeightedGraph":
        check_polygon(n_gon)
        m = [[0] * n_gon for _ in range(n_gon)]
        for key, value in weights.items():
            seg = key if isinstance(key, Segment) else Segment(*key)
            seg.validate(n_gon)
            m[seg.i - 1][seg.j - 1] = value
            m[seg.j - 1][seg.i - 1] = value
        return cls(n_gon, tuple(tuple(row) for row in m))

    # -- access ------------------------------------------------------------

    def weight(self, i: int, j: int) -> Number:
        if i == j:
            return 0
        Segment(i, j).validate(self.n_gon)
        return self.w[i - 1][j - 1]

    def __getitem__(self, seg: Segment) -> Number:
        return self.weight(seg.i, seg.j)

    def sparse_items(self) -> tuple[tuple[int, int, Number], ...]:
        n = self.n_gon
        return tuple(
            (i + 1, j + 1, self.w[i][j])
            for i in range(n)
            for j in range(i + 1, n)
            if self.w[i][j] != 0
        )

    def is_trivial(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.w)

    def is_integral(self) -> bool:
        return all(Fraction(x).denominator == 1 for row in self.w for x in row)

    # -- algebra -----------------------------------------------------------

    def _check_size(self, other: "WeightedGraph") -> None:
        if self.n_gon != other.n_gon:
            raise SizeMismatch(f"polygon sizes differ: {self.n_gon} vs {other.n_gon}")

    def __add__(self, other: "WeightedGraph") -> "WeightedGraph":
        self._check_size(other)
        return WeightedGraph(
            self.n_gon,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.w, other.w)
            ),
        )

    def __sub__(self, other: "WeightedGraph") -> "WeightedGraph":
        self._check_size(other)
        return WeightedGraph(
            self.n_gon,
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.w, other.w)
            ),
        )


def common_part(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Entrywise minimum; subtracting it strips shared support."""
    g1._check_size(g2)
    return WeightedGraph(
        g1.n_gon,
        tuple(tuple(min(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(g1.w, g2.w)),
    )


@dataclass(frozen=True)
class GraphStats:
    """Interval, vertex, and cut masses of one weighted graph."""

    n_gon: int
    w: tuple[tuple[Number, ...], ...]
    vertex_mass: tuple[Number, ...]
    cut_mass: Mapping[Segment, Number]

    def interval(self, k: int, l: int) -> Number:
        if not 1 <= k <= l <= self.n_gon:
            raise InvalidPolygon(f"interval ({k},{l}) is not 1<=k<=l<={self.n_gon}")
        return sum(self.w[i][j] for i in range(k - 1, l) for j in range(i + 1, l))

    def vertex(self, p: int) -> Number:
        return self.vertex_mass[wrap_vertex(p, self.n_gon) - 1]

    def cut(self, a: int, b: int) -> Number:
        """Cut mass with cyclically wrapped labels; zero when they coincide."""
        a = wrap_vertex(a, self.n_gon)
        b = wrap_vertex(b, self.n_gon)
        if a == b:
            return 0
        return self.cut_mass[Segment(a, b)]


@lru_cache(maxsize=None)
def stats(graph: WeightedGraph) -> GraphStats:
    n = graph.n_gon
    w = graph.w
    vertex = tuple(sum(row) for row in w)
    cut: dict[Segment, Number] = {}
    for seg in all_segments(n):
        k, l = seg
        inside = set(range(k + 1, l + 1))
        cut[seg] = sum(
            w[i - 1][j - 1]
            for i in inside
            for j in range(1, n + 1)
            if j not in inside
        )
    return GraphStats(n, w, vertex, cut)


def depth(graph: WeightedGraph) -> int | None:
    """Smallest cyclic length among segments with nonzero weight."""
    lengths = [
        segment_length(Segment(i, j), graph.n_gon)
        for i, j, _ in graph.sparse_items()
    ]
    return min(lengths) if lengths else None


def dominates(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """Whether g1 <= g2 in the cut-mass partial order.

    Requires equal vertex masses everywhere and cut masses of g1 bounded by
    those of g2 on every diagonal.
    """
    g1._check_size(g2)
    s1, s2 = stats(g1), stats(g2)
    if s1.vertex_mass != s2.vertex_mass:
        return False
    n = g1.n_gon
    return all(
        s1.cut_mass[d] <= s2.cut_mass[d]
        for d in all_segments(n)
        if d.is_diagonal(n)
    )


def graph_from_cut_stats(cut: Mapping[Segment, Number], n_gon: int) -> WeightedGraph:
    """Rebuild the weight matrix from cut masses on all segments.

    The weight on {i, j} is half of an alternating sum of four cut masses
    at cyclically shifted corners.  Raises NonIntegral when that alternating
    sum is odd for integer input.
    """
    check_polygon(n_gon)
    table: dict[Segment, Number] = {}
    for key, value in cut.items():
        seg = key if isinstance(key, Segment) else Segment(*key)
        seg.validate(n_gon)
        if not _is_number(value):
            raise InvariantViolation(f"cut mass {value!r} is not an exact number")
        table[seg] = value
    missing = [s for s in all_segments(n_gon) if s not in table]
    if missing:
        raise InvariantViolation(f"cut masses missing for {missing[:3]}...")

    def cut_at(a: int, b: int) -> Number:
        a = wrap_vertex(a, n_gon)
        b = wrap_vertex(b, n_gon)
        if a == b:
            return 0
        return table[Segment(a, b)]

    weights: dict[Segment, Number] = {}
    for seg in all_segments(n_gon):
        i, j = seg
        total = cut_at(i, j) + cut_at(i - 1, j - 1) - cut_at(i, j - 1) - cut_at(i - 1, j)
        if isinstance(total, int):
            if total % 2 != 0:
                raise NonIntegral(f"weight on {tuple(seg)} would be {total}/2")
            weights[seg] = total // 2
        else:
            weights[seg] = _normalize(total / 2)
    return WeightedGraph.from_weights(n_gon, weights)
