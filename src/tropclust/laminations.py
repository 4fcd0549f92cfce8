"""Measured curve systems on the polygon and their chart coordinates.

A lamination is a weighted graph whose positively weighted diagonals are
pairwise noncrossing and whose vertex masses all vanish; the boundary edge
weights (any sign) absorb whatever the diagonals deposit at each corner.
Integral laminations use integer weights, rational ones allow fractions.

Each complete triangulation gives a coordinate chart: the coordinate of a
chart diagonal is half the cut mass across it.  Coordinates are a bijection
onto integer (resp. rational) vectors indexed by the chart diagonals.  The
coordinate of any other segment is the tropicalization of its positive
Laurent expansion in the chart (``atlas.expand_cluster_variable``),
evaluated at the chart values.  ``chart_change`` reads the new chart's
diagonals this way, and ``lamination_from_coords`` reads every segment and
then recovers the weights by inclusion-exclusion over cyclically
consecutive chords.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .atlas import expand_cluster_variable
from .errors import (
    InvariantViolation,
    NotADiagonal,
    NotALamination,
    SizeMismatch,
)
from .polygon import (
    Segment,
    Triangulation,
    all_segments,
    crosses,
)
from .weighted_graphs import (
    Number,
    WeightedGraph,
    _is_number,
    _normalize,
    pairs,
    wrap_vertex,
)

DOMAINS = ("int", "rat")


def _check_domain(domain: str) -> None:
    if domain not in DOMAINS:
        raise InvariantViolation(f"domain must be one of {DOMAINS}, got {domain!r}")


@dataclass(frozen=True)
class Lamination:
    """A weighted graph that encodes a measured system of disjoint curves."""

    graph: WeightedGraph
    domain: str = "int"

    def __post_init__(self):
        _check_domain(self.domain)
        g = self.graph
        n = g.n_gon
        if self.domain == "int" and not g.is_integral():
            raise NotALamination("integral domain but fractional weights")
        loaded = [(Segment(i, j), w) for i, j, w in g.sparse_items() if 1 < j - i < n - 1]
        for s, w in loaded:
            if w < 0:
                raise NotALamination(f"diagonal {s} carries negative weight")
        for (s, _), (t, _) in itertools.combinations(loaded, 2):
            if crosses(s, t):
                raise NotALamination(f"diagonals {s} and {t} cross")
        for p, mass in enumerate(g.vertex_masses(), start=1):
            if mass != 0:
                raise NotALamination(f"vertex {p} has nonzero total weight")

    @property
    def n_gon(self) -> int:
        return self.graph.n_gon

    @staticmethod
    def zero(n_gon: int, domain: str = "int") -> "Lamination":
        return Lamination(WeightedGraph.zeros(n_gon), domain)

    def is_zero(self) -> bool:
        return self.graph.is_trivial()

    def __add__(self, other: "Lamination") -> "Lamination":
        if not isinstance(other, Lamination):
            return NotImplemented
        domain = "int" if self.domain == other.domain == "int" else "rat"
        return Lamination(self.graph + other.graph, domain)

    def __mul__(self, k) -> "Lamination":
        if not _is_number(k):
            return NotImplemented
        if k < 0:
            raise NotALamination("scaling factor must be nonnegative")
        k = _normalize(Fraction(k))
        graph = WeightedGraph(
            self.n_gon, tuple(_normalize(k * w) if w else 0 for w in self.graph.w)
        )
        domain = "int" if graph.is_integral() else "rat"
        return Lamination(graph, domain)

    __rmul__ = __mul__


@dataclass(frozen=True)
class TropicalCoords:
    """A coordinate vector over the diagonals of one complete triangulation."""

    chart: Triangulation
    values: tuple

    def __post_init__(self):
        self.chart.require_complete()
        vals = tuple(sorted((Segment(*s), _normalize(v)) for s, v in self.values))
        segs = tuple(s for s, _ in vals)
        if segs != tuple(self.chart.sorted_diagonals()):
            raise SizeMismatch(
                "coordinate segments must be exactly the chart diagonals"
            )
        for _, v in vals:
            if not _is_number(v):
                raise InvariantViolation(f"coordinate values must be exact numbers")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def of(chart: Triangulation, mapping) -> "TropicalCoords":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return TropicalCoords(chart, tuple((Segment(*s), v) for s, v in items))

    @property
    def n_gon(self) -> int:
        return self.chart.n_gon

    def as_dict(self) -> dict:
        return dict(self.values)

    def value(self, seg: Segment) -> Number:
        seg = Segment(*seg)
        for s, v in self.values:
            if s == seg:
                return v
        raise NotADiagonal(f"{seg} is not a diagonal of the chart")

    def vector(self) -> tuple:
        return tuple(v for _, v in self.values)

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for _, v in self.values)


def tropical_coordinate(lam: Lamination, seg: Segment) -> Number:
    """Half the cut mass across a diagonal; defined for any diagonal."""
    seg = Segment(*seg)
    seg.validate(lam.n_gon)
    if not seg.is_diagonal(lam.n_gon):
        raise NotADiagonal(f"{seg} is an edge; coordinates live on diagonals")
    return _normalize(Fraction(lam.graph.cut(seg.i, seg.j), 2))


def chart_coords(lam: Lamination, tri: Triangulation) -> TropicalCoords:
    """Coordinates of a lamination in the chart of a complete triangulation."""
    if lam.n_gon != tri.n_gon:
        raise SizeMismatch("lamination and chart live on different polygons")
    tri.require_complete()
    vals = tuple(
        (d, _normalize(Fraction(lam.graph.cut(d.i, d.j), 2)))
        for d in tri.sorted_diagonals()
    )
    return TropicalCoords(tri, vals)


def _exchange_values(coords: TropicalCoords, segs) -> dict[Segment, Number]:
    """Tropical coordinates of the given segments, read off the chart.

    The coordinate of a segment is the tropicalization of its positive
    Laurent expansion in the chart, evaluated at the chart values; edges
    expand to 1 and so read 0.
    """
    point = coords.vector()
    return {
        s: _normalize(
            expand_cluster_variable(s, coords.chart, "reduced").tropicalize().eval(point)
        )
        for s in segs
    }


def lamination_from_coords(coords: TropicalCoords, domain: str | None = None) -> Lamination:
    """The unique lamination with the given chart coordinates.

    Weights come from the values of all segments by cyclic
    inclusion-exclusion: w(p, q) = v(p, q) + v(p-1, q-1) - v(p, q-1) -
    v(p-1, q), reading v through vertex wrap-around with v = 0 on edges and
    degenerate pairs.
    """
    n = coords.n_gon
    vals = _exchange_values(coords, all_segments(n))

    def v(p: int, q: int) -> Number:
        p, q = wrap_vertex(p, n), wrap_vertex(q, n)
        if p == q:
            return 0
        return vals[Segment(p, q)]

    graph = WeightedGraph(
        n,
        tuple(
            _normalize(v(p, q) + v(p - 1, q - 1) - v(p, q - 1) - v(p - 1, q))
            for p, q in pairs(n)
        ),
    )
    if domain is None:
        domain = "int" if graph.is_integral() and coords.is_integral() else "rat"
    return Lamination(graph, domain)


def chart_change(coords: TropicalCoords, tri2: Triangulation) -> TropicalCoords:
    """Rewrite a coordinate vector in another chart.

    Each diagonal of the new chart takes the tropicalization of its
    Laurent expansion in the old chart, evaluated at the old values.
    """
    if coords.n_gon != tri2.n_gon:
        raise SizeMismatch("charts live on different polygons")
    tri2.require_complete()
    vals = _exchange_values(coords, tri2.sorted_diagonals())
    return TropicalCoords(tri2, tuple(vals.items()))
