"""Measured curve systems on the polygon and their chart coordinates.

A lamination is a weighted graph whose positively weighted diagonals are
pairwise noncrossing and whose vertex masses all vanish; the boundary edge
weights (any sign) absorb whatever the diagonals deposit at each corner.
Integral laminations use integer weights, rational ones allow fractions.

Each complete triangulation gives a coordinate chart: the coordinate of a
chart diagonal is half the cut mass across it.  Coordinates are a bijection
onto integer (resp. rational) vectors indexed by the chart diagonals;
``lamination_from_coords`` inverts them by first extending the vector to
every diagonal through the tropical exchange relation on quadrilaterals and
then reading off the weights by inclusion-exclusion over cyclically
consecutive chords.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvariantViolation,
    NotADiagonal,
    NotALamination,
    SizeMismatch,
)
from .polygon import (
    Segment,
    Triangulation,
    crosses,
    diagonals as polygon_diagonals,
    edges as polygon_edges,
    flip_path,
)
from .weighted_graphs import (
    Number,
    WeightedGraph,
    _is_number,
    _normalize,
    stats,
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
        loaded = [Segment(i, j) for i, j, w in g.sparse_items() if Segment(i, j).is_diagonal(n)]
        for s in loaded:
            if g.weight(s.i, s.j) < 0:
                raise NotALamination(f"diagonal {s} carries negative weight")
        for s, t in itertools.combinations(loaded, 2):
            if crosses(s, t):
                raise NotALamination(f"diagonals {s} and {t} cross")
        st = stats(g)
        for p in range(1, n + 1):
            if st.vertex(p) != 0:
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
        weights = {
            Segment(i, j): _normalize(k * w) for i, j, w in self.graph.sparse_items()
        }
        graph = WeightedGraph.from_weights(self.n_gon, weights)
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
    return _normalize(Fraction(stats(lam.graph).cut(seg.i, seg.j), 2))


def chart_coords(lam: Lamination, tri: Triangulation) -> TropicalCoords:
    """Coordinates of a lamination in the chart of a complete triangulation."""
    if lam.n_gon != tri.n_gon:
        raise SizeMismatch("lamination and chart live on different polygons")
    tri.require_complete()
    st = stats(lam.graph)
    vals = tuple(
        (d, _normalize(Fraction(st.cut(d.i, d.j), 2))) for d in tri.sorted_diagonals()
    )
    return TropicalCoords(tri, vals)


def _extended_values(coords: TropicalCoords) -> dict[Segment, Number]:
    """Extend chart values to every segment via the exchange relation.

    On each quadrilateral p<q<r<s the two crossing diagonals satisfy
    value(p,r) + value(q,s) = max over the two pairs of opposite sides of
    the sum of side values, with edges pinned to zero.  Sweeping until
    stable fills in every diagonal; the order does not matter because the
    extension is unique.
    """
    n = coords.n_gon
    vals: dict[Segment, Number] = {e: 0 for e in polygon_edges(n)}
    vals.update(coords.as_dict())
    missing = sum(1 for d in polygon_diagonals(n) if d not in vals)
    quads = list(itertools.combinations(range(1, n + 1), 4))
    for _ in range(n + 2):
        if missing == 0:
            break
        for p, q, r, s in quads:
            cross1, cross2 = Segment(p, r), Segment(q, s)
            if (cross1 in vals) == (cross2 in vals):
                continue
            sides = (Segment(p, q), Segment(r, s), Segment(q, r), Segment(p, s))
            if any(side not in vals for side in sides):
                continue
            rhs = max(
                vals[sides[0]] + vals[sides[1]], vals[sides[2]] + vals[sides[3]]
            )
            if cross1 in vals:
                vals[cross2] = _normalize(rhs - vals[cross1])
            else:
                vals[cross1] = _normalize(rhs - vals[cross2])
            missing -= 1
    if missing:
        raise InvariantViolation("coordinate extension failed to close")
    return vals


def lamination_from_coords(coords: TropicalCoords, domain: str | None = None) -> Lamination:
    """The unique lamination with the given chart coordinates.

    Weights come from the extended values by cyclic inclusion-exclusion:
    w(p, q) = v(p, q) + v(p-1, q-1) - v(p, q-1) - v(p-1, q), reading
    v through vertex wrap-around with v = 0 on edges and degenerate pairs.
    """
    n = coords.n_gon
    vals = _extended_values(coords)

    def v(p: int, q: int) -> Number:
        p, q = wrap_vertex(p, n), wrap_vertex(q, n)
        if p == q:
            return 0
        return vals[Segment(p, q)]

    weights = {}
    for p, q in itertools.combinations(range(1, n + 1), 2):
        w = v(p, q) + v(p - 1, q - 1) - v(p, q - 1) - v(p - 1, q)
        if w != 0:
            weights[Segment(p, q)] = _normalize(w)
    graph = WeightedGraph.from_weights(n, weights)
    if domain is None:
        domain = "int" if graph.is_integral() and coords.is_integral() else "rat"
    return Lamination(graph, domain)


def chart_change(coords: TropicalCoords, tri2: Triangulation) -> TropicalCoords:
    """Rewrite a coordinate vector in another chart by a flip sequence.

    Each flip solves the exchange relation on its quadrilateral for the
    incoming diagonal; all four side values are available throughout.
    """
    if coords.n_gon != tri2.n_gon:
        raise SizeMismatch("charts live on different polygons")
    tri2.require_complete()
    n = coords.n_gon
    current = coords.as_dict()

    def lookup(seg: Segment) -> Number:
        if seg.is_edge(n):
            return 0
        return current[seg]

    for removed, added, quad in flip_path(coords.chart, tri2):
        p, q, r, s = quad
        rhs = max(
            lookup(Segment(p, q)) + lookup(Segment(r, s)),
            lookup(Segment(q, r)) + lookup(Segment(p, s)),
        )
        value = rhs - current.pop(removed)
        current[added] = _normalize(value)
    vals = tuple((d, current[d]) for d in tri2.sorted_diagonals())
    return TropicalCoords(tri2, vals)
