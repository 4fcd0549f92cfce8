"""Measured curve systems on the polygon and their chart coordinates.

A lamination is a weighted graph whose positively weighted diagonals are
pairwise noncrossing and whose vertex masses all vanish; the boundary edge
weights (any sign) absorb whatever the diagonals deposit at each corner.
Integral laminations use integer weights, rational ones allow fractions.
The weights alone fix the domain, which each lamination stores once;
``_domain`` is the one place the ``"int"``/``"rat"`` rule is written.

Each triangulation gives a coordinate chart: the coordinate of a chart
diagonal is half the cut mass across it.  Coordinates are a bijection onto
integer (resp. rational) vectors indexed by the chart diagonals.  The
coordinate of any other diagonal is the maximum, over the exponent vectors
of its positive expansion in the chart, of their linear forms evaluated at
the chart values.

A chart is compiled once per process (``_compiled`` keeps at most 32
charts, keyed by the triangulation).  One exchange walk
(``atlas._exchange_walk``) gives every diagonal's exponent vectors, read
as linear forms, and, in the order it resolved them, the exchange step of
each diagonal off the chart: its exit diagonal and the two pairs of
opposite sides of its quadrilateral.  Points then become weight tuples
in batches, without the forms (``_CompiledChart.weights``): the points'
values fill one column per chart diagonal, each step makes one more
diagonal's column by the tropical exchange relation
v(s) = max(v(a) + v(c), v(b) + v(d)) - v(e) (Fock-Goncharov, Publ. IHES
103, 2006), with edges at a zero column, and each weight is a column of
signed sums of four diagonal values (inclusion-exclusion over cyclically
consecutive chords; the per-N record ``weighted_graphs._tables`` gives
the slots), edge terms left out.  One ``zip`` turns the weight columns
into rows, and each row is a lamination's weight tuple.
``polytopes.lattice_points`` and the command line read every scanned
point in one batch; ``lamination_from_coords`` is a batch of one, which
checks the point's length, normalizes Fractions and wraps the row
through the ``_trusted`` constructors.
``chart_change`` evaluates the new chart diagonals' forms in the compiled
old chart.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .atlas import _exchange_walk
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotADiagonal,
    NotALamination,
    SizeMismatch,
)
from .polygon import Segment, Triangulation
from .weighted_graphs import (
    Number,
    WeightedGraph,
    _is_number,
    _normalize,
    _tables,
)


def _domain(graph: WeightedGraph) -> str:
    """``"int"`` when every weight is an integer, else ``"rat"``."""
    return "int" if graph.is_integral() else "rat"


@dataclass(frozen=True)
class Lamination:
    """A weighted graph that encodes a measured system of disjoint curves.

    Its domain, ``"int"`` or ``"rat"``, follows from the weights and is
    stored once, at construction.
    """

    graph: WeightedGraph
    domain: str = field(init=False, compare=False)

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "domain", _domain(g))
        tables = _tables(g.n_gon)
        w = g.w
        loaded = [tables.pairs[k] for k in tables.diagonals if w[k]]
        # Loaded diagonals come sorted, so (a, b) after (i, j) has i <= a
        # and crosses it exactly when i < a < j < b; none from a >= j on.
        for x, (i, j) in enumerate(loaded):
            for a, b in loaded[x + 1:]:
                if a >= j:
                    break
                if i < a and j < b:
                    raise NotALamination(f"diagonals {Segment(i, j)} and {Segment(a, b)} cross")
        for p, mass in enumerate(g.vertex_masses(), start=1):
            if mass != 0:
                raise NotALamination(f"vertex {p} has nonzero total weight")

    @classmethod
    def _trusted(cls, graph: WeightedGraph, domain: str | None = None) -> "Lamination":
        """Wrap a graph a closed operation derived from laminations; a
        caller that knows the graph's domain may pass it."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "graph", graph)
        object.__setattr__(lam, "domain", domain or _domain(graph))
        return lam

    @property
    def n_gon(self) -> int:
        return self.graph.n_gon

    @staticmethod
    def zero(n_gon: int) -> "Lamination":
        return Lamination(WeightedGraph.zeros(n_gon))

    def __add__(self, other: "Lamination") -> "Lamination":
        if not isinstance(other, Lamination):
            return NotImplemented
        return Lamination(self.graph + other.graph)

    def __mul__(self, k) -> "Lamination":
        if not _is_number(k):
            return NotImplemented
        if k < 0:
            raise NotALamination("scaling factor must be nonnegative")
        # a nonnegative multiple of a lamination is one: no crossing or
        # vertex mass appears, and the domain follows the weights
        k = _normalize(Fraction(k))
        return Lamination._trusted(WeightedGraph._trusted(
            self.n_gon, tuple(_normalize(k * w) if w else 0 for w in self.graph.w)
        ))

    __rmul__ = __mul__


def _diagonal_values(items, diags: tuple, mismatch: str, not_number: str) -> tuple:
    """Sorted, normalized (segment, value) pairs over exactly ``diags``;
    the messages name the two ways the items can fail."""
    vals = tuple(sorted((Segment(*s), _normalize(v)) for s, v in items))
    if tuple(s for s, _ in vals) != diags:
        raise SizeMismatch(mismatch)
    for _, v in vals:
        if not _is_number(v):
            raise InvariantViolation(not_number)
    return vals


@dataclass(frozen=True)
class TropicalCoords:
    """A coordinate vector over the diagonals of one triangulation."""

    chart: Triangulation
    values: tuple

    def __post_init__(self):
        vals = _diagonal_values(
            self.values,
            self.chart.key(),
            "coordinate segments must be exactly the chart diagonals",
            "coordinate values must be exact numbers",
        )
        object.__setattr__(self, "values", vals)

    @staticmethod
    def of(chart: Triangulation, mapping) -> "TropicalCoords":
        return TropicalCoords(chart, tuple(mapping.items()))

    @property
    def n_gon(self) -> int:
        return self.chart.n_gon

    def as_dict(self) -> dict:
        return dict(self.values)

    def vector(self) -> tuple:
        return tuple(v for _, v in self.values)


def _half_cut(lam: Lamination, d: Segment) -> Number:
    return _normalize(Fraction(lam.graph.cut(d.i, d.j), 2))


def tropical_coordinate(lam: Lamination, seg: Segment) -> Number:
    """Half the cut mass across a diagonal; defined for any diagonal."""
    seg = Segment(*seg)
    if not seg.is_diagonal(lam.n_gon):
        raise NotADiagonal(f"{seg} is an edge; coordinates live on diagonals")
    return _half_cut(lam, seg)


def chart_coords(lam: Lamination, tri: Triangulation) -> TropicalCoords:
    """Coordinates of a lamination in the chart of a triangulation."""
    if lam.n_gon != tri.n_gon:
        raise SizeMismatch("lamination and chart live on different polygons")
    return TropicalCoords(tri, tuple((d, _half_cut(lam, d)) for d in tri.sorted_diagonals()))


class _CompiledChart:
    """One chart's diagonal forms and exchange steps (read-only once built).

    ``forms[k]`` holds the exponent vectors of the expansion of
    ``diagonals(n)[k]`` in the chart, read as linear forms; the polytope's
    inequalities read them.  The same walk's exchange steps, as slots into
    ``diagonals(n)`` with edges at the zero slot past the end, give a
    batch of points' diagonal values one column per step.  ``rows`` is the
    one field set later: the row table of the chart's forms
    (``polytopes._RowTable``), which ``polytopes._scan_chart`` builds at
    the chart's first scan.
    """

    def __init__(self, chart: Triangulation):
        tables = _tables(chart.n_gon)
        slot = tables.slot
        self.chart = chart
        self.rows = None
        # the slot table's keys are ``diagonals(n)`` in order
        self.forms, steps = _exchange_walk(tuple(slot), chart)
        zero = self._zero = len(slot)

        def pair(x, y):
            # an edge reads the zero slot, which goes last, so that a sum
            # with one diagonal reads that diagonal alone
            return sorted((x, y), key=zero.__eq__)

        self._chart_slots = tuple(slot[d] for d in chart.sorted_diagonals())
        self._steps = tuple(
            (slot[s], slot[e], *pair(slot.get(a, zero), slot.get(c, zero)),
             *pair(slot.get(b, zero), slot.get(d, zero)))
            for s, e, (a, c), (b, d) in steps
        )
        # weight k is v[p] + v[q] - v[r] - v[t], the slots of the four
        # weight getters at k
        self._columns = tuple(
            (*pair(p, q), *pair(r, t))
            for p, q, r, t in zip(*(getter(range(zero + 1)) for getter in tables.weights))
        )

    def weights(self, points) -> list:
        """The weight tuples of the laminations at the given points, in
        order; every point must have one value per chart diagonal.

        The values go column by column: one column of all the points'
        values per diagonal, the zero column at every edge, one more
        column per exchange step and one per weight.
        """
        count = len(points)
        if not count:
            return []
        zero = self._zero
        v = [(0,) * count] * (zero + 1)
        for k, column in zip(self._chart_slots, zip(*points)):
            v[k] = column
        for s, e, a, c, b, d in self._steps:
            x = v[a] if c == zero else map(add, v[a], v[c])
            y = v[b] if d == zero else map(add, v[b], v[d])
            # a comparison in the comprehension takes about half the time
            # of ``map(max, ...)``
            v[s] = [(p if p > q else q) - r for p, q, r in zip(x, y, v[e])]
        columns = []
        for p, q, r, t in self._columns:
            x = v[p] if q == zero else map(add, v[p], v[q])
            if r != zero:
                x = map(sub, x, v[r] if t == zero else map(add, v[r], v[t]))
            columns.append(x)
        return list(zip(*columns))

    def lamination(self, point: tuple) -> Lamination:
        """The lamination whose chart coordinates are the given point."""
        if len(point) != len(self._chart_slots):
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, need {len(self._chart_slots)}"
            )
        (w,) = self.weights([point])
        if Fraction in map(type, point):
            w = tuple(map(_normalize, w))
        # the exchange relation yields a lamination at every point
        return Lamination._trusted(WeightedGraph._trusted(self.chart.n_gon, w))


@lru_cache(maxsize=32)
def _compiled(chart: Triangulation) -> _CompiledChart:
    """The chart compiled once per process; at most 32 charts are kept."""
    return _CompiledChart(chart)


def lamination_from_coords(coords: TropicalCoords) -> Lamination:
    """The unique lamination with the given chart coordinates."""
    return _compiled(coords.chart).lamination(coords.vector())


def chart_change(coords: TropicalCoords, tri2: Triangulation) -> TropicalCoords:
    """Rewrite a coordinate vector in another chart.

    Each diagonal of the new chart takes the maximum of the linear forms
    of its expansion in the old chart, evaluated at the old values.
    """
    if coords.n_gon != tri2.n_gon:
        raise SizeMismatch("charts live on different polygons")
    point = coords.vector()
    forms, slot = _compiled(coords.chart).forms, _tables(tri2.n_gon).slot
    vals = tuple(
        (d, _normalize(max(sum(map(mul, f, point)) for f in forms[slot[d]])))
        for d in tri2.sorted_diagonals()
    )
    return TropicalCoords(tri2, vals)
