"""Measured curve systems on the polygon and their chart coordinates.

A lamination is a weighted graph whose positively weighted diagonals are
pairwise noncrossing and whose vertex masses all vanish; the boundary edge
weights (any sign) absorb whatever the diagonals deposit at each corner.
Integral laminations use integer weights, rational ones allow fractions.
The weights alone fix the domain, which each lamination stores once;
``_domain`` is the one place the ``"int"``/``"rat"`` rule is written.

Each triangulation gives a coordinate chart: the coordinate of a chart
diagonal is half the cut mass across it, which ``chart_coords`` reads for
every diagonal at once (``weighted_graphs._half_cuts``, in slot order) and
picks the chart's from.  Coordinates are a bijection onto
integer (resp. rational) vectors indexed by the chart diagonals.  The
coordinate of any other diagonal is the maximum, over the exponent vectors
of its positive expansion in the chart, of their linear forms evaluated at
the chart values.

A chart is compiled whole, once per process (``_compiled`` keeps at most
32 charts, keyed by the triangulation).  One exchange walk
(``_exchange_walk``) applies the exchange relation on crossing
quadrilaterals, but keeps only each expansion's exponent vectors over the
chart diagonals: the coefficients are positive, so no term cancels, and
the set of a sum is the union and that of a product the pairwise sums.
It gives every diagonal's exponent vectors, read as linear forms, and,
in the order it resolved them, the exchange step of each diagonal off the
chart: its exit diagonal, which the flip's apex search
(``polygon._apexes``) finds, and the two pairs of opposite sides of its
quadrilateral.  The forms' row table (``_RowTable``), which the lattice
scan in ``polytopes`` reads, is built with them.  ``tests/chart_oracle.py``
keeps the full expansions, with coefficients and edge variables, and an
exit search of its own, as the walk's reference.

Points become weight tuples in batches, without the forms
(``_CompiledChart.weights``): the points' values fill one column per
chart diagonal, each exchange step makes one more diagonal's column by
the tropical exchange relation
v(s) = max(v(a) + v(c), v(b) + v(d)) - v(e) (Fock-Goncharov, Publ. IHES
103, 2006), with edges at a zero column, and each weight is a column of
signed sums of four diagonal values (inclusion-exclusion over cyclically
consecutive chords; the per-N record ``weighted_graphs._tables`` gives
the slots), edge terms left out.  One ``zip`` turns the weight columns
into rows, and each row is a lamination's weight tuple.
``polytopes.lattice_points`` and the command line read every scanned
point in one batch; ``lamination_from_coords`` is a batch of one, which
normalizes Fractions and wraps the row through ``Value._trusted``
(``TropicalCoords`` has checked the point's length).
``chart_change`` evaluates the new chart diagonals' forms in the compiled
old chart.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor
from operator import add, itemgetter, mul, sub
from typing import Sequence

from .errors import (
    InvariantViolation,
    NonIntegral,
    NotALamination,
    SizeMismatch,
)
from .polygon import Segment, Triangulation, _apexes, _chart_text
from .values import Value, _is_number, _items, _normalize, _pair
from .weighted_graphs import WeightedGraph, _half_cuts, _tables


def _domain(graph: WeightedGraph) -> str:
    """``"int"`` when every weight is an integer, else ``"rat"``."""
    return "int" if graph.is_integral() else "rat"


def _check_curves(g: WeightedGraph) -> None:
    """Refuse a graph with two crossing loaded diagonals or a vertex of
    nonzero mass, in that order: what makes a graph a lamination."""
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


class Lamination(Value, derived=("domain",)):
    """A weighted graph that encodes a measured system of disjoint curves.

    Its domain, ``"int"`` or ``"rat"``, follows from the weights and is
    stored once, at construction.
    """

    __slots__ = ("graph", "domain")

    def __post_init__(self):
        if not isinstance(self.graph, WeightedGraph):
            raise InvariantViolation("a lamination's graph must be a WeightedGraph")
        object.__setattr__(self, "domain", _domain(self.graph))
        _check_curves(self.graph)

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
        graph = WeightedGraph._trusted(
            self.n_gon, tuple(_normalize(k * w) if w else 0 for w in self.graph.w)
        )
        return Lamination._trusted(graph, _domain(graph))

    __rmul__ = __mul__


def _edge_cycle(n_gon: int, chords: tuple, start: int = 0) -> tuple:
    """The weight tuple of the given chords, each of weight 1, completed
    by the edge weights that give every vertex mass zero.

    Edge p joins p and p + 1 (edge N joins N and 1), so the mass at p is
    e_(p-1) + e_p plus the chords at p.  From e_N = x around the cycle,
    e_p = c_p - e_(p-1), with c_p minus the chords at p, gives
    e_N = s + (-1)^N x.  At odd N, x = s / 2 is the one solution, an
    integer since s sums an even number of ±1s; at even N there is one only
    when s = 0, and then every x is one, so ``start`` chooses it: 0 for a
    canonical completion, and ±1 with no chords for the alternating edge
    lamination.  Chords with no completion raise InvariantViolation.
    """
    tables = _tables(n_gon)
    w = [0] * len(tables.pairs)
    c = [0] * (n_gon + 1)
    for i, j in chords:
        w[tables.index[i, j]] += 1
        c[i] -= 1
        c[j] -= 1
    s = 0
    for p in range(1, n_gon + 1):
        s = c[p] - s
    if n_gon % 2:
        x = s // 2
    elif s:
        raise InvariantViolation(f"chords {chords} have no completion on a {n_gon}-gon")
    else:
        x = start
    e = x
    for p in range(1, n_gon):
        e = c[p] - e
        w[tables.index[p, p + 1]] = e
    w[tables.index[1, n_gon]] = x
    return tuple(w)


def _piece_chords(lam: Lamination) -> tuple:
    """An integral lamination's pieces as (chords, start, multiplicity)
    triples: each piece is the integral lamination ``_edge_cycle(N, chords,
    start)``, each multiplicity a positive int, no piece comes twice, and
    the pieces times their multiplicities sum to the lamination's graph.

    At odd N each loaded diagonal gives its unit's one zero-mass
    completion.  At even N a diagonal {i, j} with j - i odd gives its
    completion with edge {1, N} at 0.  A diagonal whose ends have the same
    parity has no completion, but a lamination loads as many even-even
    units as odd-odd ones (the alternating sum of its vertex masses
    vanishes), so they are paired in diagonal order and each pair gets one
    completion.  What is left has no diagonal and no vertex mass, so it is
    t times the alternating edge lamination (no chords, start 1 or -1),
    with t the weight of edge {1, N}, which no other piece loads.
    """
    if lam.domain != "int":
        raise NonIntegral("pieces are integral laminations")
    n = lam.n_gon
    tables = _tables(n)
    w = lam.graph.w
    pieces = []
    same_parity: tuple[list, list] = ([], [])
    for k in tables.diagonals:
        if w[k]:
            i, j = tables.pairs[k]
            if n % 2 or (j - i) % 2:
                pieces.append(((tables.pairs[k],), 0, w[k]))
            else:
                same_parity[i % 2].append([tables.pairs[k], w[k]])
    even, odd = same_parity
    if sum(m for _, m in even) != sum(m for _, m in odd):
        raise InvariantViolation("even-even and odd-odd units differ in number")
    x = y = 0
    while x < len(even):
        k = min(even[x][1], odd[y][1])
        pieces.append(((even[x][0], odd[y][0]), 0, k))
        even[x][1] -= k
        odd[y][1] -= k
        # move past each diagonal whose units are all paired
        x += not even[x][1]
        y += not odd[y][1]
    t = 0 if n % 2 else w[tables.index[1, n]]
    if t:
        pieces.append(((), 1 if t > 0 else -1, abs(t)))
    return tuple(pieces)


def _diagonal_values(items, diags: tuple, mismatch: str, not_number: str) -> tuple:
    """Normalized (segment, value) pairs over exactly ``diags``, sorted by
    segment alone, so a repeated segment is a mismatch whatever its values;
    the messages name the two ways the items can fail."""
    vals = []
    for item in _items(items, "diagonal values"):
        s, v = _pair(item, "a (segment, value) entry")
        vals.append((Segment(*_pair(s, "a segment")), _normalize(v)))
    vals = tuple(sorted(vals, key=itemgetter(0)))
    if tuple(s for s, _ in vals) != diags:
        raise SizeMismatch(mismatch)
    for _, v in vals:
        if not _is_number(v):
            raise InvariantViolation(not_number)
    return vals


class TropicalCoords(Value):
    """A coordinate vector over the diagonals of one triangulation: sorted
    (segment, value) pairs, one per chart diagonal."""

    __slots__ = ("chart", "values")

    def __post_init__(self):
        if not isinstance(self.chart, Triangulation):
            raise InvariantViolation("a coordinate chart must be a Triangulation")
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

    def vector(self) -> tuple:
        return tuple(v for _, v in self.values)


def chart_coords(lam: Lamination, tri: Triangulation) -> TropicalCoords:
    """Coordinates of a lamination in the chart of a triangulation: the
    half cut masses across its diagonals."""
    if lam.n_gon != tri.n_gon:
        raise SizeMismatch("lamination and chart live on different polygons")
    half, slot = _half_cuts(lam.n_gon, lam.graph.w), _tables(lam.n_gon).slot
    return TropicalCoords(tri, tuple((d, half[slot[d]]) for d in tri.sorted_diagonals()))


def _exchange_walk(tri: Triangulation) -> tuple:
    """The exponent vectors of each diagonal's expansion in one chart, in
    the order of ``diagonals(n)``, and the exchange steps of the walk that
    found them.

    Vectors run over the chart diagonals in sorted order, with edges read
    as 1; each diagonal gets its vectors sorted.  Expansions have positive
    coefficients, so nothing cancels and the exchange relation alone gives
    the sets: a chart diagonal has its unit vector and an edge the zero
    vector, and any other segment {i, j}, i < j, the union of the pairwise
    sums over its quadrilateral's two pairs of opposite sides, minus the
    unit vector of the diagonal it exits through.  It leaves i through the
    chart triangle (i, a, b) that ``polygon._apexes`` finds, so it exits
    through {a, b} and its quadrilateral is i, j, a, b in order; each side
    crosses fewer chart diagonals than the segment, so the recursion ends.

    The steps list every diagonal off the chart, each once and after its
    sides: (segment, exit diagonal, (s1, s2), (s3, s4)), with the two pairs
    of opposite sides of its quadrilateral.  Segments are plain (i, j)
    pairs, i < j, which equal and hash like ``Segment``s.  Read tropically,
    a step gives v(segment) = max(v(s1) + v(s2), v(s3) + v(s4)) - v(exit),
    with v = 0 on edges, from values the earlier steps fixed.
    """
    n = tri.n_gon
    members = tri.diagonals
    diags = tri.sorted_diagonals()
    units = {d: tuple(int(d == e) for e in diags) for d in diags}
    memo = {d: {u} for d, u in units.items()}
    zero = {(0,) * len(diags)}
    memo.update({(p, p + 1): zero for p in range(1, n)})
    memo[1, n] = zero
    steps = []

    def sets(s: tuple) -> set:
        hit = memo.get(s)
        if hit is None:
            a, b = _apexes(members, n, *s)
            ear = (a, b) if a < b else (b, a)
            p, q, r, t = sorted((*s, a, b))
            sides = ((p, q), (r, t)), ((p, t), (q, r))
            e = units[ear]
            hit = memo[s] = {
                tuple(x + y - z for x, y, z in zip(u, v, e))
                for s1, s2 in sides
                for u in sets(s1)
                for v in sets(s2)
            }
            steps.append((s, ear, *sides))
        return hit

    # the slot table's keys are ``diagonals(n)`` in order
    return tuple(tuple(sorted(sets(s))) for s in _tables(n).slot), tuple(steps)


class _RowTable:
    """The rows of one chart's forms, without their bounds.

    ``forms`` lists the forms of each diagonal of ``diagonals(N)``.
    ``coeffs`` holds the distinct forms in the order they first come, each
    a row.  ``first[r]`` is the diagonal of the first form on row r, and
    ``more`` lists (r, diagonal) for every later form on a row.
    ``filed[k]`` holds the rows whose last nonzero coordinate is k as two
    lists, those with a positive coefficient c at k and those with a
    negative one, c negated.  Each list groups its rows by (a, c), with a
    the coefficient at k - 1 (0 at k = 0), as (a, c, members), and a member
    is (r, front) with front the row's coefficients before k - 1 (see
    ``polytopes._interval_scan``).

    A zero form, or a coordinate that no row bounds on one side, raises
    InvariantViolation: every depth of the scan must be bounded whatever
    the bounds.
    """

    def __init__(self, forms: Sequence, chart: Triangulation):
        diagonals = chart.sorted_diagonals()
        name = _chart_text(chart)
        index: dict[tuple, int] = {}
        self.first = []
        self.more = []
        for s, group in enumerate(forms):
            for form in group:
                if not any(form):
                    d = list(_tables(chart.n_gon).slot)[s]
                    raise InvariantViolation(
                        f"chart {name!r} has a zero form on diagonal {d.i}-{d.j}"
                    )
                if form in index:
                    self.more.append((index[form], s))
                else:
                    index[form] = len(index)
                    self.first.append(s)
        self.coeffs = coeffs = list(index)
        sides = [({}, {}) for _ in range(chart.n_gon - 3)]
        for r, row in enumerate(coeffs):
            k = max(j for j, c in enumerate(row) if c)
            a, front = (row[k - 1], row[:k - 1]) if k else (0, ())
            sides[k][row[k] < 0].setdefault((a, abs(row[k])), []).append((r, front))
        self.filed = [
            tuple([(a, c, members) for (a, c), members in side.items()] for side in pair)
            for pair in sides
        ]
        for k, (upper, lower) in enumerate(self.filed):
            missing = [side for side, found in (("above", upper), ("below", lower)) if not found]
            if missing:
                raise InvariantViolation(
                    f"chart {name!r} has no row bounding coordinate {k} "
                    f"({diagonals[k].i}-{diagonals[k].j}) from {' or '.join(missing)}"
                )

    def floors(self, values: Sequence) -> list:
        """Each row's right-hand side for the bounds ``values``, one per
        diagonal: the least floor of the bounds of the row's forms."""
        values = list(map(floor, values))
        out = [values[s] for s in self.first]
        for r, s in self.more:
            if values[s] < out[r]:
                out[r] = values[s]
        return out


class _CompiledChart:
    """One chart's diagonal forms, exchange steps and row table, all built
    in ``__init__`` and read-only after.

    ``forms[k]`` holds the exponent vectors of the expansion of
    ``diagonals(n)[k]`` in the chart, read as linear forms; the polytope's
    inequalities read them, and ``rows`` is their row table
    (``_RowTable``), which the scan reads.  The same walk's exchange steps,
    as slots into ``diagonals(n)`` with edges at the zero slot past the
    end, give a batch of points' diagonal values one column per step.
    """

    def __init__(self, chart: Triangulation):
        tables = _tables(chart.n_gon)
        slot = tables.slot
        self.forms, steps = _exchange_walk(chart)
        self.rows = _RowTable(self.forms, chart)
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
        # weight k is v[p] + v[q] - v[r] - v[t]
        self._columns = tuple((*pair(p, q), *pair(r, t)) for p, q, r, t in tables.weights)

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


@lru_cache(maxsize=32)
def _compiled(chart: Triangulation) -> _CompiledChart:
    """The chart compiled once per process; at most 32 charts are kept."""
    return _CompiledChart(chart)


def lamination_from_coords(coords: TropicalCoords) -> Lamination:
    """The unique lamination with the given chart coordinates."""
    point = coords.vector()
    (w,) = _compiled(coords.chart).weights([point])
    if Fraction in map(type, point):
        w = tuple(map(_normalize, w))
    # the exchange relation yields a lamination at every point
    graph = WeightedGraph._trusted(coords.n_gon, w)
    return Lamination._trusted(graph, _domain(graph))


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
