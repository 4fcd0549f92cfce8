"""Generalized associahedra cut out by diagonal bounds in tropical coordinates.

A polytope spec assigns a bound c(d) to every diagonal of the polygon; the
polytope is the set of laminations whose tropical coordinate at each
diagonal stays at or below the bound.  The spec is well shaped ("stasheff")
exactly when, for every quadruple p<q<r<s of vertices, the bounds on the
two crossing diagonals dominate both pairs of opposite sides:

    c(p,r) + c(q,s) >= max(c(p,q) + c(r,s), c(q,r) + c(p,s)),

reading c as zero on boundary edges.  Vertices then sit at the coordinate
vectors c restricted to complete triangulations, and faces are indexed by
partial triangulations.  The slacks of the criterion are read off the
per-N quadruple rows (``weighted_graphs._tables``) in one pass.

Lattice enumeration works per chart, compiled once per process for up to
32 charts (``laminations._compiled``): a diagonal's coordinate is the max
of the linear forms that the exponent vectors of its chart expansion
(``laminations._exchange_walk``) give in the chart coordinates, so each
bound splits into plain half-spaces with integer rows.  A compiled chart
keeps the table of those rows (``laminations._RowTable``), built with the
chart.  An integral point meets a bound on an integer row exactly when it
meets the bound's floor, so a spec brings only one int per row: the least
floor of the row's bounds (``_RowTable.floors``).

The scan fixes the coordinates in order and checks each row as soon as its
last nonzero coordinate is reached: with the prefix fixed, the row bounds
that coordinate to one side.  Every chart has rows on both sides at every
coordinate, which ``_RowTable`` checks once per chart, so each depth
loops over an exact interval that its own rows give, with no coordinate
box solved first, and the last depth takes its whole interval without a
per-point test.  The scan yields sorted integer coordinate vectors, and the
compiled chart turns them into weight tuples in one batch
(``_CompiledChart.weights``).  Every scanned point is integral, so
``lattice_points`` wraps each row as an integral lamination through the
``_trusted`` constructors.  A Stasheff spec is never empty, as it has a
vertex in every chart; a spec that fails the criterion first goes through
the Farkas test on the same floored rows, so that a spec with no integral
point, even one whose rational polytope is not empty, does not walk the
prefixes before the depth where its rows contradict each other.

``coordinate_bounds`` gives the rational box of any inequalities by exact
LPs, the Farkas test and then one LP per objective (the comment on the
linear programming core below has the method); the tests check it against
Fourier-Motzkin elimination, and the scan against the integral points of
both boxes.

``vertex_flags`` tells which points are the vertex of some chart: a
point's tight set, the diagonals where its cut mass meets twice the bound,
goes through the interval program ``polygon.has_triangulation``, O(N^3)
per point, instead of being tested against each of the Catalan-many
charts.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvariantViolation,
    NotStasheff,
    SizeMismatch,
    Unbounded,
)
from .laminations import (
    Lamination,
    TropicalCoords,
    _compiled,
    _diagonal_values,
    lamination_from_coords,
    tropical_coordinate,
)
from .polygon import (
    Triangulation,
    check_polygon,
    fan_triangulation,
    has_triangulation,
)
from .weighted_graphs import WeightedGraph, _is_number, _tables


@dataclass(frozen=True)
class StasheffSpec:
    """One exact bound per diagonal of the polygon."""

    n_gon: int
    c: tuple
    _bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_polygon(self.n_gon)
        vals = _diagonal_values(
            self.c,
            tuple(_tables(self.n_gon).slot),
            "spec must bound every diagonal exactly once",
            "bounds must be exact numbers",
        )
        object.__setattr__(self, "c", vals)
        object.__setattr__(self, "_bounds", dict(vals))

    @classmethod
    def _trusted(cls, n_gon: int, c: tuple) -> "StasheffSpec":
        """Wrap bounds a closed operation made: one normalized exact
        (segment, bound) pair per diagonal, in slot order."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "n_gon", n_gon)
        object.__setattr__(spec, "c", c)
        object.__setattr__(spec, "_bounds", dict(c))
        return spec

    @staticmethod
    def of(n_gon: int, mapping) -> "StasheffSpec":
        return StasheffSpec(n_gon, tuple(mapping.items()))

    def as_dict(self) -> dict:
        return dict(self.c)


def _integral(values: Sequence) -> tuple[list, int]:
    """The values times q, the lcm of their denominators, as ints, and q."""
    if set(map(type, values)) == {int}:
        return values, 1
    q = lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def _slacks(spec: StasheffSpec) -> list:
    """Each quadruple's crossing-diagonal bound minus the larger
    opposite-side bound, boundary edges read as 0, in the lexicographic
    order of the quadruples (``_tables(N).rows``).  The slacks are scaled
    by the lcm of the bounds' denominators, so they are ints of the right
    sign."""
    tables = _tables(spec.n_gon)
    v = [0] * len(tables.pairs)
    for k, c in zip(tables.diagonals, _integral([c for _, c in spec.c])[0]):
        v[k] = c
    return [
        v[pr] + v[qs] - max(v[ps] + v[qr], v[pq] + v[rs])
        for pr, qs, ((ps, qr), (pq, rs)) in tables.rows
    ]


def is_stasheff(spec: StasheffSpec) -> bool:
    """True when every quadruple has nonnegative slack."""
    return all(x >= 0 for x in _slacks(spec))


def is_nondegenerate(spec: StasheffSpec) -> bool:
    """True when every quadruple has strictly positive slack."""
    return all(x > 0 for x in _slacks(spec))


def vertex(spec: StasheffSpec, tri: Triangulation) -> TropicalCoords:
    """The bound vector restricted to one complete triangulation.

    For a well-shaped spec this is a point of the polytope, and every point
    of the polytope is dominated by one of these.
    """
    if spec.n_gon != tri.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    c = spec._bounds
    return TropicalCoords(tri, tuple((d, c[d]) for d in tri.sorted_diagonals()))


def contains(spec: StasheffSpec, lam: Lamination) -> bool:
    """Polytope membership: every diagonal bound holds at the point."""
    if lam.n_gon != spec.n_gon:
        raise SizeMismatch("point and spec live on different polygons")
    c = spec._bounds
    return all(tropical_coordinate(lam, d) <= c[d] for d in _tables(spec.n_gon).slot)


def minkowski_spec(points: Sequence[Lamination]) -> StasheffSpec:
    """The spec whose bounds are the summed coordinates of the points.

    Its polytope is the Minkowski sum of the points' singleton polytopes;
    it depends only on the summed weighted graph.
    """
    points = list(points)
    if not points:
        raise EmptyInput("need at least one point")
    n = points[0].n_gon
    for p in points[1:]:
        if p.n_gon != n:
            raise SizeMismatch("points live on different polygons")
    tables = _tables(n)
    # cut masses are linear, so each bound is half a cut mass of the
    # summed weights; an even mass halves to an int
    w = list(map(sum, zip(*(p.graph.w for p in points))))
    masses = [sum(tables.cuts[k](w)) for k in tables.diagonals]
    c = tuple(
        (d, mass // 2 if mass % 2 == 0 else Fraction(mass, 2))
        for d, mass in zip(tables.slot, masses)
    )
    return StasheffSpec._trusted(n, c)


def minkowski_sum(spec1: StasheffSpec, spec2: StasheffSpec) -> StasheffSpec:
    """Add the bounds of two well-shaped specs diagonal by diagonal."""
    if spec1.n_gon != spec2.n_gon:
        raise SizeMismatch("specs live on different polygons")
    if not is_stasheff(spec1) or not is_stasheff(spec2):
        raise NotStasheff("both summands must satisfy the quadruple criterion")
    d1, d2 = spec1._bounds, spec2._bounds
    return StasheffSpec.of(spec1.n_gon, {d: d1[d] + d2[d] for d in d1})


# -- exact linear programming core ------------------------------------------
#
# Every system here has integer rows and integer right-hand sides, the
# costs, read over one denominator d: coeffs . a <= cost / d.  The chart
# scan's rows are its chart's forms and its costs the floors of their
# bounds (_RowTable.floors), with d = 1, which keeps every integral point.
# coordinate_bounds clears each row's denominators and takes d as the lcm
# of the right-hand sides' denominators; its LP takes zero, duplicate and
# non-primitive rows as they come.
#
# coordinate_bounds and the chart scan's Farkas gate solve each LP below
# cold: phase one, then phase two, under Bland's rule.  By LP duality,
# max +-a_k over coeffs . a <= cost / d is min cost . y / d over y >= 0
# with sum y_i coeffs_i = +-e_k, finite when the system is nonempty and
# the dual has a solution.  By Farkas the system is empty exactly when
# some y >= 0 with sum y_i coeffs_i = 0 has cost . y < 0.  Ratio tests
# compare by cross-multiplication, and each optimum is an integer pair
# (num, den), so the only Fractions are the ones coordinate_bounds returns.


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot(tab: list, basis: list, obj: list | None, p: int, q: int) -> None:
    """Make column q basic in row p; every row is scaled by the positive
    pivot entry and then divided by its content, so rows stay integer.
    The reduced costs ``obj`` cover only the leading columns."""
    prow = tab[p]
    a = prow[q]
    for i, row in enumerate(tab):
        f = row[q]
        if i != p and f:
            tab[i] = _primitive([a * x - f * y for x, y in zip(row, prow)])
    if obj is not None and obj[q]:
        f = obj[q]
        obj[:] = _primitive([a * x - f * y for x, y in zip(obj, prow)])
    basis[p] = q


def _improve(tab: list, basis: list, obj: list, ncols: int) -> bool:
    """Pivot under Bland's rule until no reduced cost is negative; False
    when the objective decreases without bound."""
    while True:
        q = next((j for j in range(ncols) if obj[j] < 0), None)
        if q is None:
            return True
        # least ratio rhs / entry over positive entries, ties to the
        # lowest basic index
        p = None
        for i, row in enumerate(tab):
            if row[q] > 0:
                if p is not None:
                    x, y = row[-1] * tab[p][q], tab[p][-1] * row[q]
                    if x > y or x == y and basis[i] > basis[p]:
                        continue
                p = i
        if p is None:
            return False
        _pivot(tab, basis, obj, p, q)


def _phase_one(tab: list, m: int) -> list | None:
    """A feasible basis of tab . y = rhs, y >= 0, found in place, or None
    when the equations have no solution.

    Each row is [a_1, ..., a_m, rhs].  Rows with a negative rhs are
    negated, then one artificial variable per row (basis index m + i,
    never re-entered once it leaves) starts the basis and their sum is
    minimised.  A row whose artificial stays basic with no nonzero entry
    left is a redundant equation and is removed.
    """
    for i, row in enumerate(tab):
        if row[-1] < 0:
            tab[i] = [-x for x in row]
    basis = [m + i for i in range(len(tab))]
    obj = [-sum(row[j] for row in tab) for j in range(m)]
    _improve(tab, basis, obj, m)
    i = 0
    while i < len(tab):
        row = tab[i]
        if basis[i] >= m:
            if row[-1] > 0:
                return None
            q = next((j for j in range(m) if row[j]), None)
            if q is None:
                del tab[i], basis[i]
                continue
            if row[q] < 0:
                tab[i] = [-x for x in row]
            _pivot(tab, basis, None, i, q)
        i += 1
    return basis


def _phase_two(tab: list, basis: list, costs: Sequence[int]) -> bool:
    """Minimise costs . y from a feasible basis, in place; False when the
    minimum is unbounded."""
    obj = list(costs)
    for row, b in zip(tab, basis):
        f = obj[b]
        if f:
            obj = _primitive([row[b] * x - f * y for x, y in zip(obj, row)])
    return _improve(tab, basis, obj, len(costs))


def _value(tab: list, basis: list, costs: Sequence[int]) -> tuple[int, int]:
    """costs . y at the tableau's basic solution, as num / den with den > 0."""
    den = lcm(*(row[b] for row, b in zip(tab, basis)))
    return sum(costs[b] * row[-1] * (den // row[b]) for row, b in zip(tab, basis)), den


def _minimum(tab: list, costs: Sequence[int]) -> tuple[int, int] | None:
    """min costs . y over tab . y = rhs, y >= 0, solved in place, as
    num / den with den > 0; None when the equations have no solution.
    Every caller's minimum is bounded below."""
    basis = _phase_one(tab, len(costs))
    if basis is None:
        return None
    if not _phase_two(tab, basis, costs):
        raise InvariantViolation("simplex minimum is unbounded")
    return _value(tab, basis, costs)


def _is_empty(coeffs: list, costs: list, nvars: int) -> bool:
    """Farkas test: some convex combination of the rows reads 0 <= negative."""
    tab = [[c[k] for c in coeffs] + [0] for k in range(nvars)]
    tab.append([1] * len(coeffs) + [1])
    found = _minimum(tab, costs)
    return found is not None and found[0] < 0


def chart_inequalities(spec: StasheffSpec, chart: Triangulation) -> list[tuple]:
    """The polytope as plain half-spaces in one chart's coordinates.

    Each diagonal's tropical coordinate is a max of linear forms in the
    chart values; bounding a max bounds every form.
    """
    if spec.n_gon != chart.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    c = spec._bounds
    return [
        (form, c[d])
        for d, forms in zip(_tables(spec.n_gon).slot, _compiled(chart).forms)
        for form in forms
    ]


def coordinate_bounds(ineqs: Sequence[tuple], nvars: int):
    """Per-coordinate rational bounds [lo, hi] of the feasible region.

    Returns None when the region is empty; raises Unbounded when some
    coordinate has no finite bound on one side, DimensionMismatch when a
    row does not have exactly nvars coefficients and InvariantViolation
    when an entry is not an int or Fraction.
    """
    rows, values = [], []
    for coeffs, rhs in ineqs:
        if len(coeffs) != nvars:
            raise DimensionMismatch(
                f"inequality has {len(coeffs)} coefficients, need {nvars}"
            )
        if not (_is_number(rhs) and all(map(_is_number, coeffs))):
            raise InvariantViolation("inequality entries must be exact numbers")
        if not all(type(x) is int for x in coeffs):
            denom = lcm(*(x.denominator for x in coeffs))
            coeffs = [x.numerator * (denom // x.denominator) for x in coeffs]
            rhs *= denom
        rows.append(coeffs)
        values.append(rhs)
    costs, d = _integral(values)
    if _is_empty(rows, costs, nvars):
        return None
    # -lo_0, hi_0, -lo_1, ...: max -+a_k is the dual minimum over
    # sum y_i coeffs_i = -+e_k, which has no solution when a_k is unbounded
    ends = []
    for k, sign in itertools.product(range(nvars), (-1, 1)):
        tab = [[c[j] for c in rows] + [sign * (j == k)] for j in range(nvars)]
        found = _minimum(tab, costs)
        if found is None:
            raise Unbounded(f"coordinate {k} has no finite bound")
        ends.append(Fraction(found[0], found[1] * d))
    return [(-neg_lo, hi) for neg_lo, hi in zip(ends[::2], ends[1::2])]


def _scan_chart(spec: StasheffSpec, chart: Triangulation) -> tuple:
    """Compile the chart and scan the polytope in it.

    Returns the compiled chart and the integral points as coordinate
    vectors in that chart, sorted.  The spec brings only one int per row,
    the least floor of the row's bounds, which both the Farkas gate and
    the scan read.  Every depth of the scan is bounded by the chart's rows
    alone, so no bound makes the scan unbounded.  A spec that fails the
    quadruple criterion and whose floored rows the Farkas test proves
    empty has no integral point, and gives none without a scan.
    """
    if spec.n_gon != chart.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    # a Stasheff spec has a vertex in every chart; any other spec may be
    # empty by a contradiction that the scan would meet only deep down
    if any(x < 0 for x in _slacks(spec)):
        rows = _compiled(chart).rows
        if _is_empty(rows.coeffs, rows.floors([v for _, v in spec.c]), chart.n_gon - 3):
            return _compiled(chart), []
    return _compile_and_scan(spec, chart)


def _compile_and_scan(spec: StasheffSpec, chart: Triangulation) -> tuple:
    """``_scan_chart`` past its checks, for a spec on the chart's polygon:
    compile the chart, floor the bounds and scan.  A caller whose spec is
    Stasheff by construction, such as a ``minkowski_spec``, calls it
    directly, since the gate would pass it anyway."""
    compiled = _compiled(chart)
    rows = compiled.rows
    return compiled, _interval_scan(rows.filed, rows.floors([v for _, v in spec.c]))


def _interval_scan(filed: list, floors: list) -> list:
    """The integral points that meet every row, sorted.

    ``floors`` holds each row's right-hand side, an int
    (``laminations._RowTable.floors``).  ``filed[k]`` holds
    the rows whose last nonzero coordinate is k (``_RowTable``): once the
    prefix a_0..a_{k-1} is fixed such a row bounds a_k to one side, a floor
    for a positive coefficient and a ceiling for a negative one, and every
    depth has rows on both sides (``_RowTable``).  Before a depth loops
    over a_{k-1}, each (a, c) group of depth k takes the least room b of
    its members over a_0..a_{k-2}, so every value x of a_{k-1} costs one
    floor division (b - a x) // c per group.  Each depth loops upward over
    the interval its rows leave, so the points come in lexicographic
    order, and the last depth takes its whole interval at once.
    """
    last = len(filed) - 1
    if last < 0:
        return [()]
    filed = [
        [[(a, c, [(front, floors[r]) for r, front in members]) for a, c, members in side]
         for side in pair]
        for pair in filed
    ]
    out = []

    def groups(prefix: tuple, k: int) -> list:
        # (a, c, b) per group of depth k, with a_0..a_{k-2} the prefix
        return [
            [(a, c, min([rhs - sum(map(mul, front, prefix)) for front, rhs in members]))
             for a, c, members in side]
            for side in filed[k]
        ]

    def extend(prefix: tuple, k: int, lo: int, hi: int) -> None:
        if k == last:
            out.extend([prefix + (x,) for x in range(lo, hi + 1)])
            return
        upper, lower = groups(prefix, k + 1)
        for x in range(lo, hi + 1):
            top = min([(b - a * x) // c for a, c, b in upper])
            bottom = -min([(b - a * x) // c for a, c, b in lower])
            if bottom <= top:
                extend(prefix + (x,), k + 1, bottom, top)

    upper, lower = groups((), 0)
    bottom, top = -min([b // c for _, c, b in lower]), min([b // c for _, c, b in upper])
    if bottom <= top:
        extend((), 0, bottom, top)
    return out


def lattice_points(
    spec: StasheffSpec, chart: Triangulation | None = None
) -> list[Lamination]:
    """All integral points of the polytope, enumerated in one chart.

    The result does not depend on the chart.  Sorted by chart coordinates.
    The chart's own rows bound every coordinate whatever the bounds
    (``_RowTable``), so there is no Unbounded here; an empty list is a
    legitimate answer for infeasible bounds.
    """
    if chart is None:
        chart = fan_triangulation(spec.n_gon)
    compiled, vectors = _scan_chart(spec, chart)
    # every scanned point is integral, and so is its lamination
    return [
        Lamination._trusted(WeightedGraph._trusted(spec.n_gon, w), "int")
        for w in compiled.weights(vectors)
    ]


def vertex_flags(spec: StasheffSpec, weights) -> list[bool]:
    """Whether each point, given by its weight tuple, is the vertex of
    some chart: whether the diagonals where its coordinate meets the bound,
    its tight set, hold a complete triangulation (``has_triangulation``).
    """
    tables = _tables(spec.n_gon)
    c = spec._bounds
    # a coordinate is half a cut mass, so the cut mass meets twice the bound
    checks = [(d, tables.cuts[k], 2 * c[d]) for d, k in zip(tables.slot, tables.diagonals)]
    return [
        has_triangulation(spec.n_gon, [d for d, cut, bound in checks if sum(cut(w)) == bound])
        for w in weights
    ]


def shift_to_negative_part(spec: StasheffSpec) -> tuple[Lamination, StasheffSpec]:
    """Translate the polytope into the region of nonpositive fan coordinates.

    Returns the translating point and the translated spec: each bound grows
    by the point's coordinate at its diagonal.  The translated spec keeps
    the quadruple criterion because point coordinates satisfy the exchange
    relation with equality.
    """
    fan = fan_triangulation(spec.n_gon)
    c = spec._bounds
    m = max([0] + [c[d] for d in fan.sorted_diagonals()])
    shift = lamination_from_coords(
        TropicalCoords(fan, tuple((d, -m) for d in fan.sorted_diagonals()))
    )
    shifted = {
        d: c[d] + tropical_coordinate(shift, d) for d in _tables(spec.n_gon).slot
    }
    return shift, StasheffSpec.of(spec.n_gon, shifted)
