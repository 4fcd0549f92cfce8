"""Generalized associahedra cut out by diagonal bounds in tropical coordinates.

A polytope spec assigns a bound c(d) to every diagonal of the polygon; the
polytope is the set of laminations whose tropical coordinate at each
diagonal stays at or below the bound.  The spec is well shaped ("stasheff")
exactly when, for every quadruple p<q<r<s of vertices, the bounds on the
two crossing diagonals dominate both pairs of opposite sides:

    c(p,r) + c(q,s) >= max(c(p,q) + c(r,s), c(q,r) + c(p,s)),

reading c as zero on boundary edges.  Vertices then sit at the coordinate
vectors c restricted to complete triangulations, and faces are indexed by
partial triangulations.  Every slack of the criterion is a nonempty sum
of the diagonal weights of the spec's graph G(c), so the criterion is one
sign test per diagonal (``_spec_weights``).

Every per-diagonal quantity is read in slot order: a spec's bounds are
``c``, and a point's coordinates, half its cut masses, come from the per-N
cut getters (``weighted_graphs._half_cuts``), which also sum a product's
Minkowski bounds (``minkowski_spec``) and read membership, tight sets and
shifts.

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
``lattice_points`` wraps each row as an integral lamination through
``Value._trusted``.  A Stasheff spec is never empty, as it has a
vertex in every chart; a spec that fails the criterion first goes through
the Farkas test on the rows it floored for the scan, so that a spec with no
integral point, even one whose rational polytope is not empty, does not
walk the prefixes before the depth where its rows contradict each other.

``coordinate_bounds`` gives the rational box of any inequalities by exact
LPs, the Farkas test and then one LP per objective (the comment on the
linear programming core below has the method); the tests check it against
Fourier-Motzkin elimination, and the scan against the integral points of
both boxes.

``vertex_flags`` tells which points are the vertex of some chart: a
point's tight set, the diagonals where its half cut mass meets the bound,
goes through the interval program ``polygon.has_triangulation``, O(N^3)
per point, instead of being tested against each of the Catalan-many
charts.
"""
from __future__ import annotations

import itertools
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
)
from .polygon import (
    Triangulation,
    check_polygon,
    fan_triangulation,
    has_triangulation,
)
from .values import Value, _is_number
from .weighted_graphs import WeightedGraph, _half_cuts, _tables


_MISMATCH = "spec must bound every diagonal exactly once"


class StasheffSpec(Value):
    """One exact bound per diagonal of the polygon, as (segment, bound)
    pairs in slot order (``_tables(N).slot``)."""

    __slots__ = ("n_gon", "c")

    def __post_init__(self):
        check_polygon(self.n_gon)
        vals = _diagonal_values(
            self.c,
            tuple(_tables(self.n_gon).slot),
            _MISMATCH,
            "bounds must be exact numbers",
        )
        object.__setattr__(self, "c", vals)

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


def _spec_weights(spec: StasheffSpec) -> list:
    """The diagonal weights, in slot order, of the spec's graph G(c):
    w(p, q) = c(p, q) + c(p-1, q-1) - c(p, q-1) - c(p-1, q), labels mod N
    and edges read as 0 (``_tables(N).weights``), over the bounds scaled to
    ints by the lcm of their denominators, so of the right sign.

    Every slack of the quadruple criterion is a nonempty sum of these
    weights: for p < q < r < s, c(p, r) + c(q, s) exceeds the bounds of

        ({p, s}, {q, r}) by the sum of w(a, b) over a in (p, q], b in (r, s],
        ({p, q}, {r, s}) by the sum of w(a, b) over a in (q, r], b in (s, p+N],

    every term a diagonal; the thin quadruple (p-1, p, q-1, q) gives w(p, q)
    alone.
    """
    tables = _tables(spec.n_gon)
    v = _integral([c for _, c in spec.c])[0] + [0]
    quads = map(tables.weights.__getitem__, tables.diagonals)
    return [v[p] + v[q] - v[r] - v[t] for p, q, r, t in quads]


def is_stasheff(spec: StasheffSpec) -> bool:
    """True when every quadruple has nonnegative slack (``_spec_weights``)."""
    return all(x >= 0 for x in _spec_weights(spec))


def is_nondegenerate(spec: StasheffSpec) -> bool:
    """True when every quadruple has positive slack (``_spec_weights``)."""
    return all(x > 0 for x in _spec_weights(spec))


def vertex(spec: StasheffSpec, tri: Triangulation) -> TropicalCoords:
    """The bound vector restricted to one complete triangulation.

    For a well-shaped spec this is a point of the polytope, and every point
    of the polytope is dominated by one of these.
    """
    if spec.n_gon != tri.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    return TropicalCoords(tri, tuple((d, c) for d, c in spec.c if d in tri.diagonals))


def contains(spec: StasheffSpec, lam: Lamination) -> bool:
    """Polytope membership: every diagonal bound holds at the point, read
    up to the first that fails as a cut mass at most twice the bound."""
    if lam.n_gon != spec.n_gon:
        raise SizeMismatch("point and spec live on different polygons")
    w = lam.graph.w
    return all(sum(cut(w)) <= 2 * c for cut, (_, c) in zip(_tables(spec.n_gon).cuts, spec.c))


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
    # cut masses are linear, so each bound is half a cut mass of the
    # summed weights
    w = list(map(sum, zip(*(p.graph.w for p in points))))
    return StasheffSpec._trusted(n, tuple(zip(_tables(n).slot, _half_cuts(n, w))))


def minkowski_sum(spec1: StasheffSpec, spec2: StasheffSpec) -> StasheffSpec:
    """Add the bounds of two well-shaped specs diagonal by diagonal."""
    if spec1.n_gon != spec2.n_gon:
        raise SizeMismatch("specs live on different polygons")
    if not is_stasheff(spec1) or not is_stasheff(spec2):
        raise NotStasheff("both summands must satisfy the quadruple criterion")
    return StasheffSpec.of(spec1.n_gon, {d: a + b for (d, a), (_, b) in zip(spec1.c, spec2.c)})


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
    return [(form, c) for (_, c), forms in zip(spec.c, _compiled(chart).forms) for form in forms]


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
            coeffs, denom = _integral(coeffs)
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
    the least floor of the row's bounds, floored once for both the Farkas
    gate and the scan.  Every depth of the scan is bounded by the chart's
    rows alone, so no bound makes the scan unbounded.  A spec that fails
    the quadruple criterion and whose floored rows the Farkas test proves
    empty has no integral point, and gives none without a scan.
    """
    if spec.n_gon != chart.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    compiled = _compiled(chart)
    rows = compiled.rows
    floors = rows.floors([v for _, v in spec.c])
    # a Stasheff spec has a vertex in every chart; any other spec may be
    # empty by a contradiction that the scan would meet only deep down
    if not is_stasheff(spec) and _is_empty(rows.coeffs, floors, chart.n_gon - 3):
        return compiled, []
    return compiled, _interval_scan(rows.filed, floors)


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
    n = spec.n_gon
    return [
        has_triangulation(n, [d for x, (d, c) in zip(_half_cuts(n, w), spec.c) if x == c])
        for w in weights
    ]


def shift_to_negative_part(spec: StasheffSpec) -> tuple[Lamination, StasheffSpec]:
    """Translate the polytope into the region of nonpositive fan coordinates.

    Returns the translating point and the translated spec: each bound grows
    by the point's coordinate at its diagonal.  The translated spec keeps
    the quadruple criterion because point coordinates satisfy the exchange
    relation with equality.
    """
    n = spec.n_gon
    # the fan diagonals hold the first N - 3 slots
    fan_bounds = spec.c[:n - 3]
    m = max([0] + [c for _, c in fan_bounds])
    shift = lamination_from_coords(
        TropicalCoords(fan_triangulation(n), tuple((d, -m) for d, _ in fan_bounds))
    )
    shifted = {d: c + x for (d, c), x in zip(spec.c, _half_cuts(n, shift.graph.w))}
    return shift, StasheffSpec.of(n, shifted)
