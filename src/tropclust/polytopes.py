"""Generalized associahedra cut out by diagonal bounds in tropical space.

A polytope spec assigns a bound c(d) to every diagonal of the polygon; the
polytope is the set of laminations whose tropical coordinate at each
diagonal stays at or below the bound.  The spec is well shaped ("stasheff")
exactly when, for every quadruple p<q<r<s of vertices, the bounds on the
two crossing diagonals dominate both pairs of opposite sides:

    c(p,r) + c(q,s) >= max(c(p,q) + c(r,s), c(q,r) + c(p,s)),

reading c as zero on boundary edges.  Vertices then sit at the coordinate
vectors c restricted to complete triangulations, and faces are indexed by
partial triangulations.

Lattice enumeration works per chart: each diagonal bound tropicalizes to a
max of linear forms in the chart coordinates, the maxima split into plain
half-spaces, and exact Fourier-Motzkin elimination produces coordinate
ranges to scan.  The same elimination core decides hull membership.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Sequence

from .atlas import expand_cluster_variable
from .errors import (
    EmptyInput,
    InvariantViolation,
    NotADiagonal,
    NotStasheff,
    SizeMismatch,
    Unbounded,
)
from .laminations import (
    Lamination,
    TropicalCoords,
    chart_coords,
    lamination_from_coords,
    tropical_coordinate,
)
from .polygon import (
    Segment,
    Triangulation,
    check_polygon,
    diagonals as polygon_diagonals,
    fan_triangulation,
    supplement,
    triangulations,
)
from .weighted_graphs import Number, _is_number, _normalize


@dataclass(frozen=True)
class StasheffSpec:
    """One exact bound per diagonal of the polygon."""

    n_gon: int
    c: tuple

    def __post_init__(self):
        check_polygon(self.n_gon)
        vals = tuple(sorted((Segment(*s), _normalize(v)) for s, v in self.c))
        segs = tuple(s for s, _ in vals)
        if segs != tuple(polygon_diagonals(self.n_gon)):
            raise SizeMismatch("spec must bound every diagonal exactly once")
        for _, v in vals:
            if not _is_number(v):
                raise InvariantViolation("bounds must be exact numbers")
        object.__setattr__(self, "c", vals)

    @staticmethod
    def of(n_gon: int, mapping) -> "StasheffSpec":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return StasheffSpec(n_gon, tuple((Segment(*s), v) for s, v in items))

    def as_dict(self) -> dict:
        return dict(self.c)

    def value(self, seg: Segment) -> Number:
        seg = Segment(*seg)
        if not seg.is_diagonal(self.n_gon):
            raise NotADiagonal(f"{seg} is not a diagonal; bounds live on diagonals")
        return self.as_dict()[seg]

    def side_value(self, p: int, q: int) -> Number:
        """The bound with boundary edges (and coinciding vertices) read as 0."""
        if p == q:
            return 0
        seg = Segment(p, q)
        if seg.is_edge(self.n_gon):
            return 0
        return self.as_dict()[seg]


def quadruple_slack(spec: StasheffSpec, p: int, q: int, r: int, s: int) -> Number:
    """Crossing-diagonal bound minus the larger opposite-side bound."""
    if not p < q < r < s:
        raise InvariantViolation("quadruple must be strictly increasing")
    cross = spec.side_value(p, r) + spec.side_value(q, s)
    side = max(
        spec.side_value(p, q) + spec.side_value(r, s),
        spec.side_value(q, r) + spec.side_value(p, s),
    )
    return cross - side


def _quadruples(n_gon: int):
    return itertools.combinations(range(1, n_gon + 1), 4)


def is_stasheff(spec: StasheffSpec) -> bool:
    """True when every quadruple has nonnegative slack."""
    return all(quadruple_slack(spec, *q) >= 0 for q in _quadruples(spec.n_gon))


def is_nondegenerate(spec: StasheffSpec) -> bool:
    """True when every quadruple has strictly positive slack."""
    return all(quadruple_slack(spec, *q) > 0 for q in _quadruples(spec.n_gon))


def vertex(spec: StasheffSpec, tri: Triangulation) -> TropicalCoords:
    """The bound vector restricted to one complete triangulation.

    For a well-shaped spec this is a point of the polytope, and every point
    of the polytope is dominated by one of these.
    """
    if spec.n_gon != tri.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    tri.require_complete()
    c = spec.as_dict()
    return TropicalCoords(tri, tuple((d, c[d]) for d in tri.sorted_diagonals()))


@dataclass(frozen=True)
class Face:
    """The locus where the bounds of a noncrossing diagonal set are attained."""

    spec: StasheffSpec
    diagonals: frozenset

    def __post_init__(self):
        diags = frozenset(Segment(*d) for d in self.diagonals)
        # Triangulation performs the noncrossing and diagonal checks
        Triangulation(self.spec.n_gon, diags)
        object.__setattr__(self, "diagonals", diags)

    def triangulation(self) -> Triangulation:
        return Triangulation(self.spec.n_gon, self.diagonals)


def face_membership(face: Face, lam: Lamination) -> bool:
    """Point test for a face: equality on its diagonals, the bound on
    every diagonal compatible with all of them.

    Diagonals crossing the face's set are not constrained; their bounds
    are implied for points of the polytope.
    """
    spec = face.spec
    if lam.n_gon != spec.n_gon:
        raise SizeMismatch("point and spec live on different polygons")
    c = spec.as_dict()
    for d in sorted(face.diagonals):
        if tropical_coordinate(lam, d) != c[d]:
            return False
    for d in supplement(face.triangulation()):
        if tropical_coordinate(lam, d) > c[d]:
            return False
    return True


def contains(spec: StasheffSpec, lam: Lamination) -> bool:
    """Polytope membership: every diagonal bound holds at the point."""
    return face_membership(Face(spec, frozenset()), lam)


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
    c = {
        d: sum(tropical_coordinate(p, d) for p in points)
        for d in polygon_diagonals(n)
    }
    return StasheffSpec.of(n, c)


def minkowski_sum(spec1: StasheffSpec, spec2: StasheffSpec) -> StasheffSpec:
    """Add the bounds of two well-shaped specs diagonal by diagonal."""
    if spec1.n_gon != spec2.n_gon:
        raise SizeMismatch("specs live on different polygons")
    if not is_stasheff(spec1) or not is_stasheff(spec2):
        raise NotStasheff("both summands must satisfy the quadruple criterion")
    d1, d2 = spec1.as_dict(), spec2.as_dict()
    return StasheffSpec.of(spec1.n_gon, {d: d1[d] + d2[d] for d in d1})


# -- exact linear programming core ------------------------------------------
#
# An inequality is (coeffs, rhs) meaning coeffs . a <= rhs, with exact
# rational entries.  Systems are kept canonical: integer coefficient
# vectors with content 1, one row per direction keeping the tightest rhs.


def _canonical(ineqs: Iterable[tuple]) -> list[tuple] | None:
    """Deduplicate rows; None signals an infeasible constant row."""
    best: dict[tuple, Fraction] = {}
    for coeffs, rhs in ineqs:
        coeffs = tuple(Fraction(x) for x in coeffs)
        rhs = Fraction(rhs)
        if all(x == 0 for x in coeffs):
            if rhs < 0:
                return None
            continue
        scale = Fraction(1)
        denom = 1
        for x in coeffs:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        numer = 0
        for x in coeffs:
            numer = gcd(numer, abs(x.numerator * (denom // x.denominator)))
        scale = Fraction(denom, numer)
        key = tuple(x * scale for x in coeffs)
        val = rhs * scale
        if key not in best or val < best[key]:
            best[key] = val
    return [(k, v) for k, v in best.items()]


def eliminate_variable(ineqs: Sequence[tuple], k: int) -> list[tuple] | None:
    """Project the system onto the other coordinates; None if infeasible."""
    pos = [(c, r) for c, r in ineqs if c[k] > 0]
    neg = [(c, r) for c, r in ineqs if c[k] < 0]
    out = [(c, r) for c, r in ineqs if c[k] == 0]
    for cp, rp in pos:
        for cn, rn in neg:
            mp, mn = -cn[k], cp[k]
            coeffs = tuple(mp * a + mn * b for a, b in zip(cp, cn))
            out.append((coeffs, mp * rp + mn * rn))
    return _canonical(out)


def feasible(ineqs: Sequence[tuple], nvars: int) -> bool:
    """Exact satisfiability of a rational inequality system."""
    system = _canonical(ineqs)
    for k in range(nvars):
        if system is None:
            return False
        system = eliminate_variable(system, k)
    return system is not None


def coordinate_bounds(ineqs: Sequence[tuple], nvars: int):
    """Per-coordinate rational bounds [lo, hi] of the feasible region.

    Returns None when the region is empty; raises Unbounded when some
    coordinate has no finite bound on one side.
    """
    system = _canonical(ineqs)
    if system is None:
        return None
    bounds = []
    for k in range(nvars):
        reduced = system
        for j in range(nvars):
            if j != k:
                reduced = eliminate_variable(reduced, j)
                if reduced is None:
                    return None
        lo = hi = None
        for coeffs, rhs in reduced:
            a = coeffs[k]
            if a > 0:
                cand = rhs / a
                hi = cand if hi is None or cand < hi else hi
            elif a < 0:
                cand = rhs / a
                lo = cand if lo is None or cand > lo else lo
        if lo is None or hi is None:
            raise Unbounded(f"coordinate {k} has no finite bound")
        if lo > hi:
            return None
        bounds.append((lo, hi))
    return bounds


def chart_inequalities(spec: StasheffSpec, chart: Triangulation) -> list[tuple]:
    """The polytope as plain half-spaces in one chart's coordinates.

    Each diagonal's tropical coordinate is a max of linear forms in the
    chart values; bounding a max bounds every form.
    """
    if spec.n_gon != chart.n_gon:
        raise SizeMismatch("spec and chart live on different polygons")
    chart.require_complete()
    c = spec.as_dict()
    ineqs = []
    for d in polygon_diagonals(spec.n_gon):
        trop = expand_cluster_variable(d, chart, "reduced").tropicalize()
        for form in trop.sorted_forms():
            ineqs.append((form, Fraction(c[d])))
    return ineqs


def lattice_points(
    spec: StasheffSpec, chart: Triangulation | None = None
) -> list[Lamination]:
    """All integral points of the polytope, enumerated in one chart.

    The result does not depend on the chart.  Sorted by chart coordinates.
    Raises Unbounded when the polytope is not bounded; an empty list is a
    legitimate answer for infeasible bounds.
    """
    if chart is None:
        chart = fan_triangulation(spec.n_gon)
    ineqs = chart_inequalities(spec, chart)
    bounds = coordinate_bounds(ineqs, spec.n_gon - 3)
    if bounds is None:
        return []
    system = _canonical(ineqs)
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in bounds]
    diags = chart.sorted_diagonals()
    out = []
    for point in itertools.product(*ranges):
        if all(
            sum(a * x for a, x in zip(coeffs, point)) <= rhs
            for coeffs, rhs in system
        ):
            coords = TropicalCoords(chart, tuple(zip(diags, point)))
            out.append((point, lamination_from_coords(coords)))
    out.sort(key=lambda pair: pair[0])
    return [lam for _, lam in out]


def hull_membership(lam: Lamination, generators: Sequence[Lamination]) -> bool:
    """Whether a point lies under a convex combination of the generators
    in every chart simultaneously.

    In each chart this is an exact feasibility problem over the combination
    weights; one failing chart refutes membership.
    """
    generators = list(generators)
    if not generators:
        raise EmptyInput("need at least one generator")
    n = lam.n_gon
    for g in generators:
        if g.n_gon != n:
            raise SizeMismatch("points live on different polygons")
    m = len(generators)
    for chart in triangulations(n):
        target = chart_coords(lam, chart).vector()
        vectors = [chart_coords(g, chart).vector() for g in generators]
        ineqs = []
        for s in range(m):
            row = tuple(-1 if t == s else 0 for t in range(m))
            ineqs.append((row, Fraction(0)))
        ones = tuple(1 for _ in range(m))
        ineqs.append((ones, Fraction(1)))
        ineqs.append((tuple(-1 for _ in range(m)), Fraction(-1)))
        for k in range(len(target)):
            row = tuple(-Fraction(vectors[s][k]) for s in range(m))
            ineqs.append((row, -Fraction(target[k])))
        if not feasible(ineqs, m):
            return False
    return True


def shift_to_negative_part(spec: StasheffSpec) -> tuple[Lamination, StasheffSpec]:
    """Translate the polytope into the region of nonpositive fan coordinates.

    Returns the translating point and the translated spec: each bound grows
    by the point's coordinate at its diagonal.  The translated spec keeps
    the quadruple criterion because point coordinates satisfy the exchange
    relation with equality.
    """
    fan = fan_triangulation(spec.n_gon)
    c = spec.as_dict()
    m = max([0] + [c[d] for d in fan.sorted_diagonals()])
    shift = lamination_from_coords(
        TropicalCoords(fan, tuple((d, -m) for d in fan.sorted_diagonals()))
    )
    shifted = {
        d: c[d] + tropical_coordinate(shift, d) for d in polygon_diagonals(spec.n_gon)
    }
    return shift, StasheffSpec.of(spec.n_gon, shifted)
