"""Basis functions labeled by laminations, their products and supports.

Every integral lamination names one global Laurent function.  In the fan
chart it has a closed form: a monomial read off the weights times the chain
sums of the diagonals off the fan, each to its weight.  Products of
basis functions expand back into the basis with nonnegative integer
coefficients; combinatorially the expansion repeatedly splits one crossing
of the summed weighted graph into the two ways of rerouting it, until only
laminations remain.  Which crossing is split does not change the result,
so the split always takes the lexicographically smallest crossing
quadruple.  The split tree runs on the graphs' own flat weight tuples (the
``weighted_graphs.pairs`` layout), with the crossing rows of one per-N
record (``_split_table``), so a split is four index bumps.  The splits are
taken in order of a fixed linear potential, each chord's weight times the
number of rows through it: every split lowers it by a constant of its row
and side, worked out with the rows, so a child's key is its parent's minus
that constant.  Each pending vector carries two row bitmasks, the
rows whose first chord and the rows whose second chord carry weight; their
AND holds its crossing rows, and a split updates both in a few bit
operations where a weight falls to or rises from zero.

A split step resolves m units of one crossing row at once, as one
binomial (1 + u)^m: the graph with j units rerouted one way and m - j the
other gets C(m, j) times the parent's count (the skein relation as a
positive resolution of a crossing: Musiker-Williams).  A single split is
the run of one unit, m = 1; where every graph on the way splits at the
same row, a run takes m = min(w_a, w_b).  The budget still counts the
distinct graphs the one-unit-at-a-time tree splits: runs count an upper
bound on it, and once that passes the budget the call starts again with
every run one unit long, which reaches the same verdict as without runs.

The leaves are wrapped as ``WeightedGraph``s and ``Lamination``s, and the
result as an ``Expansion``, through ``Value._trusted``, with no check: the
factors are checked integral laminations, each split moves one unit from
{p, r} and {q, s} to {p, s} and {q, r} or to {p, q} and {r, s}, which
keeps every vertex mass (zero), every weight an integer and every diagonal
weight nonnegative, and a leaf has no crossing row.  The tests check the
leaves against the validating constructors.

``Expansion.support`` lists the laminations that appear; ``a2_coefficient``
is the closed binomial formula for the rank-two case, used as an
independent check of the splitting process.

``verify_positive_basis`` checks a basis function through the pieces of
its lamination (``laminations._piece_chords``): the function of a sum
of integral laminations is the product of theirs, and each mutation is a
ring homomorphism, so the function is positive in every chart when each
piece's is.  Rotating the polygon is a cluster automorphism, so a piece
and its rotated images have one verdict: only the least image of each
rotation orbit (``weighted_graphs._rotations``) is walked through every
chart, once per process.  The verdicts are kept in one bounded cache
(``_positive_piece``, at most 1024 pieces) keyed by the piece's polygon,
chords and start, so a warm check builds no piece ``Lamination`` or
``WeightedGraph``.  The N-gon's pieces fall into few orbits: 67 pieces in
20 orbits at N = 10, 44 in 4 at N = 11, 146 in 35 at N = 12 and 65 in 5
at N = 13.  Only when a piece is not positive, or its walk raises, is the
whole function walked (``x_chart_walk``), so a False answer is always the
full walk's.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import add, itemgetter
from typing import Sequence

from .atlas import x_chart_walk, x_variable_name
from .errors import (
    BudgetExceeded,
    EmptyInput,
    InvariantViolation,
    NonIntegral,
    SizeMismatch,
    TropclustError,
)
from .laminations import Lamination, _edge_cycle, _piece_chords
from .laurent import LaurentPolynomial
from .values import Value, _is_int, _items, _pair
from .weighted_graphs import WeightedGraph, _rotations, _tables

DEFAULT_BUDGET = 1_000_000


def _check_basis_input(lam: Lamination) -> None:
    """The two checks every basis function passes: the lamination is
    integral and its polygon has a chart variable."""
    if lam.domain != "int":
        raise NonIntegral("basis functions are indexed by integral laminations")
    if lam.n_gon < 4:
        raise InvariantViolation(f"rank must be a positive integer, got {lam.n_gon - 3!r}")


def basis_laurent(lam: Lamination) -> LaurentPolynomial:
    """The basis function of an integral lamination, in fan chart coordinates.

    X_m is the coordinate of the fan diagonal {1, m + 2}.  In the fan chart
    the F-polynomial of a diagonal {i, j} with i >= 2 is its chain sum
    1 + X_(i-1) + X_(i-1) X_i + ... + X_(i-1) ... X_(j-3) (Fomin-Zelevinsky,
    Cluster algebras IV; Musiker-Schiffler-Williams), so the basis function
    is X^b times the product of the chains to the weights of those
    diagonals, where b_k sums the weights of all pairs of vertices in
    1..k+1.  Each chain is built where it is multiplied in, longest term
    first, as the exchange relation on the fan's quadrilaterals lists it.
    A 3-gon has no chart variables and raises InvariantViolation, as
    ``type_a_seed(0)`` does.
    """
    _check_basis_input(lam)
    rank = lam.n_gon - 3
    names = tuple(map(x_variable_name, range(1, rank + 1)))
    b = [0] * rank
    product = None
    for i, j, w in lam.graph.sparse_items():
        # the pair {i, j} lies in 1..k+1 for every k >= j - 1
        for k in range(j - 2, rank):
            b[k] += w
        if i >= 2 and j - i >= 2:
            factor = LaurentPolynomial._trusted(names, {
                (0,) * (i - 2) + (1,) * t + (0,) * (rank + 2 - i - t): 1
                for t in reversed(range(j - i))
            }) ** w
            product = factor if product is None else product * factor
    terms = {(0,) * rank: 1} if product is None else product.terms
    # a shift keeps the exponent tuples distinct and the coefficients positive
    return LaurentPolynomial._trusted(
        names, {tuple(map(add, exps, b)): c for exps, c in terms.items()}
    )


class Expansion(Value):
    """A finite nonnegative integer combination of laminations.

    The constructor checks every term.  ``product_expand`` builds its
    result through ``_trusted`` instead: its terms are distinct leaves of
    its own split tree with positive counts, so nothing is checked again,
    and the coefficient table is built on the first ``coefficient`` call.
    """

    __slots__ = ("terms", "__dict__")

    def __post_init__(self):
        terms = tuple(_items(self.terms, "expansion terms"))
        for term in terms:
            lam, coeff = _pair(term, "an expansion term")
            if not isinstance(lam, Lamination):
                raise InvariantViolation("expansion terms must be laminations")
            if not _is_int(coeff) or coeff <= 0:
                raise InvariantViolation("expansion coefficients must be positive integers")
        object.__setattr__(self, "terms", terms)
        if len(self._coeffs) != len(terms):
            raise InvariantViolation("expansion terms must be distinct laminations")

    @cached_property
    def _coeffs(self) -> dict:
        return {lam.graph: coeff for lam, coeff in self.terms}

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, lam: Lamination) -> int:
        return self._coeffs.get(lam.graph, 0)

    def support(self) -> list[Lamination]:
        return [l for l, _ in self.terms]


def crossing_measure(graph: WeightedGraph) -> int:
    """Sum of weight products over crossing diagonal pairs; zero exactly
    when the graph has noncrossing support."""
    w = graph.w
    return sum(w[a] * w[b] for a, b, _ in _split_table(graph.n_gon)[0])


@lru_cache(maxsize=32)
def _split_table(n_gon: int) -> tuple:
    """The N-gon's crossing rows, O(N^4) of them, and their ``_split_steps``:
    per quad p < q < r < s, in lexicographic order, the indices of {p, r}
    and {q, s} and the index pairs of the two ways of rerouting them,
    ({p, s}, {q, r}) and ({p, q}, {r, s})."""
    index = _tables(n_gon).index
    rows = tuple(
        (index[p, r], index[q, s], ((index[p, s], index[q, r]), (index[p, q], index[r, s])))
        for p, q, r, s in combinations(range(1, n_gon + 1), 4)
    )
    return rows, _split_steps(rows)


def _split_steps(rows: tuple) -> tuple:
    """What ``_split_leaves`` reads, for one row order: per chord x through
    a row, (x, cr(x), first mask, second mask), where cr(x) counts the rows
    through x and the masks have bit r set where x is row r's first, resp.
    second, chord; and per row its split step, the two chords a and b, the
    complements of their masks (first of a, second of a, first of b, second
    of b) and per side the chords c and d, their masks (first of c, second
    of c, first of d, second of d) and the drop cr(a) + cr(b) - cr(c) -
    cr(d) of the potential.  Each mask and complement is built once per
    chord and shared by every row through it, so the O(N^4) steps point at
    O(N^2) ints.

    For the row of a quad p < q < r < s of an N-gon the drops are
    2 (q - p)(s - r) and 2 (r - q)(N - s + p), so every drop is at least 2;
    a table where one is not raises InvariantViolation."""
    cr: dict[int, int] = {}
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for pos, (a, b, _) in enumerate(rows):
        cr[a] = cr.get(a, 0) + 1
        cr[b] = cr.get(b, 0) + 1
        first[a] = first.get(a, 0) | 1 << pos
        second[b] = second.get(b, 0) | 1 << pos
    cleared = {x: (~first.get(x, 0), ~second.get(x, 0)) for x in cr}
    steps = []
    for a, b, sides in rows:
        step = []
        for c, d in sides:
            drop = cr[a] + cr[b] - cr.get(c, 0) - cr.get(d, 0)
            if drop <= 0:
                raise InvariantViolation("a split must lower the potential")
            step.append((c, d, first.get(c, 0), second.get(c, 0),
                         first.get(d, 0), second.get(d, 0), drop))
        steps.append((a, b, *cleared[a], *cleared[b], tuple(step)))
    chords = tuple((x, n, first.get(x, 0), second.get(x, 0)) for x, n in cr.items())
    return chords, tuple(steps)


def _split_leaves(v: tuple, table: tuple, budget: int) -> dict:
    """Leaf counts of the split tree below the flat weight vector ``v``,
    expanding each distinct vector once, along the (chords, steps) pair
    ``table`` that ``_split_steps`` builds.

    Each vector splits at the first row whose two chords a and b both carry
    weight, in one step that resolves m units of it: the child with j units
    moved to the first side (c, d) and m - j to the second (e, g) gets
    count * C(m, j), for j = 0..m.  A single split is the run of one unit,
    m = 1, with one child per side.  A run takes m = min(v_a, v_b) when
    both weights are at least 2 and no row below it is loaded in
    (F | masks of c, d, e, g) & (S | theirs): then every vector the
    one-unit tree reaches from this one in fewer than m splits splits at
    the same row, so these are that tree's own splits of the row, C(m, j)
    its paths to each child, and runs change no leaf and no count.

    The children wait in buckets keyed by the potential
    Phi(v) = sum of v_x cr(x) over the chords x, where cr(x) counts the rows
    through x.  A unit moved to a side lowers Phi by the fixed drop
    cr(a) + cr(b) - cr(c) - cr(d) of its row and side, which is positive
    (``_split_steps``): a child's key is its parent's minus j drops of the
    first side and m - j of the second.  Taking the largest key first means
    every parent of a vector is expanded before it, so its multiplicity is
    complete when its own turn comes.  A child with no crossing row is a
    leaf and goes straight into the leaf counts, never into a bucket.
    Which vectors are split, and so the leaves, their counts and the budget
    count, depend on the first-row rule alone, not on the order in which
    they are taken.

    The first row is read off two row bitmasks kept with each pending
    vector, in a cell [count, F, S] under its weight tuple: F ORs the first
    masks of the chords that carry weight and S their second masks, so
    F & S has a bit for each row with both chords loaded, and its lowest
    bit is the row to split.  A step changes the masks only where a weight
    falls to 0 (a or b, when it equals m: its bits are cleared) or rises
    from 0 (c and d when j > 0, e and g when j < m: their masks are ORed
    in).  The masks are functions of the weights, so equal vectors meet in
    one cell, and each vector in one bucket.

    The budget counts the graphs the one-unit tree splits, exactly.  A
    first pass with runs counts 1 per vector split and m (m + 1) / 2 per
    run, the vectors of the run's triangle: every graph the one-unit tree
    splits lies in some run's triangle or is split singly, so this is an
    upper bound, checked before a run's children are built.  When it passes
    the budget, the same loop starts again with every m held at 1 and
    counts each popped bucket's vectors at once: once the count passes the
    budget, the vector numbered budget + 1 was due to be split.
    """
    chords, steps = table
    f0 = s0 = 0
    for x, _, first, second in chords:
        if v[x]:
            f0 |= first
            s0 |= second
    if not f0 & s0:
        return {v: 1}
    top = sum(v[x] * cr for x, cr, _, _ in chords)
    buckets = {top: {v: [1, f0, s0]}}
    leaves: dict[tuple, int] = {}
    expanded = 0
    runs = True
    while buckets:
        key = max(buckets)
        pending = buckets.pop(key)
        expanded += len(pending)
        for node, (count, f, s) in pending.items():
            if expanded > budget:
                break
            loaded = f & s
            low = loaded & -loaded
            a, b, not_fa, not_sa, not_fb, not_sb, sides = steps[low.bit_length() - 1]
            (c, d, fc, sc, fd, sd, drop_cd), (e, g, fe, se, fg, sg, drop_eg) = sides
            wa = node[a]
            wb = node[b]
            m = 1
            # a run: no row below this one loads on the way, so it stays on it
            if runs and wa > 1 < wb and not (
                (f | fc | fd | fe | fg) & (s | sc | sd | se | sg) & (low - 1)
            ):
                m = min(wa, wb)
                expanded += m * (m + 1) // 2 - 1
                if expanded > budget:
                    break
            if wa == m:
                f &= not_fa
                s &= not_sa
            if wb == m:
                f &= not_fb
                s &= not_sb
            child = list(node)
            child[a] -= m
            child[b] -= m
            child[e] += m
            child[g] += m
            child_key = key - m * drop_eg
            # c, d, e and g are not a or b: a loaded one's masks are in f and s
            child_f = f | fe | fg
            child_s = s | se | sg
            weight = count
            j = 0
            while True:
                # j units moved to (c, d) and m - j to (e, g), C(m, j) ways
                grown = tuple(child)
                if not child_f & child_s:
                    leaves[grown] = leaves.get(grown, 0) + weight
                else:
                    bucket = buckets.get(child_key)
                    if bucket is None:
                        buckets[child_key] = {grown: [weight, child_f, child_s]}
                    else:
                        bucket.setdefault(grown, [0, child_f, child_s])[0] += weight
                if j == m:
                    break
                j += 1
                child[c] += 1
                child[d] += 1
                child[e] -= 1
                child[g] -= 1
                child_key += drop_eg - drop_cd
                if j < m:
                    weight = weight * (m - j + 1) // j
                else:
                    # C(m, m) = 1, and e and g are back to the node's weights
                    weight, child_f, child_s = count, f, s
                child_f |= fc | fd
                child_s |= sc | sd
        if expanded > budget:
            if not runs:
                raise BudgetExceeded(budget, budget + 1)
            # the runs' bound passed the budget: start again with every m at 1
            buckets = {top: {v: [1, f0, s0]}}
            leaves = {}
            expanded = 0
            runs = False
    return leaves


def product_graph(points: Sequence[Lamination]) -> WeightedGraph:
    """The summed weighted graph of a multiset of laminations."""
    points = list(points)
    if not points:
        raise EmptyInput("need at least one lamination")
    n = points[0].n_gon
    if any(p.n_gon != n for p in points):
        raise SizeMismatch("laminations live on different polygons")
    # a sum of valid graphs is one, as in ``WeightedGraph.__add__``
    return WeightedGraph._trusted(n, tuple(map(sum, zip(*(p.graph.w for p in points)))))


def _sorted_leaves(points: Sequence[Lamination], budget: int) -> list:
    """The split tree's leaves of a product, as (key, weights, count)
    triples sorted by key: the cut masses across the fan diagonals {1, k},
    which are twice the leaf's fan coordinates."""
    total = product_graph(points)
    # the factors decide: a sum of integral graphs is integral
    for p in points:
        if p.domain != "int":
            raise NonIntegral("product expansion needs integral laminations")
    leaves = _split_leaves(total.w, _split_table(total.n_gon)[1], budget)
    # the fan diagonals hold the first N - 3 slots; the keys column by
    # column, and a triangle has no fan diagonal
    cuts = _tables(total.n_gon).cuts[:total.n_gon - 3]
    keys = zip(*[map(sum, map(cut, leaves)) for cut in cuts]) if cuts else repeat(())
    return sorted(zip(keys, leaves, leaves.values()), key=itemgetter(0))


def product_expand(
    points: Sequence[Lamination],
    budget: int = DEFAULT_BUDGET,
) -> Expansion:
    """Expand a product of basis functions back into the basis.

    Splits one crossing at a time, each split replacing the two crossing
    chords by a pair of opposite sides of their quadrilateral, in both ways;
    the leaves of this splitting are laminations counted with multiplicity,
    listed by fan coordinates.  The result does not depend on which
    crossing is chosen; this one splits the lexicographically smallest
    crossing quadruple.  ``budget``, a nonnegative int, caps the number of
    distinct graphs split in this call, one crossing unit at a time; the
    count does not depend on earlier calls.  Runs of one crossing split
    many units at once (``_split_leaves``) but do not change the count: a
    product whose runs' bound passes the budget is split again one unit at
    a time, and raises at graph budget + 1 exactly when that tree has more
    than ``budget`` graphs.
    """
    if not _is_int(budget) or budget < 0:
        raise InvariantViolation(f"budget must be a nonnegative int, got {budget!r}")
    leaves = _sorted_leaves(points, budget)
    n = points[0].n_gon
    # Each split keeps every vertex mass and a leaf has no crossing row,
    # so every leaf is an integral lamination: no leaf is checked again.
    return Expansion._trusted(tuple(
        (Lamination._trusted(WeightedGraph._trusted(n, v), "int"), count)
        for _, v, count in leaves
    ))


def a2_coefficient(d: Sequence[int], i: int, b: int, c: int) -> int:
    """Closed form for pentagon product coefficients.

    ``d`` lists how often each of the five unit laminations occurs in the
    product (indexed 1..5 cyclically); the returned value is the
    multiplicity of the lamination b*(unit i) + c*(unit i+1) in its
    expansion.  Binomials with arguments out of range contribute zero.
    """
    d = tuple(d)
    if len(d) != 5:
        raise SizeMismatch("need exactly five multiplicities")
    if any(not _is_int(x) or x < 0 for x in d):
        raise InvariantViolation("multiplicities must be nonnegative integers")
    if not _is_int(i) or not 1 <= i <= 5:
        raise InvariantViolation("sector index must be in 1..5")
    if not _is_int(b) or not _is_int(c) or b < 0 or c < 0:
        raise InvariantViolation("sector coordinates must be nonnegative integers")

    def at(j: int) -> int:
        return d[(j - 1) % 5]

    def binom(n: int, k: int) -> int:
        if n < 0 or k < 0 or k > n:
            return 0
        return math.comb(n, k)

    total = 0
    for k in range(at(i + 3) + 1):
        total += (
            binom(at(i + 3), k)
            * binom(at(i + 4) + k, at(i + 2) + at(i + 3) - at(i) + b)
            * binom(at(i + 2), at(i + 4) - at(i + 1) + c + k)
        )
    return total


def _positive_in_every_chart(f: LaurentPolynomial) -> bool:
    """Whether every chart of ``x_chart_walk(f)`` has only positive
    coefficients, read off each chart's bare term dict."""
    return all(min(terms.values()) > 0 for _, terms in x_chart_walk(f) if terms)


@lru_cache(maxsize=1024)
def _positive_piece(n_gon: int, chords: tuple, start: int) -> bool:
    """The walk's verdict on the basis function of one piece, given by its
    polygon, chords and start (``laminations._piece_chords``); a walk that
    raises counts as not positive.

    The verdict is its rotation orbit's.  Rotating the polygon is a
    cluster automorphism: it maps the basis function of a lamination to
    that of the rotated one and each chart to the rotated chart, with the
    same terms up to renaming the variables, so every piece of an orbit
    has the same verdict.  The orbit's representative is its
    lexicographically least weight tuple (``weighted_graphs._rotations``),
    keyed by its loaded diagonals, in pair order, and its start: the weight
    of edge {1, N} at even N, 0 at odd N.  Any other key returns the
    representative's cached verdict, so a cold cache walks one function
    per orbit.
    """
    w = _edge_cycle(n_gon, chords, start)
    least = min(_rotations(n_gon, w))
    tables = _tables(n_gon)
    key = (
        tuple(tables.pairs[k] for k in tables.diagonals if least[k]),
        0 if n_gon % 2 else least[tables.index[1, n_gon]],
    )
    if key != (chords, start):
        return _positive_piece(n_gon, *key)
    piece = Lamination._trusted(WeightedGraph._trusted(n_gon, least), "int")
    try:
        return _positive_in_every_chart(basis_laurent(piece))
    except TropclustError:
        return False


def verify_positive_basis(lam: Lamination) -> bool:
    """Check that a basis function stays a Laurent polynomial with positive
    coefficients in every chart of the atlas.

    The function of a sum of integral laminations is the product of theirs,
    and each mutation is a ring homomorphism, so it is positive in every
    chart when each of its pieces (``_piece_chords``) is.  Each piece's
    verdict is kept in a bounded cache (``_positive_piece``, 1024 pieces),
    keyed by its chords, so a warm check is a handful of lookups.  A
    rotation of the polygon maps each piece's function, chart for chart,
    to that of the rotated piece, so only one piece per rotation orbit is
    walked, its least image, and the orbit shares its verdict.  When some
    piece is not positive, or its walk raises, the
    whole function is walked chart by chart through ``x_chart_walk`` and
    its answer returned: a False answer, or an error, is always the full
    walk's.  Raises
    NonIntegral for a rational lamination and InvariantViolation for a
    3-gon, as ``basis_laurent`` does, from the same check: a warm check
    builds no polynomial.
    """
    _check_basis_input(lam)
    n = lam.n_gon
    if all(_positive_piece(n, chords, start) for chords, start, _ in _piece_chords(lam)):
        return True
    return _positive_in_every_chart(basis_laurent(lam))
