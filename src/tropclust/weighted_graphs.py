"""Weighted graphs on polygon segments and their masses.

A weighted graph assigns a weight to every segment of an N-gon: any exact
number on boundary edges, nonnegative on diagonals.  Entries may be ints or
Fractions; the masses below are linear so both domains work unchanged.

A graph is one flat tuple holding a weight per vertex pair i < j, in the
row-major order of ``pairs(N)``.  Modules that address weights by index
(product expansion, reconstruction from coordinates) take that order from
``pairs`` too.  Two masses are read straight off the tuple:

* vertex mass: the sum of weights incident to one vertex;
* cut mass: for a diagonal {k, l}, the total weight of segments separating
  the cyclic interval [k+1, l] from its complement.

Every table that depends on N alone lives in one record built once per N
(``_tables``): the pairs and their index, the diagonal indices and slots,
a getter per vertex and per diagonal's cut, the inclusion-exclusion
columns that turn diagonal values back into weights, and the rotation of
the polygon by one vertex, as a slot permutation.
Validation, the masses, the split tree and the positivity check's orbit
keys (``basis``), chart reconstruction (``laminations``), the quadruple
criterion (``polytopes``) and the JSON reader (``jsonio``) read it, so a
graph is read, checked and measured with index lookups, without building
a ``Segment`` per entry.

Every per-diagonal quantity is read in slot order.  Half a diagonal's cut
mass (``_half_cuts``) is a lamination's tropical coordinate there, and the
bound a product's Minkowski spec puts on it; over any zero-mass graph it
is the spec of the graph, the inverse of ``polytopes._spec_weights``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter
from typing import NamedTuple

from .errors import InvariantViolation, SizeMismatch
from .polygon import Segment, check_polygon
from .values import Number, Value, _is_number, _items


def wrap_vertex(v: int, n_gon: int) -> int:
    """Map an arbitrary integer onto the vertex labels 1..N."""
    return (v - 1) % n_gon + 1


def pairs(n_gon: int) -> list[tuple[int, int]]:
    """The vertex pairs i < j of an N-gon in row-major order: the layout of
    ``WeightedGraph.w``."""
    return list(itertools.combinations(range(1, n_gon + 1), 2))


class _Tables(NamedTuple):
    """The per-N tables of the flat weight layout of one N-gon.

    * ``pairs`` is ``pairs(N)``; ``diagonals`` lists the indices of its
      diagonals in order.  ``index`` maps each pair, read either way
      round, to its position in ``pairs``.
    * ``slot`` maps each diagonal, a ``Segment``, to its position among the
      diagonals; its keys in order are ``polygon.diagonals(N)``.
    * ``at_vertex[p - 1]`` reads the weights of the N - 1 pairs at vertex p
      off a weight tuple; ``cuts[x]`` reads those of the pairs crossing the
      cut across the diagonal of slot x, (k, l), with one end in [k+1, l].
      Each reads at least two weights, so each returns a tuple.  The fan
      diagonals {1, k}, k = 3..N-1, come first: ``cuts[:N - 3]`` are theirs.
    * ``weights`` holds one slot quadruple (p, q, r, t) per pair, slots
      into the diagonal values in slot order with one extra 0 past them:
      weight k is v[p] + v[q] - v[r] - v[t] at quadruple k, for chart
      reconstruction (``laminations``) and the quadruple criterion.
    * ``rotation`` rotates a weight tuple by one step, vertex p to p + 1
      (N to 1): slot {i, j} of its image reads the weight of
      {i - 1, j - 1}.  Rotation by r is its r-th power (``_rotations``).
      It is the one permutation the cyclic group needs, so a cold record
      pays N(N - 1)/2 lookups for it, not N times that.
    """

    pairs: tuple
    index: dict
    diagonals: tuple
    slot: dict
    at_vertex: tuple
    cuts: tuple
    weights: tuple
    rotation: itemgetter


@lru_cache(maxsize=32)
def _tables(n_gon: int) -> _Tables:
    layout = tuple(pairs(n_gon))
    index = {pair: k for k, pair in enumerate(layout)}
    index.update({(j, i): k for (i, j), k in index.items()})
    diags = tuple(k for k, (i, j) in enumerate(layout) if 1 < j - i < n_gon - 1)
    slot = {Segment(*layout[k]): x for x, k in enumerate(diags)}
    at_vertex = tuple(
        itemgetter(*(x for x, pair in enumerate(layout) if p in pair))
        for p in range(1, n_gon + 1)
    )
    cuts = tuple(
        itemgetter(*(x for x, (i, j) in enumerate(layout) if (k < i <= l) != (k < j <= l)))
        for k, l in slot
    )

    # w(p, q) = v(p, q) + v(p-1, q-1) - v(p, q-1) - v(p-1, q), labels
    # wrapped, with edges and coinciding vertices at the slot past the end
    def at(a, b):
        a, b = sorted((wrap_vertex(a, n_gon), wrap_vertex(b, n_gon)))
        return slot.get((a, b), len(slot))

    weights = tuple((at(p, q), at(p - 1, q - 1), at(p, q - 1), at(p - 1, q)) for p, q in layout)
    # vertex 1 - 1 wraps to N; the index reads a pair either way round
    rotation = itemgetter(*(index[i - 1 or n_gon, j - 1] for i, j in layout))
    return _Tables(layout, index, diags, slot, at_vertex, cuts, weights, rotation)


def _rotations(n_gon: int, w: tuple):
    """Yield the N rotations of the weight tuple ``w``, by r = 0, 1, ...,
    N - 1 in turn: the r-th image carries w's weight on {p, q} on
    {p + r, q + r}, labels wrapped.  Rotations permute the vertex masses
    and keep every crossing, so they map graphs, laminations and products
    to their own kind."""
    rotate = _tables(n_gon).rotation
    for _ in range(n_gon):
        yield w
        w = rotate(w)


def _half_cuts(n_gon: int, w) -> list:
    """Half the cut mass of the weights ``w`` across each diagonal, in slot
    order: an int where the mass is even, else a Fraction."""
    masses = [sum(cut(w)) for cut in _tables(n_gon).cuts]
    return [m // 2 if m % 2 == 0 else Fraction(m, 2) for m in masses]


def _check_diagonals(n_gon: int, w: tuple) -> tuple:
    """Return ``w`` unless a diagonal weight is negative: the last check of
    a graph, once its polygon, length and entries are known to be valid."""
    tables = _tables(n_gon)
    for k in tables.diagonals:
        if w[k] < 0:
            i, j = tables.pairs[k]
            raise InvariantViolation(f"negative weight on diagonal ({i},{j})")
    return w


class WeightedGraph(Value):
    """Weights over the segments of an N-gon, one int or Fraction per pair
    of ``pairs(N)``, as the tuple ``w``."""

    __slots__ = ("n_gon", "w")

    def __post_init__(self):
        check_polygon(self.n_gon)
        tables = _tables(self.n_gon)
        w = tuple(_items(self.w, "weights"))
        if len(w) != len(tables.pairs):
            raise InvariantViolation(f"need {len(tables.pairs)} weights, one per vertex pair")
        if not all(map(_is_number, w)):
            raise InvariantViolation("weights must be ints or Fractions")
        _check_diagonals(self.n_gon, w)
        object.__setattr__(self, "w", w)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n_gon: int) -> "WeightedGraph":
        return cls(n_gon, (0,) * len(pairs(n_gon)))

    # -- access ------------------------------------------------------------

    def sparse_items(self) -> tuple[tuple[int, int, Number], ...]:
        return tuple((i, j, x) for (i, j), x in zip(_tables(self.n_gon).pairs, self.w) if x != 0)

    def is_integral(self) -> bool:
        return set(map(type, self.w)) == {int} or all(
            type(x) is int or x.denominator == 1 for x in self.w
        )

    # -- masses ------------------------------------------------------------

    def vertex_masses(self) -> tuple[Number, ...]:
        """The total weight incident to each vertex 1..N."""
        w = self.w
        return tuple(sum(at(w)) for at in _tables(self.n_gon).at_vertex)

    # -- algebra -----------------------------------------------------------

    def _check_size(self, other: "WeightedGraph") -> None:
        if self.n_gon != other.n_gon:
            raise SizeMismatch(f"polygon sizes differ: {self.n_gon} vs {other.n_gon}")

    def __add__(self, other: "WeightedGraph") -> "WeightedGraph":
        self._check_size(other)
        # a sum of valid graphs keeps its diagonals nonnegative and its entries exact
        return WeightedGraph._trusted(self.n_gon, tuple(map(add, self.w, other.w)))


def dominates(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """Whether g1 <= g2 in the cut-mass partial order.

    Requires equal vertex masses everywhere and cut masses of g1 bounded by
    those of g2 on every diagonal, each read vertex by vertex and diagonal
    by diagonal up to the first that fails.
    """
    g1._check_size(g2)
    w1, w2 = g1.w, g2.w
    tables = _tables(g1.n_gon)
    return all(sum(at(w1)) == sum(at(w2)) for at in tables.at_vertex) and all(
        sum(cut(w1)) <= sum(cut(w2)) for cut in tables.cuts
    )
