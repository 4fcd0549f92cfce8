"""Seeds, mutations, and the charts of the type A atlas.

A seed is an index set of int or ``Segment`` labels with a frozen subset,
a skew-symmetrizable integer exchange matrix, and positive
skew-symmetrizers.  Mutation rewrites the matrix in one unfrozen direction
and is involutive.  ``type_a_seed(n)`` is
the chain seed of the fan chart of the (n+3)-gon without its boundary
directions.

The x-chart machinery lives here too:

* ``expand_in_x_chart`` pushes a Laurent polynomial through a word of
  mutations.  A mutation at k turns each term into a new monomial times a
  power of (1 + X_k), and both the power and the new X_k exponent are
  dot products of the exponents with the sparse k-th exchange column.  So
  the push kernel, ``_push``, takes the terms one at a time: a term with
  power 0 moves, one with a positive power is multiplied out by a row of
  binomials, and only the terms with a negative power are grouped into
  fibers, the terms that agree off k, each divided by its power of
  (1 + X_k).  That division fails exactly when the result is not Laurent;
* ``mutation_words`` gives one mutation word per complete triangulation,
  so every chart can be reached deterministically: the words of the
  breadth-first flip walk from the fan, ``polygon._flip_walk``, which also
  lists ``polygon.triangulations``;
* ``x_chart_walk`` expands one polynomial in every chart of that atlas.
  The words are closed under prefixes and each parent comes first, so the
  walk reaches every chart from its parent's chart by a single mutation
  instead of replaying the whole word; ``expand_in_x_chart`` is its
  per-word reference.  What a mutation step reads of the seed (the
  direction's position and the nonzero entries of its exchange column,
  split by sign, as ``_step`` gives them) depends on the rank alone, so
  ``_walk_plan`` works it out once per rank, with each word's parent slot.
  It builds no seed: each chart's exchange matrix is the signed adjacency
  of its triangles, so each column is read off the quadrilateral that the
  flip walk turns.  The walk then only runs ``_push`` on bare term dicts
  and yields each chart as its bare exponent -> coefficient dict, with no
  ``LaurentPolynomial`` around it.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    FrozenDirection,
    InvariantViolation,
    NotDivisible,
)
from .laurent import LaurentPolynomial
from .polygon import Segment, _flip_walk
from .values import Value, _is_int, _is_number, _normalize

def label_text(label) -> str:
    if isinstance(label, Segment):
        return f"{label.i}_{label.j}"
    return str(label)


def x_variable_name(label) -> str:
    return "X" + label_text(label)


class Seed(Value):
    """Exchange data: direction labels (ints or ``Segment``s), frozen
    subset, matrix, symmetrizers."""

    __slots__ = ("labels", "frozen", "eps", "d")

    def __post_init__(self):
        labels = tuple(self.labels)
        # the two label kinds ``jsonio.seed_to_json`` can write
        for label in labels:
            if not (_is_int(label) or isinstance(label, Segment)):
                raise InvariantViolation(f"direction label {label!r} is not an int or a Segment")
        if len(set(labels)) != len(labels):
            raise InvariantViolation("duplicate direction labels")
        frozen = frozenset(self.frozen)
        if not frozen <= set(labels):
            raise InvariantViolation("frozen directions must be a subset of labels")
        n = len(labels)
        eps = tuple(tuple(row) for row in self.eps)
        if len(eps) != n or any(len(row) != n for row in eps):
            raise InvariantViolation(f"exchange matrix must be {n}x{n}")
        if not all(_is_int(x) for row in eps for x in row):
            raise InvariantViolation("exchange matrix entries must be integers")
        d = tuple(self.d)
        if not all(map(_is_number, d)):
            raise InvariantViolation("symmetrizers must be ints or Fractions")
        if len(d) != n or not all(x > 0 for x in d):
            raise InvariantViolation("need one positive symmetrizer per direction")
        # integral symmetrizers are ints: int products are far cheaper
        d = tuple(map(_normalize, d))
        # eps[i][j] / d[j] == -eps[j][i] / d[i], cleared of the positive d's.
        # The condition is symmetric in (i, j), so the first failure in
        # row-major order always has i <= j.
        for i in range(n):
            for j in range(i, n):
                if eps[i][j] * d[i] != -eps[j][i] * d[j]:
                    raise InvariantViolation(
                        f"matrix not skew-symmetrizable at ({labels[i]},{labels[j]})"
                    )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "frozen", frozen)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "d", d)

    # -- access ------------------------------------------------------------

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvariantViolation(f"{label!r} is not a direction of this seed") from None

    def is_frozen(self, label) -> bool:
        return label in self.frozen

    def x_names(self) -> tuple[str, ...]:
        return tuple(x_variable_name(l) for l in self.labels)


def type_a_seed(n: int) -> Seed:
    """The rank-n chain seed: consecutive directions linked by a single arrow.

    Entry (i, i+1) is -1 and (i+1, i) is +1; this is the seed of the fan
    chart of the (n+3)-gon after dropping boundary directions.
    """
    if not _is_int(n) or n < 1:
        raise InvariantViolation(f"rank must be a positive integer, got {n!r}")
    eps = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        eps[i][i + 1] = -1
        eps[i + 1][i] = 1
    return Seed(tuple(range(1, n + 1)), frozenset(), tuple(map(tuple, eps)), (1,) * n)


def mutate_seed(seed: Seed, k) -> Seed:
    """Mutate the exchange matrix in direction k (three-case rule).

    Mutation keeps the symmetrizers valid, so the result is not checked again.
    """
    ki = seed.index(k)
    if seed.is_frozen(k):
        raise FrozenDirection(f"cannot mutate frozen direction {k!r}")
    row_k = seed.eps[ki]
    eps = tuple(
        tuple(
            -x if i == ki or j == ki
            else x + abs(row[ki]) * row_k[j] if row[ki] * row_k[j] > 0
            else x
            for j, x in enumerate(row)
        )
        for i, row in enumerate(seed.eps)
    )
    return Seed._trusted(seed.labels, seed.frozen, eps, seed.d)


# -- pushing x-chart functions through mutations ----------------------------


def _step(seed: Seed, k) -> tuple:
    """What pushing through the mutation at k reads of the seed: the
    position ki of k and the k-th column of the exchange matrix as sparse
    (position, entry) pairs over the full exponent tuple, split by sign
    into its positive part ``rise`` and its negative part ``drop``, each
    entry of ``drop`` negated.  The column's entry at ki is 0, so neither
    part names ki."""
    ki = seed.index(k)
    col = [(i, row[ki]) for i, row in enumerate(seed.eps) if row[ki]]
    return (
        ki,
        tuple((i, c) for i, c in col if c > 0),
        tuple((i, -c) for i, c in col if c < 0),
    )


def _push(terms: dict, ki: int, rise: tuple, drop: tuple) -> dict:
    """Rewrite the terms of a chart function in the chart mutated at ki.

    The old monomial X^e becomes a new monomial times (1 + X_k)^p, with
    p = rise.e - drop.e and new X_k exponent drop.e - e_k: one product per
    nonzero entry of the exchange column.  So each term is handled alone,
    in one of three ways.  A term with p = 0 only moves.  A term with p > 0
    is multiplied out by its row of binomials, summed into the result; sums
    that cancel to 0 are dropped, which only a negative coefficient can
    cause.  Terms with p < 0 are grouped into fibers, the terms that agree
    off k (keyed by their exponents with -p in place of the k-th), and each
    fiber, a Laurent polynomial in X_k, is divided by (1 + X_k)^(-p).  A
    fiber c X_k^j (1 + X_k)^(-p) gives c X_k^j at once; any other goes
    through repeated synthetic division, which fails with NotDivisible
    exactly when the function is not Laurent in the new chart.
    """
    out: dict[tuple[int, ...], int] = {}
    fibers: dict[tuple[int, ...], dict[int, int]] = {}
    rows: dict[int, list[int]] = {}
    signed = False
    for exps, coeff in terms.items():
        offset = 0
        for i, c in drop:
            offset += exps[i] * c
        power = -offset
        for i, c in rise:
            power += exps[i] * c
        j = offset - exps[ki]
        cell = list(exps)
        if power == 0:
            cell[ki] = j
            out[tuple(cell)] = coeff
        elif power > 0:
            row = rows.get(power) or rows.setdefault(
                power, [math.comb(power, i) for i in range(power + 1)]
            )
            signed = signed or coeff < 0
            for b in row:
                cell[ki] = j
                key = tuple(cell)
                out[key] = out.get(key, 0) + coeff * b
                j += 1
        else:
            cell[ki] = -power
            fiber = fibers.get(key := tuple(cell))
            if fiber is None:
                fibers[key] = {j: coeff}
            else:
                fiber[j] = coeff
    if signed:
        for key in [key for key, c in out.items() if not c]:
            del out[key]
    for key, fiber in fibers.items():
        depth = key[ki]
        cell = list(key)
        low = min(fiber)
        c = fiber[low]
        if len(fiber) == depth + 1 and all(
            fiber.get(low + i) == c * math.comb(depth, i) for i in range(1, depth + 1)
        ):
            cell[ki] = low
            out[tuple(cell)] = c
            continue
        coeffs = [fiber.get(j, 0) for j in range(low, max(fiber) + 1)]
        for _ in range(depth):
            quot, carry = [], 0
            for a in coeffs[:-1]:
                carry = a - carry
                quot.append(carry)
            if carry != coeffs[-1]:
                raise NotDivisible(f"not Laurent after mutating at {ki + 1}")
            coeffs = quot
        for j, c in enumerate(coeffs, low):
            if c:
                cell[ki] = j
                out[tuple(cell)] = c
    return out


def expand_in_x_chart(
    f: LaurentPolynomial, word: Sequence, seed: Seed | None = None
) -> LaurentPolynomial:
    """Express f in the x-chart reached by a mutation word.

    The input is read in the chart of the given seed (default: the chain
    seed matching the variable count).  Raises NotDivisible when f fails to
    be Laurent in some intermediate chart.  This replays the whole word
    from the seed, one mutation at a time; it is the per-word reference of
    ``x_chart_walk``, through the same ``_push``.
    """
    if seed is None:
        seed = type_a_seed(len(f.vars))
    if seed.frozen:
        raise InvariantViolation("x-chart expansion expects a seed with no frozen directions")
    if f.vars != seed.x_names():
        raise DimensionMismatch(
            f"polynomial variables {f.vars} do not match seed chart {seed.x_names()}"
        )
    terms = f.terms
    for k in word:
        terms = _push(terms, *_step(seed, k))
        seed = mutate_seed(seed, k)
    return LaurentPolynomial._trusted(f.vars, terms) if word else f


@lru_cache(maxsize=32)
def _walk_plan(n: int) -> tuple:
    """The rank-n x-chart walk, each step read off the flip that makes it.

    One entry per word of ``mutation_words(n)``, in that order:
    (word, parent slot, ki, rise, drop), where the parent slot is the
    position of ``word[:-1]`` in the plan and (ki, rise, drop) is what
    ``_step`` reads of the parent's seed for the mutation at ``word[-1]``:
    the direction's position and the sparse (position, entry) pairs of its
    exchange column's positive and negated negative parts.  The empty word
    comes first, with None in the last four fields.

    No seed is built.  A chart's exchange matrix is the signed adjacency
    of its triangles (Fomin-Shapiro-Thurston, Acta Math. 201 (2008)), so
    the column of the direction k that labels {i, j} in the flipped
    quadrilateral (i, a, j, b) of ``polygon._flip_walk`` has entry 1 at
    the directions labelling {a, j} and {b, i} (``rise``), -1 at those
    labelling {i, a} and {j, b} (``drop``), and 0 elsewhere; an edge
    labels no direction and gives no entry.  The four sides keep their
    directions across the flip, so they are looked up in the new chart's
    labels.
    """
    plan = []
    for labels, word, parent, quad in _flip_walk(n + 3):
        if parent is None:
            plan.append(((), None, None, None, None))
            continue
        i, a, j, b = quad
        # b lies past j or before i; a Segment has its smaller end first
        bi, jb = ((i, b), (j, b)) if b > j else ((b, i), (b, j))
        up, down = ((a, j), bi), ((i, a), jb)
        rise, drop = [], []
        for p, d in enumerate(labels):
            if d in up:
                rise.append((p, 1))
            elif d in down:
                drop.append((p, 1))
        plan.append((word, parent, word[-1] - 1, tuple(rise), tuple(drop)))
    return tuple(plan)


def x_chart_walk(f: LaurentPolynomial) -> Iterator[tuple[tuple, dict]]:
    """Yield (word, terms) for every mutation word, where terms is the
    exponent -> coefficient dict of ``expand_in_x_chart(f, word)``.

    Words come from ``mutation_words(len(f.vars))`` in that dict's order.
    Every word's parent ``word[:-1]`` came before it, so each chart is one
    ``_push`` away from its parent's terms, along the rank's ``_walk_plan``.
    The words come breadth-first, so the walk only keeps the charts of the
    last two word lengths.  The dicts are the walk's own, the first one
    ``f.terms``, and are not to be changed.  Raises what
    ``expand_in_x_chart`` raises, at the same word.
    """
    names = tuple(map(x_variable_name, range(1, len(f.vars) + 1)))
    if f.vars != names:
        raise DimensionMismatch(
            f"polynomial variables {f.vars} do not match seed chart {names}"
        )
    plan = _walk_plan(len(f.vars))
    yield (), f.terms
    parents: dict[int, dict] = {}
    level: dict[int, dict] = {0: f.terms}
    for slot, (word, parent, ki, rise, drop) in enumerate(plan[1:], 1):
        if parent not in parents:
            # the first word one letter longer: the level is complete
            parents, level = level, {}
        terms = level[slot] = _push(parents[parent], ki, rise, drop)
        yield word, terms


def mutation_words(n: int) -> dict:
    """One mutation word per complete triangulation of the (n+3)-gon.

    Directions are numbered 1..n and start on the fan chart; direction k
    tracks the diagonal it currently labels, so words compose flips.
    Returned as {triangulation key: word tuple} in the order of
    ``polygon._flip_walk``, breadth-first: the words are closed under
    prefixes, and every parent ``word[:-1]`` comes before its children.
    """
    return {tuple(sorted(labels)): word for labels, word, *_ in _flip_walk(n + 3)}
