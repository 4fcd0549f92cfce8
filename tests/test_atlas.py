"""Seeds, mutations, chart expansions, and the x-chart walk."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_oracle import (
    a_variable_name,
    atlas_seed,
    chart_segments,
    expand_cluster_variable,
    triangles,
)
from flips import flip
from rational_oracle import RationalFunction, evaluate_at, variable, x_substitution
from tropclust.atlas import (
    Seed,
    _push,
    _step,
    _walk_plan,
    expand_in_x_chart,
    mutate_seed,
    mutation_words,
    type_a_seed,
    x_chart_walk,
    x_variable_name,
)
from tropclust.errors import (
    DimensionMismatch,
    FrozenDirection,
    IncompleteTriangulation,
    InvariantViolation,
    NotDivisible,
)
from tropclust.laminations import _CompiledChart
from tropclust.laurent import LaurentPolynomial
from tropclust.polygon import (
    Segment,
    Triangulation,
    _flip_walk,
    diagonals,
    edges,
    fan_triangulation,
    triangulations,
)

CATALAN = {1: 2, 2: 5, 3: 14, 4: 42}


def test_variable_naming():
    assert x_variable_name(2) == "X2"
    assert a_variable_name(Segment(1, 3)) == "A1_3"
    assert a_variable_name(4) == "A4"


def test_chain_seed_shape():
    s = type_a_seed(3)
    assert s.labels == (1, 2, 3)
    assert s.frozen == frozenset()
    assert s.eps[0][1] == -1
    assert s.eps[1][0] == 1
    assert s.eps[0][2] == 0
    assert s.x_names() == ("X1", "X2", "X3")
    with pytest.raises(InvariantViolation):
        type_a_seed(0)
    with pytest.raises(InvariantViolation, match="^rank must be a positive integer"):
        type_a_seed(True)


def test_seed_validation():
    with pytest.raises(InvariantViolation):
        Seed((1, 1), frozenset(), ((0, 0), (0, 0)), (1, 1))
    with pytest.raises(InvariantViolation):
        # not skew-symmetrizable: both entries positive
        Seed((1, 2), frozenset(), ((0, 1), (1, 0)), (1, 1))
    # eps[i][j] / d[j] == -eps[j][i] / d[i] needs d1 == 2 * d2 here
    skew = ((0, 1), (-2, 0))
    assert Seed((1, 2), frozenset(), skew, (2, 1)).d == (2, 1)
    with pytest.raises(InvariantViolation, match=r"skew-symmetrizable at \(1,2\)"):
        Seed((1, 2), frozenset(), skew, (1, 1))
    halves = Seed((1, 2), frozenset(), skew, (Fraction(1), Fraction(1, 2)))
    assert halves.d == (1, Fraction(1, 2)) and type(halves.d[0]) is int
    for bad in ((0, 1), (2, Fraction(-1, 2)), (2,)):
        with pytest.raises(InvariantViolation, match="positive symmetrizer"):
            Seed((1, 2), frozenset(), skew, bad)


def test_seed_refuses_inexact_symmetrizers_and_bool_entries():
    """Symmetrizers are ints or Fractions and exchange entries ints, as a
    seed document needs them: a float, a string or a bool is refused, not
    stored raw for ``seed_to_json`` to trip over."""
    eps = ((0, -1), (1, 0))
    for bad in ((0.5, 0.5), ("1", "1"), (True, True)):
        with pytest.raises(InvariantViolation, match="^symmetrizers must be ints or Fractions$"):
            Seed((1, 2), frozenset(), eps, bad)
    for bad in (((0, -1), (True, 0)), ((0, -1.0), (1, 0))):
        with pytest.raises(InvariantViolation, match="^exchange matrix entries must be integers$"):
            Seed((1, 2), frozenset(), bad, (1, 1))


def test_seed_labels_are_ints_or_segments():
    """A direction label is a non-bool int or a ``Segment``, the two kinds
    ``seed_to_json`` can write; anything else is refused when the seed is
    built, not when it is written."""
    eps = ((0, -1), (1, 0))
    assert Seed((Segment(1, 3), 2), frozenset(), eps, (1, 1)).labels == (Segment(1, 3), 2)
    for bad in ((True, 2), ("a", 2), ((1, 3), 2)):
        with pytest.raises(InvariantViolation, match="is not an int or a Segment$"):
            Seed(bad, frozenset(), eps, (1, 1))


def test_mutation_is_an_involution():
    s = type_a_seed(4)
    for k in (1, 2, 3, 4):
        assert mutate_seed(mutate_seed(s, k), k) == s


def test_mutation_rejects_frozen():
    s = atlas_seed(fan_triangulation(5))
    frozen_label = next(iter(s.frozen))
    with pytest.raises(FrozenDirection):
        mutate_seed(s, frozen_label)


def test_rank_two_mutation_matrix():
    s = type_a_seed(2)
    m = mutate_seed(s, 1)
    assert m.eps == ((0, 1), (-1, 0))
    m2 = mutate_seed(m, 2)
    assert m2.eps == ((0, -1), (1, 0))


def test_x_substitution_rank_two():
    s = type_a_seed(2)
    sub = x_substitution(s, 1)
    v = s.x_names()
    x1 = RationalFunction.variable(v, "X1")
    x2 = RationalFunction.variable(v, "X2")
    assert sub[1] == x1 ** (-1)
    # eps(2,1) = +1, so direction 2 divides by (1 + X1^(-1))
    assert sub[2] == x2 * (1 + x1 ** (-1)) ** (-1)
    # The mutated seed's substitution writes the old coordinates in the new
    # ones, which is the rewrite expand_in_x_chart performs on a chart function.
    back = x_substitution(mutate_seed(s, 1), 1)
    assert back[1] == x1 ** (-1)
    assert back[2] == x2 * (1 + x1)
    for name in v:
        old = variable(v, name)
        assert back[int(name[1:])] == expand_in_x_chart(old, (1,), s)


def test_x_substitution_composes_to_identity():
    """Pulling back along mu_k twice restores every variable."""
    for n in (2, 3):
        s = type_a_seed(n)
        for k in range(1, n + 1):
            first = x_substitution(s, k)
            second = x_substitution(mutate_seed(s, k), k)
            for label in s.labels:
                composed = _compose(second[label], first)
                assert composed == RationalFunction.variable(
                    s.x_names(), x_variable_name(label)
                )


def _compose(rf, assignment):
    """Evaluate rf at the rational functions given per variable."""
    order = [assignment[int(name[1:])] for name in rf.vars]
    num = evaluate_at(rf.num, order)
    den = evaluate_at(rf.den, order)
    return num * den ** (-1)


def test_pentagon_periodicity():
    """Alternating rank-two mutations compose to the identity after ten steps.

    The seed matrix alone cycles faster, so the check tracks a chart function
    through the variable rewrites as well.
    """
    s = type_a_seed(2)
    f = LaurentPolynomial(s.x_names(), {(1, 1): 1, (1, 0): 1})
    cur, seed, first_return = f, s, None
    for step in range(1, 11):
        k = 1 if step % 2 == 1 else 2
        cur = expand_in_x_chart(cur, (k,), seed)
        seed = mutate_seed(seed, k)
        if first_return is None and cur == f and seed == s:
            first_return = step
    assert first_return == 10


def test_chart_segments_order():
    tri = fan_triangulation(5)
    segs = chart_segments(tri)
    assert segs[:2] == (Segment(1, 3), Segment(1, 4))
    assert segs[2:] == tuple(edges(5))


def test_atlas_seed_matches_flip_combinatorics():
    """Mutating a chart seed agrees with flipping the triangulation."""
    for n_gon in (5, 6):
        for tri in triangulations(n_gon):
            s = atlas_seed(tri)
            for d in tri.sorted_diagonals():
                new_tri, new_diag, _ = flip(tri, d)
                mutated = mutate_seed(s, d)
                target = atlas_seed(new_tri)
                # align by relabeling the mutated direction
                relabeled = {
                    (a if a != d else new_diag, b if b != d else new_diag): mutated.eps[
                        mutated.index(a)
                    ][mutated.index(b)]
                    for a in mutated.labels
                    for b in mutated.labels
                }
                for a in target.labels:
                    for b in target.labels:
                        assert target.eps[target.index(a)][target.index(b)] == relabeled[(a, b)]


def test_fan_chart_expansions_pentagon():
    """Exponents run over A1_3, A1_4, then the edges A1_2, A1_5, A2_3,
    A3_4, A4_5."""
    tri = fan_triangulation(5)
    v = ("A1_3", "A1_4", "A1_2", "A1_5", "A2_3", "A3_4", "A4_5")
    assert expand_cluster_variable(Segment(1, 3), tri) == variable(v, "A1_3")
    assert expand_cluster_variable(Segment(1, 2), tri) == variable(v, "A1_2")
    # crossing one chart diagonal: one exchange step
    assert expand_cluster_variable(Segment(2, 4), tri) == LaurentPolynomial(
        v, {(-1, 0, 1, 0, 0, 1, 0): 1, (-1, 1, 0, 0, 1, 0, 0): 1}
    )
    assert expand_cluster_variable(Segment(3, 5), tri) == LaurentPolynomial(
        v, {(1, -1, 0, 0, 0, 0, 1): 1, (0, -1, 0, 1, 0, 1, 0): 1}
    )
    assert expand_cluster_variable(Segment(2, 5), tri) == LaurentPolynomial(
        v,
        {
            (0, -1, 1, 0, 0, 0, 1): 1,
            (-1, -1, 1, 1, 0, 1, 0): 1,
            (-1, 0, 0, 1, 1, 0, 0): 1,
        },
    )


def test_expansions_have_positive_coefficients():
    for tri in triangulations(6):
        names = tuple(a_variable_name(s) for s in chart_segments(tri))
        for seg in [Segment(1, 3), Segment(2, 5), Segment(3, 6), Segment(2, 6)]:
            p = expand_cluster_variable(seg, tri)
            assert p.vars == names
            assert p.is_positive()
            assert not p.is_zero()


def _seeded_charts(n_gon: int, count: int, seed: int) -> list:
    """``count`` charts, each reached from the fan by 3N random flips."""
    rng = random.Random(seed)
    charts = []
    for _ in range(count):
        tri = fan_triangulation(n_gon)
        for _ in range(3 * n_gon):
            tri = flip(tri, rng.choice(tri.sorted_diagonals()))[0]
        charts.append(tri)
    return charts


def test_exponent_sets_match_the_expansions():
    """The exponent-set compile against the expansion with coefficients.

    On every chart of the 5- to 8-gon, and on the fan and five seeded
    charts of the 10- and 12-gon, each diagonal's compiled vectors are the
    exponent vectors of its expansion cut to the chart diagonals, and every
    coefficient of the expansion is positive.
    """
    charts = [t for n in range(5, 9) for t in triangulations(n)]
    for n in (10, 12):
        charts += [fan_triangulation(n)] + _seeded_charts(n, 5, seed=n)
    for tri in charts:
        n = tri.n_gon
        for d, forms in zip(diagonals(n), _CompiledChart(tri).forms):
            p = expand_cluster_variable(d, tri)
            assert p.is_positive()
            assert forms == tuple(sorted({e[: n - 3] for e in p.terms}))


def test_expand_rejects_incomplete_chart():
    # a partial chart cannot be built, so no expansion starts from one
    with pytest.raises(IncompleteTriangulation):
        expand_cluster_variable(Segment(2, 5), Triangulation.of(6, [(1, 3)]))


def test_mutation_word_census():
    for n, count in CATALAN.items():
        words = mutation_words(n)
        assert len(words) == count
        assert set(words) == {t.key() for t in triangulations(n + 3)}
        assert words[fan_triangulation(n + 3).key()] == ()


def test_mutation_words_are_closed_under_prefixes():
    for n in range(1, 6):
        position = {w: i for i, w in enumerate(mutation_words(n).values())}
        for word, i in position.items():
            if word:
                assert position[word[:-1]] < i


def test_mutation_words_replay_to_their_charts():
    n = 3
    for tri in triangulations(n + 3):
        word = mutation_words(n)[tri.key()]
        cur = fan_triangulation(n + 3)
        labels = list(cur.sorted_diagonals())
        for k in word:
            cur, new_diag, _ = flip(cur, labels[k - 1])
            labels[k - 1] = new_diag
        assert cur == tri


def _reference_mutation_words(n):
    """``mutation_words(n)`` by a breadth-first search of its own: each flip
    joins the apexes of the triangles on the old diagonal, read off
    ``chart_oracle.triangles``, builds a checked triangulation, and every
    direction is tried, the flip back to the parent too."""
    start = fan_triangulation(n + 3)
    words = {start.key(): ()}
    queue = deque([(start, tuple(start.sorted_diagonals()), ())])
    while queue:
        tri, labels, word = queue.popleft()
        faces = triangles(tri)
        for k, d in enumerate(labels):
            apexes = {v for t in faces if set(d) <= set(t) for v in t} - set(d)
            new_diag = Segment(*apexes)
            new = Triangulation(n + 3, (tri.diagonals - {d}) | {new_diag})
            if new.key() not in words:
                words[new.key()] = word + (k + 1,)
                queue.append((new, labels[:k] + (new_diag,) + labels[k + 1:], word + (k + 1,)))
    return words


def test_mutation_words_match_a_reference_search():
    """Same keys, words and dict order as a search that flips through the
    triangle list, and every key is a tuple of ``Segment``s."""
    for n in range(1, 8):
        words = mutation_words(n)
        assert list(words.items()) == list(_reference_mutation_words(n).items())
        assert all(type(d) is Segment for key in words for d in key)


def test_expand_in_x_chart_identity_word():
    s = type_a_seed(2)
    f = variable(s.x_names(), "X1") + 1
    assert expand_in_x_chart(f, ()) == f


def test_expand_in_x_chart_inverts_along_reversed_words():
    s = type_a_seed(2)
    v = s.x_names()
    # a chart function that stays Laurent in every chart
    f = LaurentPolynomial(v, {(1, 0): 1, (1, -1): 1, (0, -1): 1})
    for word in [(1,), (1, 2), (2, 1, 2)]:
        there = expand_in_x_chart(f, word, s)
        seed = s
        for k in word:
            seed = mutate_seed(seed, k)
        back = expand_in_x_chart(there, tuple(reversed(word)), seed)
        assert back == f


def test_expand_in_x_chart_checks_variables():
    f = LaurentPolynomial.one(("Y1", "Y2"))
    with pytest.raises(DimensionMismatch):
        expand_in_x_chart(f, (1,))
    with pytest.raises(DimensionMismatch):
        list(x_chart_walk(f))


def test_x_chart_walk_raises_where_the_replay_raises():
    s = type_a_seed(3)
    f = LaurentPolynomial(s.x_names(), {(1, 0, 0): 1, (0, 0, 1): 1})
    words = list(mutation_words(3).values())
    walked = []
    with pytest.raises(NotDivisible):
        for word, terms in x_chart_walk(f):
            assert terms == expand_in_x_chart(f, word).terms
            walked.append(word)
    assert walked == words[: len(walked)] == [(), (1,)]
    with pytest.raises(NotDivisible):
        expand_in_x_chart(f, words[len(walked)])


# terms in the chain seed of rank 3, pushed through the mutation at 2;
# the power of (1 + X2) for a fiber X1^a X3^c is c - a
PUSH_CASES = {
    "one term, positive power": {(0, 1, 2): 3},
    "one term, zero power": {(1, -2, 1): -2},
    "one term, negative power": {(2, 1, 0): 1},
    "fibers, positive power": {(0, 1, 1): 1, (0, -1, 1): 2},
    "fibers, zero power": {(0, 0, 0): 1, (0, 3, 0): -1},
    "fibers, divisible": {(1, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1},
    "fibers, twice divisible": {(1, 0, -1): 1, (1, 1, -1): 2, (1, 2, -1): 1},
    "fibers, not divisible": {(1, 0, 0): 1, (1, 2, 0): 1},
    "positive powers that cancel": {(0, 0, 1): 1, (0, -1, 1): -1, (0, 2, 1): 1},
    "fiber c(1 + X2), c < 0": {(1, 0, 0): -3, (1, -1, 0): -3},
    "fiber c(1 + X2)^2, c < 0": {(2, 0, 0): -2, (2, -1, 0): -4, (2, -2, 0): -2},
    "binomial row off by one": {(2, 0, 0): 1, (2, -1, 0): 3, (2, -2, 0): 1},
    "fiber (1 + X2)(1 + X2^2)": {(1, 0, 0): 1, (1, -1, 0): 1, (1, -2, 0): 1, (1, -3, 0): 1},
    "zero, positive and negative powers": {
        (0, 0, 0): 1,
        (1, 2, 1): -1,
        (0, 1, 1): 2,
        (0, -2, 2): 1,
        (1, 0, 0): 1,
        (1, -1, 0): 1,
        (2, 0, 0): 1,
        (2, -1, 0): 3,
        (2, -2, 0): 3,
        (2, -3, 0): 1,
    },
}


@pytest.mark.parametrize("terms", PUSH_CASES.values(), ids=PUSH_CASES.keys())
def test_push_matches_rational_substitution(terms):
    """The push kernel on single terms at each sign of power, on
    positive-power terms whose sums cancel, on negative-power fibers that
    are c(1 + X2)^m, that are divisible otherwise, and that are not
    divisible, and on all of these at once: the oracle's polynomial with no
    zero coefficient, or NotDivisible from both."""
    seed = type_a_seed(3)
    f = LaurentPolynomial(seed.x_names(), terms)
    back = x_substitution(mutate_seed(seed, 2), 2)
    substituted = evaluate_at(f, [back[label] for label in seed.labels])
    try:
        expected = substituted.as_laurent()
    except NotDivisible:
        with pytest.raises(NotDivisible):
            _push(f.terms, *_step(seed, 2))
    else:
        pushed = _push(f.terms, *_step(seed, 2))
        assert 0 not in pushed.values()
        assert LaurentPolynomial(f.vars, pushed) == expected


def test_walk_plan_matches_replaying_its_words():
    """Each plan entry holds its word's parent slot and what a push reads
    of the parent's seed, replayed from the chain seed with mutate_seed:
    the position of the mutated direction and the nonzero entries of its
    exchange column as (position, entry) pairs, positive ones in ``rise``
    and negated negative ones in ``drop``, each in position order."""
    for n in range(1, 8):
        plan = _walk_plan(n)
        assert [entry[0] for entry in plan] == list(mutation_words(n).values())
        assert plan[0] == ((), None, None, None, None)
        for word, parent, ki, rise, drop in plan[1:]:
            assert plan[parent][0] == word[:-1]
            seed = type_a_seed(n)
            for k in word[:-1]:
                seed = mutate_seed(seed, k)
            column = [row[seed.labels.index(word[-1])] for row in seed.eps]
            assert ki == seed.labels.index(word[-1])
            assert rise == tuple((i, c) for i, c in enumerate(column) if c > 0)
            assert drop == tuple((i, -c) for i, c in enumerate(column) if c < 0)


def test_walk_plan_reads_the_exchange_columns_of_the_chart_seeds():
    """Each plan step is the exchange column of its parent chart's seed as
    ``chart_oracle.atlas_seed`` builds it from the chart's triangles, read
    through the walk's direction labels: entry c of the direction labelling
    diagonal d is the seed's entry at (d, the mutated direction's
    diagonal).  The oracle builds no seed by mutation, so this checks the
    plan's quadrilateral sign rule apart from the replay above, on every
    chart of the 4- to 10-gon."""
    for n in range(1, 8):
        walk = list(_flip_walk(n + 3))
        plan = _walk_plan(n)
        assert len(plan) == len(walk)
        columns = {}
        for (word, parent, ki, rise, drop), (_, walk_word, walk_parent, _) in zip(
            plan[1:], walk[1:]
        ):
            assert (word, parent, ki) == (walk_word, walk_parent, word[-1] - 1)
            labels = walk[parent][0]
            if parent not in columns:
                seed = atlas_seed(Triangulation(n + 3, labels))
                rows = [seed.eps[seed.index(d)] for d in labels]
                columns[parent] = [[row[seed.index(d)] for row in rows] for d in labels]
            column = columns[parent][ki]
            assert rise == tuple((p, c) for p, c in enumerate(column) if c > 0)
            assert drop == tuple((p, -c) for p, c in enumerate(column) if c < 0)


@st.composite
def chart_functions(draw):
    """A seed of type A_n (n = 2..4, possibly mutated a few times) and a
    random integer Laurent polynomial in its x-chart.  A factor (1 + X_j)^m
    makes some draws Laurent after mutating at j; most draws are not."""
    n = draw(st.integers(2, 4))
    seed = type_a_seed(n)
    for k in draw(st.lists(st.integers(1, n), max_size=2)):
        seed = mutate_seed(seed, k)
    names = seed.x_names()
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    coeffs = st.integers(-4, 4).filter(bool)
    f = LaurentPolynomial(names, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    j = draw(st.sampled_from(names))
    f = f * (1 + variable(names, j)) ** draw(st.integers(0, 2))
    return seed, f


@settings(max_examples=80, deadline=None)
@given(chart_functions())
def test_fiber_division_matches_rational_substitution(case):
    """One mutation step through the push kernel agrees with substituting the
    old coordinates as rational functions and dividing out their
    denominator: the same polynomial, or NotDivisible from both."""
    seed, f = case
    for k in seed.labels:
        back = x_substitution(mutate_seed(seed, k), k)
        substituted = evaluate_at(f, [back[label] for label in seed.labels])
        try:
            expected = substituted.as_laurent()
        except NotDivisible:
            with pytest.raises(NotDivisible):
                expand_in_x_chart(f, (k,), seed)
        else:
            assert expand_in_x_chart(f, (k,), seed) == expected


A2_CHART_FUNCTIONS = (
    {(0, 0): 1},
    {(-1, 0): 1},
    {(0, 1): 1},
    {(1, 1): 1, (1, 0): 1},
    {(1, 0): 1, (1, -1): 1, (0, -1): 1},
    {(0, -1): 1, (-1, -1): 1},
)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_expand_in_x_chart_respects_products(data):
    """Chart rewriting is a ring map: it distributes over products."""
    s = type_a_seed(2)
    v = s.x_names()
    word = tuple(
        data.draw(st.integers(1, 2)) for _ in range(data.draw(st.integers(1, 3)))
    )

    def rand_pushable():
        out = LaurentPolynomial.one(v)
        for _ in range(data.draw(st.integers(1, 2))):
            out = out * LaurentPolynomial(
                v, data.draw(st.sampled_from(A2_CHART_FUNCTIONS))
            )
        return out

    f, g = rand_pushable(), rand_pushable()
    assert expand_in_x_chart(f * g, word) == expand_in_x_chart(
        f, word
    ) * expand_in_x_chart(g, word)
