"""Canonical basis functions, product expansion, and the pentagon closed form."""

import functools
import gc
import itertools
import json
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flips import flip
from graphs import piece_laminations, reflected, relabeled, walked_cut
from rational_oracle import evaluate_at, x_substitution
from witness import basis_failed_rounds, failed_rounds
from tropclust.atlas import (
    _walk_plan,
    expand_in_x_chart,
    mutate_seed,
    mutation_words,
    type_a_seed,
    x_chart_walk,
)
from tropclust import basis
from tropclust.basis import (
    DEFAULT_BUDGET,
    Expansion,
    _positive_in_every_chart,
    _positive_piece,
    _split_leaves,
    _split_steps,
    _split_table,
    a2_coefficient,
    basis_laurent,
    crossing_measure,
    product_expand,
    product_graph,
    verify_positive_basis,
)
from tropclust.errors import (
    BudgetExceeded,
    EmptyInput,
    InvariantViolation,
    NonIntegral,
    NotDivisible,
    SizeMismatch,
)
from tropclust.laminations import (
    Lamination,
    TropicalCoords,
    _edge_cycle,
    _piece_chords,
    chart_coords,
    lamination_from_coords,
)
from tropclust.laurent import LaurentPolynomial
from tropclust.polygon import Segment, _flip_walk, crosses, fan_triangulation
from tropclust.polytopes import lattice_points, minkowski_spec
from tropclust.weighted_graphs import WeightedGraph, _half_cuts, _rotations, _tables, wrap_vertex

V2 = ("X1", "X2")


def pt(n_gon, vec):
    fan = fan_triangulation(n_gon)
    return lamination_from_coords(
        TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), vec)))
    )


# The five pentagon unit curves in cyclic order: consecutive entries share a
# polygon vertex, entries two apart cross once.
UNITS = {
    1: pt(5, (-1, 0)),  # curve along {1,4}
    2: pt(5, (0, 1)),  # curve along {1,3}
    3: pt(5, (1, 1)),  # curve along {3,5}
    4: pt(5, (1, 0)),  # curve along {2,5}
    5: pt(5, (0, -1)),  # curve along {2,4}
}

# Fan coordinates of three heptagon laminations whose product has 86 terms.
HEPTAGON_FACTORS = [(-2, 1, 2, -1), (0, 0, -2, -1), (1, 2, 0, 2)]


def L(terms):
    return LaurentPolynomial(V2, terms)


def test_unit_curves_have_the_expected_chords():
    loaded = {
        i: [Segment(a, b) for a, b, w in UNITS[i].graph.sparse_items() if Segment(a, b).is_diagonal(5)]
        for i in UNITS
    }
    assert loaded[1] == [Segment(1, 4)]
    assert loaded[2] == [Segment(1, 3)]
    assert loaded[3] == [Segment(3, 5)]
    assert loaded[4] == [Segment(2, 5)]
    assert loaded[5] == [Segment(2, 4)]


def test_basis_function_table():
    assert basis_laurent(Lamination.zero(5)) == LaurentPolynomial.one(V2)
    assert basis_laurent(UNITS[1]) == L({(-1, 0): 1})
    assert basis_laurent(UNITS[2]) == L({(0, 1): 1})
    assert basis_laurent(UNITS[3]) == L({(1, 1): 1, (1, 0): 1})
    assert basis_laurent(UNITS[4]) == L({(1, 0): 1, (1, -1): 1, (0, -1): 1})
    assert basis_laurent(UNITS[5]) == L({(0, -1): 1, (-1, -1): 1})


def test_basis_recurrence_all_rotations():
    """Neighbours of each unit multiply to one plus the unit itself."""
    one = LaurentPolynomial.one(V2)
    for i in range(1, 6):
        prev = UNITS[(i - 2) % 5 + 1]
        nxt = UNITS[i % 5 + 1]
        assert basis_laurent(prev) * basis_laurent(nxt) == one + basis_laurent(
            UNITS[i]
        )


def test_basis_rejects_fractional_laminations():
    half = UNITS[1] * __import__("fractions").Fraction(1, 2)
    with pytest.raises(NonIntegral):
        basis_laurent(half)


def test_basis_rejects_a_triangle():
    """A 3-gon's fan chart has no variables, so there is no chart to write
    its one (zero) lamination in, although the chain product would be 1."""
    with pytest.raises(InvariantViolation, match="rank must be a positive integer"):
        basis_laurent(Lamination.zero(3))


def _atlas_positivity_laminations():
    """Every hexagon lamination of the fan box [-2, 2] and the 20 recorded
    heptagon laminations: the inputs of the benchmark's atlas-positivity
    workload."""
    catalog = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    recorded = json.loads(catalog.read_text(encoding="utf-8"))["positivity"]
    laminations = [pt(6, vec) for vec in itertools.product(range(-2, 3), repeat=3)]
    return laminations + [pt(7, e["coords"]) for e in recorded]


def test_basis_witness_holds():
    """prod P_ij^(w_ij) equals the basis function at the fan chart's cross
    ratios, on seeded 4- to 11-gon laminations from the fan box [-3, 3] and
    on the 145 atlas-positivity laminations."""
    rng = random.Random(22)
    laminations = [
        pt(n_gon, [rng.randint(-3, 3) for _ in range(n_gon - 3)])
        for n_gon in range(4, 12)
        for _ in range(6)
    ]
    laminations += _atlas_positivity_laminations()
    assert len(laminations) == 48 + 145
    for lam in laminations:
        assert basis_failed_rounds(lam.n_gon, lam.graph.w, basis_laurent(lam)) == []


def test_basis_witness_catches_wrong_basis_functions():
    """A coefficient raised by one, and one term moved by X_k, each fail
    every round."""
    rng = random.Random(23)
    for n_gon in range(5, 10):
        lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
        f = basis_laurent(lam)
        exps, c = next(iter(f.terms.items()))
        raised = LaurentPolynomial(f.vars, {**f.terms, exps: c + 1})
        assert basis_failed_rounds(n_gon, lam.graph.w, raised) == [0, 1]
        for k in range(n_gon - 3):
            moved = exps[:k] + (exps[k] + 1,) + exps[k + 1:]
            terms = {e: d for e, d in f.terms.items() if e != exps}
            terms[moved] = terms.get(moved, 0) + c
            wrong = LaurentPolynomial(f.vars, terms)
            assert basis_failed_rounds(n_gon, lam.graph.w, wrong) == [0, 1]


def test_noncrossing_products_merge():
    a, b = UNITS[1], UNITS[2]  # chords {1,4}, {1,3} do not cross
    exp = product_expand([a, b])
    assert exp.terms == ((a + b, 1),)
    assert basis_laurent(a) * basis_laurent(b) == basis_laurent(a + b)
    # a triangle has no fan diagonal to sort its one leaf by
    zero = Lamination.zero(3)
    assert product_expand([zero, zero]).terms == ((zero, 1),)


def test_crossing_product_splits_once():
    a, b = UNITS[1], UNITS[3]  # chords {1,4}, {3,5} cross once
    exp = product_expand([a, b])
    supports = exp.support()
    assert Lamination.zero(5) in supports
    assert UNITS[2] in supports
    assert all(exp.coefficient(l) == 1 for l in supports)
    assert len(supports) == 2


def test_crossing_measure():
    assert crossing_measure(WeightedGraph.zeros(5)) == 0
    assert crossing_measure(product_graph([UNITS[1], UNITS[2]])) == 0
    assert crossing_measure(product_graph([UNITS[1], UNITS[3]])) == 1
    assert crossing_measure(product_graph([2 * UNITS[1], UNITS[3]])) == 2


def _brute_force_measure(graph):
    loaded = [
        (Segment(i, j), w)
        for i, j, w in graph.sparse_items()
        if Segment(i, j).is_diagonal(graph.n_gon)
    ]
    return sum(
        w1 * w2 for (s, w1), (t, w2) in itertools.combinations(loaded, 2) if crosses(s, t)
    )


@pytest.mark.parametrize("n_gon", [5, 6, 7, 8, 9])
def test_crossing_measure_matches_brute_force(n_gon):
    rng = random.Random(100 + n_gon)
    for _ in range(6):
        points = [
            pt(n_gon, tuple(rng.randint(-2, 2) for _ in range(n_gon - 3)))
            for _ in range(rng.randint(1, 4))
        ]
        graph = product_graph(points)
        assert crossing_measure(graph) == _brute_force_measure(graph)


def test_product_graph_guards():
    with pytest.raises(EmptyInput):
        product_graph([])
    with pytest.raises(SizeMismatch):
        product_graph([UNITS[1], Lamination.zero(6)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_graph_is_the_left_fold_of_addition(data):
    n_gon = data.draw(st.integers(4, 8))
    scale = data.draw(st.sampled_from([1, 3, Fraction(1, 2), Fraction(2, 3)]))
    vecs = data.draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * (n_gon - 3)), min_size=1, max_size=4)
    )
    points = [pt(n_gon, v) * scale for v in vecs]
    folded = functools.reduce(operator.add, (p.graph for p in points))
    assert product_graph(points) == folded


def test_product_graph_matches_the_validating_constructor():
    """The summed graph is built unchecked; on seeded int and Fraction
    factors it prints as the validating constructor's graph, entry types
    included."""
    rng = random.Random(16)
    for n_gon in range(4, 10):
        for scale in (1, Fraction(1, 2), Fraction(3, 2)):
            points = [
                pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) * rng.choice((1, scale))
                for _ in range(rng.randint(1, 4))
            ]
            sums = tuple(map(sum, zip(*(p.graph.w for p in points))))
            assert repr(product_graph(points)) == repr(WeightedGraph(n_gon, sums))


def test_expansion_validation():
    with pytest.raises(InvariantViolation):
        Expansion(((UNITS[1], 0),))
    with pytest.raises(InvariantViolation):
        Expansion(((UNITS[1], -2),))
    with pytest.raises(InvariantViolation):
        Expansion(((UNITS[1], 1), (UNITS[1], 1)))
    e = Expansion(((UNITS[1], 2),))
    assert e.coefficient(UNITS[1]) == 2
    assert e.coefficient(UNITS[2]) == 0
    assert len(e) == 1


def _reference_split_leaves(v, rows, budget):
    """The split tree with every child's crossing measure summed from
    scratch over all rows: the routine before the incremental measure,
    kept as the reference for it.  Returns the leaf counts and the number
    of vectors split."""

    def measure_of(u):
        return sum(u[a] * u[b] for a, b, _ in rows)

    buckets = {0: {}}
    buckets.setdefault(measure_of(v), {})[v] = 1
    expanded = 0
    while (measure := max(buckets)) > 0:
        for node, count in buckets.pop(measure).items():
            expanded += 1
            if expanded > budget:
                raise BudgetExceeded(budget, expanded)
            a, b, sides = next(r for r in rows if node[r[0]] > 0 and node[r[1]] > 0)
            for c, d in sides:
                child = list(node)
                child[a] -= 1
                child[b] -= 1
                child[c] += 1
                child[d] += 1
                child = tuple(child)
                child_measure = measure_of(child)
                assert child_measure < measure
                bucket = buckets.setdefault(child_measure, {})
                bucket[child] = bucket.get(child, 0) + count
    return buckets[0], expanded


@pytest.mark.parametrize("n_gon", [5, 6, 7, 8, 9, 10])
def test_incremental_measure_matches_the_from_scratch_split(n_gon):
    """Same leaves and counts as the from-scratch reference, with the rows
    in order, reversed and shuffled, and the budget runs out at the same
    node.  The reference counts one node at a time, so under any budget
    below its ``nodes`` it raises (budget, budget + 1): its one full run
    gives that outcome, and only ``_split_leaves`` runs under each budget.

    Besides three seeded products of factors scaled x1 to x3, each size
    takes one of three factors scaled x2 to x5, and the pentagon the five
    pairs k u_a * k u_{a+2} at k = 44 to 95, each one run of m = k.  Most
    products at N >= 6 have runs that overlap, so their runs' bound passes
    ``nodes`` and the full budget takes the one-at-a-time pass: a split
    that raised as soon as the bound passed would fail here."""
    rng = random.Random(700 + n_gon)
    box = 2 if n_gon < 9 else 1
    scaled = random.Random(7300 + n_gon)
    extra = [[
        scaled.randint(2, 5) * pt(n_gon, [scaled.randint(-box, box) for _ in range(n_gon - 3)])
        for _ in range(3)
    ]]
    if n_gon == 5:
        extra += [[k * UNITS[a], k * UNITS[(a + 1) % 5 + 1]]
                  for a, k in zip(range(1, 6), (44, 59, 71, 82, 95))]

    def products():
        for _ in range(3):
            yield [
                rng.randint(1, 3) * pt(n_gon, [rng.randint(-box, box) for _ in range(n_gon - 3)])
                for _ in range(3)
            ]
        yield from extra

    for points in products():
        v = product_graph(points).w
        table = _split_table(n_gon)[0]
        shuffled = list(table)
        rng.shuffle(shuffled)
        for rows in (table, table[::-1], tuple(shuffled)):
            leaves, nodes = _reference_split_leaves(v, rows, DEFAULT_BUDGET)
            steps = _split_steps(rows)
            assert _split_leaves(v, steps, nodes) == leaves
            for budget in {0, nodes // 2, max(nodes - 1, 0)} - {nodes}:
                with pytest.raises(BudgetExceeded) as info:
                    _split_leaves(v, steps, budget)
                assert (info.value.budget, info.value.expanded) == (budget, budget + 1)


class _CountedSteps(tuple):
    """A split table's steps that count how often the split reads one."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def test_a_pentagon_pair_is_split_in_one_step():
    """k u_a * k u_{a+2} on the pentagon loads one crossing row at weight k
    on both chords, and no other row loads on the way, so the whole tree is
    one run of m = k: one step read, k + 1 leaves.  A run that resolves
    fewer units than it may still gives the same leaves, so only the number
    of steps read shows it."""
    chords, steps = _split_table(5)[1]
    for a in range(1, 6):
        for k in (2, 5, 44):
            counted = _CountedSteps(steps)
            v = product_graph([k * UNITS[a], k * UNITS[(a + 1) % 5 + 1]]).w
            leaves = _split_leaves(v, (chords, counted), DEFAULT_BUDGET)
            assert (counted.reads, len(leaves)) == (1, k + 1)


def test_split_steps_reject_a_step_that_keeps_the_potential():
    """A row whose side is its own chord pair would split forever; the
    table is refused before any vector is split."""
    with pytest.raises(InvariantViolation, match="potential"):
        _split_steps(((0, 1, ((0, 1), (2, 3))),))


def test_split_table_keeps_each_chords_masks_once():
    """The steps share each chord's masks and complements, so a 20-gon's
    table, 4,845 rows, stays within 4 MiB traced: a fresh complement per
    row would hold over 10 MiB."""
    _tables(20)
    tracemalloc.start()
    try:
        table = _split_table.__wrapped__(20)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table[0]) == 4845
    assert held <= 4 * 1024 * 1024, held


def test_basis_functions_keep_no_memory_once_dropped():
    """``basis_laurent`` builds its chain sums per call and keeps none of
    them in a process cache: once the functions of a 12-gon and a 14-gon
    lamination are dropped, traced memory is back within 16 KiB of where
    it started."""
    laminations = [
        pt(12, [1, 0, -1, 0, 1, 0, 0, 0, 0]),
        pt(14, [0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 1]),
    ]
    # a first call at a small size sets up what any call needs
    basis_laurent(pt(5, (1, -1)))
    gc.collect()
    tracemalloc.start()
    try:
        for lam in laminations:
            basis_laurent(lam)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 16 * 1024, held


def _seeded_products(n_gons, seed, count=3):
    """Seeded products of two or three scaled fan-box laminations."""
    rng = random.Random(seed)
    for n_gon in n_gons:
        box = 2 if n_gon < 9 else 1
        for _ in range(count):
            yield [
                rng.randint(1, 2) * pt(n_gon, [rng.randint(-box, box) for _ in range(n_gon - 3)])
                for _ in range(rng.randint(2, 3))
            ]


def test_split_leaves_pass_the_validating_constructors():
    """``product_expand`` builds its leaves unchecked, with the ``"int"``
    hint: every leaf of the split tree is an integral lamination by the
    validating constructors, equal to and hashing as the leaf wrapped, and
    the expansion holds exactly those leaves, in the same weights."""
    for points in _seeded_products(range(5, 11), 800):
        total = product_graph(points)
        n_gon = total.n_gon
        leaves = _split_leaves(total.w, _split_table(n_gon)[1], DEFAULT_BUDGET)
        expansion = product_expand(points)
        assert {lam.graph.w: c for lam, c in expansion} == leaves
        for lam in expansion.support():
            checked = Lamination(WeightedGraph(n_gon, lam.graph.w))
            assert checked == Lamination._trusted(lam.graph, "int") == lam
            assert hash(checked) == hash(lam)
            assert checked.domain == lam.domain == "int"
        assert Expansion(expansion.terms) == expansion


def test_leaf_keys_are_twice_the_fan_coordinates():
    """``_sorted_leaves`` keys each leaf by the cut getters of the first
    N - 3 slots: on seeded 5- to 10-gon products, every key is the walked
    cut masses across the fan diagonals {1, k}, k = 3..N-1, twice the
    leaf's fan coordinates, and the keys come strictly increasing, since
    distinct laminations have distinct coordinates."""
    for points in _seeded_products(range(5, 11), 2610, count=2):
        n_gon = points[0].n_gon
        triples = basis._sorted_leaves(points, DEFAULT_BUDGET)
        keys = [key for key, _, _ in triples]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for key, w, _ in triples:
            leaf = WeightedGraph(n_gon, w)
            assert key == tuple(walked_cut(leaf, 1, k) for k in range(3, n_gon))


def test_budget_message_at_the_boundary():
    """At one node short of the tree the message names both counts, as the
    from-scratch reference counts them; the full budget succeeds.  A
    budget that is not a nonnegative int is refused before any split."""
    for budget in (-5, -1, True, 2.5, 3.0, "7", None):
        with pytest.raises(InvariantViolation, match="budget"):
            product_expand([UNITS[1], UNITS[3]], budget=budget)
    for points in _seeded_products(range(5, 10), 810, count=2):
        total = product_graph(points)
        _, nodes = _reference_split_leaves(total.w, _split_table(total.n_gon)[0], DEFAULT_BUDGET)
        if nodes == 0:
            continue
        with pytest.raises(BudgetExceeded) as info:
            product_expand(points, budget=nodes - 1)
        assert str(info.value) == f"expansion budget exceeded: {nodes} nodes > budget {nodes - 1}"
        product_expand(points, budget=nodes)


def _witness(points, terms=None):
    total = product_graph(points)
    if terms is None:
        terms = [(lam.graph.w, c) for lam, c in product_expand(points, budget=10**8)]
    return failed_rounds(total.n_gon, total.w, terms)


def _fan_sample(n_gon, count, seed):
    """``count`` laminations from fan coordinates in [-2, 2], drawn in
    diagonal order from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(count)]


def test_coefficient_witness_holds_on_seeded_products():
    """Every coefficient of seeded 5- to 11-gon products, of the decagon
    product sample(10, 4, 10) (2950 terms) and of the 11-gon product that
    ``verify-mthm`` checks in the command-line tests (6786 terms)."""
    products = list(_seeded_products(range(5, 12), 820, count=2))
    products += [_fan_sample(10, 4, 10), _fan_sample(11, 4, 2)]
    for points in products:
        assert _witness(points) == []
    assert len(product_expand(products[-2])) == 2950


@pytest.mark.parametrize(
    "n_gon, count, seed, nodes",
    [(10, 4, 10, 8368), (11, 4, 2, 17305), (12, 3, 1, 10741)],
    ids=["D10", "E11", "T12"],
)
def test_probe_products_split_a_fixed_number_of_graphs(n_gon, count, seed, nodes):
    """The probe products D10, E11 and T12 split exactly ``nodes`` distinct
    graphs: that budget suffices, and one less fails with a message naming
    both counts."""
    points = _fan_sample(n_gon, count, seed)
    product_expand(points, budget=nodes)
    with pytest.raises(BudgetExceeded) as info:
        product_expand(points, budget=nodes - 1)
    assert str(info.value) == f"expansion budget exceeded: {nodes} nodes > budget {nodes - 1}"


def test_coefficient_witness_catches_wrong_expansions():
    """A coefficient raised by one, a dropped term and a term moved to
    another noncrossing graph each fail every round."""
    checked = 0
    for points in _seeded_products(range(5, 10), 830):
        terms = [(lam.graph.w, c) for lam, c in product_expand(points)]
        if len(terms) < 2:
            continue
        checked += 1
        k = len(terms) // 2
        w, c = terms[k]
        assert _witness(points, terms[:k] + [(w, c + 1)] + terms[k + 1:]) == [0, 1]
        assert _witness(points, terms[:k] + terms[k + 1:]) == [0, 1]
        n_gon = points[0].n_gon
        lam = Lamination(WeightedGraph(n_gon, w))
        coords = list(chart_coords(lam, fan_triangulation(n_gon)).vector())
        support = {u for u, _ in terms}
        while True:
            coords[0] += 1
            moved = pt(n_gon, coords).graph.w
            if moved not in support:
                break
        assert _witness(points, terms[:k] + [(moved, c)] + terms[k + 1:]) == [0, 1]
    assert checked >= 8


def _split_both_ways(points):
    """Leaf counts when the split takes the first crossing row, and when it
    takes the last one (the same table, reversed)."""
    total = product_graph(points)
    rows, steps = _split_table(total.n_gon)
    return (
        _split_leaves(total.w, steps, DEFAULT_BUDGET),
        _split_leaves(total.w, _split_steps(rows[::-1]), DEFAULT_BUDGET),
    )


def test_policy_confluence():
    a, b = _split_both_ways([UNITS[1], UNITS[3], UNITS[3], UNITS[5]])
    assert a == b
    # Splitting the first or the last crossing gives the same expansion on
    # bigger polygons too.
    rng = random.Random(11)
    crossing = 0
    for n_gon, count, radius in ((6, 4, 2), (7, 4, 2), (8, 2, 1)):
        for _ in range(count):
            points = [
                pt(n_gon, tuple(rng.randint(-radius, radius) for _ in range(n_gon - 3)))
                for _ in range(rng.randint(2, 3))
            ]
            crossing += crossing_measure(product_graph(points)) > 0
            a, b = _split_both_ways(points)
            assert a == b
    assert crossing >= 8


def test_sums_of_halves_are_integral_laminations():
    c = UNITS[2]
    h = c * Fraction(1, 2)
    assert h.domain == "rat"
    assert h + h == c
    assert product_expand([h + h, c]) == product_expand([c, c])


def test_product_expansion_matches_symbolic_identity():
    """The defining property: products of basis functions expand positively."""
    samples = [
        [UNITS[1], UNITS[3]],
        [UNITS[2], UNITS[5]],
        [UNITS[4], UNITS[4], UNITS[1]],
        [UNITS[1], UNITS[2], UNITS[3], UNITS[4], UNITS[5]],
    ]
    for points in samples:
        lhs = LaurentPolynomial.one(V2)
        for p in points:
            lhs = lhs * basis_laurent(p)
        rhs = LaurentPolynomial(V2, {})
        for lam, coeff in product_expand(points):
            rhs = rhs + coeff * basis_laurent(lam)
        assert lhs == rhs


def test_symbolic_identity_hexagon():
    a = pt(6, (1, 0, 0))
    b = pt(6, (0, 0, 1))
    c = pt(6, (0, 1, 1))
    v3 = ("X1", "X2", "X3")
    for points in [[a, b], [a, c], [a, b, c]]:
        lhs = LaurentPolynomial.one(v3)
        for p in points:
            lhs = lhs * basis_laurent(p)
        rhs = LaurentPolynomial(v3, {})
        for lam, coeff in product_expand(points):
            rhs = rhs + coeff * basis_laurent(lam)
        assert lhs == rhs


def test_support_is_sorted_and_deterministic():
    points = [UNITS[2], UNITS[4], UNITS[5]]
    s1 = product_expand(points).support()
    s2 = product_expand(list(reversed(points))).support()
    assert s1 == s2
    fan = fan_triangulation(5)
    vectors = [chart_coords(l, fan).vector() for l in s1]
    assert vectors == sorted(vectors)
    heptagon = product_expand([pt(7, v) for v in HEPTAGON_FACTORS]).support()
    vectors = [chart_coords(l, fan_triangulation(7)).vector() for l in heptagon]
    assert vectors == sorted(vectors)


def test_budget_enforcement():
    with pytest.raises(BudgetExceeded) as info:
        product_expand([pt(6, (0, 1, 0)), pt(6, (1, 0, 0))], budget=0)
    assert info.value.budget == 0
    assert info.value.expanded == 1
    # one expansion suffices for a single crossing
    exp = product_expand([pt(6, (0, 1, 0)), pt(6, (0, 0, 1))], budget=1)
    assert len(exp) == 2


def test_budget_does_not_depend_on_call_history():
    points = [pt(6, (1, -1, 0)), pt(6, (-1, 1, 1))]

    def exceeded_at(budget):
        try:
            product_expand(points, budget=budget)
        except BudgetExceeded as exc:
            return exc.expanded
        return None

    cold = [exceeded_at(b) for b in range(10)]
    assert cold == [1, 2, 3, 4, 5, 6, 7, None, None, None]
    product_expand(points)
    assert [exceeded_at(b) for b in range(10)] == cold


@pytest.mark.parametrize(
    "n_gon, vecs, split, terms, total",
    [
        (6, [(1, -1, 2), (-2, 1, 0), (0, 2, -1)], 42, 24, 56),
        (7, [(2, -1, 0, 1), (-1, 2, -2, 0)], 11, 10, 12),
        (7, [(1, 0, -1, 2), (-2, 1, 1, -1), (0, -1, 2, 0)], 156, 74, 344),
    ],
)
def test_budget_and_leaf_counts_are_pinned(n_gon, vecs, split, terms, total):
    """``split`` graphs are split: one budget less fails at exactly that
    count, and the expansion has the recorded size and total multiplicity."""
    points = [pt(n_gon, v) for v in vecs]
    with pytest.raises(BudgetExceeded) as info:
        product_expand(points, budget=split - 1)
    assert info.value.expanded == split
    exp = product_expand(points, budget=split)
    assert len(exp) == terms
    assert sum(c for _, c in exp) == total


def _peel_into_basis(poly, n_gon):
    """Basis coefficients of ``poly`` found without splitting crossings.

    A basis function has coefficient 1 at its own fan coordinates, and that
    exponent is its lexicographic maximum, so subtracting the basis function
    at the leading exponent of what remains always lowers that exponent."""
    coeffs = {}
    leading = None
    while not poly.is_zero():
        exps = max(poly.terms)
        assert leading is None or exps < leading
        leading = exps
        lam = pt(n_gon, exps)
        coeffs[lam.graph] = poly.terms[exps]
        poly = poly - poly.terms[exps] * basis_laurent(lam)
    return coeffs


@pytest.mark.parametrize("n_gon", [6, 7])
def test_expansion_matches_leading_term_peeling(n_gon):
    rng = random.Random(n_gon)
    sizes = []
    for _ in range(5):
        points = [
            pt(n_gon, tuple(rng.randint(-2, 2) for _ in range(n_gon - 3)))
            for _ in range(rng.randint(2, 3))
        ]
        product = basis_laurent(points[0])
        for p in points[1:]:
            product = product * basis_laurent(p)
        expansion = product_expand(points)
        sizes.append(len(expansion))
        assert {lam.graph: c for lam, c in expansion} == _peel_into_basis(product, n_gon)
    assert max(sizes) > 10  # the sample reaches products with many terms


def test_nonintegral_products_rejected():
    import fractions

    half = UNITS[1] * fractions.Fraction(1, 2)
    with pytest.raises(NonIntegral):
        product_expand([half, half])


def test_a2_coefficient_validation():
    with pytest.raises(SizeMismatch):
        a2_coefficient((1, 0, 0), 1, 0, 0)
    with pytest.raises(InvariantViolation):
        a2_coefficient((1, 0, 0, 0, -1), 1, 0, 0)
    with pytest.raises(InvariantViolation):
        a2_coefficient((1, 0, 0, 0, 0), 0, 0, 0)
    with pytest.raises(InvariantViolation):
        a2_coefficient((1, 0, 0, 0, 0), 1, -1, 0)
    for args in (
        ((True, 0, 0, 0, 0), 1, 0, 0),
        ((1.0, 0, 0, 0, 0), 1, 0, 0),
        ((1, 0, 0, 0, 0), True, 0, 0),
        ((1, 0, 0, 0, 0), 2.0, 0, 0),
        ((1, 0, 0, 0, 0), 1, 0.5, 0),
        ((1, 0, 0, 0, 0), 1, False, 0),
        ((1, 0, 0, 0, 0), 1, 0, 0.5),
        ((1, 0, 0, 0, 0), 1, 0, True),
        ((1, 0, 0, 0, 0), 1, Fraction(1), 0),
    ):
        with pytest.raises(InvariantViolation):
            a2_coefficient(*args)


def test_a2_coefficient_single_crossing():
    # product of units 1 and 3: expansion is (unit 2) + (empty)
    d = (1, 0, 1, 0, 0)
    assert a2_coefficient(d, 2, 1, 0) == 1
    assert a2_coefficient(d, 1, 0, 0) == 1
    assert a2_coefficient(d, 2, 2, 0) == 0
    assert a2_coefficient(d, 3, 0, 1) == 0


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_a2_coefficient_matches_splitting(data):
    d = tuple(data.draw(st.integers(0, 2)) for _ in range(5))
    if sum(d) == 0:
        return
    points = []
    for i, m in enumerate(d):
        points.extend([UNITS[i + 1]] * m)
    exp = product_expand(points)
    total = sum(d)
    accounted = 0
    for i in range(1, 6):
        for b in range(total + 1):
            for c in range(total + 1):
                target = b * UNITS[i] + c * UNITS[i % 5 + 1]
                assert exp.coefficient(target) == a2_coefficient(d, i, b, c)
                if b > 0:  # count each support point in exactly one sector
                    accounted += a2_coefficient(d, i, b, c)
    accounted += a2_coefficient(d, 1, 0, 0)  # the origin, once
    assert accounted == sum(coeff for _, coeff in exp)


def test_pentagon_pair_at_multiplicity_1000_matches_the_closed_form():
    """(1000 u_1)(1000 u_3) = (1 + u_2)^1000: its 1,001 terms j u_2 come
    out under the default budget, each with the closed form's coefficient,
    read sector by sector as the benchmark's pentagon check reads them.
    One split at a time takes 500,500 graphs; it is one run of 1000."""
    k = 1000
    d = (k, 0, k, 0, 0)
    exp = product_expand([k * UNITS[1], k * UNITS[3]])
    fan = fan_triangulation(5)
    got = {chart_coords(lam, fan).vector(): coeff for lam, coeff in exp}
    want = {(0, 0): a2_coefficient(d, 1, 0, 0)}
    for j in range(1, 2 * k + 1):
        coeff = a2_coefficient(d, 2, j, 0)
        if coeff:
            want[(0, j)] = coeff
    assert len(want) == k + 1
    assert got == want


def test_a_run_past_the_budget_builds_none_of_its_children():
    """(10^6 u_1)(10^6 u_3) is one run of a million units.  Under a budget
    of 10 its bound is checked before the run's 10^6 + 1 children are
    built: the call raises at graph 11, as one split at a time does, and
    traced memory peaks under 1 MiB."""
    points = [10**6 * UNITS[1], 10**6 * UNITS[3]]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            product_expand(points, budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.budget, info.value.expanded) == (10, 11)
    assert peak < 1 << 20, peak


def test_verify_positive_basis_samples():
    assert verify_positive_basis(UNITS[4])
    assert verify_positive_basis(2 * UNITS[3] + UNITS[2])
    assert verify_positive_basis(pt(6, (1, -2, 1)))
    assert verify_positive_basis(Lamination.zero(5))


def _walked_positive(lam):
    """The full walk's verdict: every chart of the whole basis function is
    a nonzero Laurent polynomial with positive coefficients."""
    return all(
        terms and min(terms.values()) > 0 for _, terms in x_chart_walk(basis_laurent(lam))
    )


def test_positivity_check_refuses_a_negative_coefficient_beside_positive_ones():
    """A function that is Laurent in every pentagon chart and positive in
    the fan chart, theta(-2, -2) + theta(0, -2) - theta(-1, -2), has -1 at
    (1, -2) after the word (1,).  Every chart keeps some positive
    coefficient, so only a check of each chart's least coefficient refuses
    it."""

    def theta(vec):
        return basis_laurent(pt(5, vec))

    f = theta((-2, -2)) + theta((0, -2)) - theta((-1, -2))
    assert f.terms == {(-3, -2): 1, (-4, -2): 1, (0, -2): 1, (-1, -2): 1}
    charts = dict(x_chart_walk(f))
    assert charts[(1,)][1, -2] == -1
    assert all(max(terms.values()) > 0 for terms in charts.values())
    assert _positive_in_every_chart(f) is False


def test_verify_positive_basis_octagon():
    rng = random.Random(8)
    for _ in range(3):
        lam = pt(8, tuple(rng.randint(-1, 1) for _ in range(5)))
        assert verify_positive_basis(lam)
        assert _walked_positive(lam)


def test_verify_positive_basis_decagon():
    """Every one of the 1430 decagon charts of the whole function, for the
    two seeded laminations with the slowest walks among seeds 0 to 5."""
    for seed in (2, 3):
        rng = random.Random(seed)
        lam = pt(10, tuple(rng.randint(-1, 1) for _ in range(7)))
        assert verify_positive_basis(lam)
        assert _walked_positive(lam)


@pytest.fixture
def cold_verdicts():
    """An empty piece verdict cache before and after the test, so that no
    verdict a test forces is left for the next."""
    _positive_piece.cache_clear()
    yield
    _positive_piece.cache_clear()


@pytest.mark.parametrize("n_gon", range(5, 13))
def test_piece_functions_multiply_to_the_basis_function(n_gon):
    """The basis function is the product of its pieces' functions, each to
    its multiplicity, term for term, on seeded laminations of the fan box
    [-2, 2]."""
    rng = random.Random(3700 + n_gon)
    for _ in range(3):
        lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
        product = basis_laurent(Lamination.zero(n_gon))
        for piece, k in piece_laminations(lam):
            product = product * basis_laurent(piece) ** k
        assert product.terms == basis_laurent(lam).terms


def test_piece_verdicts_match_the_full_walk(cold_verdicts):
    """Every piece's verdict, and so ``verify_positive_basis``, agrees with
    the full walk on all 27 hexagon laminations of the fan box [-1, 1], on
    seeded heptagons of the box [-2, 2] and on seeded 8- and 9-gons of the
    box [-1, 1]."""
    laminations = [pt(6, vec) for vec in itertools.product(range(-1, 2), repeat=3)]
    rng = random.Random(3636)
    for n_gon, count, box in ((7, 4, 2), (8, 3, 1), (9, 3, 1)):
        laminations += [pt(n_gon, [rng.randint(-box, box) for _ in range(n_gon - 3)])
                        for _ in range(count)]
    for lam in laminations:
        walked = _walked_positive(lam)
        pieces = _piece_chords(lam)
        verdicts = (_positive_piece(lam.n_gon, chords, start) for chords, start, _ in pieces)
        assert all(verdicts) == walked
        assert verify_positive_basis(lam) == walked


def test_verify_positive_basis_falls_back_to_the_full_walk(monkeypatch, cold_verdicts):
    """A piece that is not positive, or whose walk raises, hands the
    answer to the full walk of the whole function, False included; when
    every piece is positive, no walk runs on a warm cache."""
    lam = pt(7, (2, -1, 1, 0))
    assert verify_positive_basis(lam)
    walked = []
    real_walk = basis.x_chart_walk

    def counting_walk(f):
        walked.append(f)
        return real_walk(f)

    monkeypatch.setattr(basis, "x_chart_walk", counting_walk)
    assert verify_positive_basis(lam) and walked == []

    monkeypatch.setattr(basis, "_positive_piece", lambda n_gon, chords, start: False)
    assert verify_positive_basis(lam)
    assert walked == [basis_laurent(lam)]

    def negative_walk(f):
        yield (), {(0,) * len(f.vars): -1}

    monkeypatch.setattr(basis, "x_chart_walk", negative_walk)
    assert verify_positive_basis(lam) is False

    monkeypatch.undo()
    _positive_piece.cache_clear()
    calls = []

    def failing_piece_walk(f):
        calls.append(f)
        if len(calls) == 1:
            raise NotDivisible("not Laurent in some chart")
        return real_walk(f)

    monkeypatch.setattr(basis, "x_chart_walk", failing_piece_walk)
    unit = pt(7, (1, 0, 0, 0))
    assert len(_piece_chords(unit)) == 1
    # the piece walk runs on the representative of the unit's rotation
    # orbit, its least rotated weight tuple, which is not the unit itself
    representative = Lamination(WeightedGraph(7, min(_rotations(7, unit.graph.w))))
    assert representative != unit
    assert verify_positive_basis(unit)
    assert calls == [basis_laurent(representative), basis_laurent(unit)]


def _every_piece(n_gon):
    """Every piece ``_piece_chords`` can produce on an N-gon, as (chords,
    start) pairs: a single diagonal at odd N; at even N a diagonal with
    ends of opposite parity, a noncrossing even-even and odd-odd pair, or
    the alternating edge lamination of either sign.  Each is the one piece
    of its own lamination."""
    tables = _tables(n_gon)
    diags = [tables.pairs[k] for k in tables.diagonals]
    if n_gon % 2:
        keys = [((d,), 0) for d in diags]
    else:
        same = [d for d in diags if (d[1] - d[0]) % 2 == 0]
        keys = [((d,), 0) for d in diags if d not in same]
        keys += [
            ((e, o), 0)
            for e in same if e[0] % 2 == 0
            for o in same if o[0] % 2 and not crosses(Segment(*e), Segment(*o))
        ]
        keys += [((), 1), ((), -1)]
    for chords, start in keys:
        lam = Lamination(WeightedGraph(n_gon, _edge_cycle(n_gon, chords, start)))
        assert _piece_chords(lam) == ((chords, start, 1),)
    return keys


@pytest.mark.parametrize("n_gon, pieces, orbits", [
    (5, 5, 1), (6, 8, 4), (7, 14, 2), (8, 26, 9), (9, 27, 3),
])
def test_orbit_keyed_verdicts_match_each_pieces_own_walk(
    n_gon, pieces, orbits, monkeypatch, cold_verdicts
):
    """Every piece's cached verdict is its own full walk's, although a cold
    cache walks only one function per rotation orbit: the basis function
    of the orbit's least weight tuple.  The orbits are counted by
    relabeling the vertices, not by the library's rotation."""
    keys = _every_piece(n_gon)
    graphs = [WeightedGraph(n_gon, _edge_cycle(n_gon, c, s)) for c, s in keys]
    found = {frozenset(relabeled(g, r).w for r in range(n_gon)) for g in graphs}
    assert (len(keys), len(found)) == (pieces, orbits)
    walked = []
    real_walk = basis.x_chart_walk

    def counting_walk(f):
        walked.append(f)
        return real_walk(f)

    monkeypatch.setattr(basis, "x_chart_walk", counting_walk)
    verdicts = [_positive_piece(n_gon, c, s) for c, s in keys]
    representatives = [
        basis_laurent(Lamination(WeightedGraph(n_gon, min(orbit)))) for orbit in found
    ]
    assert len(walked) == orbits
    assert all(f in representatives for f in walked)
    assert all(f in walked for f in representatives)
    monkeypatch.undo()
    assert verdicts == [_walked_positive(Lamination(g)) for g in graphs]


def _chart_labels(rank):
    """The diagonal each direction labels in the chart of every word of
    ``mutation_words(rank)``, replayed by flips from the fan."""
    fan = fan_triangulation(rank + 3)
    charts = {(): (fan, tuple(fan.sorted_diagonals()))}
    for word in mutation_words(rank).values():
        if word:
            tri, labels = charts[word[:-1]]
            k = word[-1] - 1
            tri, new, _ = flip(tri, labels[k])
            charts[word] = (tri, labels[:k] + (new,) + labels[k + 1:])
    return {word: labels for word, (_, labels) in charts.items()}


@pytest.mark.parametrize("n_gon", range(5, 9))
def test_x_chart_walk_is_rotation_equivariant(n_gon):
    """Rotating the polygon by r carries the walk of a basis function onto
    the walk of the rotated lamination's, chart for chart: in the chart of
    the rotated diagonals the terms are the same once each direction is
    renamed to the one that labels the rotated diagonal.  Every rotation,
    on seeded fan laminations of the box [-2, 2]."""
    rank = n_gon - 3
    labels = _chart_labels(rank)
    words = {frozenset(chart): word for word, chart in labels.items()}
    rng = random.Random(4450 + n_gon)
    for _ in range(2):
        lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(rank)])
        charts = dict(x_chart_walk(basis_laurent(lam)))
        for r, w in enumerate(_rotations(n_gon, lam.graph.w)):
            rotated = dict(x_chart_walk(basis_laurent(Lamination(WeightedGraph(n_gon, w)))))
            assert len(rotated) == len(charts)
            for word, terms in charts.items():
                image = [
                    Segment(wrap_vertex(i + r, n_gon), wrap_vertex(j + r, n_gon))
                    for i, j in labels[word]
                ]
                target = words[frozenset(image)]
                # direction j there labels the image of direction source[j]'s
                # diagonal here
                source = [image.index(d) for d in labels[target]]
                renamed = {tuple(exps[k] for k in source): c for exps, c in terms.items()}
                assert rotated[target] == renamed, (r, word, target)


@pytest.mark.parametrize("n_gon", range(5, 9))
def test_x_chart_walk_is_reflection_equivariant(n_gon):
    """Reflecting the polygon, i -> N + 1 - i, reverses its orientation and
    so negates every exchange matrix: it carries the walk of a basis
    function onto the walk of the reflected lamination's with each X
    inverted.  In the chart of the reflected diagonals the terms are the
    same once each direction is renamed to the one that labels the
    reflected diagonal and every exponent is negated.  On seeded fan
    laminations of the box [-2, 2]."""
    rank = n_gon - 3
    labels = _chart_labels(rank)
    words = {frozenset(chart): word for word, chart in labels.items()}
    rng = random.Random(4470 + n_gon)
    for _ in range(4):
        lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(rank)])
        charts = dict(x_chart_walk(basis_laurent(lam)))
        mirrored = dict(x_chart_walk(basis_laurent(Lamination(reflected(lam.graph)))))
        assert len(mirrored) == len(charts)
        for word, terms in charts.items():
            image = [Segment(n_gon + 1 - i, n_gon + 1 - j) for i, j in labels[word]]
            target = words[frozenset(image)]
            # direction j there labels the image of direction source[j]'s
            # diagonal here
            source = [image.index(d) for d in labels[target]]
            renamed = {tuple(-exps[k] for k in source): c for exps, c in terms.items()}
            assert mirrored[target] == renamed, (word, target)


@pytest.mark.parametrize("n_gon", range(5, 9))
def test_basis_functions_are_pointed_in_every_chart(n_gon):
    """In every chart of the walk, the terms of a basis function have a
    componentwise least exponent, and its coefficient is 1: seeded fan
    laminations of the box [-2, 2].  A push that keeps every coefficient
    positive but gets one wrong can still break this."""
    rng = random.Random(4460 + n_gon)
    for _ in range(6):
        lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
        for word, terms in x_chart_walk(basis_laurent(lam)):
            least = tuple(map(min, zip(*terms)))
            assert terms.get(least) == 1, (word, least)


def _fan_box_laminations(n_gon, seed):
    """Six seeded fan laminations of the box [-2, 2]."""
    rng = random.Random(seed)
    return [pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(6)]


@pytest.mark.parametrize("n_gon", range(5, 9))
def test_least_exponents_mutate_by_the_min_plus_rule(n_gon):
    """Along every step (ki, rise, drop) of ``_walk_plan``, the least
    exponent g of a basis function's terms in the parent chart gives the
    child's: g'[ki] = -g[ki] + min(rise . g, drop . g), every other entry
    kept.  The tropical form of the mutation, checked against the walk's
    term dicts on seeded fan laminations of the box [-2, 2]; the rule is
    symmetric in rise and drop, but the walk that reads them is not, so a
    plan with the two swapped fails here."""
    plan = _walk_plan(n_gon - 3)
    for lam in _fan_box_laminations(n_gon, 4480 + n_gon):
        least = [tuple(map(min, zip(*terms))) for _, terms in x_chart_walk(basis_laurent(lam))]
        assert len(least) == len(plan)
        for slot, (word, parent, ki, rise, drop) in enumerate(plan[1:], 1):
            g = list(least[parent])
            g[ki] = -g[ki] + min(sum(c * g[i] for i, c in rise), sum(c * g[i] for i, c in drop))
            assert least[slot] == tuple(g), word


@pytest.mark.parametrize("n_gon", range(5, 9))
def test_least_exponents_are_minus_the_rotated_chart_coordinates(n_gon):
    """In every chart t, the least exponent of a basis function's terms at
    direction k is minus the lamination's coordinate at rho(d), half the
    cut mass ``_half_cuts`` gives there, where d is the diagonal that k
    labels in t (``polygon._flip_walk``'s labels) and rho moves each vertex
    i to i - 1: g_t(l) is minus l's coordinates in the chart rho(t).  On the
    min-plus rule's seeded fan laminations."""
    slot = _tables(n_gon).slot
    rotated = [
        [slot[Segment(wrap_vertex(i - 1, n_gon), wrap_vertex(j - 1, n_gon))] for i, j in labels]
        for labels, *_ in _flip_walk(n_gon)
    ]
    for lam in _fan_box_laminations(n_gon, 4480 + n_gon):
        half = _half_cuts(n_gon, lam.graph.w)
        charts = list(x_chart_walk(basis_laurent(lam)))
        assert len(charts) == len(rotated)
        for (word, terms), slots in zip(charts, rotated):
            least = tuple(map(min, zip(*terms)))
            assert least == tuple(-half[x] for x in slots), word


def test_rotations_commute_with_expansion_and_lattice_points():
    """Rotating a product's factors by r rotates, by r, its expansion,
    leaves and coefficients, and the lattice points of its Minkowski spec:
    every rotation through ``weighted_graphs._rotations``, on seeded 5- to
    9-gon products.  The rotated factors pass the validating constructors."""
    for points in _seeded_products(range(5, 10), 4470):
        n_gon = points[0].n_gon
        factors = [list(_rotations(n_gon, p.graph.w)) for p in points]
        leaves = [(list(_rotations(n_gon, lam.graph.w)), c) for lam, c in product_expand(points)]
        lattice = [list(_rotations(n_gon, lam.graph.w)) for lam in lattice_points(minkowski_spec(points))]
        for r in range(n_gon):
            rotated = [Lamination(WeightedGraph(n_gon, images[r])) for images in factors]
            expansion = product_expand(rotated)
            assert {lam.graph.w: c for lam, c in expansion} == {
                images[r]: c for images, c in leaves
            }
            assert len(expansion) == len(leaves)
            scanned = lattice_points(minkowski_spec(rotated))
            assert sorted(lam.graph.w for lam in scanned) == sorted(
                images[r] for images in lattice
            )


def test_reflection_commutes_with_expansion_and_lattice_points():
    """Reflecting a product's factors by i -> N + 1 - i reflects its
    expansion, leaves and coefficients, and the lattice points of its
    Minkowski spec, on seeded 5- to 9-gon products.  The reflected
    factors pass the validating constructors."""
    for points in _seeded_products(range(5, 10), 4480):
        mirrored = [Lamination(reflected(p.graph)) for p in points]
        expansion = product_expand(mirrored)
        leaves = product_expand(points)
        assert {lam.graph.w: c for lam, c in expansion} == {
            reflected(lam.graph).w: c for lam, c in leaves
        }
        assert len(expansion) == len(leaves)
        scanned = lattice_points(minkowski_spec(mirrored))
        assert sorted(lam.graph.w for lam in scanned) == sorted(
            reflected(lam.graph).w for lam in lattice_points(minkowski_spec(points))
        )


def test_verify_positive_basis_raises_what_the_basis_function_raises():
    """A 3-gon raises InvariantViolation and a rational lamination
    NonIntegral, with ``basis_laurent``'s types and messages; a zero
    lamination is positive."""
    triangle = Lamination.zero(3)
    half = UNITS[1] * Fraction(1, 2)
    for lam, error in ((triangle, InvariantViolation), (half, NonIntegral)):
        with pytest.raises(error) as expected:
            basis_laurent(lam)
        with pytest.raises(error) as got:
            verify_positive_basis(lam)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
    for n_gon in range(4, 10):
        assert verify_positive_basis(Lamination.zero(n_gon)) is True


def test_piece_verdicts_do_not_depend_on_the_call_history(cold_verdicts):
    """The verdicts over the hexagon fan box [-2, 2] are the same warm as
    after ``cache_clear()``, and all positive."""
    box = [pt(6, vec) for vec in itertools.product(range(-2, 3), repeat=3)]
    warm = [verify_positive_basis(lam) for lam in box]
    assert [verify_positive_basis(lam) for lam in box] == warm
    _positive_piece.cache_clear()
    assert [verify_positive_basis(lam) for lam in box] == warm == [True] * len(box)

def _seeded_basis_functions(n_gon, count, seed):
    rng = random.Random(seed)
    return [
        basis_laurent(pt(n_gon, tuple(rng.randint(-2, 2) for _ in range(n_gon - 3))))
        for _ in range(count)
    ]


def test_x_chart_walk_matches_per_word_replay():
    """Reaching each chart from its parent's chart gives the term dict that
    replaying the whole word from the chain seed gives, in mutation_words
    order."""
    functions = _seeded_basis_functions(6, 10, 6) + _seeded_basis_functions(7, 3, 7)
    for f in functions + _seeded_basis_functions(8, 2, 8):
        walked = list(x_chart_walk(f))
        assert [w for w, _ in walked] == list(mutation_words(len(f.vars)).values())
        for word, terms in walked:
            assert type(terms) is dict
            assert terms == expand_in_x_chart(f, word).terms


def test_every_walk_step_matches_rational_substitution():
    """Each chart of the walk is its parent chart with the parent's
    coordinates written as rational functions of the new ones and the
    denominator divided out: one check per ``_walk_plan`` step, none of it
    through ``_push``.  On every hexagon basis function of the fan box
    [-1, 1], six seeded heptagon ones from that box, and one heptagon
    function from the box [-2, 2] whose charts reach 242 terms."""
    rng = random.Random(7)
    laminations = [pt(6, vec) for vec in itertools.product(range(-1, 2), repeat=3)]
    laminations += [pt(7, [rng.randint(-1, 1) for _ in range(4)]) for _ in range(6)]
    functions = [*map(basis_laurent, laminations), _seeded_basis_functions(7, 2, 71)[0]]
    for f in functions:
        n = len(f.vars)
        seeds = [type_a_seed(n)]
        charts = [LaurentPolynomial(f.vars, terms) for _, terms in x_chart_walk(f)]
        for slot, (word, parent, *_) in enumerate(_walk_plan(n)[1:], 1):
            seed = seeds[parent]
            seeds.append(mutate_seed(seed, word[-1]))
            back = x_substitution(seeds[slot], word[-1])
            substituted = evaluate_at(charts[parent], [back[label] for label in seed.labels])
            assert substituted.as_laurent() == charts[slot]


def test_one_mutation_step_matches_rational_substitution():
    """Pushing f through the mutation at k equals substituting the old chart
    coordinates, written as rational functions of the new ones, into f."""
    functions = [basis_laurent(lam) for lam in UNITS.values()]
    functions += [basis_laurent(2 * UNITS[3] + UNITS[2])]
    functions += _seeded_basis_functions(6, 3, 60)
    for f in functions:
        chain = type_a_seed(len(f.vars))
        for seed, g in ((chain, f), (mutate_seed(chain, 2), expand_in_x_chart(f, (2,)))):
            for k in seed.labels:
                back = x_substitution(mutate_seed(seed, k), k)
                substituted = evaluate_at(g, [back[label] for label in seed.labels])
                assert substituted == expand_in_x_chart(g, (k,), seed)
