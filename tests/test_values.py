"""The eight value types behave as frozen records: a fixed repr, equality
and hashing by their compared fields, construction by position or by
keyword, no assignment or deletion, and a pickle or copy round trip.
``LaurentPolynomial`` hashes its dict of terms as a frozenset of items."""

import copy
import pickle
from fractions import Fraction

import pytest

from tropclust.atlas import Seed
from tropclust.basis import Expansion, basis_laurent
from tropclust.errors import InvariantViolation, SizeMismatch
from tropclust.laminations import Lamination, TropicalCoords, lamination_from_coords
from tropclust.laurent import LaurentPolynomial
from tropclust.polygon import Segment, Triangulation
from tropclust.polytopes import StasheffSpec
from tropclust.weighted_graphs import WeightedGraph

# The lamination of the pentagon diagonal {1,3}: weights in the order of
# pairs(5), (1,2), (1,3), (1,4), (1,5), (2,3), ..., (4,5), the edges
# chosen so that every vertex has mass zero.
W13 = (0, 1, 0, -1, 0, 0, 0, -1, 0, 1)
FAN = frozenset({Segment(1, 3), Segment(1, 4)})
GRAPH = WeightedGraph(5, W13)
LAM = Lamination(GRAPH)
VALUES = ((Segment(1, 3), 1), (Segment(1, 4), Fraction(1, 2)))
BOUNDS = tuple((Segment(i, j), k) for k, (i, j) in enumerate(((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))))
EPS = ((0, -1), (1, 0))
# 1 + X1 + X1*X2
TERMS = {(0, 0): 1, (1, 0): 1, (1, 1): 1}

GRAPH_REPR = "WeightedGraph(n_gon=5, w=(0, 1, 0, -1, 0, 0, 0, -1, 0, 1))"
FAN_REPR = "Triangulation(n_gon=5, diagonals=frozenset({Segment(i=1, j=3), Segment(i=1, j=4)}))"
LAM_REPR = f"Lamination(graph={GRAPH_REPR}, domain='int')"

# name -> (class, its constructor's and compared fields in order,
#          positional arguments, pinned repr)
CASES = {
    "Triangulation": (Triangulation, ("n_gon", "diagonals"), (5, FAN), FAN_REPR),
    "WeightedGraph": (WeightedGraph, ("n_gon", "w"), (5, W13), GRAPH_REPR),
    "Lamination": (Lamination, ("graph",), (GRAPH,), LAM_REPR),
    "TropicalCoords": (
        TropicalCoords,
        ("chart", "values"),
        (Triangulation(5, FAN), VALUES),
        f"TropicalCoords(chart={FAN_REPR}, values=((Segment(i=1, j=3), 1), "
        "(Segment(i=1, j=4), Fraction(1, 2))))",
    ),
    "StasheffSpec": (
        StasheffSpec,
        ("n_gon", "c"),
        (5, BOUNDS),
        "StasheffSpec(n_gon=5, c=((Segment(i=1, j=3), 0), (Segment(i=1, j=4), 1), "
        "(Segment(i=2, j=4), 2), (Segment(i=2, j=5), 3), (Segment(i=3, j=5), 4)))",
    ),
    "Expansion": (Expansion, ("terms",), (((LAM, 2),),), f"Expansion(terms=(({LAM_REPR}, 2),))"),
    "Seed": (
        Seed,
        ("labels", "frozen", "eps", "d"),
        ((1, 2), frozenset({2}), EPS, (1, 1)),
        "Seed(labels=(1, 2), frozen=frozenset({2}), eps=((0, -1), (1, 0)), d=(1, 1))",
    ),
    "LaurentPolynomial": (
        LaurentPolynomial,
        ("vars", "terms"),
        (("X1", "X2"), TERMS),
        "LaurentPolynomial(vars=('X1', 'X2'), terms={(0, 0): 1, (1, 0): 1, (1, 1): 1})",
    ),
}


CLONES = pytest.mark.parametrize("clone", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])


def hash_key(value, fields) -> tuple:
    """The tuple a value hashes as: its compared fields, a polynomial's
    dict of terms as the frozenset of its items."""
    key = tuple(getattr(value, f) for f in fields)
    if isinstance(value, LaurentPolynomial):
        return key[0], frozenset(key[1].items())
    return key


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, fields, args, text = CASES[request.param]
    return cls, fields, cls(*args), text


def test_repr_is_pinned(case):
    _cls, _fields, value, text = case
    assert repr(value) == text


def test_keyword_construction_equals_positional(case):
    cls, fields, value, _text = case
    by_keyword = cls(**{f: getattr(value, f) for f in fields})
    assert by_keyword == value and hash(by_keyword) == hash(value)
    assert repr(by_keyword) == repr(value)


def test_equality_and_hash_follow_the_compared_fields(case):
    _cls, fields, value, _text = case
    assert hash(value) == hash(hash_key(value, fields))
    assert value != tuple(getattr(value, f) for f in fields)
    assert len({value, copy.copy(value)}) == 1


def test_values_refuse_assignment_and_deletion(case):
    _cls, fields, value, _text = case
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(getattr(value, f) is not None for f in fields)


@CLONES
def test_values_survive_pickle_and_copy(case, clone):
    _cls, _fields, value, text = case
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == text


@CLONES
def test_basis_functions_survive_pickle_and_copy(clone):
    fan = Triangulation(5, FAN)
    lam = lamination_from_coords(TropicalCoords(fan, ((Segment(1, 3), 2), (Segment(1, 4), -1))))
    f = basis_laurent(lam)
    twin = clone(f)
    assert type(twin) is LaurentPolynomial and len(twin.terms) == 9
    assert twin == f and hash(twin) == hash(f) and twin.terms is not f.terms


def test_trusted_takes_one_value_per_slot(case):
    """``Value._trusted`` takes each shown slot's value, derived fields
    included, in ``__slots__`` order, and refuses one too many or one too
    few with ``InvariantViolation``, not a record with an unset slot."""
    cls, _fields, value, _text = case
    slots = tuple(getattr(value, name) for name in cls._shown)
    assert cls._trusted(*slots) == value
    for bad in (slots + (None,), slots[:-1]):
        wanted = rf"^{cls.__name__}\._trusted takes {len(slots)} values, got {len(bad)}$"
        with pytest.raises(InvariantViolation, match=wanted):
            cls._trusted(*bad)


def test_lamination_domain_is_not_compared():
    """``domain`` follows from the weights, so it takes no part in ``==``
    or ``hash`` even when a caller passes one that disagrees."""
    tagged = Lamination._trusted(GRAPH, "rat")
    assert tagged.domain == "rat" and LAM.domain == "int"
    assert tagged == LAM and hash(tagged) == hash(LAM) == hash((GRAPH,))
    with pytest.raises(TypeError):
        Lamination(GRAPH, "int")
    with pytest.raises(TypeError):
        Lamination(graph=GRAPH, domain="int")


def test_a_copied_expansion_still_reads_its_coefficients():
    expansion = Expansion(((LAM, 2),))
    assert expansion.coefficient(LAM) == 2
    for twin in (pickle.loads(pickle.dumps(expansion)), copy.deepcopy(expansion)):
        assert twin.coefficient(LAM) == 2 and twin.coefficient(Lamination.zero(5)) == 0


def test_constructors_reject_missing_and_unknown_arguments():
    with pytest.raises(TypeError):
        WeightedGraph(5)
    with pytest.raises(TypeError):
        WeightedGraph(5, W13, 0)
    with pytest.raises(TypeError):
        WeightedGraph(5, weights=W13)
    with pytest.raises(TypeError):
        WeightedGraph(5, W13, n_gon=5)


@pytest.mark.parametrize("build, error", [
    # a repeated diagonal whose two values do not compare
    (lambda: StasheffSpec(5, [((1, 3), 1), ((1, 3), "x"), ((1, 4), 1), ((2, 4), 1), ((2, 5), 1)]),
     SizeMismatch),
    (lambda: TropicalCoords(Triangulation(5, FAN), [((1, 3), 1), ((1, 3), "x")]), SizeMismatch),
    # a field of the wrong kind
    (lambda: Triangulation(5, {(1, 3), (1, 4)}), InvariantViolation),
    (lambda: Lamination(5), InvariantViolation),
    (lambda: TropicalCoords(5, []), InvariantViolation),
    # a collection field that is not iterable
    (lambda: Triangulation(5, 5), InvariantViolation),
    (lambda: WeightedGraph(5, 5), InvariantViolation),
    (lambda: StasheffSpec(5, 5), InvariantViolation),
    (lambda: Expansion(5), InvariantViolation),
    # an entry or a segment that is not a pair
    (lambda: StasheffSpec(5, [(1, 2)]), InvariantViolation),
    (lambda: StasheffSpec(5, [((1, 3, 4), 1)]), InvariantViolation),
    (lambda: TropicalCoords(Triangulation(5, FAN), [((1, 3),)]), InvariantViolation),
    (lambda: Expansion([(1, 2, 3)]), InvariantViolation),
], ids=["spec-repeat", "coords-repeat", "chart-pairs", "lamination-int", "coords-int",
        "chart-int", "graph-int", "spec-int", "expansion-int",
        "spec-bare-entry", "spec-triple-segment", "coords-single", "expansion-triple"])
def test_constructors_refuse_ill_formed_fields_with_library_errors(build, error):
    """A repeated diagonal is a mismatch whatever its values, a field
    that is not of its value type is refused before any of its methods is
    read, and a collection that is not iterable or an entry that is not a
    pair is refused before it is unpacked: a library error each time,
    never a bare ``TypeError``, ``ValueError`` or ``AttributeError``."""
    with pytest.raises(error):
        build()
