"""Deterministic exact-number JSON round-trips for every data kind."""

import json
import random
from fractions import Fraction

import pytest

from chart_oracle import atlas_seed
from fault_docs import GRAPH_FAULTS, SPEC_FAULTS, spec_c
from graphs import graph_from_weights
from reader_oracle import reference_graph_from_json, reference_lamination_from_json
from tropclust.atlas import mutate_seed, type_a_seed
from tropclust.basis import Expansion, product_expand
from tropclust.errors import (
    InputFormatError,
    InvalidVertex,
    InvariantViolation,
    NotALamination,
    TropclustError,
)
from tropclust.jsonio import (
    FORMAT,
    MAX_N_GON,
    _graph_from_json,
    _n_gon_field,
    _reject_float,
    coords_to_json,
    dumps,
    expansion_from_json,
    expansion_to_json,
    graph_to_json,
    lamination_from_json,
    lamination_to_json,
    load_path,
    number_from_json,
    number_to_json,
    points_from_json,
    laminations_text,
    points_to_json,
    seed_from_json,
    seed_to_json,
    spec_from_json,
    spec_to_json,
)
from tropclust.laminations import Lamination, TropicalCoords, lamination_from_coords
from tropclust.polygon import Segment, diagonals, fan_triangulation, triangulations
from tropclust.polytopes import StasheffSpec, lattice_points, minkowski_spec, vertex
from tropclust.weighted_graphs import _tables


def pt(n_gon, vec):
    fan = fan_triangulation(n_gon)
    return lamination_from_coords(
        TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), vec)))
    )


def test_number_codec():
    assert number_to_json(5) == 5
    assert number_to_json(Fraction(4, 2)) == 2
    assert number_to_json(Fraction(-3, 4)) == "-3/4"
    assert number_from_json("-3/4") == Fraction(-3, 4)
    assert number_from_json("6/3") == 2
    assert isinstance(number_from_json("6/3"), int)
    for bad in (
        1.5, True, "3/0", "1/-2", "x", "--1", None, [1],
        "3\n", "1/2\n", "\u0663",  # trailing newlines; an Arabic-Indic digit
    ):
        with pytest.raises(InputFormatError):
            number_from_json(bad)
    with pytest.raises(InputFormatError):
        number_to_json(1.5)
    with pytest.raises(InputFormatError):
        number_to_json(True)


def test_graph_roundtrip():
    g = graph_from_weights(
        5, {Segment(1, 3): 2, Segment(1, 2): Fraction(-1, 2)}
    )
    doc = graph_to_json(g)
    assert doc["format"] == FORMAT
    assert _graph_from_json(doc)[0] == g


def test_graph_rejects_duplicates_and_junk():
    base = {"format": FORMAT, "n_gon": 5}
    with pytest.raises(InputFormatError):
        lamination_from_json({**base, "weights": [[1, 3, 1], [3, 1, 2]]})
    with pytest.raises(InputFormatError):
        lamination_from_json({**base, "weights": [[1, 3]]})
    with pytest.raises(InputFormatError):
        lamination_from_json({**base, "weights": "nope"})
    with pytest.raises(InputFormatError):
        lamination_from_json({"n_gon": 5, "weights": []})  # missing format
    with pytest.raises(InputFormatError):
        lamination_from_json({"format": 2, "n_gon": 5, "weights": []})
    with pytest.raises(InputFormatError):
        lamination_from_json([1, 2, 3])


def test_format_must_be_the_integer_one():
    """``True == 1`` in Python, so a ``"format": true`` document must be
    refused by type, in every kind of document."""
    spec = spec_to_json(minkowski_spec([pt(5, (1, -1))]))
    lam = lamination_to_json(pt(5, (1, -1)))
    seed = seed_to_json(type_a_seed(2))
    for read, doc in (
        (lamination_from_json, lam),
        (spec_from_json, spec),
        (points_from_json, {"format": FORMAT, "points": [lam]}),
        (expansion_from_json, {"format": FORMAT, "terms": [{"lamination": lam, "coeff": 1}]}),
        (seed_from_json, seed),
    ):
        read(doc)
        for bad in (True, "1", 2):
            with pytest.raises(InputFormatError, match="missing or unsupported format"):
                read({**doc, "format": bad})
    with pytest.raises(InputFormatError, match="missing or unsupported format"):
        points_from_json({"format": FORMAT, "points": [{**lam, "format": True}]})


def test_polygon_size_is_bounded_before_any_table_is_built():
    """A document naming a polygon of more than ``MAX_N_GON`` vertices is
    an input error, raised before ``_tables`` builds anything for it."""
    before = _tables.cache_info().misses
    for n_gon in (MAX_N_GON + 1, 10**6, 10**100):
        with pytest.raises(InputFormatError, match=f"'n_gon' must be at most {MAX_N_GON}"):
            lamination_from_json({"format": FORMAT, "n_gon": n_gon, "weights": []})
        with pytest.raises(InputFormatError, match=f"'n_gon' must be at most {MAX_N_GON}"):
            spec_from_json({"format": FORMAT, "n_gon": n_gon, "c": []})
    assert _tables.cache_info().misses == before
    assert _n_gon_field({"n_gon": MAX_N_GON}, "graph") == MAX_N_GON


def test_graph_duplicate_entry_message():
    """The message names the repeated segment, in either vertex order."""
    doc = {"format": FORMAT, "n_gon": 6, "weights": [[2, 5, 1], [1, 3, 1], [5, 2, 2]]}
    with pytest.raises(InputFormatError) as info:
        lamination_from_json(doc)
    assert str(info.value) == "graph: duplicate weight entry for Segment(i=2, j=5)"


# Faults a one-pass reader can get wrong, kept out of ``GRAPH_FAULTS`` and
# so out of the CLI corpus: a repeat of a zero weight, written as 0 or as
# a fraction that normalizes to 0; a fraction that normalizes to an int,
# which counts as integral; a repeat after a label off the polygon.
ONE_PASS_FAULTS = [
    (5, [[1, 3, 0], [3, 1, 0]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=1, j=3)"),
    (6, [[2, 5, "0/3"], [5, 2, 1]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=2, j=5)"),
    (6, [[2, 5, "2/2"]], NotALamination, "vertex 2 has nonzero total weight"),
    (5, [[1, 9, 1], [1, 3, 1], [3, 1, 1]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=1, j=3)"),
]


@pytest.mark.parametrize("n_gon, weights, error, message", GRAPH_FAULTS + ONE_PASS_FAULTS)
def test_graph_faults_keep_their_order(n_gon, weights, error, message):
    """Each fault of a graph or lamination document raises its own error,
    and of several faults the first in this order: the entries' own faults
    in entry order (shape, labels, equal labels, duplicates, number), then
    a polygon under three vertices, a label off the polygon, a negative
    diagonal weight; then, read as a lamination, a fractional weight under
    the "int" domain, two crossing diagonals, a vertex of nonzero mass.
    The lamination's graph reader raises the same graph faults and accepts
    a document with only lamination faults."""
    doc = {"format": FORMAT, "n_gon": n_gon, "weights": weights}
    with pytest.raises(error) as info:
        lamination_from_json(doc)
    assert type(info.value) is error and str(info.value) == message
    if error is NotALamination:
        assert _graph_from_json(doc)[0].n_gon == n_gon
        return
    with pytest.raises(error) as info:
        _graph_from_json(doc)
    assert type(info.value) is error and str(info.value) == message


def _mutated(n_gon, rng):
    """A lamination document on an N-gon from a seeded fan point, halved
    or not, under a seed-chosen domain tag or none, with one entry-level
    fault or near-fault: an entry dropped or repeated (either vertex
    order), a weight set to 0 or "0/3", written as "2k/2", or given as a
    float or a bool, a label 0, N + 1 or equal to the other, a negative
    diagonal, or a crossing pair of diagonals."""
    lam = pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)])
    if rng.random() < 0.25:
        lam = lam * Fraction(1, 2)
    doc = lamination_to_json(lam)
    tag = rng.choice([lam.domain, "int", "rat", None])
    if tag is None:
        del doc["domain"]
    else:
        doc["domain"] = tag
    entries = doc["weights"]
    chords = [(d.i, d.j) for d in diagonals(n_gon)]
    kind = rng.randrange(13)
    if not entries and kind < 11:  # the zero lamination: an entry to mutate
        entries.append([1, 2, rng.randint(-1, 1)])
    at = rng.randrange(len(entries)) if entries else 0
    if kind == 0:
        del entries[at]
    elif kind in (1, 2):
        i, j, x = entries[at]
        entries.insert(rng.randrange(len(entries) + 1),
                       [i, j, x] if kind == 1 else [j, i, rng.choice([x, 0, 1])])
    elif kind in (3, 4):
        entries[at][2] = 0 if kind == 3 else "0/3"
    elif kind == 5:
        x = Fraction(number_from_json(entries[at][2]))
        entries[at][2] = f"{2 * x.numerator}/{2 * x.denominator}"
    elif kind == 6:
        entries[at][2] = float(number_from_json(entries[at][2]))
    elif kind == 7:
        entries[at][2] = rng.choice([True, False])
    elif kind in (8, 9, 10):
        side = rng.randrange(2)
        entries[at][side] = (0, n_gon + 1, entries[at][1 - side])[kind - 8]
    elif kind == 11 and chords:
        i, j = rng.choice(chords)
        entries.append([i, j, -rng.randint(1, 2)])
    elif kind == 12:
        crossing = [(p, q) for p in chords for q in chords if p[0] < q[0] < p[1] < q[1]]
        if crossing:
            for i, j in rng.choice(crossing):
                entries.append([j, i, rng.randint(1, 2)])
    rng.shuffle(entries)
    return doc


def _outcome(read, doc):
    """What ``read`` makes of ``doc``: the value with its domain and each
    weight's type, or the error's type and message."""
    try:
        got = read(doc)
    except TropclustError as exc:
        return type(exc), str(exc)
    graph = getattr(got, "graph", got)
    return got, getattr(got, "domain", None), tuple(map(type, graph.w))


def test_one_pass_reader_matches_the_reference_reader():
    """On 3,500 seeded documents at N = 3..9, each a valid lamination
    document mutated once (``_mutated``), the lamination and graph readers
    give what the reference reader (``reader_oracle``) gives: an equal
    value with the same domain and weight types, or the same error type
    and message."""
    rng = random.Random(5300)
    faults = set()
    for n_gon in range(3, 10):
        for _ in range(500):
            doc = _mutated(n_gon, rng)
            want = _outcome(reference_lamination_from_json, doc)
            assert _outcome(lamination_from_json, doc) == want, doc
            graph = _outcome(lambda d: _graph_from_json(d)[0], doc)
            assert graph == _outcome(reference_graph_from_json, doc)
            faults.add(want[0] if isinstance(want[0], type) else None)
    assert faults == {None, InputFormatError, InvalidVertex, InvariantViolation, NotALamination}


@pytest.mark.parametrize("n_gon, c, error, message", SPEC_FAULTS)
def test_spec_faults_keep_their_order(n_gon, c, error, message):
    """Each fault of a spec document raises its own error, and of several
    faults the first in this order: the entries' own faults in entry order
    (shape, labels, equal labels, number), then a polygon under three
    vertices, then an edge, a label off the polygon, a repeated or a
    missing diagonal."""
    with pytest.raises(error) as info:
        spec_from_json({"format": FORMAT, "n_gon": n_gon, "c": c})
    assert type(info.value) is error and str(info.value) == message


def test_spec_entries_read_in_either_order():
    """A bound entry names its diagonal either way round, and a number
    string reads as its normal form, in the spec the constructor gives."""
    c = spec_c(6)
    c[2] = [c[2][1], c[2][0], "-4/2"]
    c[5][2] = "3/6"
    got = spec_from_json({"format": FORMAT, "n_gon": 6, "c": c[::-1]})
    bounds = {Segment(i, j): number_from_json(x) for i, j, x in c}
    assert got == StasheffSpec.of(6, bounds) and got.c == StasheffSpec.of(6, bounds).c
    assert [type(x) for _, x in got.c] == [int] * 5 + [Fraction] + [int] * 3
    assert spec_from_json({"format": FORMAT, "n_gon": 3, "c": []}) == StasheffSpec(3, ())


def test_lamination_roundtrip():
    lam = pt(6, (1, -2, 0))
    doc = lamination_to_json(lam)
    assert doc["domain"] == "int"
    assert lamination_from_json(doc) == lam
    with pytest.raises(InputFormatError):
        lamination_from_json({**doc, "domain": "real"})


def test_points_roundtrip():
    points = [pt(5, (1, 0)), pt(5, (0, -1)), Lamination.zero(5)]
    assert points_from_json(points_to_json(points)) == points
    with pytest.raises(InputFormatError):
        points_from_json({"format": FORMAT, "points": 3})


def test_coords_roundtrip():
    fan = fan_triangulation(6)
    coords = TropicalCoords.of(
        fan, dict(zip(fan.sorted_diagonals(), (1, Fraction(1, 2), -3)))
    )
    assert coords_to_json(coords) == {
        "format": FORMAT,
        "n_gon": 6,
        "chart": [[1, 3], [1, 4], [1, 5]],
        "values": [[1, 3, 1], [1, 4, "1/2"], [1, 5, -3]],
    }


def test_spec_roundtrip():
    spec = StasheffSpec.of(5, {d: i for i, d in enumerate(diagonals(5))})
    assert spec_from_json(spec_to_json(spec)) == spec


def test_expansion_roundtrip():
    exp = product_expand([pt(5, (-1, 0)), pt(5, (1, 1))])
    assert expansion_from_json(expansion_to_json(exp)) == exp


def test_seed_roundtrip():
    for seed in (type_a_seed(3), atlas_seed(fan_triangulation(6))):
        assert seed_from_json(seed_to_json(seed)) == seed


def test_dumps_is_byte_deterministic():
    exp = product_expand([pt(5, (-1, 0)), pt(5, (1, 1))])
    doc = expansion_to_json(exp)
    text = dumps(doc)
    assert text == dumps(expansion_to_json(exp))
    assert text.endswith("\n")
    assert '"format": 1' in text
    # keys are sorted
    lines = [l.strip() for l in text.splitlines()]
    assert lines[1].startswith('"format"')


def _documents(n_gon, rng):
    """One document of every kind the command line writes, from seeded
    laminations on an N-gon: points (integral and halved), the Minkowski
    spec, an expansion, vertex coordinates and seeds."""
    box = 2 if n_gon < 8 else 1
    points = [
        pt(n_gon, tuple(rng.randint(-box, box) for _ in range(n_gon - 3)))
        for _ in range(2)
    ]
    halves = [p * Fraction(1, 2) for p in points]
    spec = minkowski_spec(points + halves)
    charts = rng.sample(triangulations(n_gon), 4)
    fan = fan_triangulation(n_gon)
    seed = atlas_seed(fan)
    return [
        points_to_json(points + halves),
        spec_to_json(spec),
        expansion_to_json(product_expand(points)),
        {"format": FORMAT, "vertices": [coords_to_json(vertex(spec, t)) for t in charts]},
        seed_to_json(seed),
        seed_to_json(mutate_seed(seed, seed.labels[0])),
        seed_to_json(type_a_seed(n_gon - 3)),
    ]


@pytest.mark.parametrize("n_gon", [5, 6, 7, 8, 9])
def test_dumps_matches_the_standard_encoder(n_gon):
    """The writer gives the standard encoder's bytes (two-space indent,
    sorted keys, one final newline) on every kind of output document."""
    for doc in _documents(n_gon, random.Random(500 + n_gon)):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_the_standard_encoder_on_edge_cases():
    docs = [
        {}, [], {"a": []}, {"a": {}}, [[]], [{}], [[], {}, [[{}]]],
        {"b": [1, -2, 0], "a": {"z": [], "y": "-3/4"}, "": -10**30},
        ["caf\u00e9", "\u2603", "\U0001f600", "\x00\x1f\x7f", 'quote " slash \\ /', "\n\t\r"],
        {"\u00e9": 1, "\x01": [2], "a\"b": "c\\d", "\U0001f600": {"": ""}},
        [-1, 0, 10**40, "1/2", "-7/3", [-5, ["x", [[]]]]],
    ]
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_rejects_ints_past_the_digit_limit():
    with pytest.raises(InputFormatError, match="^cannot write output: "):
        dumps({"format": FORMAT, "values": [1, [10**5000]]})


def points_text(n_gon, points) -> str:
    """The direct writer over a list of integral laminations."""
    return laminations_text(n_gon, [lam.graph.w for lam in points])


def expansion_text(n_gon, expansion) -> str:
    """The direct writer over an expansion's terms."""
    return laminations_text(
        n_gon, [lam.graph.w for lam, _ in expansion], [coeff for _, coeff in expansion]
    )


@pytest.mark.parametrize("n_gon", range(5, 13))
def test_direct_writers_match_the_reference_route(n_gon):
    """``laminations_text`` gives the bytes of ``dumps``
    over ``points_to_json`` and ``expansion_to_json``: on a seeded
    product's support, its triples, no points, the zero lamination, and
    the product's expansion."""
    rng = random.Random(700 + n_gon)
    points = [
        pt(n_gon, tuple(rng.randint(-2, 2) for _ in range(n_gon - 3)))
        for _ in range(3 if n_gon < 12 else 2)
    ]
    expansion = product_expand(points)
    support = expansion.support()
    for ps in (support, [p * 3 for p in support], [], [Lamination.zero(n_gon)]):
        assert points_text(n_gon, ps) == dumps(points_to_json(ps))
    assert expansion_text(n_gon, expansion) == dumps(expansion_to_json(expansion))


def test_direct_expansion_writer_with_multiplicities():
    # (2 u_1)(2 u_3) on the pentagon: coefficients up to 2, and the zero
    # lamination among the terms
    expansion = product_expand([pt(5, (-1, 0)) * 2, pt(5, (1, 1)) * 2])
    assert max(c for _, c in expansion) > 1
    assert any(not any(lam.graph.w) for lam in expansion.support())
    assert expansion_text(5, expansion) == dumps(expansion_to_json(expansion))


def test_direct_writers_map_overlong_numbers_as_the_reference():
    """An int past the digit limit, a weight or a coefficient, is a write
    error of the output with the reference route's message, also where it
    lands in slots whose entry tables already hold short weights."""
    nines = 10**4300 - 1
    long_int = pt(5, (nines, nines)) * 2
    short = pt(5, (1, 0))
    # pt(5, (k, k)) loads the slots of long_int for every k > 0
    same_slots = [pt(5, (1, 1)), pt(5, (2, 2))]
    for points in ([short, long_int], [*same_slots, long_int], [*same_slots, long_int, short]):
        with pytest.raises(InputFormatError, match="^cannot write output: ") as reference:
            dumps(points_to_json(points))
        with pytest.raises(InputFormatError, match="^cannot write output: ") as direct:
            points_text(5, points)
        assert str(direct.value) == str(reference.value)
    assert {k for k, x in enumerate(long_int.graph.w) if x} == {
        k for k, x in enumerate(same_slots[0].graph.w) if x
    }
    for terms in (
        ((long_int, 1),),
        ((short, 10**5000),),
        ((short, 2), (long_int, 10**5000)),
    ):
        expansion = Expansion(terms)
        with pytest.raises(InputFormatError, match="^cannot write output: ") as reference:
            dumps(expansion_to_json(expansion))
        with pytest.raises(InputFormatError, match="^cannot write output: ") as direct:
            expansion_text(5, expansion)
        assert str(direct.value) == str(reference.value)


def test_load_path(tmp_path):
    target = tmp_path / "doc.json"
    lam = pt(5, (2, 2))
    target.write_text(dumps(lamination_to_json(lam)), encoding="utf-8")
    assert lamination_from_json(load_path(str(target))) == lam


def test_load_path_rejects_floats_and_junk(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "n_gon": 5, "weights": [[1, 3, 0.5]]}')
    with pytest.raises(InputFormatError):
        load_path(str(bad))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(InputFormatError):
        load_path(str(broken))
    with pytest.raises(InputFormatError):
        load_path(str(tmp_path / "missing.json"))


def _text_mode_load(path):
    """The reference reader: a text-mode UTF-8 read and ``json.load``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        return f"invalid JSON: {exc}"


@pytest.mark.parametrize("raw", [
    b'{"format": 1, "points": []}',
    b'\xef\xbb\xbf{"format": 1, "points": []}',
    b'{\r\n  "format": 1,\r\n  "points": [}\r\n',
    b'{"format": 1,\r"points":\r\r[1,]}',
    b'{"format": 1,\r\n"points": [1, 2]\r}',
    b'{"format": 1,\r\n"points": "a\rb"}',
    b'{"format": 1, "points": "a\\r\\nb"}',
    b'["\xc3\xa9", "\xe2\x82\xac", 1]\n',
    b'{"format": 1, "points": "\xff\xfe"}',
    b"\r\n\r\n",
    b"",
    b"[" * 100 + b"]" * 100,
])
def test_load_path_reads_bytes_as_the_text_mode_reader(tmp_path, raw):
    """Decoded once from bytes, a document reads as a text-mode read with
    ``json.load`` reads it: the same value, or the same message, with its
    line and char offsets, for a BOM, CRLF and lone CR newlines, a CR in
    a string, bad UTF-8 and an empty file."""
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    want = _text_mode_load(str(path))
    if isinstance(want, str):
        with pytest.raises(InputFormatError) as got:
            load_path(str(path))
        assert str(got.value) == want.replace("invalid JSON:", f"invalid JSON in {path}:")
    else:
        assert load_path(str(path)) == want


def test_load_path_refuses_a_directory_as_the_text_mode_reader(tmp_path):
    with pytest.raises(OSError) as want:
        open(str(tmp_path), "r", encoding="utf-8")
    with pytest.raises(InputFormatError) as got:
        load_path(str(tmp_path))
    assert str(got.value) == f"cannot read {tmp_path}: {want.value}"


def _sample(n_gon, k, seed):
    rng = random.Random(seed)
    return [pt(n_gon, [rng.randint(-2, 2) for _ in range(n_gon - 3)]) for _ in range(k)]


def test_direct_writers_match_the_reference_where_weights_repeat():
    """Where most weights repeat, so that every entry table is read far
    more often than it grows, the direct writers still give the reference
    bytes: on the 2,950 lattice points of a 10-gon product's Minkowski
    spec, on the 764 of a 3x dilate of a hexagon one, and on the 61-term
    expansion of a pentagon pair at multiplicity 60."""
    for n_gon, k, scale, count in ((10, 4, 1, 2950), (6, 3, 3, 764)):
        spec = minkowski_spec(_sample(n_gon, k, 10))
        spec = StasheffSpec.of(n_gon, {d: scale * c for d, c in spec.c})
        points = lattice_points(spec)
        assert len(points) == count
        assert points_text(n_gon, points) == dumps(points_to_json(points))
    expansion = product_expand([pt(5, (-1, 0)) * 60, pt(5, (1, 1)) * 60])
    assert len(expansion) == 61
    assert expansion_text(5, expansion) == dumps(expansion_to_json(expansion))


def test_direct_writers_on_a_document_of_several_polygons():
    """Entry heads are kept per polygon size and depth; documents of
    several sizes written one after another, with an expansion written
    between, keep the bytes."""
    expansion = product_expand([pt(6, (1, 0, -2)), pt(6, (-1, 2, 0))])
    for n_gon, points in (
        (5, [pt(5, (1, -1)), pt(5, (0, 2))]),
        (7, [pt(7, (0, 2, -1, 1))]),
        (6, [pt(6, (1, 0, -2)), pt(6, (-1, 2, 0))]),
    ):
        assert points_text(n_gon, points) == dumps(points_to_json(points))
        assert expansion_text(6, expansion) == dumps(expansion_to_json(expansion))
