"""Exact JSON encoding for the documents the command line reads and writes.

All documents carry a top-level ``"format": 1`` (an integer, not ``true``),
and a document names a polygon of at most ``MAX_N_GON`` = 40 vertices,
checked before any table of it is built.  Numbers are JSON integers
or fraction strings like ``"-3/4"``; floats are rejected outright, since
nothing in this package is approximate.  Serialization is deterministic:
entries are emitted sorted, so equal objects produce identical bytes.

``dumps`` is the standard encoder with a two-space indent, sorted keys and
a final newline.  It writes the small documents: a Minkowski spec, vertex
coordinates, a seed.

Point and expansion documents, which the command line writes by the
thousand laminations, all integral and on one polygon, are written by
``laminations_text`` straight from weight tuples, with no ``Lamination``
and no dict tree in between: each vertex pair keeps, for one call, a table
from a weight to its entry text, made on the weight's first use, so a
lamination is one join of table lookups.  ``dumps`` over
``points_to_json`` and ``expansion_to_json`` is the reference it equals
byte for byte, and an int past the interpreter's digit limit raises the
reference's error.

``load_path`` reads a file as bytes, decodes it from UTF-8 once, with the
newline translation of a text-mode read and the BOM refusal of
``json.loads``, and parses it with one module-level decoder, which keeps no
state between calls.  Documents are decoded in one pass: each entry goes
straight to its slot through the per-N tables, and each check runs once,
with the messages and in the order of the validating constructors, which
are not run again.  A lamination's domain follows from its weights, so
``lamination_from_json`` is the only code that reads a document's
``"domain"`` tag: a ``"rat"`` document whose weights are all integers reads
as integral, and an ``"int"`` document with a fractional weight is refused
before the lamination is built.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .atlas import Seed
from .basis import Expansion
from .errors import InputFormatError, NotALamination, SizeMismatch
from .laminations import Lamination, TropicalCoords, _check_curves, _domain
from .polygon import Segment, check_polygon
from .polytopes import _MISMATCH, StasheffSpec
from .values import _is_int, _is_number, _normalize
from .weighted_graphs import WeightedGraph, _check_diagonals, _tables

FORMAT = 1

# The largest polygon a document may name.  A cold
# ``weighted_graphs._tables(40)`` takes about 0.06 s and 6 MB traced
# (Python 3.11, 2-core x86-64 VM); the split tree's crossing rows grow as
# C(N, 4) and are built only for a product (``basis._split_table``): a
# cold ``_split_table(40)`` takes about 0.8 s and 74 MiB traced.
MAX_N_GON = 40

_FRACTION_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def number_to_json(x):
    if type(x) is int:
        return x
    if not _is_number(x):
        raise InputFormatError(f"not an exact number: {x!r}")
    x = _normalize(x)
    if isinstance(x, Fraction):
        try:
            return f"{x.numerator}/{x.denominator}"
        except ValueError as exc:  # past the interpreter's int digit limit
            raise InputFormatError(f"cannot write number: {exc}") from exc
    return x


def number_from_json(x):
    if isinstance(x, bool):
        raise InputFormatError("booleans are not numbers")
    if _is_int(x):
        return x
    if isinstance(x, float):
        raise InputFormatError(
            f"floats are not accepted ({x!r}); use integers or 'p/q' strings"
        )
    if isinstance(x, str):
        if not _FRACTION_RE.fullmatch(x):
            raise InputFormatError(f"malformed number string: {x!r}")
        try:
            return _normalize(Fraction(x))
        except ValueError as exc:  # past the interpreter's int digit limit
            raise InputFormatError(f"number string too long: {exc}") from exc
    raise InputFormatError(f"not a number: {x!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputFormatError(message)


def _check_document(doc, kind: str) -> None:
    _require(isinstance(doc, dict), f"{kind}: document must be an object")
    version = doc.get("format")
    # True == 1, so the type is checked first
    _require(
        _is_int(version) and version == FORMAT,
        f"{kind}: missing or unsupported format",
    )


def _int_field(doc, key: str, kind: str) -> int:
    value = doc.get(key)
    _require(_is_int(value), f"{kind}: field {key!r} must be an integer")
    return value


def _n_gon_field(doc, kind: str) -> int:
    n_gon = _int_field(doc, "n_gon", kind)
    _require(n_gon <= MAX_N_GON, f"{kind}: 'n_gon' must be at most {MAX_N_GON}, got {n_gon}")
    return n_gon


def _segment_from_json(item, kind: str) -> Segment:
    _require(
        isinstance(item, list) and len(item) == 2
        and all(map(_is_int, item)),
        f"{kind}: segment entries must be [i, j] integer pairs",
    )
    return Segment(item[0], item[1])


# -- weighted graphs and laminations ----------------------------------------


def graph_to_json(graph: WeightedGraph) -> dict:
    weights = [[i, j, number_to_json(w)] for i, j, w in graph.sparse_items()]
    return {"format": FORMAT, "n_gon": graph.n_gon, "weights": weights}


def _graph_from_json(doc) -> WeightedGraph:
    """The graph of a lamination document, each entry decoded once.

    An ``[i, j, w]`` entry goes straight to its slot through the per-N
    pair index.  A pair the index lacks has equal labels, which ``Segment``
    refuses at once, or a label off the polygon (or a polygon under three
    vertices), which is refused once every entry has been read, so faults
    come in the same order as when each entry was a validated segment.
    The decoded weights are exact numbers, one per pair, so of the checks
    of ``WeightedGraph`` only the diagonals' signs are left to run.
    """
    n_gon = _n_gon_field(doc, "graph")
    raw = doc.get("weights")
    _require(isinstance(raw, list), "graph: 'weights' must be a list")
    index = _tables(n_gon).index if n_gon >= 3 else {}
    weights = {}  # slot, or a segment off the polygon, -> weight
    for item in raw:
        _require(isinstance(item, list) and len(item) == 3,
                 "graph: weight entries must be [i, j, w] triples")
        i, j, x = item
        if type(i) is not int or type(j) is not int:
            _segment_from_json(item[:2], "graph")
        key = index.get((i, j))
        if key is None:
            key = Segment(i, j)
        if key in weights:
            raise InputFormatError(f"graph: duplicate weight entry for {Segment(i, j)}")
        weights[key] = x if type(x) is int else number_from_json(x)
    check_polygon(n_gon)
    w = [0] * len(_tables(n_gon).pairs)
    for key, x in weights.items():
        if type(key) is Segment:
            key.validate(n_gon)
        w[key] = x
    return WeightedGraph._trusted(n_gon, _check_diagonals(n_gon, tuple(w)))


def lamination_to_json(lam: Lamination) -> dict:
    doc = graph_to_json(lam.graph)
    doc["domain"] = lam.domain
    return doc


def lamination_from_json(doc) -> Lamination:
    _check_document(doc, "lamination")
    tag = doc.get("domain", "int")
    _require(tag in ("int", "rat"), f"lamination: bad domain {tag!r}")
    graph = _graph_from_json(doc)
    domain = _domain(graph)
    if tag == "int" and domain != "int":
        raise NotALamination("integral domain but fractional weights")
    _check_curves(graph)
    return Lamination._trusted(graph, domain)


def points_to_json(points) -> dict:
    return {"format": FORMAT, "points": [lamination_to_json(p) for p in points]}


def points_from_json(doc) -> list[Lamination]:
    _check_document(doc, "points")
    raw = doc.get("points")
    _require(isinstance(raw, list), "points: 'points' must be a list")
    return [lamination_from_json(item) for item in raw]


# -- coordinates and polytope specs ------------------------------------------


def coords_to_json(coords: TropicalCoords) -> dict:
    return {
        "format": FORMAT,
        "n_gon": coords.n_gon,
        "chart": [[d.i, d.j] for d in coords.chart.sorted_diagonals()],
        "values": [[s.i, s.j, number_to_json(v)] for s, v in coords.values],
    }


def spec_to_json(spec: StasheffSpec) -> dict:
    return {
        "format": FORMAT,
        "n_gon": spec.n_gon,
        "c": [[s.i, s.j, number_to_json(v)] for s, v in spec.c],
    }


def spec_from_json(doc) -> StasheffSpec:
    """The spec of a document, each ``[i, j, c]`` entry put straight in its
    diagonal's slot.  Faults come as ``StasheffSpec`` over validated
    segments gives them: a pair with equal labels at once, an edge, a label
    off the polygon, a repeated or a missing diagonal once every entry has
    been read and the polygon checked."""
    _check_document(doc, "spec")
    n_gon = _n_gon_field(doc, "spec")
    raw = doc.get("c")
    _require(isinstance(raw, list), "spec: 'c' must be a list")
    slot = _tables(n_gon).slot if n_gon >= 3 else {}
    keys, bounds = [], []
    for item in raw:
        _require(isinstance(item, list) and len(item) == 3,
                 "spec: bound entries must be [i, j, c] triples")
        i, j, x = item
        if type(i) is not int or type(j) is not int:
            _segment_from_json(item[:2], "spec")
        key = slot.get((i, j) if i < j else (j, i))
        if key is None:
            Segment(i, j)  # refuses equal labels
        keys.append(key)
        bounds.append(x if type(x) is int else number_from_json(x))
    check_polygon(n_gon)
    by_slot = dict(zip(keys, bounds))
    if None in by_slot or len(by_slot) != len(keys) or len(keys) != len(slot):
        raise SizeMismatch(_MISMATCH)
    return StasheffSpec._trusted(n_gon, tuple((d, by_slot[x]) for d, x in slot.items()))


# -- expansions ---------------------------------------------------------------


def expansion_to_json(expansion: Expansion) -> dict:
    return {
        "format": FORMAT,
        "terms": [
            {"lamination": lamination_to_json(lam), "coeff": coeff}
            for lam, coeff in expansion
        ],
    }


def expansion_from_json(doc) -> Expansion:
    _check_document(doc, "expansion")
    raw = doc.get("terms")
    _require(isinstance(raw, list), "expansion: 'terms' must be a list")
    terms = []
    for item in raw:
        _require(isinstance(item, dict), "expansion: terms must be objects")
        coeff = item.get("coeff")
        _require(_is_int(coeff), "expansion: 'coeff' must be an integer")
        terms.append((lamination_from_json(item.get("lamination")), coeff))
    return Expansion(tuple(terms))


# -- seeds --------------------------------------------------------------------


def _label_to_json(label):
    if isinstance(label, Segment):
        return [label.i, label.j]
    return label


def _label_from_json(item):
    if _is_int(item):
        return item
    return _segment_from_json(item, "seed")


def seed_to_json(seed: Seed) -> dict:
    return {
        "format": FORMAT,
        "labels": [_label_to_json(l) for l in seed.labels],
        "frozen": sorted(
            (_label_to_json(l) for l in seed.frozen),
            key=lambda x: (0, x, 0) if _is_int(x) else (1, x[0], x[1]),
        ),
        "epsilon": [list(row) for row in seed.eps],
        "d": [number_to_json(x) for x in seed.d],
    }


def seed_from_json(doc) -> Seed:
    _check_document(doc, "seed")
    raw_labels = doc.get("labels")
    _require(isinstance(raw_labels, list), "seed: 'labels' must be a list")
    labels = tuple(_label_from_json(item) for item in raw_labels)
    raw_frozen = doc.get("frozen", [])
    _require(isinstance(raw_frozen, list), "seed: 'frozen' must be a list")
    frozen = frozenset(_label_from_json(item) for item in raw_frozen)
    raw_eps = doc.get("epsilon")
    _require(
        isinstance(raw_eps, list)
        and all(
            isinstance(row, list)
            and all(map(_is_int, row))
            for row in raw_eps
        ),
        "seed: 'epsilon' must be a matrix of integers",
    )
    eps = tuple(tuple(row) for row in raw_eps)
    raw_d = doc.get("d")
    _require(isinstance(raw_d, list), "seed: 'd' must be a list")
    d = tuple(number_from_json(x) for x in raw_d)
    return Seed(labels, frozen, eps, d)


# -- file plumbing -------------------------------------------------------------


def dumps(doc) -> str:
    """Deterministic serialization: sorted keys, two-space indent, a final
    newline."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise InputFormatError(f"cannot write output: {exc}") from exc


def laminations_text(n_gon: int, weights: list, coeffs: list | None = None) -> str:
    """The points document of the integral laminations of one polygon,
    given by their weight tuples, or, with one coefficient per tuple, the
    expansion document of those terms: the bytes ``dumps`` writes for the
    same laminations.

    Each pair keeps, for this call, a table from a weight to its entry
    text (``_Entries``): the pair's head (``_entry_heads``, built once per
    N and depth) and the int, built on the weight's first use, and nothing
    for 0.  A lamination's entries are then one join of table lookups.
    """
    depth = 2 if coeffs is None else 3
    tables = list(map(_Entries, _entry_heads(n_gon, depth)))
    close = "\n" + "  " * depth
    key = close + "  "
    end = key + "  ]"
    sep = end + ","  # between one weight's number and the next entry head
    start = (
        f'{{{key}"domain": "int",{key}"format": {FORMAT},'
        f'{key}"n_gon": {n_gon},{key}"weights": '
    )
    # each lamination's text opens with its lead and closes with its tail
    tail = close + "}" if coeffs is None else close + "}\n    }"
    leads = repeat(start) if coeffs is None else (
        f'{{\n      "coeff": {coeff},\n      "lamination": {start}' for coeff in coeffs
    )
    items = []
    try:
        for w, lead in zip(weights, leads):
            text = sep.join(filter(None, map(dict.__getitem__, tables, w)))
            items.append(f"{lead}[{text}{end}{key}]{tail}" if text else f"{lead}[]{tail}")
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise InputFormatError(f"cannot write output: {exc}") from exc
    name = "points" if coeffs is None else "terms"
    body = ",\n    ".join(items)
    body = f"\n    {body}\n  ]" if items else "]"
    return f'{{\n  "format": {FORMAT},\n  "{name}": [{body}\n}}\n'


@lru_cache(maxsize=32)
def _entry_heads(n_gon: int, depth: int) -> tuple:
    """The text ``dumps`` writes before each weight of a lamination whose
    braces stand ``depth`` levels deep, one head per pair of ``pairs(N)``."""
    entry = "\n" + "  " * (depth + 2)
    item = entry + "  "
    return tuple(f"{entry}[{item}{i},{item}{j},{item}" for i, j in _tables(n_gon).pairs)


class _Entries(dict):
    """One pair's entry texts by weight: its head and the int, made on the
    first lookup of a weight; 0 maps to the empty text."""

    def __init__(self, head: str):
        super().__init__({0: ""})
        self.head = head

    def __missing__(self, x: int) -> str:
        self[x] = text = self.head + str(x)
        return text


def load_path(path: str):
    """The JSON document in the file at ``path``, read as bytes and decoded
    once: UTF-8, with the newline translation of a text-mode read and the
    BOM refusal of ``json.loads``, so every message and offset is theirs."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # JSON text is UTF-8; the decoder recurses once per nesting level
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from exc
    except InputFormatError:
        raise
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _reject_float(text: str):
    raise InputFormatError(f"floats are not accepted ({text}); use integers or 'p/q'")


# one decoder for every read: it keeps no state between calls
_DECODER = json.JSONDecoder(parse_float=_reject_float)
