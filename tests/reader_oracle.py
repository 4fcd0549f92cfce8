"""The lamination reader as two loops and the constructors' own checks:
the reference for ``jsonio``'s one-pass reader.

``reference_graph_from_json`` decodes every ``[i, j, w]`` entry into a
dict keyed by slot, or by ``Segment`` for a pair off the polygon, then
fills a weight list from the dict, validates the segments and checks the
diagonals' signs (``weighted_graphs._check_diagonals``).
``reference_lamination_from_json`` adds the domain from the weights
(``laminations._domain``), the ``"int"`` tag's check, and the crossing and
vertex-mass checks over ``WeightedGraph.vertex_masses``.  Each check runs
on the whole graph, after the entries are read, in the order the one-pass
reader must keep.
"""
from __future__ import annotations

from tropclust.errors import InputFormatError, NotALamination
from tropclust.jsonio import (
    _check_document,
    _n_gon_field,
    _require,
    _segment_from_json,
    number_from_json,
)
from tropclust.laminations import Lamination, _domain
from tropclust.polygon import Segment, check_polygon
from tropclust.weighted_graphs import WeightedGraph, _check_diagonals, _tables


def reference_graph_from_json(doc) -> WeightedGraph:
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


def _reference_check_curves(g: WeightedGraph) -> None:
    tables = _tables(g.n_gon)
    w = g.w
    loaded = [tables.pairs[k] for k in tables.diagonals if w[k]]
    for x, (i, j) in enumerate(loaded):
        for a, b in loaded[x + 1:]:
            if i < a < j < b:
                raise NotALamination(f"diagonals {Segment(i, j)} and {Segment(a, b)} cross")
    for p, mass in enumerate(g.vertex_masses(), start=1):
        if mass != 0:
            raise NotALamination(f"vertex {p} has nonzero total weight")


def reference_lamination_from_json(doc) -> Lamination:
    _check_document(doc, "lamination")
    tag = doc.get("domain", "int")
    _require(tag in ("int", "rat"), f"lamination: bad domain {tag!r}")
    graph = reference_graph_from_json(doc)
    domain = _domain(graph)
    if tag == "int" and domain != "int":
        raise NotALamination("integral domain but fractional weights")
    _reference_check_curves(graph)
    return Lamination._trusted(graph, domain)
