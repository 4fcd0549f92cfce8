"""Malformed lamination and spec documents, one fault order each.

``GRAPH_FAULTS`` rows are (n_gon, weights, error, message): the document
``{"format": 1, "n_gon": n_gon, "weights": weights}`` read as a lamination
raises ``error`` with ``message``.  ``SPEC_FAULTS`` rows are (n_gon, c,
error, message) for the spec document with bound entries ``c``.
``test_jsonio`` checks each fault's error and message; the CLI corpus
(``cli_corpus``) runs each document through the commands that read it.
"""
from tropclust.errors import (
    InputFormatError,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NotALamination,
    SizeMismatch,
)
from tropclust.polygon import diagonals


def spec_c(n_gon):
    """A bound entry for every diagonal, in order."""
    return [[d.i, d.j, 1] for d in diagonals(n_gon)]


GRAPH_FAULTS = [
    (5, [[1, 3, 1], [3, 1, 2]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=1, j=3)"),
    (5, [[1, 3, 1], [True, 3, 1]], InputFormatError,
     "graph: segment entries must be [i, j] integer pairs"),
    (5, [[2, 2, 1]], InvalidVertex, "segment endpoints must differ, got (2, 2)"),
    (5, [[1, 3, 1.5]], InputFormatError,
     "floats are not accepted (1.5); use integers or 'p/q' strings"),
    (5, [[1, 3, True]], InputFormatError, "booleans are not numbers"),
    (5, [[1, 3, 1, 0]], InputFormatError, "graph: weight entries must be [i, j, w] triples"),
    # a label off the polygon is refused after every entry is read
    (5, [[9, 1, 1], [1, 3, "x"]], InputFormatError, "malformed number string: 'x'"),
    (5, [[9, 1, 1], [1, 9, 2]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=1, j=9)"),
    (5, [[1, 3, 1], [0, 2, 1], [9, 1, 1]], InvalidVertex,
     "segment (0, 2) has labels outside 1..5"),
    (2, [[1, 2, 1], [1, 1, 1]], InvalidVertex, "segment endpoints must differ, got (1, 1)"),
    (2, [[1, 2, 1], [2, 1, 1]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=1, j=2)"),
    (2, [[1, 2, 1]], InvalidPolygon, "polygon needs at least 3 vertices, got 2"),
    (-1, [], InvalidPolygon, "polygon needs at least 3 vertices, got -1"),
    # the weights are checked once the graph is whole
    (5, [[1, 9, 1], [1, 3, -1]], InvalidVertex, "segment (1, 9) has labels outside 1..5"),
    (5, [[1, 3, -1], [2, 4, -1]], InvariantViolation, "negative weight on diagonal (1,3)"),
    # a lamination's own faults, after the graph's; the document has no
    # domain tag, which reads as "int", and the arc {2, 5} of the
    # hexagon has weights [[2, 5, 1], [2, 3, -1], [3, 4, 1], [4, 5, -1]]
    (6, [[2, 5, "1/2"], [2, 3, "-1/2"], [3, 4, "1/2"], [4, 5, "-1/2"]], NotALamination,
     "integral domain but fractional weights"),
    (6, [[2, 5, "1/2"], [1, 3, -1]], InvariantViolation, "negative weight on diagonal (1,3)"),
    (6, [[2, 5, "1/2"], [0, 3, 1]], InvalidVertex, "segment (0, 3) has labels outside 1..6"),
    (6, [[1, 3, 1], [2, 5, 1]], NotALamination,
     "diagonals Segment(i=1, j=3) and Segment(i=2, j=5) cross"),
    (6, [[1, 3, 1], [2, 5, "1/2"]], NotALamination, "integral domain but fractional weights"),
    (6, [[1, 3, 1], [2, 5, 1], [4, 6, -1]], InvariantViolation,
     "negative weight on diagonal (4,6)"),
    (6, [[2, 5, 1]], NotALamination, "vertex 2 has nonzero total weight"),
    (6, [[2, 5, 1], [3, 4, 1], [4, 5, -1]], NotALamination, "vertex 2 has nonzero total weight"),
    (6, [[2, 5, 1], [2, 2, 1]], InvalidVertex, "segment endpoints must differ, got (2, 2)"),
    (6, [[2, 5, 1], [5, 2, 1]], InputFormatError,
     "graph: duplicate weight entry for Segment(i=2, j=5)"),
]


SPEC_FAULTS = [
    (5, spec_c(5)[:4] + [[3, 5]], InputFormatError,
     "spec: bound entries must be [i, j, c] triples"),
    (5, spec_c(5) + ["x"], InputFormatError,
     "spec: bound entries must be [i, j, c] triples"),
    (5, spec_c(5)[:4] + [[True, 5, 1]], InputFormatError,
     "spec: segment entries must be [i, j] integer pairs"),
    (5, [[4, 4, 1]] + spec_c(5), InvalidVertex, "segment endpoints must differ, got (4, 4)"),
    (5, spec_c(5) + [[1, 2, 1]], SizeMismatch, "spec must bound every diagonal exactly once"),
    (5, spec_c(5) + [[1, 9, 1]], SizeMismatch, "spec must bound every diagonal exactly once"),
    (5, spec_c(5) + [[3, 1, 2]], SizeMismatch, "spec must bound every diagonal exactly once"),
    (5, spec_c(5)[1:], SizeMismatch, "spec must bound every diagonal exactly once"),
    (5, spec_c(5)[:4] + [[3, 5, "1/0"]], InputFormatError,
     "malformed number string: '1/0'"),
    (5, spec_c(5)[:4] + [[3, 5, 1.5]], InputFormatError,
     "floats are not accepted (1.5); use integers or 'p/q' strings"),
    (5, spec_c(5)[:4] + [[3, 5, True]], InputFormatError, "booleans are not numbers"),
    # the entries' own faults come in entry order, before the diagonals'
    (5, [[1, 2, 1], [2, 2, 1]] + spec_c(5), InvalidVertex,
     "segment endpoints must differ, got (2, 2)"),
    (5, [[1, 9, 1], [1, 3, "x"]] + spec_c(5), InputFormatError,
     "malformed number string: 'x'"),
    (5, [[1, 3, 1], [1, 3, 1], [2, 2, 1]], InvalidVertex,
     "segment endpoints must differ, got (2, 2)"),
    (5, spec_c(5)[1:] + [[3, 5]], InputFormatError,
     "spec: bound entries must be [i, j, c] triples"),
    (2, [[1, 2, 1], [1, 1, 1]], InvalidVertex, "segment endpoints must differ, got (1, 1)"),
    (2, [[1, 2, "x"]], InputFormatError, "malformed number string: 'x'"),
    (2, [[1, 2, 1]], InvalidPolygon, "polygon needs at least 3 vertices, got 2"),
    (-1, [], InvalidPolygon, "polygon needs at least 3 vertices, got -1"),
]
