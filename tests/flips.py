"""One flip of a triangulation value, for tests that move between charts.

The library lists its charts with a bitmask flip walk of its own
(``tropclust.polygon._flip_walk``) and never flips a ``Triangulation``.
Tests that reach charts by random flips, or replay mutation words one flip
at a time, use ``flip`` here.  It finds the new diagonal with the
library's apex search, ``tropclust.polygon._apexes``; ``test_polygon.py``
checks it against the triangles of ``chart_oracle`` and the validating
constructor.
"""
from __future__ import annotations

from tropclust.errors import NotADiagonal
from tropclust.polygon import Segment, Triangulation, _apexes


def flip(tri: Triangulation, diag: Segment):
    """Replace one diagonal by the crossing diagonal of its quadrilateral.

    Returns (new_triangulation, new_diagonal, quad) where quad lists the
    four quadrilateral vertices in increasing order; the removed and
    inserted diagonals are its two crossing diagonals, {quad[0], quad[2]}
    and {quad[1], quad[3]}, in one order or the other.  A flip of a valid
    triangulation is one, so the result is not checked again.
    """
    members = tri.diagonals
    if diag not in members:
        raise NotADiagonal(f"{diag} is not a diagonal of this triangulation")
    a, b = _apexes(members, tri.n_gon, *diag)
    new_diag = Segment(a, b)
    i, j = diag
    quad = (i, a, j, b) if j < b else (b, i, a, j)
    return Triangulation._trusted(tri.n_gon, (members - {diag}) | {new_diag}), new_diag, quad
