"""Helpers shared by the benchmark scripts.

The benchmark always measures the ``tropclust`` package of the checkout it
sits in (``<root>/src``), never an installed copy, so a tree without the
sources fails instead of timing something else.
"""
from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CATALOG_PATH = os.path.join(BENCH_DIR, "catalog.json")


class SourceMissing(RuntimeError):
    """The checkout holds no importable tropclust sources."""


def import_tropclust():
    """Import tropclust from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tropclust", "__init__.py")):
        raise SourceMissing(f"no tropclust package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tropclust

    if not os.path.abspath(tropclust.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"tropclust imported from {tropclust.__file__}, not {SRC}")
    return tropclust


def fan_point(n_gon: int, vec):
    """The integral lamination with the given fan-chart coordinates."""
    from tropclust.laminations import TropicalCoords, lamination_from_coords
    from tropclust.polygon import fan_triangulation

    fan = fan_triangulation(n_gon)
    return lamination_from_coords(
        TropicalCoords.of(fan, dict(zip(fan.sorted_diagonals(), vec)))
    )

