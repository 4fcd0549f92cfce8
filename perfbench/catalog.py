"""Build ``catalog.json``: the default-seed record for the instances whose
outputs the benchmark cannot check cheaply while it runs.

    python3 perfbench/catalog.py

Candidates are drawn with the default seed and kept when exact work counts
(lattice points and bounding boxes, expansion terms, chart terms) fall in
the window of their class, so every class has a narrow cost band and runs
with different seeds see the same mix.  For each kept instance the record holds what the
run checks against: the lattice point count of a spec, the SHA-256 of the
``support --coeffs`` output of a product.  Heptagon laminations for the
positivity workload need no record (the call returns a boolean); they are
kept here only for their work window; every positivity stream uses all of
them.  For the other classes the run's ``--seed`` chooses which entries each
process uses, in which order, and in which chart.

Rebuild only when the classes or windows change; the file is deterministic.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys

from common import CATALOG_PATH, fan_point, import_tropclust

# The seed whose instances this record holds.
DEFAULT_SEED = 0

# n_gon -> (entries, factor box, largest scale, points window, largest
# bounding box in the fan chart and in each recorded non-fan chart).  The
# n = 8 specs stay in the fan chart, whose bounds take about a second;
# other octagon charts take up to ten.
LATTICE_CLASSES = {
    5: (40, 2, 8, (150, 350), 600),
    6: (40, 2, 4, (60, 200), 400),
    7: (40, 2, 3, (30, 110), 250),
    8: (30, 1, 1, (1, 30), None),
}
# Non-fan charts recorded per spec, drawn among those within the box cap.
CHARTS_PER_SPEC = 6
# n_gon -> (entries, factor box, expansion terms window)
PRODUCT_CLASSES = {6: (40, 3, (20, 160)), 7: (40, 3, (20, 160))}
# heptagon laminations: (entries, box, total terms over all 42 charts)
POSITIVITY_CLASS = (20, 2, (150, 460))


def chart_text(tri) -> str:
    """A chart in the CLI's ``--chart`` syntax, e.g. ``1-3,1-4``."""
    return ",".join(f"{d.i}-{d.j}" for d in tri.sorted_diagonals())


def _vec(rng, n_gon, box):
    return tuple(rng.randint(-box, box) for _ in range(n_gon - 3))


def _diagonal_weight(lam) -> int:
    n_gon = lam.n_gon
    return sum(w for i, j, w in lam.graph.sparse_items() if 1 < j - i < n_gon - 1)


def _box_volume(spec, chart):
    from tropclust.polytopes import chart_inequalities, coordinate_bounds

    bounds = coordinate_bounds(chart_inequalities(spec, chart), spec.n_gon - 3)
    return math.prod(math.floor(b_hi) - math.ceil(b_lo) + 1 for b_lo, b_hi in bounds)


def lattice_entries():
    from tropclust.polygon import fan_triangulation, triangulations
    from tropclust.polytopes import lattice_points, minkowski_spec

    out, specs = [], set()
    for n_gon, (count, box, max_scale, (lo, hi), max_box) in LATTICE_CLASSES.items():
        fan = fan_triangulation(n_gon)
        others = [t for t in triangulations(n_gon) if t != fan]
        rng = random.Random(f"catalog/{DEFAULT_SEED}/lattice/{n_gon}")
        seen = set()
        while sum(1 for e in out if e["n_gon"] == n_gon) < count:
            factors = tuple(sorted(_vec(rng, n_gon, box) for _ in range(rng.randint(1, 3))))
            scale = rng.randint(1, max_scale)
            if (factors, scale) in seen:
                continue
            seen.add((factors, scale))
            spec = minkowski_spec([fan_point(n_gon, f) * scale for f in factors])
            if spec in specs:  # another recipe for a spec already kept
                continue
            if max_box is not None and _box_volume(spec, fan) > max_box:
                continue
            points = len(lattice_points(spec))
            if not lo <= points <= hi:
                continue
            charts = []
            if max_box is not None:
                for chart in rng.sample(others, len(others)):
                    if _box_volume(spec, chart) <= max_box:
                        charts.append(chart_text(chart))
                        if len(charts) == CHARTS_PER_SPEC:
                            break
                if not charts:
                    continue
            specs.add(spec)
            out.append({"n_gon": n_gon, "factors": [list(f) for f in factors],
                        "scale": scale, "points": points, "charts": charts})
            print(f"lattice n={n_gon} points={points} charts={len(charts)}", file=sys.stderr)
    return out


def product_entries():
    from tropclust import jsonio
    from tropclust.basis import product_expand, product_graph

    out, graphs = [], set()
    for n_gon, (count, box, (lo, hi)) in PRODUCT_CLASSES.items():
        rng = random.Random(f"catalog/{DEFAULT_SEED}/products/{n_gon}")
        seen = set()
        while sum(1 for e in out if e["n_gon"] == n_gon) < count:
            factors = tuple(sorted(_vec(rng, n_gon, box) for _ in range(rng.randint(3, 4))))
            if factors in seen:
                continue
            seen.add(factors)
            points = [fan_point(n_gon, f) for f in factors]
            if product_graph(points) in graphs:  # same product, other factors
                continue
            expansion = product_expand(points)
            if lo <= len(expansion) <= hi:
                graphs.add(product_graph(points))
                text = jsonio.dumps(jsonio.expansion_to_json(expansion))
                out.append({"n_gon": n_gon, "factors": [list(f) for f in factors],
                            "terms": len(expansion),
                            "digest": hashlib.sha256(text.encode()).hexdigest()})
                print(f"product n={n_gon} terms={len(expansion)}", file=sys.stderr)
    return out


def positivity_entries():
    from tropclust.atlas import expand_in_x_chart, mutation_words
    from tropclust.basis import basis_laurent

    count, box, (lo, hi) = POSITIVITY_CLASS
    rng = random.Random(f"catalog/{DEFAULT_SEED}/positivity/7")
    words = list(mutation_words(4).values())
    out, seen = [], set()
    while len(out) < count:
        vec = _vec(rng, 7, box)
        if vec in seen:
            continue
        seen.add(vec)
        lam = fan_point(7, vec)
        if _diagonal_weight(lam) > 5:  # far above the window's cost band
            continue
        f = basis_laurent(lam)
        charts = [expand_in_x_chart(f, w) for w in words]
        terms = sum(len(g.terms) for g in charts)
        if lo <= terms <= hi and all(g.is_positive() for g in charts):
            out.append({"n_gon": 7, "coords": list(vec), "chart_terms": terms})
            print(f"positivity terms={terms}", file=sys.stderr)
    return out


def main() -> int:
    import_tropclust()
    catalog = {
        "seed": DEFAULT_SEED,
        "lattice": lattice_entries(),
        "products": product_entries(),
        "positivity": positivity_entries(),
    }
    with open(CATALOG_PATH, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
