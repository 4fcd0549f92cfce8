"""Hexagon products, paired short chords, and the cut-mass order.

On even polygons a single short chord cannot carry a curve on its own: the
boundary arcs on both sides have even length, so the compensating edge
weights cannot balance.  Short chords therefore pair up across the hexagon.
This script builds such a paired lamination, multiplies it against a long
diagonal curve, checks support = Minkowski lattice once more, and shows the
cut-mass partial order predicting support inclusion.
"""

from tropclust.basis import product_expand, product_graph
from tropclust.laminations import TropicalCoords, chart_coords, lamination_from_coords
from tropclust.polygon import Segment, fan_triangulation, triangulations
from tropclust.polytopes import lattice_points, minkowski_spec
from tropclust.weighted_graphs import dominates

FAN = fan_triangulation(6)


def pt(vec):
    return lamination_from_coords(
        TropicalCoords.of(FAN, dict(zip(FAN.sorted_diagonals(), vec)))
    )


def loaded_chords(lam):
    """Loaded diagonals, or the edge cycle when only edges carry weight."""
    diags = [
        f"{a}-{b}:{w}"
        for a, b, w in lam.graph.sparse_items()
        if Segment(a, b).is_diagonal(6)
    ]
    if diags:
        return diags
    edges = [f"{a}-{b}:{w}" for a, b, w in lam.graph.sparse_items()]
    return edges or ["none"]


def main():
    paired = pt((0, 1, 1))
    long_diag = pt((1, 0, 0))
    print(f"fan coords (0, 1, 1) load chords : {loaded_chords(paired)}")
    print(f"fan coords (1, 0, 0) load chords : {loaded_chords(long_diag)}")

    points = [paired, long_diag]
    expansion = product_expand(points)
    print(f"\nproduct of the two basis functions has {len(expansion)} terms:")
    for lam, coeff in expansion:
        vec = chart_coords(lam, FAN).vector()
        print(f"  {coeff} * basis{vec}   chords {loaded_chords(lam)}")

    spec = minkowski_spec(points)
    counts = {len(lattice_points(spec, tri)) for tri in triangulations(6)}
    print(f"\nMinkowski lattice census, all 14 hexagon charts: {sorted(counts)}")
    print(
        "census equals the support: "
        f"{set(lattice_points(spec)) == set(expansion.support())}"
    )

    # The cut-mass order on summed graphs reads off support inclusion without
    # expanding anything.
    smaller = [expansion.support()[0]]
    g_small, g_big = product_graph(smaller), product_graph(points)
    print(
        "\nsummed graph of a single support member is dominated by the "
        f"product graph: {dominates(g_small, g_big)}"
    )
    print(
        "and its one-point support is indeed included: "
        f"{set(product_expand(smaller).support()) <= set(expansion.support())}"
    )
    reversed_order = dominates(g_big, g_small)
    print(f"the reverse domination fails, as it must: {reversed_order}")


if __name__ == "__main__":
    main()
