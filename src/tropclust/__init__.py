"""Exact combinatorics of polygon charts, laminations, and their polytopes.

The package computes with integer and rational arithmetic only: Laurent
polynomials over chart variables, weighted graphs on polygon vertices,
lamination coordinates, polytope specs bounded diagonal by diagonal, and
basis-function products expanded by crossing splits.
"""
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyInput,
    FrozenDirection,
    IncompleteTriangulation,
    InputFormatError,
    InvalidPolygon,
    InvalidVertex,
    InvariantViolation,
    NonIntegral,
    NotADiagonal,
    NotALamination,
    NotDivisible,
    NotStasheff,
    SizeMismatch,
    TropclustError,
    Unbounded,
)
from .polygon import (
    Segment,
    Triangulation,
    crosses,
    diagonals,
    edges,
    fan_triangulation,
    triangulations,
)
from .laurent import LaurentPolynomial
from .weighted_graphs import (
    WeightedGraph,
    dominates,
)
from .atlas import (
    Seed,
    expand_in_x_chart,
    mutate_seed,
    mutation_words,
    type_a_seed,
    x_chart_walk,
)
from .laminations import (
    Lamination,
    TropicalCoords,
    chart_change,
    chart_coords,
    lamination_from_coords,
)
from .polytopes import (
    StasheffSpec,
    contains,
    is_nondegenerate,
    is_stasheff,
    lattice_points,
    minkowski_spec,
    minkowski_sum,
    shift_to_negative_part,
    vertex,
)
from .basis import (
    DEFAULT_BUDGET,
    Expansion,
    a2_coefficient,
    basis_laurent,
    crossing_measure,
    product_expand,
    product_graph,
    verify_positive_basis,
)

__version__ = "0.1.0"
