"""Exception types shared across the library."""


class TropclustError(Exception):
    """Base class for all library-specific errors."""


class InvalidVertex(TropclustError, ValueError):
    """A vertex label lies outside 1..N or repeats inside a segment."""


class InvalidPolygon(TropclustError, ValueError):
    """The polygon size N is too small for the requested operation."""


class NotADiagonal(TropclustError, ValueError):
    """A boundary edge was supplied where a diagonal is required."""


class InvariantViolation(TropclustError, ValueError):
    """Structural data breaks a documented invariant (symmetry, signs, coverage)."""


class SizeMismatch(TropclustError, ValueError):
    """Two objects living on polygons of different sizes were combined."""


class NonIntegral(TropclustError, ValueError):
    """A reconstruction produced a non-integer weight."""


class NotDivisible(TropclustError, ArithmeticError):
    """Exact Laurent division failed: the divisor does not divide the dividend."""


class DimensionMismatch(TropclustError, ValueError):
    """Operands use different variable contexts or vector lengths."""


class FrozenDirection(TropclustError, ValueError):
    """Mutation or pullback was requested in a frozen direction."""


class IncompleteTriangulation(TropclustError, ValueError):
    """A complete triangulation (N-3 diagonals) is required here."""


class NotALamination(TropclustError, ValueError):
    """A weighted graph is not a lamination (crossing diagonals, negative
    diagonal weight, or nonzero vertex sums)."""


class EmptyInput(TropclustError, ValueError):
    """An operation that needs at least one element got an empty collection."""


class NotStasheff(TropclustError, ValueError):
    """A polytope operation requires specs satisfying the quadrilateral
    inequalities, and the input fails them."""


class Unbounded(TropclustError, ValueError):
    """Exact linear programming certified that the solution region has no
    finite bound in some coordinate."""


class InputFormatError(TropclustError, ValueError):
    """A JSON document does not match the documented wire format."""


class BudgetExceeded(TropclustError, RuntimeError):
    """An expansion exceeded its configured node budget.

    Carries the budget and the number of nodes expanded when it tripped.
    """

    def __init__(self, budget: int, expanded: int):
        super().__init__(f"expansion budget exceeded: {expanded} nodes > budget {budget}")
        self.budget = budget
        self.expanded = expanded
