"""Exact multivariate Laurent polynomials over the integers.

A polynomial is a ``values.Value`` record of two fields: ``vars``, a
fixed tuple of variable names, and ``terms``, a dict mapping exponent
vectors (tuples of ints, one per variable, negatives allowed) to nonzero
integer coefficients.  The checking constructor sums repeated exponents
and drops zeros; sums and products build nonzero terms themselves and wrap
them through ``Value._trusted``.  As ``terms`` is a dict, the record
hashes over the frozenset of its items.  All arithmetic is exact; nothing
here ever touches floats.  A basis function is a product of powers of
chain sums (``basis.basis_laurent``).  There is no general division: the
one the x-chart walk needs, by powers of (1 + X_k), runs on the fibers of
``atlas._push``.  Chart coordinates run on exponent sets instead
(``laminations._exchange_walk``).
"""
from __future__ import annotations

from operator import add
from typing import Sequence

from .errors import DimensionMismatch, InvariantViolation
from .values import Value, _is_int


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class LaurentPolynomial(Value):
    """Integer Laurent polynomial in a fixed ordered set of variables."""

    __slots__ = ("vars", "terms")

    def __post_init__(self):
        vars_t = tuple(self.vars)
        if len(set(vars_t)) != len(vars_t):
            raise InvariantViolation(f"duplicate variable names in {vars_t}")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != len(vars_t):
                raise DimensionMismatch(
                    f"exponent vector {exps} does not match {len(vars_t)} variables"
                )
            if not all(map(_is_int, exps)):
                raise InvariantViolation(f"non-integer exponent in {exps}")
            if not _is_int(coeff):
                raise InvariantViolation(f"non-integer coefficient {coeff!r}")
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "vars", vars_t)
        object.__setattr__(self, "terms", clean)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], c: int) -> "LaurentPolynomial":
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls.constant(variables, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_positive(self) -> bool:
        """All coefficients strictly positive (vacuously true for zero)."""
        return all(c > 0 for c in self.terms.values())

    def terms_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "LaurentPolynomial") -> None:
        if self.vars != other.vars:
            raise DimensionMismatch(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if _is_int(other):
            other = LaurentPolynomial.constant(self.vars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial._trusted(self.vars, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if _is_int(other):
            other = LaurentPolynomial.constant(self.vars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_int(other):
            return LaurentPolynomial(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_vars(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial._trusted(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not _is_int(k) or k < 0:
            raise InvariantViolation(f"exponent must be a nonnegative integer, got {k!r}")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPolynomial.one(self.vars) if result is None else result

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        chunks = []
        for exps, coeff in self.terms_sorted():
            factors = [
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.vars, exps)
                if e != 0
            ]
            body = "*".join(factors)
            if not body:
                chunk = str(abs(coeff))
            elif abs(coeff) == 1:
                chunk = body
            else:
                chunk = f"{abs(coeff)}*{body}"
            chunks.append(("- " if coeff < 0 else "+ ") + chunk)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]
