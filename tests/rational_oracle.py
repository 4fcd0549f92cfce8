"""Rational functions and chart substitutions: a reference for the x-chart walk.

The library pushes a Laurent polynomial through one mutation term by term,
dividing only the fibers of terms with a negative power of (1 + X_k) by
synthetic division (``tropclust.atlas._push``).  The tests
check that route against plain substitution: write the new chart coordinates
in the old ones as subtraction-free rational functions, evaluate the
polynomial at them, and divide out the denominator by multivariate division
in graded-lex order.  Nothing here is reached from the library.
"""
from __future__ import annotations

from typing import Sequence

from tropclust.atlas import Seed
from tropclust.errors import DimensionMismatch, FrozenDirection, NotDivisible
from tropclust.laurent import LaurentPolynomial, _grlex_key


def variable(variables: Sequence[str], name: str, power: int = 1) -> LaurentPolynomial:
    """The monomial name^power over the given variables."""
    exps = [0] * len(variables)
    exps[list(variables).index(name)] = power
    return LaurentPolynomial(variables, {tuple(exps): 1})


def exact_div(f: LaurentPolynomial, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """Return Q with f == Q * divisor, or raise NotDivisible.

    Shift both operands into the polynomial range, run single-divisor
    division in graded-lex order (a well-order on nonnegative exponent
    vectors, so the loop terminates), and shift back.
    """
    if f.vars != divisor.vars:
        raise DimensionMismatch(f"variable mismatch: {f.vars} vs {divisor.vars}")
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPolynomial(f.vars, {})

    def min_exps(p: LaurentPolynomial) -> tuple[int, ...]:
        its = list(p.terms)
        return tuple(min(e[i] for e in its) for i in range(len(p.vars)))

    s_f = min_exps(f)
    s_g = min_exps(divisor)
    f_terms = {tuple(a - b for a, b in zip(e, s_f)): c for e, c in f.terms.items()}
    g_terms = {tuple(a - b for a, b in zip(e, s_g)): c for e, c in divisor.terms.items()}

    g_lead = max(g_terms, key=_grlex_key)
    g_lead_coeff = g_terms[g_lead]
    quot: dict[tuple[int, ...], int] = {}
    rem = dict(f_terms)
    while rem:
        e = max(rem, key=_grlex_key)
        c = rem[e]
        d = tuple(a - b for a, b in zip(e, g_lead))
        if any(x < 0 for x in d):
            raise NotDivisible("leading term not divisible")
        q, r = divmod(c, g_lead_coeff)
        if r != 0:
            raise NotDivisible("coefficient not divisible over the integers")
        quot[d] = quot.get(d, 0) + q
        for ge, gc in g_terms.items():
            key = tuple(a + b for a, b in zip(d, ge))
            rem[key] = rem.get(key, 0) - q * gc
            if rem[key] == 0:
                del rem[key]
    shift = tuple(a - b for a, b in zip(s_f, s_g))
    out = {tuple(a + b for a, b in zip(e, shift)): c for e, c in quot.items()}
    return LaurentPolynomial(f.vars, out)


class RationalFunction:
    """Quotient of two Laurent polynomials, kept unreduced.

    Laurent polynomials over the integers form a domain, so equality can be
    decided by cross-multiplication and no gcd machinery is needed.  Used for
    the subtraction-free substitution maps between charts, whose values are
    rational but not Laurent.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        if num.vars != den.vars:
            raise DimensionMismatch(f"variable mismatch: {num.vars} vs {den.vars}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_poly(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls(p, LaurentPolynomial.one(p.vars))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str, power: int = 1) -> "RationalFunction":
        return cls.from_poly(variable(variables, name, power))

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def __add__(self, other):
        if isinstance(other, int):
            other = RationalFunction.from_poly(LaurentPolynomial.constant(self.vars, other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return RationalFunction(self.num * other, self.den)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError(f"exponent must be an integer, got {k!r}")
        base = self
        if k < 0:
            if base.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            base, k = RationalFunction(base.den, base.num), -k
        out = RationalFunction.from_poly(LaurentPolynomial.one(self.vars))
        for _ in range(k):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def as_laurent(self) -> LaurentPolynomial:
        """Carry out the division; NotDivisible if the value is not Laurent."""
        return exact_div(self.num, self.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


def evaluate_at(
    poly: LaurentPolynomial, assignment: Sequence[RationalFunction]
) -> RationalFunction:
    """Plug rational values into a Laurent polynomial, one per variable.

    Each term's denominator is split into a monomial, folded into the
    term's numerator, and a rest with no monomial factor; the numerators
    over one rest are summed.  The sums are then added over the larger
    denominator wherever one divides the other, so substituted charts keep
    the denominator of their worst term, not the product of all of them.
    """
    values = list(assignment)
    if len(values) != len(poly.vars):
        raise DimensionMismatch(
            f"{len(values)} values for {len(poly.vars)} variables"
        )
    target_vars = values[0].vars if values else ()
    sums: dict[LaurentPolynomial, LaurentPolynomial] = {}
    for exps, coeff in poly.terms_sorted():
        term = RationalFunction.from_poly(
            LaurentPolynomial.constant(target_vars, coeff)
        )
        for val, e in zip(values, exps):
            if e != 0:
                term = term * val**e
        low = [min(e[i] for e in term.den.terms) for i in range(len(target_vars))]
        rest = LaurentPolynomial(target_vars, {
            tuple(a - b for a, b in zip(e, low)): c for e, c in term.den.terms.items()
        })
        num = term.num * LaurentPolynomial(target_vars, {tuple(-b for b in low): 1})
        sums[rest] = sums[rest] + num if rest in sums else num
    out = RationalFunction.from_poly(LaurentPolynomial(target_vars, {}))
    for den, num in sorted(sums.items(), key=lambda item: len(item[0].terms)):
        try:
            scale = exact_div(den, out.den)
        except NotDivisible:
            out = out + RationalFunction(num, den)
        else:
            out = RationalFunction(out.num * scale + num, den)
    return out


def x_substitution(seed: Seed, k) -> dict:
    """New x-chart coordinates written in the old ones, after mutating at k.

    Direction k inverts; any other direction i picks up the subtraction-free
    factor (1 + X_k^(-sgn e))^(-e) with e the matrix entry at (i, k).
    """
    ki = seed.index(k)
    if seed.is_frozen(k):
        raise FrozenDirection(f"cannot mutate frozen direction {k!r}")
    names = seed.x_names()
    out = {}
    for i, label in enumerate(seed.labels):
        xi = RationalFunction.variable(names, names[i])
        if i == ki:
            out[label] = xi ** (-1)
            continue
        e = seed.eps[i][ki]
        if e == 0:
            out[label] = xi
            continue
        sign = 1 if e > 0 else -1
        base = 1 + variable(names, names[ki], -sign)
        out[label] = xi * RationalFunction.from_poly(base) ** (-e)
    return out
