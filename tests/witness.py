"""Evaluation witnesses for basis functions and product expansions.

A lamination's basis function is the monomial prod A_ij^(w_ij) over all
vertex pairs, edges included, written in the fan chart's coordinates.  Put
A_ij = P_ij = det(v_i, v_j) for vectors v_1..v_N in the plane: these satisfy
the Ptolemy (Plucker) relation P_pr P_qs = P_ps P_qr + P_pq P_rs of every
exchange and every split.  Two identities follow, and both hold for every
choice of v.

* The basis function of a lamination w, a Laurent polynomial f in the fan
  coordinates X_k of the diagonals {1, k+2}, satisfies

      prod_{i<j} P_ij^(w_ij) = f(X),
      X_k = P_(1,k+1) P_(k+2,k+3) / (P_(1,k+3) P_(k+1,k+2)),

  the cross ratio of the quadrilateral (1, k+1, k+2, k+3) around {1, k+2}.
  A monomial in the X_k maps to a distinct monomial in the P_ij, so a wrong
  exponent or coefficient shows.
* An expansion of a product is right exactly when

      prod_{i<j} P_ij^(W_ij) = sum_t c_t prod_{i<j} P_ij^(w_t,ij),

  where W is the summed graph: noncrossing monomials in the P_ij are
  linearly independent (Rumer-Teller-Weyl; Kung-Rota, Bull. AMS 10, 1984),
  so only the right coefficients satisfy it.

Each round evaluates both sides modulo the prime 2^61 - 1 at seeded random
vectors; a wrong side passes a round with probability at most its degree
over the prime (Schwartz-Zippel).  Edge weights and chart exponents may be
negative, so powers go through modular inverses, and a draw with some
P_ij = 0 is redrawn.  Nothing here is reached from the library.
"""
from __future__ import annotations

import random

from tropclust.weighted_graphs import pairs

PRIME = 2**61 - 1


def _plucker_values(n_gon: int, rng: random.Random) -> list[int]:
    """P_ij = det(v_i, v_j) mod the prime, one per pair of ``pairs(N)``,
    at random vectors with every P_ij nonzero."""
    while True:
        v = [(rng.randrange(PRIME), rng.randrange(PRIME)) for _ in range(n_gon)]
        values = [
            (v[i - 1][0] * v[j - 1][1] - v[j - 1][0] * v[i - 1][1]) % PRIME
            for i, j in pairs(n_gon)
        ]
        if all(values):
            return values


def _monomial(values: list[int], weights: tuple) -> int:
    out = 1
    for x, w in zip(values, weights):
        if w:
            out = out * pow(x, int(w), PRIME) % PRIME
    return out


def failed_rounds(n_gon: int, total: tuple, terms, rounds: int = 2, seed: int = 0) -> list[int]:
    """The rounds in which the weight tuple ``total`` (the summed graph)
    and the (weight tuple, coefficient) pairs ``terms`` give different
    sides of the identity; empty when every round agrees."""
    rng = random.Random(seed)
    terms = list(terms)
    failed = []
    for r in range(rounds):
        values = _plucker_values(n_gon, rng)
        rhs = sum(c * _monomial(values, w) for w, c in terms) % PRIME
        if _monomial(values, total) != rhs:
            failed.append(r)
    return failed


def basis_failed_rounds(n_gon: int, weights: tuple, f, rounds: int = 2, seed: int = 0) -> list[int]:
    """The rounds in which a lamination's weight tuple and its basis
    function ``f``, a Laurent polynomial in X1..X(N-3), give different
    sides of the identity; empty when every round agrees."""
    index = {pair: x for x, pair in enumerate(pairs(n_gon))}
    rng = random.Random(seed)
    failed = []
    for r in range(rounds):
        values = _plucker_values(n_gon, rng)

        def p(i, j):
            return values[index[i, j]]

        xs = [
            p(1, k + 1) * p(k + 2, k + 3) * pow(p(1, k + 3) * p(k + 1, k + 2), -1, PRIME) % PRIME
            for k in range(1, n_gon - 2)
        ]
        rhs = sum(c * _monomial(xs, e) for e, c in f.terms.items()) % PRIME
        if _monomial(values, weights) != rhs:
            failed.append(r)
    return failed
