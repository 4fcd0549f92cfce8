"""An evaluation witness for every coefficient of a product expansion.

A lamination's basis function is the monomial prod A_ij^(w_ij) over all
vertex pairs, edges included, pulled back through the fan chart's exponent
lattice, which is injective on monomials.  So an expansion of a product is
right exactly when the same identity holds on the A side.  Put
A_ij = P_ij = det(v_i, v_j) for vectors v_1..v_N in the plane: these satisfy
the Ptolemy (Plucker) relation P_pr P_qs = P_ps P_qr + P_pq P_rs that each
split applies, and noncrossing monomials in the P_ij are linearly
independent (Rumer-Teller-Weyl; Kung-Rota, Bull. AMS 10, 1984).  So only the
right coefficients satisfy

    prod_{i<j} P_ij^(W_ij) = sum_t c_t prod_{i<j} P_ij^(w_t,ij)

for every choice of v, where W is the summed graph.  Each round evaluates
both sides modulo the prime 2^61 - 1 at seeded random vectors; a wrong
expansion passes a round with probability at most its degree over the
prime (Schwartz-Zippel).  Edge weights may be negative, so powers go
through modular inverses, and a draw with some P_ij = 0 is redrawn.
Nothing here is reached from the library.
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
