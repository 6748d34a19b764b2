"""Dense evaluation of the characters mod q, the oracle for the FFT transform.

Every value is read from a character's exponent tuple and the discrete logs
(chi(n) = e(sum_j e_j x_j(n) / d_j)), never from the FFT, so
`dense_table(G) @ S` is the character transform of S by definition.
Characters are indexed as `CharacterGroup.transform` orders them.
"""

import math

import numpy as np


def dense_table(G):
    """(phi(q), q) table: row j holds chi_j at every residue (0 off units)."""
    return G._rows(G._exponents(np.arange(G.phi)))


def unit_phases(G, units):
    """k[j, i] with chi_j(units[i]) = e(k[j, i] / G.exponent), as integers."""
    exps = G._exponents(np.arange(G.phi))
    return exps * (G.exponent // G.orders) @ G.dlog[units].T % G.exponent


def oracle_conductor(row):
    """Conductor of the character with values `row` mod q = len(row).

    A divisor scan: the smallest f | q such that the character is 1 on
    every n == 1 (mod f) coprime to q.
    """
    q = len(row)
    units = [n for n in range(q) if math.gcd(n, q) == 1]
    for f in range(1, q + 1):
        if q % f == 0 and all(abs(row[n] - 1) <= 1e-9
                              for n in units if n % f == 1 % f):
            return f
    raise AssertionError("no conductor found")
