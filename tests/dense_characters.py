"""Dense evaluation of the characters mod q, the oracle for the FFT transform.

Every value is read from a character's exponent tuple and the discrete logs
of `G.cell`, never from the FFT, so `dense_table(G) @ S` is the character
transform of S by definition.  chi(n) = e(sum_j e_j x_j / d_j) is taken
here as the product over factors of e(e_j x_j / d_j), each phase reduced
mod d_j in integers.  Characters are indexed as `CharacterGroup.transform`
orders them.  `oracle_phi` and `oracle_conductor` count group orders and
conductors by direct scans.
"""

import math

import numpy as np


def _exponents_and_logs(G, units):
    """Per factor j: the exponents e_j of every character (length phi) and
    the discrete logs x_j of `units`."""
    if not G.orders:
        return []
    exps = np.unravel_index(np.arange(G.phi), G.orders)
    logs = np.unravel_index(G.cell[units], G.orders)
    return list(zip(G.orders, exps, logs))


def dense_table(G):
    """(phi(q), q) table: row j holds chi_j at every residue (0 off units)."""
    units = np.flatnonzero(G.cell >= 0)
    values = np.ones((G.phi, len(units)), dtype=complex)
    for d, e, x in _exponents_and_logs(G, units):
        values *= np.exp(2j * np.pi * (np.outer(e, x) % d) / d)
    table = np.zeros((G.phi, G.modulus), dtype=complex)
    table[:, units] = values
    return table


def unit_phases(G, units):
    """k[j, i] with chi_j(units[i]) = e(k[j, i] / lcm(d_j)), as integers."""
    lcm = math.lcm(*G.orders)
    k = np.zeros((G.phi, len(units)), dtype=np.int64)
    for d, e, x in _exponents_and_logs(G, units):
        k += np.outer(e, x) % d * (lcm // d)
    return k % lcm


def oracle_phi(q):
    """Euler's phi(q): the residues 0 <= a < q with gcd(a, q) == 1."""
    return sum(1 for a in range(q) if math.gcd(a, q) == 1)


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
