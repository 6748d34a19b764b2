"""Dirichlet characters mod q as the exponent grid of (Z/qZ)*.

The unit group is decomposed through the CRT: for odd prime powers p^k the
local group is cyclic, generated by a primitive root, as it is mod 2 (of
order 1) and mod 4; for 2^k with k >= 3 it splits as <-1> x <5>.  So every
q >= 2 has a factor, and only q = 1 has a grid with no axis (one cell).
Every character is a tuple of exponents, one per cyclic factor, with

    chi(n) = exp(2*pi*i * sum_j e_j * x_j / d_j),        n coprime to q,

where x_j is the discrete log of n on factor j and d_j the factor order.
Characters are ordered lexicographically by exponent tuple, which is C order
on the grid Z/d_1 x ... x Z/d_k; the principal character is index 0.

A group keeps one table per modulus, its exponential map: `units`, of
length phi, holding at each flat C-order grid cell (x_1, ..., x_k) the unit
prod_j g_j^x_j mod q.  Its entries lie in [0, q), so it is int16 (2 phi
bytes) when q <= 2^15 and int32 above.  It is the outer CRT sum of
per-prime-power power lists, which `_local_factors` builds once per prime
power and shares, read-only, between all the moduli it divides (at most
1024 prime powers are kept).

The character transform Psi_chi = sum_a S(a) chi(a) of a residue vector S
is a DFT over that grid once the coprime residues are gathered onto it:
`CharacterGroup.transform` reads S at `units`, reshapes it to (d_1, ...,
d_k) and returns phi(q) * ifftn of it, flattened in C order.  That costs
O(phi log phi) time and O(phi) memory per modulus.  `check_transform`
evaluates a few transform entries directly from their exponent tuples,
each value from an exact reduced rational phase over L = lcm of the d_j,
and tests the table for multiplicativity, so a wrong table, order or sign
is caught rather than hidden by Parseval.  It costs O(phi) integer work
plus L <= phi complex `exp` calls, one per L-th root of unity, which the
phases then index.

Primitivity is local: a character is primitive iff each of its local
components is, which gives `primitive_mask` as an outer product of
per-factor conditions on the exponent grid.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce

import numpy as np

from .arith import factorize
from .errors import ParameterError

MAX_MODULUS = 10**6


def _primitive_root_mod_p(p: int) -> int:
    """Smallest primitive root of an odd prime p."""
    phi = p - 1
    prime_divs = [f for f, _ in factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // l, p) != 1 for l in prime_divs):
            return g
        g += 1


def _powers(g: int, count: int, m: int) -> np.ndarray:
    """g^j mod m for 0 <= j < count, by doubling (m <= 10^6: no overflow)."""
    out = np.ones(count, dtype=np.int64)
    done, step = 1, g % m
    while done < count:
        take = min(done, count - done)
        out[done:done + take] = out[:take] * step % m
        done += take
        step = step * step % m
    return out


@lru_cache(maxsize=1024)
def _local_factors(p: int, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(Z/p^k Z)* as (orders, units): its cyclic factor orders and the unit
    at each cell of their exponent grid in C order, int64 and read-only:
    every modulus divisible by p^k shares it."""
    pe = p**k
    if p == 2 and k >= 3:
        # <-1> of order 2 and <5> of order 2^(k-2): cell (s, x) is (-1)^s 5^x
        five = _powers(5, pe >> 2, pe)
        orders, units = (2, pe >> 2), np.concatenate([five, pe - five])
    else:
        # cyclic; 3 generates mod 4 (and mod 2, of order 1)
        g = 3 if p == 2 else _primitive_root_mod_p(p)
        # g generates mod every p^k iff g^(p-1) != 1 mod p^2; else g + p does
        if pow(g, p - 1, p * p) == 1:
            g += p
        orders = (pe - pe // p,)
        units = _powers(g, orders[0], pe)
    units.flags.writeable = False
    return orders, units


class CharacterGroup:
    """All Dirichlet characters mod q: the exponential map and the transform.

    Attributes:
        modulus: q.
        phi: group order phi(q).
        orders: the factor orders d_j, the shape of the exponent grid: a
            leading 1 for the factor mod 2 when q == 2 (mod 4), () for q = 1.
        primes: the prime p of each factor's p-power modulus.
        units: length phi, int16 when q <= 2^15 and int32 above: the unit
            residue prod_j g_j^x_j mod q at each flat C-order grid cell
            (x_1, ..., x_k), so it lists every residue coprime to q once.
    """

    def __init__(self, q: int):
        if not 1 <= q <= MAX_MODULUS:
            raise ParameterError(
                f"modulus must be in [1, {MAX_MODULUS}], got {q}")
        self.modulus = q
        primes, orders, units = [], [], np.zeros((), np.int64)
        for p, k in factorize(q):
            local_orders, local = _local_factors(p, k)
            primes += [p] * len(local_orders)
            orders += local_orders
            m = q // p**k
            lift = m * pow(m, -1, p**k)  # 1 mod p^k, 0 mod m
            units = np.add.outer(units, local * lift % q) % q
        self.primes, self.orders = tuple(primes), tuple(orders)
        self.phi = math.prod(orders)
        self.units = units.astype(np.int16 if q <= 2**15 else np.int32).ravel()

    def transform(self, sums: np.ndarray) -> np.ndarray:
        """Psi_chi = sum_a sums[a] chi(a) for every chi, in lexicographic order.

        `sums` is indexed by residue 0..q-1; non-coprime entries are
        ignored.  The coprime entries are gathered onto the exponent grid
        by `units` and phi(q) * ifftn of the grid is read in C order.
        """
        # q = 1: orders is (), and ifftn of the 0-d grid is its one entry
        grid = sums[self.units].reshape(self.orders)
        return self.phi * np.fft.ifftn(grid).ravel()

    def check_transform(self, sums: np.ndarray, psi: np.ndarray) -> float:
        """Worst gap of `psi`, a claimed `transform(sums)`, at sampled entries.

        Entries 0, phi//3 and phi-1 are evaluated directly from their
        exponent tuples at O(phi) each; the gap is relative to the l1 norm of
        the coprime sums, which bounds every |Psi_chi|.  Parseval holds for
        any orthogonal transform, so this is what catches a wrong gather,
        a wrong character order or a conjugated transform.  Three sampled
        cell pairs also test units[x + y] = units[x] * units[y] mod q; a
        failure there returns inf.
        """
        unit_sums = sums[self.units]
        shape = self.orders or (1,)  # q = 1: one cell, L = 1
        L = math.lcm(*shape)
        picks = sorted({0, self.phi // 3, self.phi - 1})
        # the exponents of the picks, and three sampled cell pairs x, y
        x = [self.phi // 3, self.phi // 2, self.phi - 1]
        y = x[2:] + x[:2]
        tuples = np.array(np.unravel_index(picks + x + y, shape))
        exps, xs, ys = tuples[:, :-6], tuples[:, -6:-3], tuples[:, -3:]
        # phase[i, cell] = sum_j e_ij * (L / d_j) * x_j(cell) mod L, summed
        # from per-axis terms broadcast over the grid
        steps = exps * (L // np.array(shape)[:, None])
        phase = sum(map(np.multiply.outer, steps,
                        np.indices(shape, sparse=True))) % L
        want = np.exp(2j * np.pi * np.arange(L) / L)[
            phase.reshape(len(picks), -1)] @ unit_sums
        scale = float(np.abs(unit_sums).sum()) or 1.0
        gap = float(np.abs(psi[picks] - want).max()) / scale
        # the exponential map is a homomorphism at the sampled pairs
        xy = np.ravel_multi_index(xs + ys, shape, mode="wrap")
        ux, uy, uxy = self.units[[x, y, xy]].astype(np.int64)
        additive = (uxy == ux * uy % self.modulus).all()
        return gap if additive else math.inf

    def primitive_mask(self) -> np.ndarray:
        """Boolean mask over the characters: conductor equal to the modulus.

        Read-only and cached.  Primitivity is local: the component on a
        cyclic factor of p-power modulus factors through a smaller modulus
        iff its exponent is divisible by p, except on the <-1> factor of
        2^k, k >= 3, which is free.  The mask is the outer product of these
        per-factor conditions in C order.  So none is primitive when q == 2
        (mod 4): the order-1 factor mod 2 has only the exponent 0.
        """
        return self._primitive

    @cached_property
    def _primitive(self) -> np.ndarray:
        conds = []
        for j, (p, d) in enumerate(zip(self.primes, self.orders)):
            minus_one = p == 2 and self.primes[j + 1:j + 2] == (2,)
            conds.append(np.ones(d, bool) if minus_one
                         else np.arange(d) % p != 0)
        mask = reduce(np.logical_and.outer, conds, np.array(True)).ravel()
        mask.flags.writeable = False
        return mask


@lru_cache(maxsize=1024)
def character_group(q: int) -> CharacterGroup:
    """Memoised CharacterGroup constructor."""
    return CharacterGroup(q)
