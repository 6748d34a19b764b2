"""Dirichlet characters mod q as the exponent grid of (Z/qZ)*.

The unit group is decomposed through the CRT: for odd prime powers p^k the
local group is cyclic, generated by a primitive root; for 2^k with k >= 3 it
splits as <-1> x <5>.  Every character is a tuple of exponents, one per
cyclic factor, with

    chi(n) = exp(2*pi*i * sum_j e_j * x_j / d_j),        n coprime to q,

where x_j is the discrete log of n on factor j and d_j the factor order.
Characters are ordered lexicographically by exponent tuple, which is C order
on the grid Z/d_1 x ... x Z/d_k; the principal character is index 0.

A group keeps one table per modulus: `cell`, an array of length q holding
the flat C-order grid cell (x_1, ..., x_k) of each unit and -1 off the
units, so `cell >= 0` is the coprime mask.  Its entries lie in [-1, phi),
so it is int16 (2q bytes) when phi <= 2^15 and int32 (4q bytes) above.
It is assembled from per-prime-power discrete-log tables, which
`_local_factors` builds once per prime power and shares, read-only,
between all the moduli it divides (at most 1024 prime powers are kept).

The character transform Psi_chi = sum_a S(a) chi(a) of a residue vector S
is a DFT over that grid once the coprime residues are placed on it:
`CharacterGroup.transform` writes S onto an array of shape (d_1, ..., d_k)
by `cell` and returns phi(q) * ifftn of it, flattened in C order.  That
costs O(phi log phi) time and O(q) memory per modulus.  `check_transform`
evaluates a few transform entries directly from their exponent tuples,
each value from an exact reduced rational phase over L = lcm of the d_j,
and tests the discrete logs for multiplicativity, so a wrong scatter,
order or sign is caught rather than hidden by Parseval.  It costs O(phi)
integer work plus L <= phi complex `exp` calls, one per L-th root of
unity, which the phases then index.

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


def _primitive_root_mod_pk(p: int, k: int) -> int:
    g = _primitive_root_mod_p(p)
    if k == 1:
        return g
    # g generates mod p^k for all k iff g^(p-1) != 1 mod p^2.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


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
def _local_factors(p: int, k: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Cyclic factors of (Z/p^k Z)* as (order, dlog table), the tables
    int32 of length p^k, -1 off the units, and read-only: every modulus
    divisible by p^k shares them."""
    pe = p**k
    if p == 2 and k < 3:
        if k == 1:
            return ()
        factors = [(2, np.array([-1, 0, -1, 1], dtype=np.int32))]
    elif p == 2:
        # k >= 3: <-1> of order 2 and <5> of order 2^(k-2)
        half = pe >> 2
        minus = np.full(pe, -1, dtype=np.int32)
        five = np.full(pe, -1, dtype=np.int32)
        v = _powers(5, half, pe)
        minus[v], five[v] = 0, np.arange(half)
        minus[pe - v], five[pe - v] = 1, np.arange(half)
        factors = [(2, minus), (half, five)]
    else:
        order = pe - pe // p
        dlog = np.full(pe, -1, dtype=np.int32)
        dlog[_powers(_primitive_root_mod_pk(p, k), order, pe)] = \
            np.arange(order)
        factors = [(order, dlog)]
    for _, table in factors:
        table.flags.writeable = False
    return tuple(factors)


class CharacterGroup:
    """All Dirichlet characters mod q: discrete logs and the transform.

    Attributes:
        modulus: q.
        phi: group order phi(q).
        orders: the factor orders d_j, the shape of the exponent grid.
        primes: the prime p of each factor's p-power modulus.
        cell: length q, int16 when phi <= 2^15 and int32 above: the flat
            C-order grid cell of each unit's exponent tuple (x_1, ..., x_k);
            -1 off the units, so `cell >= 0` masks the residues coprime to q.
    """

    def __init__(self, q: int):
        if not 1 <= q <= MAX_MODULUS:
            raise ParameterError(
                f"modulus must be in [1, {MAX_MODULUS}], got {q}")
        self.modulus = q
        coprime = np.ones(q, dtype=bool)
        primes, orders, tables = [], [], []
        for p, k in factorize(q):
            coprime[::p] = False
            for order, table in _local_factors(p, k):
                primes.append(p)
                orders.append(order)
                tables.append(table)
        self.primes, self.orders = tuple(primes), tuple(orders)
        self.phi = math.prod(orders)

        self.cell = np.zeros(q, np.int16 if self.phi <= 2**15 else np.int32)
        stride = self.phi
        for order, table in zip(orders, tables):
            stride //= order
            period = self.cell.reshape(-1, len(table))  # a view: q = m * p^k
            period += table * stride
        self.cell[~coprime] = -1

    def transform(self, sums: np.ndarray) -> np.ndarray:
        """Psi_chi = sum_a sums[a] chi(a) for every chi, in lexicographic order.

        `sums` is indexed by residue 0..q-1; non-coprime entries are
        ignored.  The coprime entries are written onto the exponent grid
        by `cell` and phi(q) * ifftn of the grid is read in C order.
        """
        grid = np.zeros(self.phi + 1, dtype=np.complex128)
        grid[self.cell] = sums  # non-units (cell -1) land in the spare slot
        grid = grid[:-1]
        if not self.orders:
            return grid
        return self.phi * np.fft.ifftn(grid.reshape(self.orders)).ravel()

    def check_transform(self, sums: np.ndarray, psi: np.ndarray) -> float:
        """Worst gap of `psi`, a claimed `transform(sums)`, at sampled entries.

        Entries 0, phi//3 and phi-1 are evaluated directly from their
        exponent tuples at O(phi) each; the gap is relative to the l1 norm of
        the coprime sums, which bounds every |Psi_chi|.  Parseval holds for
        any orthogonal transform, so this is what catches a wrong scatter,
        a wrong character order or a conjugated transform.  Sampled
        products also test dlog(mn) = dlog(m) + dlog(n) mod d_j; a failure
        there returns inf.
        """
        units = np.flatnonzero(self.cell >= 0)
        k = len(units)
        unit_sums = sums[units]
        picks = sorted({0, self.phi // 3, self.phi - 1})
        L = math.lcm(*self.orders)
        if self.orders:
            # one decode for the units and the sampled m, n and mn
            m_n = units[[k // 3, k // 2, k - 1, k - 1, k // 3, k // 2]]
            cells = self.cell[np.concatenate(
                [units, m_n, m_n[:3] * m_n[3:] % self.modulus])]
            logs = np.array(np.unravel_index(cells, self.orders))
            orders = np.array(self.orders)[:, None]
            exps = np.array(np.unravel_index(picks, self.orders))
            # phase[i, u] = sum_j e_ij * (L / d_j) * x_j(u) mod L
            phase = (exps * (L // orders)).T @ logs[:, :k] % L
            xm, xn, xmn = logs[:, k:].reshape(-1, 3, 3).transpose(1, 0, 2)
            additive = not ((xmn - xm - xn) % orders).any()
        else:  # q = 1, 2: the principal character alone, L = 1
            phase, additive = np.zeros((len(picks), k), dtype=np.int64), True
        want = np.exp(2j * np.pi * np.arange(L) / L)[phase] @ unit_sums
        scale = float(np.abs(unit_sums).sum()) or 1.0
        gap = float(np.abs(psi[picks] - want).max()) / scale
        return gap if additive else math.inf

    def primitive_mask(self) -> np.ndarray:
        """Boolean mask over the characters: conductor equal to the modulus.

        Read-only and cached.  Primitivity is local: the component on a
        cyclic factor of p-power modulus factors through a smaller modulus
        iff its exponent is divisible by p, except on the <-1> factor of
        2^k, k >= 3, which is free.  The mask is the outer product of these
        per-factor conditions in C order; no character mod q is primitive
        when q == 2 (mod 4).
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
        if self.modulus % 4 == 2:
            mask[:] = False
        mask.flags.writeable = False
        return mask


@lru_cache(maxsize=1024)
def character_group(q: int) -> CharacterGroup:
    """Memoised CharacterGroup constructor."""
    return CharacterGroup(q)
