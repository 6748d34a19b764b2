"""Dirichlet characters mod q as the exponent grid of (Z/qZ)*.

The unit group is decomposed through the CRT: for odd prime powers p^k the
local group is cyclic, generated by a primitive root; for 2^k with k >= 3 it
splits as <-1> x <5>.  A dense discrete-log table of shape (q, #factors) is
built once per modulus, and every character is a tuple of exponents, one per
cyclic factor, with

    chi(n) = exp(2*pi*i * sum_j e_j * x_j / d_j),        n coprime to q,

where x_j is the discrete log of n on factor j and d_j the factor order.
Characters are ordered lexicographically by exponent tuple, which is C order
on the grid Z/d_1 x ... x Z/d_k; the principal character is index 0.

The character transform Psi_chi = sum_a S(a) chi(a) of a residue vector S
is a DFT over that grid once the coprime residues are placed on it by
discrete log: `CharacterGroup.transform` scatters S onto an array of shape
(d_1, ..., d_k) and returns phi(q) * ifftn of it, flattened in C order.
That costs O(phi log phi) time and O(q) memory per modulus.
`check_transform` evaluates a few transform entries directly from their
exponent tuples, with values read from a table of the L-th roots of unity
(L = lcm of the d_j, so every value comes from an exact reduced rational
phase), and tests the discrete logs for multiplicativity, so a wrong
scatter, order or sign is caught rather than hidden by Parseval.

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


class _Factor:
    """One cyclic factor of (Z/qZ)*: its order and its local dlog."""

    __slots__ = ("prime", "prime_power", "order", "local_dlog")

    def __init__(self, prime: int, prime_power: int, order: int,
                 local_dlog: np.ndarray):
        self.prime = prime
        self.prime_power = prime_power
        self.order = order
        self.local_dlog = local_dlog  # indexed by residue mod prime_power


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


def _local_factors(p: int, k: int) -> list[tuple[int, np.ndarray]]:
    """Cyclic factors of (Z/p^k Z)* as (order, dlog table)."""
    pe = p**k
    if p == 2:
        if k == 1:
            return []
        if k == 2:
            dlog = np.full(4, -1, dtype=np.int32)
            dlog[1], dlog[3] = 0, 1
            return [(2, dlog)]
        # k >= 3: <-1> of order 2 and <5> of order 2^(k-2)
        half = pe >> 2
        minus = np.full(pe, -1, dtype=np.int32)
        five = np.full(pe, -1, dtype=np.int32)
        v = _powers(5, half, pe)
        minus[v], five[v] = 0, np.arange(half)
        minus[pe - v], five[pe - v] = 1, np.arange(half)
        return [(2, minus), (half, five)]
    g = _primitive_root_mod_pk(p, k)
    order = pe - pe // p
    dlog = np.full(pe, -1, dtype=np.int32)
    dlog[_powers(g, order, pe)] = np.arange(order)
    return [(order, dlog)]


class CharacterGroup:
    """All Dirichlet characters mod q: discrete logs and the transform.

    Attributes:
        modulus: q.
        phi: group order phi(q).
        factors: cyclic factors (order, local dlog).
        orders: the factor orders d_j, the shape of the exponent grid.
        dlog: (q, #factors) int64 exponent table, valid at coprime residues.
        coprime: boolean mask of residues coprime to q.
    """

    def __init__(self, q: int):
        if not 1 <= q <= MAX_MODULUS:
            raise ParameterError(
                f"modulus must be in [1, {MAX_MODULUS}], got {q}")
        self.modulus = q
        factors: list[_Factor] = []
        self.coprime = np.ones(q, dtype=bool)
        for p, k in factorize(q):
            self.coprime[::p] = False
            for order, local_dlog in _local_factors(p, k):
                factors.append(_Factor(p, p**k, order, local_dlog))
        self.factors = factors
        self.orders = np.array([f.order for f in factors], dtype=np.int64)
        self.phi = int(self.orders.prod()) if factors else 1
        self.exponent = math.lcm(*[f.order for f in factors]) if factors else 1

        residues = np.arange(q, dtype=np.int64)
        if factors:
            cols = [f.local_dlog[residues % f.prime_power] for f in factors]
            self.dlog = np.stack(cols, axis=1).astype(np.int64)
        else:
            self.dlog = np.zeros((q, 0), dtype=np.int64)
        self.dlog[~self.coprime] = 0  # placeholder rows, masked at eval time

        L = self.exponent
        self.roots = np.exp(2j * np.pi * np.arange(L) / L)
        self._phase_mult = (L // self.orders) if factors else np.zeros(0, np.int64)

    def __len__(self) -> int:
        return self.phi

    def transform(self, sums: np.ndarray) -> np.ndarray:
        """Psi_chi = sum_a sums[a] chi(a) for every chi, in lexicographic order.

        `sums` is indexed by residue 0..q-1; non-coprime entries are
        ignored.  The coprime entries are scattered onto the exponent grid
        by discrete log and phi(q) * ifftn of the grid is read in C order.
        """
        residues, cells = self._scatter
        grid = np.zeros(self.phi, dtype=np.complex128)
        grid[cells] = sums[residues]
        if not self.factors:
            return grid
        return self.phi * np.fft.ifftn(grid.reshape(tuple(self.orders))).ravel()

    def check_transform(self, sums: np.ndarray, psi: np.ndarray) -> float:
        """Worst gap of `psi`, a claimed `transform(sums)`, at sampled entries.

        Entries 0, phi//3 and phi-1 are evaluated directly from their
        exponent tuples at O(q) each; the gap is relative to the l1 norm of
        the coprime sums, which bounds every |Psi_chi|.  Parseval holds for
        any orthogonal transform, so this is what catches a wrong scatter,
        a wrong character order or a conjugated transform.  Sampled
        products also test dlog(mn) = dlog(m) + dlog(n) mod d_j; a failure
        there returns inf.
        """
        picks = np.unique([0, self.phi // 3, self.phi - 1])
        want = self._rows(self._exponents(picks)) @ sums
        scale = float(np.abs(sums[self.coprime]).sum()) or 1.0
        gap = float(np.abs(psi[picks] - want).max()) / scale
        units, _ = self._scatter
        k = len(units)
        m = units[[k // 3, k // 2, k - 1]]
        n = units[[k - 1, k // 3, k // 2]]
        drift = self.dlog[m * n % self.modulus] - self.dlog[m] - self.dlog[n]
        if np.any(drift % self.orders):
            return math.inf
        return gap

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
        for j, f in enumerate(self.factors):
            minus_one = f.prime == 2 and j + 1 < len(self.factors) \
                and self.factors[j + 1].prime == 2
            conds.append(np.ones(f.order, bool) if minus_one
                         else np.arange(f.order) % f.prime != 0)
        mask = reduce(np.logical_and.outer, conds, np.array(True)).ravel()
        if self.modulus % 4 == 2:
            mask[:] = False
        mask.flags.writeable = False
        return mask

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """Coprime residues and their flat C-order cells on the exponent grid."""
        residues = np.flatnonzero(self.coprime)
        strides = np.array([math.prod(self.orders[j + 1:].tolist())
                            for j in range(len(self.factors))], dtype=np.int64)
        return residues, self.dlog[residues] @ strides

    def _exponents(self, idx: np.ndarray) -> np.ndarray:
        """Exponent tuples of the characters at flat indices `idx`, as rows."""
        cols = np.unravel_index(idx, tuple(self.orders)) if self.factors else ()
        return np.array(cols, dtype=np.int64).reshape(
            len(self.factors), len(idx)).T

    def _rows(self, exps: np.ndarray) -> np.ndarray:
        """Values at every residue 0..q-1 (0 off the coprime classes) of the
        characters with exponent tuples `exps`, one row each."""
        L = self.exponent
        weighted = (exps * self._phase_mult[None, :]) % L
        idx = weighted @ self.dlog.T % L
        rows = self.roots[idx]
        rows[:, ~self.coprime] = 0.0
        return rows


@lru_cache(maxsize=1024)
def character_group(q: int) -> CharacterGroup:
    """Memoised CharacterGroup constructor."""
    return CharacterGroup(q)
