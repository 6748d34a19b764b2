"""Prime sieving and basic multiplicative functions.

Provides:
    * PrimeTable      -- primality bitmap plus the packed list of primes
    * sieve_segment   -- primality mask of one window [lo, hi]
    * sieving_primes  -- the primes <= sqrt(limit) that such windows need
    * lambda_segment  -- von Mangoldt values Lambda(n) on one window [lo, hi]
    * build_prime_table
    * factorize

There is one sieve, the segmented Eratosthenes of `sieve_segment`: the
primes up to sqrt(limit), found by the same sieve recursively, clear one
window at a time.  `build_prime_table` fills its bitmap window by window;
a caller that only scans [2, X] once, such as `ps-count`, sieves each
window as it reaches it and holds O(window + sqrt X), not the whole table.
`lambda_segment` sieves only its own window, so a weight on (mu X, X] never
holds [0, X]; it evaluates log p once per prime and reuses it for every
power of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError

# Window length of the segmented clearing pass.
_SEGMENT = 1 << 20
DEFAULT_LIMIT_CAP = 10**9
# The primes below 37: base primes for every window that ends below 37^2.
_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31],
                         dtype=np.int64)


@dataclass
class PrimeTable:
    """Sieve output up to a fixed limit.

    Attributes:
        limit: largest integer covered by the table.
        is_prime: boolean array of length limit+1, is_prime[n] == (n prime).
        primes: int64 array of the primes <= limit, ascending.
    """

    limit: int
    is_prime: np.ndarray
    primes: np.ndarray


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Primality mask of [lo, hi]: mask[i] == (lo + i is prime).

    Needs 0 <= lo <= hi + 1 (hi = lo - 1 is the empty window).  base_primes
    holds, ascending, at least every prime <= isqrt(hi); larger ones are
    ignored.  The mask is written into `out` (length hi - lo + 1) when one
    is given.
    """
    if not 0 <= lo <= hi + 1:
        raise ParameterError(f"sieve window [{lo}, {hi}] is not valid")
    if out is None:
        out = np.empty(hi - lo + 1, dtype=bool)
    out[:] = True
    out[:max(0, 2 - lo)] = False  # 0 and 1
    for p in base_primes.tolist():
        if p * p > hi:
            break
        start = max(p * p, -(-lo // p) * p)
        out[start - lo::p] = False
    return out


def sieving_primes(limit: int, *, cap: int = DEFAULT_LIMIT_CAP) -> np.ndarray:
    """The primes <= isqrt(limit), the base of any window up to limit >= 2.

    Limits above cap are refused (memory and time guard).
    """
    if limit < 2:
        raise ParameterError(f"sieve limit must be >= 2, got {limit}")
    if limit > cap:
        raise ResourceError(f"sieve limit {limit} exceeds cap {cap}")
    root = math.isqrt(limit)
    if root < 37:
        return _SMALL_PRIMES[_SMALL_PRIMES <= root]
    return build_prime_table(root).primes


def build_prime_table(limit: int, *,
                      cap: int = DEFAULT_LIMIT_CAP) -> PrimeTable:
    """Sieve all primes up to limit.

    Args:
        limit: inclusive upper bound, at least 2.
        cap: refuse limits above this (memory guard).

    Returns:
        PrimeTable covering [0, limit].
    """
    base = sieving_primes(limit, cap=cap)
    is_prime = np.empty(limit + 1, dtype=bool)
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        sieve_segment(lo, hi, base, out=is_prime[lo:hi + 1])
    primes = np.flatnonzero(is_prime).astype(np.int64, copy=False)
    return PrimeTable(limit=limit, is_prime=is_prime, primes=primes)


def lambda_segment(lo: int, hi: int) -> np.ndarray:
    """Lambda(lo + i) for the n in [lo, hi], as float64.

    Lambda(n) is log p when n = p^k for a prime p, else 0.0 (so 0.0 at 0
    and 1).  Needs 0 <= lo <= hi + 1; hi above the sieve cap is refused.
    """
    base = sieving_primes(max(hi, 2))
    idx = np.flatnonzero(sieve_segment(lo, hi, base))
    values = np.zeros(hi - lo + 1, dtype=np.float64)
    values[idx] = np.log((lo + idx).astype(np.float64))
    # Higher powers only exist for the base primes p <= sqrt(hi).
    for p, lg in zip(base.tolist(), np.log(base.astype(np.float64)).tolist()):
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                values[pk - lo] = lg
            pk *= p
    return values


# Shared table for factorize, grown on demand.
_factor_table: PrimeTable | None = None


def _trial_primes(up_to: int) -> np.ndarray:
    global _factor_table
    need = max(up_to, 64)
    if _factor_table is None or _factor_table.limit < need:
        _factor_table = build_prime_table(2 * need)
    return _factor_table.primes


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] with p ascending.

    Trial division by sieved primes up to sqrt(n); deterministic.
    """
    if n < 1:
        raise ParameterError(f"factorize needs n >= 1, got {n}")
    if n == 1:
        return []
    out: list[tuple[int, int]] = []
    m = n
    for p in _trial_primes(math.isqrt(n)).tolist():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out

