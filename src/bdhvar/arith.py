"""Prime sieving and basic multiplicative functions.

Provides:
    * sieve_segment   -- primality mask of one window [lo, hi]
    * primes_segment  -- the primes in one window [lo, hi]
    * sieving_primes  -- the primes <= sqrt(limit) that such windows need
    * lambda_support  -- the prime powers n of one window [lo, hi] and Lambda(n)
    * factorize

There is one sieve, the segmented Eratosthenes of `sieve_segment`: the
primes up to sqrt(limit), found by the same sieve recursively, clear one
window.  Every caller sieves only the window it reads and holds
O(window + sqrt X), never a table over [0, X]: `ps-count` sieves each block
as it counts it, and a weight or a prime sum on (mu X, X] sieves only that.
`lambda_support` is the one Lambda loop: it returns Lambda on its support
only (the window's primes, and the powers p^k >= p^2 of the base primes
marked in the same mask), evaluating log p once per prime and reusing it
for every power of p.  Weights are built from that support.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ResourceError

DEFAULT_LIMIT_CAP = 10**9
# The primes below 37: base primes for every window that ends below 37^2.
_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31],
                         dtype=np.int64)


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


def sieving_primes(limit: int) -> np.ndarray:
    """The primes <= isqrt(limit), the base of any window up to limit >= 2.

    Limits above DEFAULT_LIMIT_CAP are refused (memory and time guard).
    """
    if limit < 2:
        raise ParameterError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ResourceError(
            f"sieve limit {limit} exceeds cap {DEFAULT_LIMIT_CAP}")
    root = math.isqrt(limit)
    if root < 37:
        return _SMALL_PRIMES[_SMALL_PRIMES <= root]
    return primes_segment(2, root)


def primes_segment(lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi], ascending, as int64.

    Needs 0 <= lo <= hi + 1 and 2 <= hi <= the sieve cap.
    """
    mask = sieve_segment(lo, hi, sieving_primes(hi))
    return (np.flatnonzero(mask) + lo).astype(np.int64, copy=False)


def lambda_support(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The n in [lo, hi] with Lambda(n) != 0, ascending (int64), and
    Lambda(n) there (float64): log p at each prime power n = p^k.

    Needs 0 <= lo <= hi + 1; hi above the sieve cap is refused.
    """
    base = sieving_primes(max(hi, 2))
    mask = sieve_segment(lo, hi, base)
    # Higher powers only exist for the base primes p <= sqrt(hi).
    pows, logs = [], []
    for p, lg in zip(base.tolist(), np.log(base.astype(np.float64)).tolist()):
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                pows.append(pk)
                logs.append(lg)
            pk *= p
    mask[np.array(pows, dtype=np.int64) - lo] = True
    n = np.flatnonzero(mask) + lo
    lam = np.log(n.astype(np.float64))
    lam[np.searchsorted(n, pows)] = logs  # log p, not log p^k, at the powers
    return n, lam


# The primes factorize divides by: every prime up to the last one held,
# grown on demand.
_trial = _SMALL_PRIMES


def _trial_primes(up_to: int) -> np.ndarray:
    global _trial
    if _trial[-1] < up_to:
        _trial = primes_segment(2, 2 * up_to)
    return _trial


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

