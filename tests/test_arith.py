"""Sieve and multiplicative-function checks against naive oracles."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from bdhvar import ParameterError, factorize, lambda_support, primes_segment
from bdhvar.arith import DEFAULT_LIMIT_CAP, sieve_segment, sieving_primes
from bdhvar.errors import ResourceError


def naive_flags(limit):
    """Reference sieve, deliberately simple: flags[n] == (n prime)."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


def lambda_table(N):
    """Lambda(n) at index n for 0 <= n <= N: lambda_support scattered."""
    n, lam = lambda_support(0, N)
    out = np.zeros(N + 1)
    out[n] = lam
    return out


def naive_sieve(limit):
    return [n for n, flag in enumerate(naive_flags(limit)) if flag]


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_sieve_matches_naive_oracle():
    primes = primes_segment(2, 10**5)
    assert primes.tolist() == naive_sieve(10**5)
    assert primes.dtype == np.int64


def test_prime_count_at_1e6():
    assert len(primes_segment(2, 10**6)) == 78498


def test_small_primes():
    assert primes_segment(0, 10).tolist() == [2, 3, 5, 7]
    assert primes_segment(3, 7).tolist() == [3, 5, 7]
    assert primes_segment(8, 10).tolist() == []
    assert primes_segment(990, 1000).tolist() == [991, 997]


def test_sieve_rejects_bad_limits():
    with pytest.raises(ParameterError):
        primes_segment(0, 1)
    with pytest.raises(ParameterError):
        primes_segment(11, 9)
    with pytest.raises(ResourceError):  # refused before any window is made
        primes_segment(2 * 10**9 - 10, 2 * 10**9)


def test_sieve_segment_matches_table_slices():
    seg = 1 << 20
    flags = np.array(naive_flags(seg + 5000), dtype=bool)
    windows = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 50), (2, 2), (2, 1000),
               # starting or ending at a prime square, and at 37^2, the
               # first square past the built-in small primes
               (49, 100), (25, 49), (121, 169), (961, 1369), (1369, 2000),
               (997 ** 2, 997 ** 2 + 500), (991 ** 2 - 300, 991 ** 2),
               # at and across 2^20
               (seg - 700, seg + 700), (seg - 1, seg), (seg, seg + 4999)]
    wide = np.array(naive_sieve(2000))  # more base primes than needed
    for lo, hi in windows:
        expected = flags[lo:hi + 1]
        base = sieving_primes(max(hi, 2))
        assert np.array_equal(sieve_segment(lo, hi, base), expected), (lo, hi)
        assert np.array_equal(sieve_segment(lo, hi, wide), expected), (lo, hi)
    out = np.zeros(1401, dtype=bool)
    assert sieve_segment(seg - 700, seg + 700, wide, out=out) is out
    assert np.array_equal(out, flags[seg - 700:seg + 701])
    assert sieve_segment(5, 4, wide).size == 0
    with pytest.raises(ParameterError):
        sieve_segment(-1, 10, wide)


def test_sieving_primes_cap_and_roots():
    assert sieving_primes(2).tolist() == []
    assert sieving_primes(1368).tolist() == naive_sieve(36)
    assert sieving_primes(1369).tolist() == naive_sieve(37)
    assert sieving_primes(10**6).tolist() == naive_sieve(1000)
    with pytest.raises(ParameterError):
        sieving_primes(1)
    assert sieving_primes(DEFAULT_LIMIT_CAP)[-1] == 31607  # isqrt: 31622
    with pytest.raises(ResourceError):
        sieving_primes(DEFAULT_LIMIT_CAP + 1)


def test_lambda_divisor_sum_identity():
    # sum of Lambda(d) over d | n equals log n
    N = 10**4
    lam = lambda_table(N)
    acc = np.zeros(N + 1)
    for d in range(1, N + 1):
        if lam[d] != 0.0:
            acc[d::d] += lam[d]
    ns = np.arange(2, N + 1)
    assert np.max(np.abs(acc[2:] - np.log(ns))) <= 1e-9


def test_lambda_small_values():
    lam = lambda_table(100)
    assert lam[0] == 0.0 and lam[1] == 0.0
    assert lam[2] == pytest.approx(math.log(2))
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[9] == pytest.approx(math.log(3))
    assert lam[12] == 0.0
    assert math.fsum(lam) == pytest.approx(94.0453112293574, abs=1e-9)


def test_chebyshev_psi_near_x():
    X = 10**6
    psi = math.fsum(lambda_table(X))
    assert abs(psi - X) <= 0.005 * X


def test_von_mangoldt_spot_values():
    lam = lambda_table(10**4)
    assert lam[1] == 0.0
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[97] == pytest.approx(math.log(97))
    assert lam[96] == 0.0
    assert lam[9973] == pytest.approx(math.log(9973))


def naive_lambda(n):
    """log p when n = p^k, else 0, from the naive factorization."""
    factors = naive_factor(n)
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def test_von_mangoldt_agrees_with_table():
    lam = lambda_table(2000)
    for n in range(1, 2001):
        assert naive_lambda(n) == pytest.approx(lam[n], abs=1e-12)


def test_lambda_support_windows_match_full_range():
    # windows that start or end inside a run of prime powers: at 0, 1 and 2,
    # at p^k and at p^k - 1, one point wide, and empty
    N = 5000
    full_n, full_lam = lambda_support(0, N)
    powers = [p ** k for p in (2, 3, 5, 7, 11, 67) for k in range(2, 13)
              if p ** k <= N]
    windows = [(lo, hi) for lo in (0, 1, 2) for hi in (lo - 1, lo, 10, N)]
    windows += [(pk, N) for pk in powers] + [(0, pk - 1) for pk in powers]
    windows += [(pk, pk) for pk in powers] + [(pk - 1, pk - 1) for pk in powers]
    windows += [(n, n) for n in (3, 4, 6, 97, 4096, 4999)]
    windows += [(pk - 1, pk + 1) for pk in powers] + [(1369, 2000)]
    for lo, hi in windows:
        n, lam = lambda_support(lo, hi)
        assert n.dtype == np.int64 and lam.dtype == np.float64
        inside = (full_n >= lo) & (full_n <= hi)
        assert np.array_equal(n, full_n[inside]), (lo, hi)
        assert np.array_equal(lam.view(np.uint64),
                              full_lam[inside].view(np.uint64)), (lo, hi)
        got = dict(zip(n.tolist(), lam.tolist()))
        for m in range(lo, hi + 1):
            assert got.get(m, 0.0) == pytest.approx(naive_lambda(m),
                                                    abs=1e-12), m
    with pytest.raises(ResourceError):
        lambda_support(2 * 10**9, 2 * 10**9)


def test_factorize_matches_naive():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert factorize(n) == naive_factor(n)
    assert factorize(1) == []
    assert factorize(2**31 - 1) == [(2147483647, 1)]
    with pytest.raises(ParameterError):
        factorize(0)


def test_factorize_lists_only_primes_up_to_its_root():
    # 2^31 - 1 grows the shared trial primes to the 8,951 below
    # 2 * sqrt(2^31 - 1).  Listing all of them on each later call peaked
    # at 356 KB for n = 4999, whose root is 70.
    assert factorize(2**31 - 1) == [(2**31 - 1, 1)]
    tracemalloc.start()
    try:
        got = factorize(4999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == naive_factor(4999)
    assert peak <= 4096, peak
    for n in [1, 2, 4, 70 * 70, 71 * 71, 4216, 5239, 2 * 999983,
              999983**2, 2**30, 3**19]:
        assert factorize(n) == naive_factor(n), n
