"""Sieve and multiplicative-function checks against naive oracles."""

import math
import random

import numpy as np
import pytest

from bdhvar import (ParameterError, arith, build_lambda_table,
                    build_prime_table, euler_phi, factorize, von_mangoldt)
from bdhvar.arith import sieve_segment, sieving_primes
from bdhvar.errors import ResourceError


def naive_sieve(limit):
    """Reference sieve, deliberately simple."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [n for n in range(limit + 1) if flags[n]]


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
    table = build_prime_table(10**5)
    assert table.primes.tolist() == naive_sieve(10**5)


def test_prime_count_at_1e6():
    assert len(build_prime_table(10**6).primes) == 78498


def test_small_primes():
    assert build_prime_table(10).primes.tolist() == [2, 3, 5, 7]


def test_sieve_rejects_bad_limits():
    with pytest.raises(ParameterError):
        build_prime_table(1)
    with pytest.raises(ResourceError):
        build_prime_table(10**7, cap=10**6)


def test_sieve_segment_matches_table_slices():
    seg = arith._SEGMENT
    table = build_prime_table(seg + 5000)
    windows = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 50), (2, 2), (2, 1000),
               # starting or ending at a prime square, and at 37^2, the
               # first square past the built-in small primes
               (49, 100), (25, 49), (121, 169), (961, 1369), (1369, 2000),
               (997 ** 2, 997 ** 2 + 500), (991 ** 2 - 300, 991 ** 2),
               # at and across a _SEGMENT seam of the table
               (seg - 700, seg + 700), (seg - 1, seg), (seg, seg + 4999)]
    wide = build_prime_table(2000).primes  # more base primes than needed
    for lo, hi in windows:
        expected = table.is_prime[lo:hi + 1]
        base = sieving_primes(max(hi, 2))
        assert np.array_equal(sieve_segment(lo, hi, base), expected), (lo, hi)
        assert np.array_equal(sieve_segment(lo, hi, wide), expected), (lo, hi)
    out = np.zeros(1401, dtype=bool)
    assert sieve_segment(seg - 700, seg + 700, wide, out=out) is out
    assert np.array_equal(out, table.is_prime[seg - 700:seg + 701])
    assert sieve_segment(5, 4, wide).size == 0
    with pytest.raises(ParameterError):
        sieve_segment(-1, 10, wide)


def test_table_windows_meet_at_seams(monkeypatch):
    # 137 windows of 733 integers; 733 is prime, so seams fall everywhere
    monkeypatch.setattr(arith, "_SEGMENT", 733)
    table = build_prime_table(10**5)
    assert table.primes.tolist() == naive_sieve(10**5)
    assert table.primes.dtype == np.int64


def test_sieving_primes_cap_and_roots():
    assert sieving_primes(2).tolist() == []
    assert sieving_primes(1368).tolist() == naive_sieve(36)
    assert sieving_primes(1369).tolist() == naive_sieve(37)
    assert sieving_primes(10**6).tolist() == naive_sieve(1000)
    with pytest.raises(ParameterError):
        sieving_primes(1)
    with pytest.raises(ResourceError):
        sieving_primes(10**7, cap=10**6)


def test_lambda_divisor_sum_identity():
    # sum of Lambda(d) over d | n equals log n
    N = 10**4
    lam = build_lambda_table(N).values
    acc = np.zeros(N + 1)
    for d in range(1, N + 1):
        if lam[d] != 0.0:
            acc[d::d] += lam[d]
    ns = np.arange(2, N + 1)
    assert np.max(np.abs(acc[2:] - np.log(ns))) <= 1e-9


def test_lambda_small_values():
    lam = build_lambda_table(100).values
    assert lam[0] == 0.0 and lam[1] == 0.0
    assert lam[2] == pytest.approx(math.log(2))
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[9] == pytest.approx(math.log(3))
    assert lam[12] == 0.0
    assert math.fsum(lam) == pytest.approx(94.0453112293574, abs=1e-9)


def test_chebyshev_psi_near_x():
    X = 10**6
    psi = math.fsum(build_lambda_table(X).values)
    assert abs(psi - X) <= 0.005 * X


def test_von_mangoldt_spot_values():
    table = build_prime_table(100)
    assert von_mangoldt(1, table) == 0.0
    assert von_mangoldt(8, table) == pytest.approx(math.log(2))
    assert von_mangoldt(97, table) == pytest.approx(math.log(97))
    assert von_mangoldt(96, table) == 0.0
    # 9973 is prime and its square root is below the table limit
    assert von_mangoldt(9973, table) == pytest.approx(math.log(9973))
    with pytest.raises(ParameterError):
        von_mangoldt(0, table)
    with pytest.raises(ParameterError):
        von_mangoldt(10007 * 10009, table)


def test_von_mangoldt_agrees_with_table():
    table = build_prime_table(2000)
    lam = build_lambda_table(2000, table).values
    for n in range(1, 2001):
        assert von_mangoldt(n, table) == pytest.approx(lam[n], abs=1e-12)


def test_factorize_matches_naive():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert factorize(n) == naive_factor(n)
    assert factorize(1) == []
    assert factorize(2**31 - 1) == [(2147483647, 1)]
    with pytest.raises(ParameterError):
        factorize(0)


def test_euler_phi_multiplicative():
    rng = random.Random(11)
    primes = build_prime_table(10**4).primes.tolist()
    for p in primes[:50]:
        assert euler_phi(p) == p - 1
    for _ in range(200):
        m = rng.randrange(1, 3000)
        n = rng.randrange(1, 3000)
        if math.gcd(m, n) == 1:
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
    assert euler_phi(1) == 1
    with pytest.raises(ParameterError):
        euler_phi(0)
