"""Floor-of-k^(1/gamma) index sets: two library routes vs. exact oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bdhvar import (ParameterError, WeightKind, build_weight_table,
                    primes_segment, ps_array, ps_config, ps_count_main_term,
                    ps_indicator_at, psprimes)
from bdhvar.arith import sieving_primes
from bdhvar.errors import ResourceError
from bdhvar.psprimes import prime_windows


def ps_indicator(n, cfg):
    """Membership of one n by the indicator route, asked for n alone."""
    return int(ps_indicator_at(np.array([n]), cfg)[0])


def indicator_mask(lo, hi, cfg):
    """Membership mask of lo..hi (index i <-> n = lo + i) by the indicator
    route at every n of the range."""
    return ps_indicator_at(np.arange(lo, hi + 1), cfg)


def int_root(m, k):
    """Largest r with r**k <= m, exact integer arithmetic."""
    if m < 0 or k < 1:
        raise ValueError
    if m == 0:
        return 0
    # Seed Newton just above the root: log2(m) / k from the top bits of m
    # (m >> shift stays in float range), then 2^that with 60 bits kept.
    shift = max(0, m.bit_length() - 1000)
    log_root = (math.log2(float(m >> shift)) + shift) / k
    e = max(0, math.floor(log_root) - 60)
    r = (int(2.0 ** (log_root - e) * (1 + 1e-9)) + 1) << e
    while True:
        nr = ((k - 1) * r + m // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


def oracle_members_rational(lo, hi, gamma):
    """Exact big-integer generator for gamma = u/v: n = [k^(v/u)]."""
    u, v = gamma.numerator, gamma.denominator
    out = set()
    k = 1
    while True:
        n = int_root(k ** v, u)
        if n > hi:
            break
        if n >= lo:
            out.add(n)
        k += 1
    return sorted(out)


def oracle_members_float(lo, hi, gamma):
    """High-precision membership via the ceil-difference form."""
    out = []
    with mpmath.workdps(80):
        g = mpmath.mpf(gamma)
        for n in range(lo, hi + 1):
            lo_pow = mpmath.power(n, g)
            hi_pow = mpmath.power(n + 1, g)
            for y in (lo_pow, hi_pow):
                # oracle only trusts comfortably non-integer powers
                assert abs(y - mpmath.nint(y)) > mpmath.mpf('1e-60') or y == mpmath.nint(y)
            if mpmath.ceil(hi_pow) - mpmath.ceil(lo_pow) == 1:
                out.append(n)
    return out


RATIONAL_GAMMAS = [Fraction(1, 2), Fraction(3, 4), Fraction(43, 50),
                   Fraction(9, 10), Fraction(2426, 2817)]


@pytest.mark.parametrize("gamma", RATIONAL_GAMMAS, ids=str)
def test_both_routes_match_exact_oracle(gamma):
    cfg = ps_config(gamma)
    lo, hi = 1, 2000
    expect = oracle_members_rational(lo, hi, gamma)
    assert ps_array(lo, hi, cfg).tolist() == expect
    mask = indicator_mask(lo, hi, cfg)
    assert np.flatnonzero(mask).tolist() == [n - lo for n in expect]


def test_unsnapped_float_gamma_matches_mpmath_oracle():
    # No small-denominator rational lies near either gamma: float path.
    # Near the squares, 0.5 + 1e-13 puts k^(1/gamma) and n^gamma inside the
    # 1e-9 guard band of an integer, so both routes re-decide those entries
    # with mpmath (26 generator and 43 indicator entries besides k = n = 1).
    squares = [1] + [m * m - 1 for m in range(2, 45)]
    for gamma, hi, known in ((0.837, 1500, None), (0.5 + 1e-13, 2000, squares)):
        cfg = ps_config(gamma)
        assert type(cfg) is float
        expect = oracle_members_float(1, hi, gamma)
        if known is not None:
            assert expect == known
        assert ps_array(1, hi, cfg).tolist() == expect
        mask = indicator_mask(1, hi, cfg)
        assert np.flatnonzero(mask).tolist() == [n - 1 for n in expect]


def test_square_set_frozen():
    cfg = ps_config(Fraction(1, 2))
    assert ps_array(1, 10, cfg).tolist() == [1, 4, 9]
    assert ps_indicator(3, cfg) == 0
    assert ps_indicator(4, cfg) == 1
    assert ps_indicator(9, cfg) == 1
    assert ps_array(1, 30, cfg).tolist() == [1, 4, 9, 16, 25]


def test_indicator_agrees_pointwise_with_array_route():
    cfg = ps_config(Fraction(9, 10))
    mask = indicator_mask(1, 500, cfg)
    for n in range(1, 501):
        assert ps_indicator(n, cfg) == int(mask[n - 1])


def test_member_count_tracks_power_law():
    # members <= X correspond to k < (X+1)^gamma, so the count is within
    # one unit of (X+1)^gamma - 1
    for gamma in (Fraction(1, 2), Fraction(9, 10), 0.837):
        cfg = ps_config(gamma)
        for X in (10, 1000, 50000):
            count = len(ps_array(1, X, cfg))
            y = float(X + 1) ** float(cfg) - 1.0
            assert -1e-6 <= count - y < 1 + 1e-6, (gamma, X)


def test_gamma_parsing_and_snapping():
    # a rational gamma comes back as its exact Fraction, any other as the
    # float itself
    for given, exact in (("9/10", Fraction(9, 10)),
                         (0.86, Fraction(43, 50)),
                         (0.9, Fraction(9, 10)),
                         (Fraction(2426, 2817), Fraction(2426, 2817))):
        got = ps_config(given)
        assert type(got) is Fraction and got == exact, given
    # 0.837 is near no small-denominator rational; the other two lie within
    # 1e-15 of 1 or 0, yet inside (0, 1): kept as floats, not snapped to an
    # endpoint and refused
    for g in (0.837, 0.9999999999999999, 1e-300):
        got = ps_config(g)
        assert type(got) is float and got == g, g


def test_bare_float_gamma_is_its_ps_config():
    # The routes put gamma through ps_config themselves: an unsnapped float
    # is its own value, and a rational one (0.5, 0.9) takes the exact path
    # as its Fraction, where an integer power such as 4^0.5 would otherwise
    # go to mpmath and raise ResourceError, and 1024^0.9 would land just
    # above 512.  Both routes and the PS weights give the same results for
    # either form.
    ns = np.arange(1, 3001)
    twists = ((WeightKind.PS_PLAIN, {}),
              (WeightKind.PS_EXP, dict(c=1.5, t=1e-3)))
    for gamma in (0.837, 0.5, 0.9):
        assert np.array_equal(ps_array(1, 3000, gamma),
                              ps_array(1, 3000, ps_config(gamma))), gamma
        assert np.array_equal(ps_indicator_at(ns, gamma),
                              ps_indicator_at(ns, ps_config(gamma))), gamma
        for kind, twist in twists:
            bare = build_weight_table(5000, 0.5, kind, gamma=gamma, **twist)
            snapped = build_weight_table(5000, 0.5, kind,
                                         gamma=ps_config(gamma), **twist)
            assert np.array_equal(bare.n, snapped.n), (gamma, kind)
            assert np.array_equal(bare.values, snapped.values), (gamma, kind)
            assert (bare.mains, bare.scale) == (snapped.mains,
                                                snapped.scale), (gamma, kind)


def test_gamma_validation():
    for bad in ("5/4", 1.0, 0.0, -0.3, float("nan"), "abc",
                Fraction(10**400, 3), 10**400, -10**400):
        with pytest.raises(ParameterError):
            ps_config(bad)


def test_gamma_exact_powers_capped():
    # a rational u/v takes the exact path while its powers m^u, k^v of
    # int64 m, k fit in 63 * max(u, v) <= 2^18 bits; past that it is refused
    # before any route forms one (m^(10^13) would need terabytes)
    for given in ("2426/2817", Fraction(4160, 4161)):
        assert type(ps_config(given)) is Fraction
    assert type(ps_config(0.5000000000001)) is float
    for huge in ("5000000000001/10000000000000", Fraction(4161, 4162)):
        with pytest.raises(ResourceError, match=f"gamma = {huge}"):
            ps_config(huge)
    with pytest.raises(ResourceError):
        ps_indicator_at(np.array([4, 9]), "5000000000001/10000000000000")


def test_range_validation():
    cfg = ps_config(0.5)
    with pytest.raises(ParameterError):
        ps_array(0, 10, cfg)
    with pytest.raises(ParameterError):
        ps_array(5, 4, cfg)
    for bad in ([3, 0, 5], [[4]], [-1]):
        with pytest.raises(ParameterError):
            ps_indicator_at(np.array(bad), cfg)
    assert ps_indicator_at(np.array([], dtype=np.int64), cfg).size == 0


def test_count_main_term():
    cfg = ps_config(Fraction(9, 10))
    assert ps_count_main_term(math.e, cfg) == pytest.approx(math.e ** 0.9)
    assert ps_count_main_term(1e5, cfg) == pytest.approx(
        1e5 ** 0.9 / math.log(1e5))
    for bad in (1.0, 0.5, -3.0):
        with pytest.raises(ParameterError):
            ps_count_main_term(bad, cfg)


# Ranges away from 1 that hold escalated entries, including ones float64
# alone gets wrong (1000^(4/3) = 9999.99..., 1024^(9/10) = 512.00...01), so
# block edges fall next to members and escalations.
BLOCK_RANGES = [(Fraction(1, 2), 9_990, 12_100),
                (Fraction(3, 4), 9_000, 12_000),
                (0.86, 2, 3_000),
                (Fraction(2426, 2817), 100_000, 103_000),
                (Fraction(9, 10), 1_000, 3_000)]


@pytest.mark.parametrize("gamma,lo,hi", BLOCK_RANGES, ids=str)
@pytest.mark.parametrize("block", [1, 7, 1000])
def test_blocked_routes_match_one_pass_and_scalar(monkeypatch, gamma, lo, hi,
                                                  block):
    cfg = ps_config(gamma)
    monkeypatch.setattr(psprimes, "_BLOCK", hi + 1)  # one block
    whole = ps_array(lo, hi, cfg)
    assert np.all(np.diff(whole) > 0)
    whole_mask = indicator_mask(lo, hi, cfg)
    monkeypatch.setattr(psprimes, "_BLOCK", block)
    assert ps_array(lo, hi, cfg).tolist() == whole.tolist()
    mask = indicator_mask(lo, hi, cfg)
    assert mask.dtype == bool and np.array_equal(mask, whole_mask)
    assert mask.tolist() == [ps_indicator(n, cfg) == 1
                             for n in range(lo, hi + 1)]
    assert (np.flatnonzero(mask) + lo).tolist() == whole.tolist()


@pytest.mark.parametrize("gamma,lo,hi", BLOCK_RANGES, ids=str)
def test_indicator_at_given_n_matches_range_and_scalar(monkeypatch, gamma, lo,
                                                       hi):
    # The given-n route against the generator's mask of the range at every
    # n of the range and at its primes only (as ps-count asks), and against
    # the scalar oracle on the range shuffled with n = 1 added; in one chunk
    # and in chunks of 7.
    cfg = ps_config(gamma)
    ns = np.arange(lo, hi + 1)
    mask = np.isin(ns, ps_array(lo, hi, cfg))
    primes = primes_segment(lo, hi)
    shuffled = np.random.default_rng(lo).permutation(np.append(ns, 1))
    expect = [ps_indicator(n, cfg) == 1 for n in shuffled]
    for block in (hi + 2, 7):
        monkeypatch.setattr(psprimes, "_BLOCK", block)
        at = ps_indicator_at(ns, cfg)
        assert at.dtype == bool and np.array_equal(at, mask)
        assert np.array_equal(ps_indicator_at(primes, cfg), mask[primes - lo])
        assert ps_indicator_at(shuffled, cfg).tolist() == expect


def test_prime_windows_tile_the_range(monkeypatch):
    # Sieve blocks of 997 n and windows of 7 n: the windows tile [2, X]
    # once each, in order, and each mask is its window's primality, with
    # the last window cut at X and window seams at every block seam.
    monkeypatch.setattr(psprimes, "_PS_COUNT_BLOCK", 997)
    monkeypatch.setattr(psprimes, "_BLOCK", 7)
    for X in (3, 996, 998, 5000):
        nxt = 2
        for a, mask in prime_windows(X, sieving_primes(X)):
            assert a == nxt and 1 <= mask.size <= 7 and mask.dtype == bool
            b = a + mask.size - 1
            assert (b - 2) // 997 == (a - 2) // 997  # inside one block
            assert np.array_equal(np.flatnonzero(mask) + a,
                                  primes_segment(a, b)), (X, a)
            nxt = b + 1
        assert nxt == X + 1, X
