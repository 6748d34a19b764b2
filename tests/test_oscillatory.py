"""Phase reduction, sawtooth approximation, and the oscillatory integral."""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from bdhvar import (ParameterError, main_term_integral, oscillatory,
                    oscillatory_integral, phase_frac_array, prime_exp_sum,
                    primes_segment, saw_psi, vaaler_eval, vaaler_expansion)
from bdhvar.errors import ResourceError


def circ_dist(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def mp_frac(t, n, c, extra_digits=60):
    mag = abs(t) * float(n) ** c
    with mpmath.workdps(extra_digits + int(math.log10(mag + 10.0))):
        v = mpmath.mpf(t) * mpmath.power(n, c)
        return float(v - mpmath.floor(v))


# ---------------------------------------------------------------------------
# elementary maps
# ---------------------------------------------------------------------------

def test_saw_psi_values():
    assert saw_psi(0.0) == -0.5
    assert saw_psi(5.0) == -0.5
    assert saw_psi(0.75) == 0.25
    assert saw_psi(-2.5) == 0.0
    arr = saw_psi(np.array([0.1, 1.9]))
    assert np.allclose(arr, [-0.4, 0.4])
    with pytest.raises(ParameterError):
        saw_psi(float("nan"))


# ---------------------------------------------------------------------------
# tiered phase reduction vs. an mpmath oracle
# ---------------------------------------------------------------------------

def test_reduced_phase_exact_case():
    # t n^c = 10^6 up to the binary rounding of 1e-3; a scalar n gives a
    # 0-d array, the one-phase form the endpoint series reads
    f = phase_frac_array(1e-3, 1e6, 1.5)
    assert f.shape == ()
    assert circ_dist(float(f), 0.0) <= 1e-10


def test_reduced_phase_random_triples_all_tiers():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        t = float(rng.choice([-1, 1])) * 10.0 ** float(rng.uniform(-6, 6))
        n = int(rng.integers(1, 10**6))
        c = float(rng.uniform(1.01, 2.99))
        got = float(phase_frac_array(t, n, c))
        assert 0.0 <= got < 1.0
        assert circ_dist(got, mp_frac(t, n, c)) <= 1e-10, (t, n, c)


def test_reduced_phase_tier_boundaries():
    # magnitudes straddling the float64 / long-double / mpmath switchovers
    cases = [(1e-3, 100, 1.5), (1.0, 10**4, 1.5), (1e3, 10**6, 1.5),
             (1e8, 10**6, 2.5)]
    for t, n, c in cases:
        got = float(phase_frac_array(t, n, c))
        assert circ_dist(got, mp_frac(t, n, c)) <= 1e-10


def test_phase_frac_array_matches_scalar():
    rng = np.random.default_rng(5)
    ns = rng.integers(1, 10**6, size=200)
    for t, c in [(3e-4, 1.5), (2.0, 1.2), (1e4, 2.5)]:
        arr = phase_frac_array(t, ns, c)
        for i, n in enumerate(ns.tolist()):
            one = float(phase_frac_array(t, n, c))
            assert circ_dist(arr[i], one) <= 1e-10


def test_reduced_phase_validation_and_budget():
    with pytest.raises(ParameterError):
        phase_frac_array(1.0, 0, 1.5)
    with pytest.raises(ParameterError):
        phase_frac_array(float("inf"), 3, 1.5)
    with pytest.raises(ResourceError):
        phase_frac_array(1e50, 1e6, 2.5)
    # The array route checks the same things; a NaN t or n would otherwise
    # match none of its three tiers and leave its output uninitialised.
    ns = np.arange(1, 2000)
    for t, arr, c in ((float("nan"), ns, 1.5), (float("inf"), ns, 1.5),
                      (1.0, ns, float("nan")), (1.0, np.arange(0, 5), 1.5),
                      (1.0, np.array([3.0, float("nan")]), 1.5)):
        with pytest.raises(ParameterError):
            phase_frac_array(t, arr, c)
    with pytest.raises(ResourceError):
        phase_frac_array(1e50, np.array([1e6]), 2.5)


# ---------------------------------------------------------------------------
# sawtooth approximation
# ---------------------------------------------------------------------------

def test_vaaler_h1_frozen_coefficients():
    exp = vaaler_expansion(1)
    assert exp.b.tolist() == [0.25, 0.125]
    assert exp.a[0] == pytest.approx(1j / (4 * np.pi))
    approx, major = vaaler_eval(0.0, exp)
    assert approx == pytest.approx(0.0, abs=1e-15)
    assert major == pytest.approx(0.5)


def test_vaaler_coefficient_invariants():
    for H in (1, 5, 20, 100):
        exp = vaaler_expansion(H)
        # symmetric b-sum telescopes to exactly 1/2
        total = exp.b[0] + 2.0 * math.fsum(exp.b[1:])
        assert total == pytest.approx(0.5, abs=1e-14)
        assert np.all(exp.b >= 0)
        assert np.all(exp.b * (H + 1) <= 1.0 + 1e-12)
        h = np.arange(1, H + 1)
        assert np.all(np.abs(exp.a) * h <= 1.0 + 1e-12)


def test_vaaler_error_majorised():
    xs = np.sort(np.concatenate([np.linspace(-2.0, 3.0, 4001),
                                 np.arange(-2.0, 4.0)]))
    for H in (1, 5):
        exp = vaaler_expansion(H)
        approx, major = vaaler_eval(xs, exp)
        assert np.all(major >= -1e-12)
        assert np.all(np.abs(saw_psi(xs) - approx) <= major + 1e-12)
        # the majorant peaks at integers, where it must still be <= 1/2ish
        assert np.max(major) == pytest.approx(0.5, abs=1e-9)


def test_vaaler_eval_scalar_array_agree():
    exp = vaaler_expansion(7)
    xs = np.linspace(0.0, 1.0, 11)
    a_arr, m_arr = vaaler_eval(xs, exp)
    for i, x in enumerate(xs.tolist()):
        a_s, m_s = vaaler_eval(x, exp)
        assert a_s == pytest.approx(a_arr[i], abs=1e-14)
        assert m_s == pytest.approx(m_arr[i], abs=1e-14)


def test_vaaler_row_blocks_are_bit_identical(monkeypatch):
    # 1001 points: a short last block for 3 and 6 rows, a one-point last
    # block (joined to the one before) for 4 and 8, and none for 7
    xs = np.sort(np.concatenate([np.linspace(-2.0, 3.0, 995),
                                 np.arange(-2.0, 4.0)]))
    for H in (1, 7, 100):
        exp = vaaler_expansion(H)
        monkeypatch.setattr(oscillatory, "_VAALER_ROWS", xs.size)
        whole = vaaler_eval(xs, exp)
        for rows in (3, 4, 6, 7, 8):
            monkeypatch.setattr(oscillatory, "_VAALER_ROWS", rows)
            blocked = vaaler_eval(xs, exp)
            for got, want in zip(blocked, whole):
                assert np.array_equal(got, want), (H, rows)


def test_vaaler_degree_validation():
    for bad in (0, -3, 2.0, "5"):
        with pytest.raises(ParameterError):
            vaaler_expansion(bad)


# ---------------------------------------------------------------------------
# oscillatory integral
# ---------------------------------------------------------------------------

def test_integral_zero_frequency_exact():
    assert oscillatory_integral(3.0, 10.0, 0.0, 1.5) == 7.0 + 0j
    assert main_term_integral(1000.0, 0.25, c=1.5, t=0.0) == 750.0 + 0j


def test_integral_against_mpmath():
    t, c, a, b = 1e-3, 1.5, 500.0, 1000.0
    got = oscillatory_integral(a, b, t, c)
    with mpmath.workdps(30):
        f = lambda y: mpmath.e ** (2j * mpmath.pi * t * y ** c)
        want = mpmath.quad(f, np.linspace(a, b, 80).tolist())
        want = complex(want)
    assert abs(got - want) <= 1e-9 * (b - a)


def test_integral_additivity():
    t, c = 7e-4, 1.3
    a, m, b = 100.0, 617.0, 1500.0
    whole = oscillatory_integral(a, b, t, c)
    parts = oscillatory_integral(a, m, t, c) + oscillatory_integral(m, b, t, c)
    assert abs(whole - parts) <= 1e-9 * (b - a)


def test_integral_small_t_near_length():
    # t -> 0 limit: the integral approaches b - a
    a, b = 10.0, 20.0
    got = oscillatory_integral(a, b, 1e-9, 1.5)
    assert abs(got - (b - a)) <= 2 * np.pi * 1e-9 * (20.0 ** 1.5) * (b - a)


def test_integral_validation():
    with pytest.raises(ParameterError):
        oscillatory_integral(-1.0, 5.0, 1.0, 1.5)
    with pytest.raises(ParameterError):
        oscillatory_integral(5.0, 4.0, 1.0, 1.5)
    with pytest.raises(ResourceError):   # phase |t| b^c past the mpmath budget
        oscillatory_integral(1.0, 1e9, 1e40, 2.5)


def test_params_validation():
    # both twist functions refuse the same (X, mu, c, t), with one message
    # each, before any sieve or integral
    for X, mu, c, t, message in (
            (1.0, 0.5, 1.5, 0.0, "X must be finite and >= 2, got 1.0"),
            (100.0, 0.0, 1.5, 0.0, "mu must be in (0, 1), got 0.0"),
            (100.0, 0.5, 2.0, 0.0, "c = 2 is excluded (quadratic phase)"),
            (100.0, 0.5, 3.0, 0.0, "c must be in (1, 3), got 3.0"),
            (100.0, 0.5, 1.5, float("nan"), "t must be finite, got nan")):
        for fn in (main_term_integral, prime_exp_sum):
            with pytest.raises(ParameterError) as info:
                fn(X, mu, c=c, t=t)
            assert str(info.value) == message, (fn, X, mu, c, t)


# ---------------------------------------------------------------------------
# prime exponential sum
# ---------------------------------------------------------------------------

def test_prime_exp_sum_zero_frequency_is_theta_difference():
    primes = primes_segment(2, 10**4)
    got = prime_exp_sum(10**4, 0.5, c=1.5, t=0.0)
    ps = primes[(primes > 5000) & (primes <= 10**4)]
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.fsum(np.log(ps)), rel=1e-14)


def test_prime_exp_sum_matches_elementwise_route():
    got = prime_exp_sum(2000.0, 0.25, c=1.5, t=3e-4)
    acc = 0j
    for q in primes_segment(2, 2000).tolist():
        if 500 < q <= 2000:
            acc += math.log(q) * cmath.exp(
                2j * math.pi * float(phase_frac_array(3e-4, q, 1.5)))
    assert abs(got - acc) <= 1e-9


def test_prime_exp_sum_empty_window():
    assert prime_exp_sum(4.0, 0.8, c=1.5, t=0.1) == 0j


# ---------------------------------------------------------------------------
# the integral against its closed form
# ---------------------------------------------------------------------------

def gamma_oracle(a, b, t, c):
    """(1/c) z^(-1/c) Gamma(1/c, z a^c, z b^c), z = -2*pi*i*t, at 40 digits:
    the integral of e(t y^c) over [a, b] after the substitution u = y^c."""
    with mpmath.workdps(40):
        s = 1 / mpmath.mpf(c)
        z = -2j * mpmath.pi * mpmath.mpf(t)
        za, zb = z * mpmath.power(a, c), z * mpmath.power(b, c)
        return complex(s * z ** -s * mpmath.gammainc(s, za, zb))


def lemma3_params(X, j=4, t_count=5, c=1.5, delta=0.05, mu=0.5):
    # the t of cmd_lemma3's row j: log-spaced up to the cap X^(1 - c - delta)
    t = X ** (1.0 - c - delta) * 10.0 ** (-(t_count - 1 - j) / 2.0)
    return dict(X=X, mu=mu, c=c, t=t)


# The main terms of the benchmark's rows: classic_exp at the t-rule exponent
# cap -0.83333334 and ps_exp at -0.63333334 (both less delta = 0.05), and
# every lemma3 row at X = 1e6; then [10, 2000] at t = 1, c = 2.9, which is
# 3.7e9 periods.  Each also with t negated.
ORACLE_PARAMS = (
    [dict(X=X, mu=0.5, c=1.5, t=X ** (-0.83333334 - 0.05))
     for X in (1e4, 3e4, 1e5)]
    + [dict(X=3e5, mu=0.5, c=1.5, t=3e5 ** (-0.63333334 - 0.05))]
    + [lemma3_params(1e6, j) for j in range(5)]
    + [dict(X=2000.0, mu=0.005, c=2.9, t=1.0)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("p", ORACLE_PARAMS,
                         ids=[f"X{p['X']:g}-t{p['t']:.3g}"
                              for p in ORACLE_PARAMS])
def test_main_term_matches_incomplete_gamma(p, sign):
    X, mu, c, t = p["X"], p["mu"], p["c"], sign * p["t"]
    want = gamma_oracle(mu * X, X, t, c)
    got = main_term_integral(X, mu, c=c, t=t)
    assert abs(got - want) <= 1e-11 * abs(want)
    assert oscillatory_integral(mu * X, X, t, c) == got


def test_integral_at_1e8_is_fast_and_exact():
    # lemma3's cap at X = 1e8: 2.6e7 periods, where panels alone took 24 s
    # and were off by 2.5e-4
    p = lemma3_params(1e8)
    start = time.perf_counter()
    got = main_term_integral(**p)
    elapsed = time.perf_counter() - start
    want = gamma_oracle(p["mu"] * p["X"], p["X"], p["t"], p["c"])
    assert abs(got - want) <= 1e-11 * abs(want)
    assert elapsed < 0.1


@pytest.mark.parametrize("a, b, t, c", [
    (1e7, 1e7 + 2.0, 1e-3, 1.5),
    (1e9, 1e9 + 0.2, 1e-3, 1.5),
    (302.63601490982774, 303.85204105067305, 0.0004106713267227814,
     2.5090303322391785),
    (70.15842094698885, 70.29305543689505, -1.3819963210272543,
     1.798751036702613)])
def test_integral_short_range_far_out_within_stated_limit(a, b, t, c):
    # at most ~10 periods, so all panels, which take each node as an offset
    # from a: float64 node values y would shift each phase by up to
    # c |t| y^c 2^-53 periods, 4.2e-9, 7.1e-6, 1.2e-11 and 2.8e-10 here
    periods = abs(t) * (b ** c - a ** c)
    assert periods <= oscillatory._SERIES_START / (2 * math.pi)
    want = gamma_oracle(a, b, t, c)
    assert abs(oscillatory_integral(a, b, t, c) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("a", [1e-6, 1e-300])
def test_integral_from_near_zero_within_stated_limit(a):
    # README's stated loss when a lies far below y*: Gauss-Legendre in y
    # meets the non-analytic y^c near 0 (2.8e-6 measured at a = 1e-6, and
    # 1.0e-7 from 1e-300 on [a, 1], whose start moves up to 1e-100)
    for b, t in ((100.0, 0.5), (1.0, 1.0)):
        want = gamma_oracle(a, b, t, 1.5)
        got = oscillatory_integral(a, b, t, 1.5)
        assert abs(got - want) <= 1e-5 * abs(want), (a, b, t)


@pytest.mark.parametrize("t", [1e-3, -1e-3, 0.37])
def test_integral_around_series_start(t):
    c = 1.5
    y_star = (oscillatory._SERIES_START / (2 * math.pi * abs(t))) ** (1 / c)
    cases = [(0.5 * y_star, 0.9 * y_star),            # b < y*: panels only
             (0.5 * y_star, y_star),                  # b = y*
             (y_star * (1 - 1e-9), 40 * y_star),      # a just below y*
             (y_star, 40 * y_star),                   # a = y*: series only
             (y_star * (1 + 1e-9), 40 * y_star),      # a just above y*
             (0.3 * y_star, 2 * y_star),              # both routes
             (40 * y_star, 40 * y_star * (1 + 1e-12))]  # short, past y*
    for a, b in cases:
        want = gamma_oracle(a, b, t, c)
        got = oscillatory_integral(a, b, t, c)
        assert abs(got - want) <= 1e-11 * abs(want), (a, b, t)
