"""Progression-variance routes vs. naive rescans and closed forms."""

import dataclasses
import math
import re

import numpy as np
import pytest

from bdhvar import (ParameterError, WeightKind, build_weight_table,
                    custom_weight_table, lambda_support, large_sieve_check,
                    main_term_integral, phase_frac_array, ps_array, ps_config,
                    variance, variance_report)
from bdhvar.arith import sieve_segment, sieving_primes
from bdhvar.characters import MAX_MODULUS, CharacterGroup, character_group


def naive_variance(w, Q, main):
    """Literal per-(q, a) rescan of the defining double sum."""
    ns = w.n
    per_q = []
    for q in range(1, Q + 1):
        phi = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
        acc = []
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            sel = w.values[ns % q == a % q]
            s = complex(math.fsum(sel.real), math.fsum(sel.imag))
            acc.append(abs(s - main / phi) ** 2)
        per_q.append(math.fsum(acc))
    return math.fsum(per_q), per_q


def dense_lambda(lo, hi):
    """Lambda(lo + i) for the n of [lo, hi]: lambda_support scattered."""
    n, lam = lambda_support(lo, hi)
    out = np.zeros(hi - lo + 1)
    out[n - lo] = lam
    return out


LAM = dense_lambda(0, 2100)  # Lambda(n) at index n


def fsum_total(w):
    return complex(math.fsum(w.values.real), math.fsum(w.values.imag))


def residue_sums(vals, n0, q):
    """The class sums mod q of vals[i] = w(n0 + i), by the report's kernel."""
    idx = np.flatnonzero(vals)
    return variance._residue_sums(variance._terms(n0 + idx, vals[idx]), q)


def table_sums(w, q):
    """The class sums mod q of a weight table, as variance_report takes it."""
    return variance._residue_sums(variance._terms(w.n, w.values), q)


def check_against_naive(w, Q):
    want, want_per_q = naive_variance(w, Q, w.mains[0])
    rep = variance_report(w, Q)
    assert rep.direct[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    for q, ((gv, _), wv) in enumerate(zip(rep.per_q, want_per_q), start=1):
        assert gv == pytest.approx(wv, rel=1e-12, abs=1e-12), q
    assert rep.character[0] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_raw_lambda_matches_naive_rescan():
    w = build_weight_table(2000.0, 0.3, WeightKind.RAW_LAMBDA)
    assert w.mains == (complex(0.7 * 2000.0),)
    check_against_naive(w, 20)


def test_complex_phase_weight_matches_naive_rescan():
    w = build_weight_table(1500.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=3e-4)
    integral = main_term_integral(1500.0, 0.5, c=1.5, t=3e-4)
    assert w.mains == (integral,)
    check_against_naive(w, 20)


def test_random_table_matches_naive_rescan():
    rng = np.random.default_rng(99)
    n = 420
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = custom_weight_table(600.0, 0.3, vals, 2.5 - 1.0j)
    check_against_naive(w, 15)


def test_routes_agree_on_random_tables():
    # Parseval over the unit group: exact for arbitrary complex weights
    rng = np.random.default_rng(12345)
    for _ in range(20):
        X = float(rng.integers(100, 800))
        mu = float(rng.uniform(0.0, 0.6))
        m = math.floor(X) - math.floor(mu * X)
        vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        main = complex(rng.normal(), rng.normal())
        w = custom_weight_table(X, mu, vals, main)
        Q = int(rng.integers(1, 40))
        rep = variance_report(w, Q)
        (d,), (c,) = rep.direct, rep.character
        assert c == pytest.approx(d, rel=1e-10, abs=1e-10)
        for q, (dv, cv) in enumerate(rep.per_q, start=1):
            assert cv == pytest.approx(dv, rel=1e-10, abs=1e-10), q
        # README's "1e-15 level" route gap, and the spot-checked transform
        assert rep.cross_check_rel <= 1e-13
        assert rep.transform_gap <= 1e-13


def test_routes_disagree_on_a_wrong_unit_table(monkeypatch):
    # The direct route sieves its own units, so a group whose table lists
    # one unit twice (and misses another) moves only the character route.
    def bad_group(q):
        if q != 13:
            return character_group(q)
        G = CharacterGroup(13)
        G.units = G.units.copy()
        G.units[-1] = G.units[1]
        return G

    monkeypatch.setattr(variance, "character_group", bad_group)
    w = build_weight_table(2000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=1e-3)
    rep = variance_report(w, 30)
    assert rep.cross_check_rel > 1e-3
    assert not rep.cross_check_ok


def test_progression_sums_partition_total():
    w = build_weight_table(1200.0, 0.4, WeightKind.RAW_LAMBDA)
    for q in (1, 2, 7, 12, 30):
        total = sum(table_sums(w, q))
        assert total == pytest.approx(fsum_total(w), rel=1e-12)


def test_class_sums_against_dict_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m = int(rng.integers(1, 300))
        q = int(rng.integers(1, 50))
        n0 = int(rng.integers(1, 10**6))
        vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        want = np.zeros(q, dtype=complex)
        for i in range(m):
            want[(n0 + i) % q] += vals[i]
        got = residue_sums(vals, n0, q)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())


def test_class_sums_modulus_one():
    vals = np.arange(5, dtype=float) + 0j
    assert residue_sums(vals, 7, 1)[0] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# weight builds and main terms
# ---------------------------------------------------------------------------

def test_zero_frequency_classic_equals_raw():
    w1 = build_weight_table(1000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=0.0)
    w2 = build_weight_table(1000.0, 0.5, WeightKind.RAW_LAMBDA)
    assert np.array_equal(w1.n, w2.n)
    assert np.array_equal(w1.values, w2.values)


def test_classic_weight_magnitudes_are_lambda():
    w = build_weight_table(1000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=2e-3)
    assert np.array_equal(w.n, np.flatnonzero(LAM[501:1001]) + 501)
    lam = LAM[w.n]
    assert np.max(np.abs(np.abs(w.values) - lam)) <= 1e-12 * math.log(1000)


def test_logp_weight_supported_on_primes():
    w = build_weight_table(500.0, 0.2, WeightKind.LOGP_ONLY)
    mask = sieve_segment(101, 500, sieving_primes(500))
    assert np.array_equal(w.n, np.flatnonzero(mask) + 101)
    assert np.allclose(w.values, np.log(w.n.astype(float)))


def test_ps_weight_support():
    cfg = ps_config("9/10")
    w = build_weight_table(2000.0, 0.25, WeightKind.PS_PLAIN, gamma=cfg)
    members = set(ps_array(501, int(w.X), cfg).tolist())
    got = dict(zip(w.n.tolist(), w.values.tolist()))
    assert len(got) == w.n.size
    for n in range(501, 2001):
        expect = LAM[n] if n in members else 0.0
        assert got.get(n, 0.0) == expect


def test_ps_exp_weight_amplitudes():
    cfg = ps_config("9/10")
    w = build_weight_table(2000.0, 0.25, WeightKind.PS_EXP, c=1.5, t=1e-3,
                           gamma=cfg)
    expect = LAM[w.n] * w.n.astype(float) ** 0.1
    assert np.all(expect > 0)
    assert np.max(np.abs(np.abs(w.values) - expect)) <= 1e-9


def dense_reference(X, mu, kind, params):
    """(n0, values) with values[i] = w(n0 + i) at every n of (mu X, X],
    built from Lambda scattered over the whole window and then masked (the
    PS kinds by the generator route `ps_array`), phased and scaled the way
    a table over the whole window would be."""
    n0, n1 = math.floor(mu * X) + 1, math.floor(X)
    ns = np.arange(n0, n1 + 1)
    vals = dense_lambda(n0, n1)
    if kind is WeightKind.LOGP_ONLY:
        vals = np.where(sieve_segment(n0, n1, sieving_primes(n1)),
                        np.log(ns.astype(np.float64)), 0.0)
    if kind in (WeightKind.PS_PLAIN, WeightKind.PS_EXP):
        vals = np.where(np.isin(ns, ps_array(n0, n1, params["gamma"])), vals,
                        0.0)
    if kind is WeightKind.PS_EXP:
        vals = vals * ns.astype(np.float64) ** (1.0 - float(params["gamma"]))
    if kind in (WeightKind.CLASSIC_EXP, WeightKind.PS_EXP) and params["t"]:
        nz = np.flatnonzero(vals)
        twisted = np.zeros(len(vals), dtype=np.complex128)
        twisted[nz] = vals[nz] * np.exp(
            2j * np.pi * phase_frac_array(params["t"], ns[nz], params["c"]))
        vals = twisted
    return n0, vals.astype(np.complex128)


# (kind, the keyword arguments of its build)
BUILT_IN = [
    (WeightKind.RAW_LAMBDA, {}),
    (WeightKind.LOGP_ONLY, {}),
    (WeightKind.CLASSIC_EXP, dict(c=1.5, t=3e-4)),
    (WeightKind.CLASSIC_EXP, dict(c=1.5, t=0.0)),
    (WeightKind.PS_PLAIN, dict(gamma=ps_config("9/10"))),
    (WeightKind.PS_EXP, dict(c=1.5, t=1e-3, gamma=ps_config("9/10"))),
    (WeightKind.PS_PLAIN, dict(gamma=ps_config("2426/2817"))),
    (WeightKind.PS_EXP, dict(c=1.5, t=1e-3, gamma=ps_config("2426/2817"))),
    # not snapped to a rational: its guard-band entries would go to mpmath
    (WeightKind.PS_PLAIN, dict(gamma=ps_config(0.837))),
    (WeightKind.PS_EXP, dict(c=1.5, t=1e-3, gamma=ps_config(0.837))),
]


@pytest.mark.parametrize("X, mu", [
    (100.0, 0.0),        # n = 1, 4, 8 and 9 are in range
    (100.0, 0.005),      # the same n, for the twisted kinds too
    (128.0, 0.9375),     # (120, 128]: from 11^2 to 2^7
    (100.0, 0.995),      # {100}: no prime power
    (2.0e4, 0.3),
])
def test_support_table_equals_dense_reference(X, mu):
    for kind, params in BUILT_IN:
        if mu == 0.0 and kind in (WeightKind.CLASSIC_EXP, WeightKind.PS_EXP):
            continue  # their main-term integral needs mu > 0
        w = build_weight_table(X, mu, kind, **params)
        n0, ref = dense_reference(X, mu, kind, params)
        assert w.n.dtype == np.int64 and w.values.dtype == np.complex128
        assert np.array_equal(w.n, np.flatnonzero(ref) + n0), kind
        assert w.values.tobytes() == ref[w.n - n0].tobytes(), kind


def test_window_without_prime_powers_reports_main_term_only():
    # (99.5, 100] holds only n = 100, so each q contributes |M|^2 / phi(q)
    Q = 7
    inv_phi = math.fsum(1.0 / sum(1 for a in range(1, q + 1)
                                  if math.gcd(a, q) == 1)
                        for q in range(1, Q + 1))
    for kind, params in BUILT_IN:
        w = build_weight_table(100.0, 0.995, kind, **params)
        assert w.n.size == w.values.size == 0, kind
        rep = variance_report(w, Q)
        want = abs(w.mains[0]) ** 2 * inv_phi
        assert rep.direct[0] == pytest.approx(want, rel=1e-12), kind
        assert rep.character[0] == pytest.approx(want, rel=1e-10), kind
        assert rep.cross_check_ok, kind


def test_residue_index_type_follows_largest_n():
    one = np.ones(1, dtype=complex)
    for top in (2**31 - 1, 2**31):
        n = np.array([5, top], dtype=np.int64)
        terms = variance._terms(n, np.ones(2, dtype=complex))
        assert terms[0][-1] == top
        assert variance._residue_sums(terms, 7).sum() == pytest.approx(2.0)
    empty = variance._terms(np.zeros(0, dtype=np.int64), one[:0])
    assert np.array_equal(variance._residue_sums(empty, 5), np.zeros(5))


def test_weight_build_validation():
    with pytest.raises(ParameterError):
        build_weight_table(1000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5)
    with pytest.raises(ParameterError):
        build_weight_table(1000.0, 0.5, WeightKind.PS_PLAIN)
    cfg = ps_config("9/10")
    with pytest.raises(ParameterError):
        build_weight_table(1000.0, 0.5, WeightKind.PS_EXP, gamma=cfg)
    with pytest.raises(ParameterError):
        build_weight_table(1000.0, 0.5, WeightKind.PS_EXP, c=1.5, t=0.0)
    # the twist is checked as main_term_integral checks it, mu = 0 included
    # (the untwisted kinds accept it)
    for mu, c, message in ((0, 1.5, "mu must be in (0, 1), got 0.0"),
                           (0.5, 2, "c = 2 is excluded (quadratic phase)")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            build_weight_table(1000.0, mu, WeightKind.CLASSIC_EXP, c=c, t=0.0)
    # a kind that is no WeightKind member: refused, not an AttributeError
    for kind in ("raw_lambda", "custom", None):
        with pytest.raises(ParameterError):
            build_weight_table(1000.0, 0.5, kind, c=1.5, t=0.0,
                               gamma=ps_config("9/10"))
    with pytest.raises(ParameterError):
        custom_weight_table(100.0, 0.5, np.zeros(3, dtype=complex), 0.0)
    with pytest.raises(ParameterError):
        # (mu X, X] contains no integer here
        build_weight_table(100.5, 0.999, WeightKind.RAW_LAMBDA)


def test_main_terms():
    def table(kind, **params):
        return build_weight_table(1000.0, 0.5, kind, **params)

    raw = table(WeightKind.RAW_LAMBDA)
    assert raw.mains == (500.0,) and raw.scale == 1000.0
    assert table(WeightKind.CLASSIC_EXP, c=1.5, t=0.0).mains == (500.0,)
    cfg = ps_config("9/10")
    w = table(WeightKind.PS_PLAIN, gamma=cfg)
    # the range-consistent reading first, then the paper-literal X^gamma
    assert w.mains == pytest.approx((1000.0 ** 0.9 - 500.0 ** 0.9,
                                     1000.0 ** 0.9))
    assert w.scale == 1000.0 ** 0.9
    w = table(WeightKind.PS_EXP, c=1.5, t=0.0, gamma=cfg)
    assert w.mains == pytest.approx((0.9 * 500.0,))
    assert w.scale == 1000.0 ** (2.0 - 0.9)
    custom = custom_weight_table(1000.0, 0.5, np.ones(500, dtype=complex),
                                 250.0)
    assert custom.mains == (250.0,) and custom.scale == 1000.0
    with pytest.raises(ParameterError):
        variance_report(dataclasses.replace(custom, mains=()), 3)


def test_unused_params_are_ignored():
    # c and t only twist, gamma only restricts: other kinds build as without
    full = dict(c=1.5, t=1e-3, gamma=ps_config("9/10"))
    for kind, used in [(WeightKind.RAW_LAMBDA, {}),
                       (WeightKind.LOGP_ONLY, {}),
                       (WeightKind.CLASSIC_EXP, dict(c=1.5, t=1e-3)),
                       (WeightKind.PS_PLAIN, dict(gamma=full["gamma"]))]:
        a = build_weight_table(1000.0, 0.5, kind, **full)
        b = build_weight_table(1000.0, 0.5, kind, **used)
        assert np.array_equal(a.n, b.n), kind
        assert np.array_equal(a.values, b.values), kind
        assert (a.mains, a.scale) == (b.mains, b.scale), kind


# ---------------------------------------------------------------------------
# closed-form sanity cases
# ---------------------------------------------------------------------------

def test_single_modulus_closed_form():
    w = build_weight_table(300.0, 0.5, WeightKind.RAW_LAMBDA)
    main = 150.0 + 0j
    got = variance_report(dataclasses.replace(w, mains=(main,)), 1).direct[0]
    assert got == pytest.approx(abs(fsum_total(w) - main) ** 2, rel=1e-12)


def test_zero_weights_closed_form():
    # S_q(a) = 0, so each q contributes |M|^2 / phi(q)
    main = 3.0 - 4.0j
    w = custom_weight_table(60.0, 0.0, np.zeros(60, dtype=complex), main)
    Q = 12

    def phi(q):
        return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)

    want = abs(main) ** 2 * math.fsum(1.0 / phi(q) for q in range(1, Q + 1))
    rep = variance_report(w, Q)
    assert rep.direct[0] == pytest.approx(want, rel=1e-12)
    assert rep.character[0] == pytest.approx(want, rel=1e-10)
    w0 = dataclasses.replace(w, mains=(0.0,))
    assert variance_report(w0, Q).direct == (0.0,)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_cross_checks_and_ratio():
    w = build_weight_table(2000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=1e-3)
    rep = variance_report(w, 15)
    assert rep.cross_check_ok
    assert rep.cross_check_rel <= 1e-10
    assert len(rep.direct) == len(rep.character) == 1  # one main reading
    assert rep.ratios == pytest.approx(
        (rep.direct[0] / (2000.0 * 15 * math.log(2000.0)),))
    assert len(rep.per_q) == 15
    for q, (dv, cv) in enumerate(rep.per_q, start=1):
        assert cv == pytest.approx(dv, rel=1e-9, abs=1e-9), q


def test_report_ps_dual_mains():
    cfg = ps_config("9/10")
    w = build_weight_table(2000.0, 0.5, WeightKind.PS_PLAIN, gamma=cfg)
    rep = variance_report(w, 10)
    assert rep.cross_check_ok
    assert len(rep.direct) == len(rep.character) == 2
    assert rep.direct[1] != rep.direct[0]
    norm = 2000.0 ** float(cfg) * 10 * math.log(2000.0)
    assert rep.ratios == pytest.approx(tuple(d / norm for d in rep.direct))


def test_per_q_profile_reads_every_smaller_q():
    # each q's contribution does not depend on Q, so the first Q' entries
    # of the profile are the report at Q', to the last bit
    w = build_weight_table(5000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=1e-3)
    Q = 40
    rep = variance_report(w, Q)
    assert len(rep.per_q) == Q
    for Qp in (1, 2, 7, 23, 39):
        sub = variance_report(w, Qp)
        assert math.fsum(d for d, _ in rep.per_q[:Qp]) == sub.direct[0], Qp
        assert math.fsum(c for _, c in rep.per_q[:Qp]) == sub.character[0]
        assert sub.per_q == rep.per_q[:Qp], Qp


# ---------------------------------------------------------------------------
# large sieve
# ---------------------------------------------------------------------------

def naive_phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def naive_mu(n):
    m, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    return -m if n > 1 else m


def test_large_sieve_single_coefficient_closed_form():
    # one nonzero a_n: lhs = |a|^2 sum over q coprime to n of
    # (q/phi(q)) * #(primitive characters mod q)
    M, N, Q = 6, 10, 12
    pos = 4                      # n = M + 1 + pos = 11
    n_val = M + 1 + pos
    coeffs = np.zeros(N, dtype=complex)
    coeffs[pos] = 2.0 - 1.0j
    res = large_sieve_check(M, Q, coeffs)
    want = 0.0
    for q in range(1, Q + 1):
        if math.gcd(n_val, q) != 1:
            continue
        prim = sum(naive_mu(q // d) * naive_phi(d)
                   for d in range(1, q + 1) if q % d == 0)
        want += q / naive_phi(q) * prim * abs(coeffs[pos]) ** 2
    assert res.lhs == pytest.approx(want, rel=1e-10)
    assert res.bound == pytest.approx((N + Q * Q) * 5.0, rel=1e-12)
    assert res.ratio <= 1.0


def test_large_sieve_minimal_case():
    res = large_sieve_check(0, 1, np.ones(1, dtype=complex))
    assert res.ratio == pytest.approx(0.5)


def test_large_sieve_zero_coefficients():
    res = large_sieve_check(3, 5, np.zeros(8, dtype=complex))
    assert res.lhs == 0.0 and res.ratio == 0.0


def test_large_sieve_random_trials_below_bound():
    rng = np.random.default_rng(7)
    for _ in range(30):
        N = int(rng.integers(1, 120))
        Q = int(rng.integers(1, 60))
        M = int(rng.integers(0, 50))
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        res = large_sieve_check(M, Q, coeffs)
        assert res.ratio <= 1.0 + 1e-9


def test_large_sieve_on_classic_exp_weight_at_theorem_q():
    # the proof's path on a theorem weight: classic_exp at the t cap
    # X^(2/3 - c - delta), its table scattered into dense coefficients over
    # (mu X, X], and Q = floor(X / log^2 X)
    X, mu, c, delta = 10**5, 0.5, 1.5, 0.05
    t = X ** (2 / 3 - c - delta) * (1 - 1e-9)
    w = build_weight_table(float(X), mu, WeightKind.CLASSIC_EXP, c=c, t=t)
    n0 = math.floor(mu * X) + 1
    coeffs = np.zeros(X - n0 + 1, dtype=complex)
    coeffs[w.n - n0] = w.values
    Q = math.floor(X / math.log(X) ** 2)
    assert Q == 754
    res = large_sieve_check(n0 - 1, Q, coeffs)
    assert 0 < res.ratio <= 1 + 1e-9


def test_large_sieve_builds_no_group_without_primitive_characters(
        monkeypatch):
    # q == 2 (mod 4) has no primitive character, so its group is skipped
    seen = []

    def recording_group(q):
        seen.append(q)
        return character_group(q)

    monkeypatch.setattr(variance, "character_group", recording_group)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
    res = large_sieve_check(3, 30, coeffs)
    assert seen == [q for q in range(1, 31) if q % 4 != 2]
    assert 0 < res.ratio <= 1.0


def test_large_sieve_validation():
    with pytest.raises(ParameterError):
        large_sieve_check(0, 3, np.zeros(0))  # N = len(coeffs) = 0
    with pytest.raises(ParameterError):
        large_sieve_check(0, 0, np.zeros(3))
    with pytest.raises(ParameterError):
        large_sieve_check(-1, 3, np.zeros(3))
    with pytest.raises(ParameterError):
        large_sieve_check(0, 3, np.zeros((2, 2)))


def test_oversize_modulus_refused_before_q_loop(monkeypatch):
    # Q past the largest character group would otherwise run the q loop up
    # to q = MAX_MODULUS + 1 before failing; no group may be built at all.
    def no_group(q):
        raise AssertionError(f"q loop reached q = {q}")

    monkeypatch.setattr(variance, "character_group", no_group)
    w = build_weight_table(1000, 0.5, WeightKind.RAW_LAMBDA)
    with pytest.raises(ParameterError):
        variance_report(w, MAX_MODULUS + 1)
    with pytest.raises(ParameterError):
        large_sieve_check(0, MAX_MODULUS + 1, np.ones(3))
