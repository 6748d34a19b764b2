"""End-to-end acceptance checks, one per headline capability.

Each test prints a single `ACCEPTANCE k (<label>): PASS|FAIL` line (with
capture suspended, so the verdicts land in plain test logs) and asserts
both the numeric criterion and its wall-clock budget.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bdhvar
from bdhvar import (ExpWeightParams, WeightKind, build_weight_table,
                    custom_weight_table,
                    large_sieve_check, main_term_integral,
                    prime_exp_sum, ps_array, ps_config, ps_count_main_term,
                    ps_indicator_at, saw_psi, vaaler_eval, vaaler_expansion,
                    variance_report)
from bdhvar.arith import primes_segment, sieve_segment, sieving_primes

_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(num, label, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {num} ({label}): {status}"
    if detail:
        line += f"  [{detail}]"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def is_prime_1e6():
    return sieve_segment(0, 10**6, sieving_primes(10**6))


def test_acceptance_1_route_identity_on_random_tables():
    """Direct and character-decomposed variances agree per modulus."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20240817)
    X, Q = 10**4, 50
    worst = 0.0
    for trial in range(200):
        mu = float(rng.uniform(0.0, 0.8))
        m = math.floor(X) - math.floor(mu * X)
        vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        main = complex(rng.normal(), rng.normal()) * m / 10
        w = custom_weight_table(float(X), mu, vals, main)
        rep = variance_report(w, Q)
        for q, (dv, cv) in enumerate(rep.per_q, start=1):
            rel = abs(dv - cv) / max(dv, 1.0)
            worst = max(worst, rel)
            if rel > 1e-10:
                failures.append(f"trial {trial} q={q}: rel={rel:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"budget: {elapsed:.1f}s > 60s")
    verdict(1, "direct/character identity, 200 random tables", failures,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def naive_variance(w, Q, main):
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


def test_acceptance_2_bucketing_matches_naive_rescan():
    """Residue bucketing reproduces the literal double sum."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(5150)
    cases = []
    w1 = build_weight_table(2000.0, 0.3, WeightKind.RAW_LAMBDA)
    cases.append(("raw", w1, complex((1 - 0.3) * 2000.0)))
    w2 = build_weight_table(1500.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5,
                            t=3e-4)
    cases.append(("phase", w2, complex(main_term_integral(
        ExpWeightParams(X=1500.0, mu=0.5, c=1.5, t=3e-4)))))
    m = 2000 - 600
    w3 = custom_weight_table(2000.0, 0.3,
                             rng.normal(size=m) + 1j * rng.normal(size=m),
                             1.5 - 2.5j)
    cases.append(("random", w3, 1.5 - 2.5j))
    for name, w, main in cases:
        want, want_per_q = naive_variance(w, 20, main)
        rep = variance_report(dataclasses.replace(w, mains=(main,)), 20)
        got = rep.direct[0]
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"{name}: total {got!r} vs naive {want!r}")
        for q, ((gv, _), wv) in enumerate(zip(rep.per_q, want_per_q),
                                          start=1):
            if not math.isclose(gv, wv, rel_tol=1e-12, abs_tol=1e-12):
                failures.append(f"{name} q={q}: {gv!r} vs {wv!r}")
        got_c = rep.character[0]
        if not math.isclose(got_c, want, rel_tol=1e-10, abs_tol=1e-10):
            failures.append(f"{name}: characters {got_c!r} vs naive {want!r}")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append(f"budget: {elapsed:.1f}s > 10s")
    verdict(2, "naive rescan oracle, X<=2000 Q<=20", failures,
            f"{elapsed:.1f}s")


def test_acceptance_3_ps_generator_vs_indicator():
    """The k-generator and the floor-difference indicator agree exactly."""
    start = time.perf_counter()
    failures = []
    gammas = [Fraction(1, 2), Fraction(3, 4), 0.86, 0.9, 0.95,
              Fraction(2426, 2817)]
    lo, hi = 1, 10**5
    for gamma in gammas:
        cfg = ps_config(gamma)
        gen = ps_array(lo, hi, cfg)
        ns = np.arange(lo, hi + 1)
        ind = ns[ps_indicator_at(ns, cfg)]
        if not np.array_equal(gen, ind):
            extra = np.setxor1d(gen, ind)
            failures.append(f"gamma={gamma}: routes differ at {extra[:5]}")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"budget: {elapsed:.1f}s > 30s")
    verdict(3, "PS membership routes, [1, 1e5], six gammas", failures,
            f"{elapsed:.1f}s")


def test_acceptance_4_ps_prime_count_main_term(is_prime_1e6):
    """PS prime counts track X^gamma/log X within the next-order band."""
    start = time.perf_counter()
    failures = []
    cfg = ps_config(Fraction(9, 10))
    errs = []
    for X in (10**4, 10**5, 10**6):
        members = ps_array(1, X, cfg)
        count = int(is_prime_1e6[members].sum())
        main = ps_count_main_term(float(X), cfg)
        lx = math.log(X)
        err = abs(count - main) * lx * lx / float(X) ** cfg.gamma
        errs.append(err)
        if err > 2.0:
            failures.append(f"X={X:g}: normalized error {err:.3f} > 2")
    if errs[0] < errs[1] < errs[2] and errs[2] > 1.5 * errs[0]:
        failures.append(f"normalized errors grow monotonically: {errs}")
    elapsed = time.perf_counter() - start
    if elapsed > 300.0:
        failures.append(f"budget: {elapsed:.1f}s > 300s")
    verdict(4, "PS prime count vs X^g/log X, gamma=9/10", failures,
            f"errors {', '.join(f'{e:.2f}' for e in errs)}, {elapsed:.1f}s")


def test_acceptance_5_exp_sum_tracks_integral():
    """Prime exponential sum stays near its archimedean integral."""
    start = time.perf_counter()
    failures = []
    X, mu, c, delta = 10**5, 0.5, 1.5, 0.05
    cap = float(X) ** (1.0 - c - delta)
    worst = 0.0
    for j in range(5):
        t = cap * 10.0 ** (-(4 - j) / 2.0)
        params = ExpWeightParams(X=float(X), mu=mu, c=c, t=t)
        s = prime_exp_sum(params)
        integral = main_term_integral(params)
        scaled = abs(s - integral) / X
        worst = max(worst, scaled)
        if scaled > 0.02:
            failures.append(f"t={t:.3e}: |sum - integral|/X = {scaled:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        failures.append(f"budget: {elapsed:.1f}s > 120s")
    verdict(5, "exp sum vs integral, X=1e5, five admissible t", failures,
            f"worst scaled diff {worst:.4f}, {elapsed:.1f}s")


def test_acceptance_6_large_sieve_never_exceeds_bound():
    """Randomised primitive-character sums stay under (N + Q^2) ||a||^2."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 201))
        q = int(rng.integers(1, 201))
        m = int(rng.integers(0, 201))
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = large_sieve_check(m, q, coeffs)
        worst = max(worst, res.ratio)
        if res.ratio > 1.0 + 1e-9:
            failures.append(f"trial {trial} (N={n}, Q={q}): "
                            f"ratio {res.ratio:.12f}")
    elapsed = time.perf_counter() - start
    if elapsed > 300.0:
        failures.append(f"budget: {elapsed:.1f}s > 300s")
    verdict(6, "large sieve ratio <= 1, 100 seeded trials", failures,
            f"worst ratio {worst:.4f}, {elapsed:.1f}s")


def test_acceptance_7_sawtooth_majorant():
    """The trigonometric approximation error never beats its majorant."""
    start = time.perf_counter()
    failures = []
    ints = np.arange(-2, 4, dtype=np.float64)
    grid = np.sort(np.concatenate([np.linspace(-2.0, 3.0, 10**4 - ints.size),
                                   ints]))
    psi = saw_psi(grid)
    for H in (1, 5, 20, 100):
        exp = vaaler_expansion(H)
        h = np.arange(1, H + 1)
        if np.any(exp.b * (H + 1) > 1.0 + 1e-12):
            failures.append(f"H={H}: majorant coefficient above 1/(H+1)")
        if np.any(np.abs(exp.a) * h > 1.0 + 1e-12):
            failures.append(f"H={H}: approximation coefficient above 1/h")
        approx, majorant = vaaler_eval(grid, exp)
        if np.any(majorant < -1e-12):
            failures.append(f"H={H}: negative majorant")
        bad = int(np.sum(np.abs(psi - approx) > majorant + 1e-12))
        if bad:
            failures.append(f"H={H}: {bad} grid points violate the majorant")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"budget: {elapsed:.1f}s > 30s")
    verdict(7, "sawtooth majorant, H in {1,5,20,100}, 1e4-point grid",
            failures, f"{elapsed:.1f}s")


def test_acceptance_8_classic_weight_variance_trend():
    """Normalised variance of Lambda(n) e(t n^c) stays bounded along X."""
    start = time.perf_counter()
    failures = []
    c, mu, delta = 1.5, 0.5, 0.05
    xs = (10**4, 3 * 10**4, 10**5)
    ratios = {0.0: [], "cap": []}
    for X in xs:
        Q = math.floor(X / math.log(X) ** 2)
        for key in ratios:
            t = 0.0 if key == 0.0 else float(X) ** (2.0 / 3.0 - c - delta)
            w = build_weight_table(float(X), mu, WeightKind.CLASSIC_EXP,
                                   c=c, t=t)
            rep = variance_report(w, Q)
            if not rep.cross_check_ok:
                failures.append(f"X={X:g} t={t:g}: cross-check "
                                f"rel={rep.cross_check_rel:.2e}")
            ratios[key].append(rep.ratios[0])
    for key, label in ((0.0, "t=0"), ("cap", "t at cap")):
        series = ratios[key]
        if series[-1] > 2.0 * series[0]:
            failures.append(
                f"{label}: ratio grew {series[0]:.3f} -> {series[-1]:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed > 600.0:
        failures.append(f"budget: {elapsed:.1f}s > 600s")
    detail = (f"t=0: {', '.join(f'{r:.3f}' for r in ratios[0.0])}; "
              f"t=cap: {', '.join(f'{r:.3f}' for r in ratios['cap'])}; "
              f"{elapsed:.1f}s")
    verdict(8, "classic weight V(Q)/(X Q log X) along X", failures, detail)


def test_acceptance_9_ps_weight_variance_trends():
    """PS-restricted variances stay bounded on the theorem scale."""
    start = time.perf_counter()
    failures = []
    gamma = Fraction(9, 10)
    cfg = ps_config(gamma)
    g = cfg.gamma
    c, mu, delta = 1.5, 0.5, 0.05
    xs = (10**4, 3 * 10**4, 10**5)
    plain, plain_alt, twisted = [], [], []
    for X in xs:
        Q = math.floor(float(X) ** g / math.log(X) ** 2)
        w = build_weight_table(float(X), mu, WeightKind.PS_PLAIN, ps=cfg)
        rep = variance_report(w, Q)
        if not rep.cross_check_ok:
            failures.append(f"PS_PLAIN X={X:g}: cross-check "
                            f"rel={rep.cross_check_rel:.2e}")
        if len(rep.direct) < 2 or len(rep.character) < 2:
            failures.append(f"PS_PLAIN X={X:g}: missing X^gamma main variant")
        plain.append(rep.ratios[0])
        plain_alt.append(rep.ratios[-1])

        t = float(X) ** ((4.0 * g - 3.0 * c - 1.0) / 3.0 - delta)
        w2 = build_weight_table(float(X), mu, WeightKind.PS_EXP, c=c, t=t,
                                ps=cfg)
        rep2 = variance_report(w2, Q)
        if not rep2.cross_check_ok:
            failures.append(f"PS_EXP X={X:g}: cross-check "
                            f"rel={rep2.cross_check_rel:.2e}")
        twisted.append(rep2.ratios[0])
    for label, series in (("PS plain", plain), ("PS twisted", twisted)):
        if series[-1] > 2.0 * series[0]:
            failures.append(
                f"{label}: ratio grew {series[0]:.3f} -> {series[-1]:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed > 900.0:
        failures.append(f"budget: {elapsed:.1f}s > 900s")
    detail = (f"plain: {', '.join(f'{r:.3f}' for r in plain)}; "
              f"plain alt-main: {', '.join(f'{r:.3f}' for r in plain_alt)}; "
              f"twisted: {', '.join(f'{r:.3f}' for r in twisted)}; "
              f"{elapsed:.1f}s")
    verdict(9, "PS weight variances on the X^g / X^(2-g) scales", failures,
            detail)


def test_theorem_scale_classic_row_at_x_3e5():
    """A classic_exp row at X = 3e5, Q = 1886 with t just inside the cap.

    Both routes and the transform spot checks hold at theorem scale, and the
    normalised variance stays in acceptance 8's band: within a factor 2 of
    the X = 1e4 value at the cap.
    """
    start = time.perf_counter()
    failures = []
    c, mu, delta = 1.5, 0.5, 0.05
    ratios = []
    for X in (10**4, 3 * 10**5):
        Q = math.floor(X / math.log(X) ** 2)
        t = float(X) ** (2.0 / 3.0 - c - delta) * (1.0 - 1e-9)
        w = build_weight_table(float(X), mu, WeightKind.CLASSIC_EXP, c=c, t=t)
        rep = variance_report(w, Q)
        if rep.cross_check_rel > 1e-10:
            failures.append(f"X={X:g}: route gap {rep.cross_check_rel:.2e}")
        if rep.transform_gap > 1e-10:
            failures.append(f"X={X:g}: transform gap {rep.transform_gap:.2e}")
        ratios.append(rep.ratios[0])
    if Q != 1886:
        failures.append(f"Q rule gave {Q}, expected 1886")
    if not 0.5 * ratios[0] <= ratios[1] <= 2.0 * ratios[0]:
        failures.append(f"ratio {ratios[1]:.3f} outside [0.5, 2] x "
                        f"{ratios[0]:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"budget: {elapsed:.1f}s > 60s")
    verdict("8, X=3e5", "classic row at theorem scale, Q=1886, t at cap",
            failures, f"ratios {ratios[0]:.3f} -> {ratios[1]:.3f}, "
            f"route gap {rep.cross_check_rel:.1e}, transform gap "
            f"{rep.transform_gap:.1e}, {elapsed:.1f}s")


def test_acceptance_10_byte_identical_reruns(tmp_path):
    """Serialized reports are byte-identical when a run is repeated.

    `--threads` has no effect, so the runs at 1, 2 and 8 and the rerun all
    take one path: four reruns of the same configuration.
    """
    failures = []
    base = ["-m", "bdhvar.cli", "variance", "--x-grid", "2000,5000",
            "--kind", "classic_exp", "--t-rule", "x_pow:-0.9",
            "--seed", "7"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(bdhvar.__file__).resolve().parents[1]))
    blobs = []
    for k, threads in enumerate(("1", "2", "8")):
        out = tmp_path / f"t{threads}.csv"
        proc = subprocess.run([sys.executable] + base +
                              ["--threads", threads, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            failures.append(f"threads={threads}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[:200]}")
            continue
        blobs.append(out.read_bytes())
    if len(blobs) == 3 and not (blobs[0] == blobs[1] == blobs[2]):
        failures.append("CSV bytes differ between reruns (--threads 1/2/8)")
    rerun = tmp_path / "rerun.csv"
    proc = subprocess.run([sys.executable] + base +
                          ["--threads", "1", "--out", str(rerun)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        failures.append(f"rerun: exit {proc.returncode}")
    elif blobs and rerun.read_bytes() != blobs[0]:
        failures.append("rerun bytes differ from the first run")
    verdict(10, "byte-identical CLI reports on rerun", failures)


# Montgomery (1970) / Hooley (1975): for Lambda on [1, X] with main term X,
# V(Q) = Q X log Q - c Q X + o(Q X) in the BDH range, where
# c = gamma + log 2 pi + 1 + sum_p log p / (p (p - 1)) = 4.170458...
# Measured gaps V / (Q X) - (log Q - c) at Q = X / log^2 X: +0.1377 at
# X = 1e5 (Q = 754) and +0.0662 at X = 3e5 (Q = 1886).
MH_GAP_BOUND = 0.2


def test_acceptance_11_montgomery_hooley_anchor():
    """V(Q) of Lambda on [1, X] against Q X log Q - c Q X.

    The one check whose expected value does not come from the package:
    an error both routes share still passes the route cross-check, but
    not this.  The gap must stay under MH_GAP_BOUND, fall from X = 1e5 to
    3e5, and fall along each row's prefix profile Q/8, Q/4, Q/2, Q.
    """
    start = time.perf_counter()
    failures = []
    p = primes_segment(2, 10**6).astype(np.float64)
    c = math.fsum([0.5772156649015329, math.log(2.0 * math.pi), 1.0,
                   *(np.log(p) / (p * (p - 1.0))).tolist()])
    if not 4.17045 < c < 4.17047:
        failures.append(f"c = {c!r}, expected 4.170458...")
    gaps = []
    for X in (10**5, 3 * 10**5):
        Q = math.floor(X / math.log(X) ** 2)
        w = build_weight_table(float(X), 0.0, WeightKind.RAW_LAMBDA)
        rep = variance_report(w, Q)
        if not rep.cross_check_ok:
            failures.append(f"X={X:g}: cross-check "
                            f"rel={rep.cross_check_rel:.2e}")
        profile = []
        for Qp in (Q // 8, Q // 4, Q // 2, Q):
            V = math.fsum(d for d, _ in rep.per_q[:Qp])
            profile.append(V / (Qp * X) - (math.log(Qp) - c))
        if not all(a > b for a, b in zip(profile, profile[1:])):
            failures.append(f"X={X:g}: gap does not fall along Q': "
                            + ", ".join(f"{g:.4f}" for g in profile))
        gaps.append(profile[-1])
        if not abs(profile[-1]) <= MH_GAP_BOUND:
            failures.append(f"X={X:g} Q={Q}: gap {profile[-1]:+.4f} "
                            f"beyond {MH_GAP_BOUND}")
    if not abs(gaps[1]) < abs(gaps[0]):
        failures.append(f"gap did not fall with X: {gaps[0]:+.4f} -> "
                        f"{gaps[1]:+.4f}")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"budget: {elapsed:.1f}s > 30s")
    verdict(11, "Montgomery-Hooley anchor, raw Lambda, X in {1e5, 3e5}",
            failures, f"c = {c:.6f}, gaps "
            + ", ".join(f"{g:+.4f}" for g in gaps) + f", {elapsed:.1f}s")


# Friedlander-Goldston (1996): for Lambda on [1, X] with main term X and
# sqrt X < q <= Q, each modulus alone has
#     V_q ~ X (log q - gamma - log 2 pi - sum_{p | q} log p / (p - 1)).
# The ratios V_q / prediction scatter about 1 with quartiles 0.967, 1.058
# at X = 1e5 and 0.973, 1.036 at 3e5, a spread from the primes, not from
# the package.  A centre (the mean, and the medians of odd q, q = 2 mod 4
# and q = 0 mod 4) counts as on the anchor when it lies within half that
# row's interquartile range of 1.  Measured: the worst centre is 0.0314
# from 1 at X = 1e5 (q = 2 mod 4; half-range 0.0454, margin 1.4x) and
# 0.0061 at 3e5 (the mean; half-range 0.0316, margin 5.2x).
FG_CLASSES = {"odd q": (2, 1), "q = 2 mod 4": (4, 2), "q = 0 mod 4": (4, 0)}


def prime_divisors(q):
    """The primes dividing q, by trial division (not the package's)."""
    out, d = [], 2
    while d * d <= q:
        if q % d == 0:
            out.append(d)
            while q % d == 0:
                q //= d
        d += 1
    return out + [q] if q > 1 else out


def fg_prediction(X, q):
    """X (log q - gamma - log 2 pi - sum_{p | q} log p / (p - 1))."""
    return X * (math.log(q) - 0.5772156649015329 - math.log(2.0 * math.pi)
                - math.fsum(math.log(p) / (p - 1) for p in prime_divisors(q)))


def test_friedlander_goldston_per_modulus_anchor():
    """Each q's V_q of Lambda on [1, X] against Friedlander-Goldston.

    Acceptance 11 checks V(Q) as one number, which an error confined to
    some moduli barely moves.  Here the mean ratio and each class's median
    ratio must lie in the band above and move toward 1 from X = 1e5 to 3e5.
    """
    centres = []
    for X in (10**5, 3 * 10**5):
        Q = math.floor(X / math.log(X) ** 2)
        rep = variance_report(
            build_weight_table(float(X), 0.0, WeightKind.RAW_LAMBDA), Q)
        qs = np.arange(math.isqrt(X) + 1, Q + 1)
        ratio = np.array([rep.per_q[q - 1][0] / fg_prediction(X, q)
                          for q in qs.tolist()])
        row = {"mean": float(ratio.mean())}
        for name, (m, r) in FG_CLASSES.items():
            row[name] = float(np.median(ratio[qs % m == r]))
        q1, q3 = np.percentile(ratio, [25, 75])
        band = (q3 - q1) / 2
        for name, centre in row.items():
            assert abs(centre - 1.0) <= band, (X, name, centre, band)
        centres.append(row)
    for name in centres[0]:
        assert abs(centres[1][name] - 1.0) < abs(centres[0][name] - 1.0), (
            name, centres[0][name], centres[1][name])
