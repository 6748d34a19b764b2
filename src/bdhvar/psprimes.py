"""Membership and counting for Piatetski-Shapiro index sets.

For 0 < gamma < 1 the index set is { [k^(1/gamma)] : k = 1, 2, ... }.
Membership of a single n is decided by the floor identity

    [-n^gamma] - [-(n+1)^gamma]  =  #{ integers k in [n^gamma, (n+1)^gamma) },

which is 1 exactly when n = [k^(1/gamma)] for some integer k (floors are
mathematical: [-2.5] = -3).  Enumeration over a range iterates k directly,
which touches only O(X^gamma) values.

Two independent routes, each with its own array kernel, are checked one
against the other by `ps-count`: the generator (`ps_array`, [k^(1/gamma)]
by `_floor_roots`) and the indicator (`ps_indicator_at`, membership at any
given n from ceil(n^gamma) by `_ceil_pows`; `ps-count` asks it only at the
primes of each window of `prime_windows`, and the PS weights only at the
prime powers).  Every route works in blocks of _BLOCK entries, so its
working memory is O(_BLOCK) plus the array it returns.

Each kernel decides in float64, then re-decides every entry within `_band`
of an integer (_GUARD_EPSILON, widened by the float64 error bound) with
`_pow_floor(m, e)`: floor(m^e) and whether m^e is an integer, exactly by an
integer root for rational gamma = u/v, else by mpmath at _MP_DIGITS digits.
The generator takes the floor, the indicator floor + (not exact).  No
floating-point logs decide a boundary.  Every route takes gamma as given,
a Fraction or a float, through `ps_config` on entry: a rational gamma (0.5
or 1/2) takes the exact path as the Fraction u/v, any other stays a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import sieve_segment
from .errors import ParameterError, ResourceError

_F64_EPS = float(np.finfo(np.float64).eps)
_SNAP_DENOMINATOR = 64
_SNAP_TOL = 1e-15
# The routes walk their input, and `prime_windows` yields [2, X], in blocks
# of _BLOCK entries; it sieves _PS_COUNT_BLOCK n at a time, so ps-count holds
# O(block + sqrt X) whatever X is.  The block sets only how often the sieve's
# Python loop over base primes runs: at X = 1e8 on 2 cores, 2^21 took
# 0.9-1.05 s, 2^18 1.0-1.1 s and 2^16 1.7-1.8 s.
_BLOCK = 1 << 16
_PS_COUNT_BLOCK = 1 << 21
# Distance to integrality below which a boundary decision escalates, and the
# mpmath working digits of the escalation for irrational gamma.
_GUARD_EPSILON = 1e-9
_MP_DIGITS = 50
# gamma = u/v takes m^u, k^v of int64 m, k exactly: 63 * max(u, v) bits
_EXACT_MAX_BITS = 1 << 18


def ps_config(gamma) -> Fraction | float:
    """The exponent gamma, 0 < gamma < 1, from a float, int, Fraction or
    'u/v' string: the exact Fraction when gamma is rational, else the float.

    Floats within 1e-15 of a rational in (0, 1) with denominator <= 64
    snap to it, so the exact path applies to the common grid values (1/2,
    3/4, 43/50, 9/10, 19/20, ...); ones as near 0 or 1 stay floats.  The
    routes below put gamma through here on entry: a Fraction decides their
    boundaries exactly, a float by mpmath.  A rational u/v whose exact
    powers could pass _EXACT_MAX_BITS raises ResourceError.
    """
    exact: Fraction | None = None
    if isinstance(gamma, str):
        try:
            exact = Fraction(gamma)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse gamma {gamma!r}") from exc
    elif isinstance(gamma, (Fraction, int)):  # exact, even past float range
        exact = Fraction(gamma)
    else:
        g = float(gamma)
        if not math.isfinite(g):
            raise ParameterError(f"gamma must be finite, got {gamma}")
        cand = Fraction(g).limit_denominator(_SNAP_DENOMINATOR)
        if abs(g - float(cand)) <= _SNAP_TOL and 0 < cand < 1:
            exact = cand
    try:
        value = g if exact is None else float(exact)
    except OverflowError:  # a rational too large for a float
        value = math.inf
    if not 0.0 < value < 1.0:
        raise ParameterError(
            f"gamma must lie strictly inside (0, 1), got {gamma}")
    if exact is not None and 63 * max(exact.numerator,
                                      exact.denominator) > _EXACT_MAX_BITS:
        raise ResourceError(f"gamma = {exact}: its exact powers could pass "
                            f"{_EXACT_MAX_BITS} bits")
    return value if exact is None else exact


def _iroot(m: int, k: int) -> tuple[int, bool]:
    """Floor integer k-th root of m >= 0, plus exactness flag.

    Pure integer Newton iteration; no floating point in the decision.
    """
    if m < 0:
        raise ParameterError("negative radicand")
    if m in (0, 1) or k == 1:
        return m, True
    x = 1 << -(-m.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > m:
        x -= 1
    while (x + 1) ** k <= m:
        x += 1
    return x, x ** k == m


def _pow_floor(m: int, exponent) -> tuple[int, bool]:
    """(floor(m^exponent), whether m^exponent is an integer), for m >= 1.

    A Fraction exponent u/v is decided exactly, as the integer v-th root of
    m^u.  A float exponent is decided by mpmath at _MP_DIGITS digits, which
    raises ResourceError when it cannot tell the power from an integer.
    """
    if m == 1:
        return 1, True  # 1^e is exactly 1 for every e
    if isinstance(exponent, Fraction):
        return _iroot(m ** exponent.numerator, exponent.denominator)
    import mpmath  # loaded on demand: most runs never escalate this far
    with mpmath.workdps(_MP_DIGITS):
        y = mpmath.power(m, exponent)
        if abs(y - mpmath.nint(y)) < mpmath.mpf(10) ** (-(_MP_DIGITS - 10)):
            raise ResourceError(
                f"{m}^{exponent} indistinguishable from an integer at "
                f"{_MP_DIGITS} digits")
        return int(mpmath.floor(y)), False


def _band(x: np.ndarray, m: np.ndarray, exponent: float) -> np.ndarray:
    """Escalation band around x = m^exponent: _GUARD_EPSILON, or the float64
    error bound 8 eps x (1 + exponent log m) where that is larger."""
    cond = x * (1.0 + exponent * np.log(np.maximum(m, 2)))
    cond *= 8.0 * _F64_EPS
    return np.maximum(_GUARD_EPSILON, cond, out=cond)


def _floor_roots(a: int, b: int, gamma: Fraction | float) -> np.ndarray:
    """[k^(1/gamma)] for k = a..b: float64 bulk, exact re-decision in the
    band."""
    ks = np.arange(a, b + 1, dtype=np.int64)
    inv = 1.0 / float(gamma)
    roots = ks.astype(np.float64) ** inv
    floors = np.floor(roots).astype(np.int64)
    band = _band(roots, ks, inv)
    frac = np.subtract(roots, floors, out=roots)  # roots is not read again
    exponent = 1 / gamma  # a Fraction stays exact, a float is inv
    for i in np.flatnonzero((frac <= band) | (frac >= 1.0 - band)).tolist():
        floors[i] = _pow_floor(int(ks[i]), exponent)[0]
    return floors


def _ceil_pows(ns: np.ndarray, gamma: Fraction | float) -> np.ndarray:
    """ceil(n^gamma) for each int64 n >= 1 of ns: float64 bulk, exact
    re-decision in the band."""
    g = float(gamma)
    pows = ns.astype(np.float64) ** g
    ceils = np.ceil(pows).astype(np.int64)
    band = _band(pows, ns, g)
    for i in np.flatnonzero(np.abs(pows - np.rint(pows)) <= band).tolist():
        floor, exact = _pow_floor(int(ns[i]), gamma)
        ceils[i] = floor + (not exact)
    return ceils


def ps_array(lo: int, hi: int, gamma: Fraction | float) -> np.ndarray:
    """All PS indices in [lo, hi], ascending, as an int64 array.

    Generator route: walks k in blocks of _BLOCK and emits [k^(1/gamma)].
    The bulk is done in vectorised float64; only k whose root lands inside
    the guard band are re-decided, one by one, by `_pow_floor`.  A gamma so
    small that the last k's root leaves int64 raises ResourceError.
    """
    if lo < 1 or hi < lo:
        raise ParameterError(f"bad PS range [{lo}, {hi}]")
    gamma = ps_config(gamma)
    g = float(gamma)
    # n >= lo needs k >= lo^gamma; pad both ends to absorb float slop.
    k_lo = max(1, math.floor(float(lo) ** g) - 2)
    k_hi = math.ceil(float(hi + 1) ** g) + 2
    if math.log2(k_hi) / g >= 63:
        raise ResourceError(f"gamma = {gamma} is too small: k^(1/gamma) "
                            f"leaves int64 by k = {k_hi}")
    out = np.empty(k_hi - k_lo + 1, dtype=np.int64)  # one n per k at most
    m = 0
    for k0 in range(k_lo, k_hi + 1, _BLOCK):
        floors = _floor_roots(k0, min(k_hi, k0 + _BLOCK - 1), gamma)
        floors = floors[(floors >= lo) & (floors <= hi)]
        out[m:m + floors.size] = floors
        m += floors.size
    return out[:m]


def ps_indicator_at(ns, gamma: Fraction | float) -> np.ndarray:
    """Boolean membership of each n of the 1-d integer array ns, all >= 1.

    Independent of ps_array, and the cross-check route against it: the
    ceil-difference identity by `_ceil_pows`, over chunks of _BLOCK entries;
    ns may come in any order.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.ndim != 1 or (ns.size and ns.min() < 1):
        raise ParameterError("PS membership needs a 1-d array of n >= 1")
    gamma = ps_config(gamma)
    out = np.empty(ns.size, dtype=bool)
    for i in range(0, ns.size, _BLOCK):
        chunk = ns[i:i + _BLOCK]
        np.equal(_ceil_pows(chunk + 1, gamma) - _ceil_pows(chunk, gamma), 1,
                 out=out[i:i + chunk.size])
    return out


def prime_windows(x: int, base_primes: np.ndarray):
    """Yield (a, mask), mask[i] == (a + i is prime), for the windows of
    _BLOCK n that tile [2, x] in order: views, valid until the next step,
    of one mask sieved _PS_COUNT_BLOCK n at a time from base_primes (at
    least the primes <= isqrt(x)).  Both sizes are read on the first step."""
    block, window = _PS_COUNT_BLOCK, _BLOCK
    mask = np.empty(block, dtype=bool)
    for lo in range(2, x + 1, block):
        hi = min(x, lo + block - 1)
        is_prime = sieve_segment(lo, hi, base_primes, out=mask[:hi - lo + 1])
        for a in range(lo, hi + 1, window):
            yield a, is_prime[a - lo:a - lo + window]


def ps_count_main_term(X: float, gamma: Fraction | float) -> float:
    """Leading term X^gamma / log X of the PS prime count up to X."""
    if X <= 1:
        raise ParameterError(f"main term needs X > 1, got {X}")
    return float(X) ** float(gamma) / math.log(X)
