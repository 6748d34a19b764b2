"""Oscillatory building blocks: e(t n^c) phases, the sawtooth approximation
by trigonometric polynomials, and the archimedean main-term integral.

Phase reduction has two tiers by the magnitude M = |t| n^c: float64 for
small M, and beyond that one anchor per block of ascending n in `decimal`,
at a precision chosen from M, the rest of the block as float64 offsets.
The cutoff comes from the float64 epsilon and the worst-case conditioning
of n^c, so the documented 1e-10 absolute error on the fractional part holds
throughout, by the same algorithm on every platform.

The sawtooth psi(t) = {t} - 1/2 is approximated by the degree-H polynomial
with coefficients a(h) = -(2*pi*i*h)^(-1) * Jhat(h/(H+1)), where

    Jhat(theta) = pi*theta*(1-|theta|)*cot(pi*theta) + |theta|,

and the pointwise error is majorised by the nonnegative Fejer-type kernel
with coefficients b(h) = (2H+2)^(-1) * (1 - |h|/(H+1)).

The main-term integral of e(t y^c) over (mu*X, X] costs O(1).  With
u = y^c it is the integral of g(u) e(tu), g(u) = u^(1/c-1)/c, and it splits
at y*, where 2*pi*|t| y*^c = 64.  Below y* (at most about 10 periods) it is
15-point Gauss-Legendre on equal-phase panels, nodes as offsets from the
start, at least 12 per period.  Above y* it is the endpoint series
sum_k (-1)^k g^(k)(U) e(tU) / (2*pi*i*t)^(k+1) at each endpoint U (DLMF
8.11; Olver, Asymptotics and Special Functions, ch. 3): each g^(k) keeps
one sign and decreases, so the remainder after K terms is at most
|2*pi*t|^-K |g^(K-1)(U)|, and summing stops below 2^-60 of the endpoint's
sum.  Against the closed form (1/c) z^(-1/c) Gamma(1/c, z a^c, z b^c),
z = -2*pi*i*t, the relative error stays below 1e-11, except when a lies
far below y* (see `oscillatory_integral`).

`main_term_integral` and `prime_exp_sum` take the twist e(t n^c) on
(mu X, X] as plain numbers and refuse, with ParameterError, any outside
X >= 2, 0 < mu < 1, 1 < c < 3 with c != 2, t finite.
"""

from __future__ import annotations

import cmath
import decimal
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import primes_segment
from .errors import ParameterError, ResourceError

# Absolute-error target for reduced phases.
PHASE_ABS_TOL = 1e-10
# Worst-case conditioning of n^c over the supported domain (c < 3, n <= 1e9).
_COND = 64.0
_TIER1_MAX = (0.5 * PHASE_ABS_TOL) / (_COND * float(np.finfo(np.float64).eps))
_PHASE_BUDGET = 1e60

GL_POINTS = 15                 # Gauss-Legendre nodes per panel
NODES_PER_PERIOD = 12          # spec floor is 8; extra nodes buy margin
# oscillatory_integral switches from panels to the endpoint series at y*,
# where 2*pi*|t| y*^c = _SERIES_START.  Past y* the series' term ratio
# (k + 1 - 1/c) / (2*pi*|t| y^c) is at most (k + 1) / _SERIES_START, so the
# terms fall to _SERIES_TOL of the first within 21 terms for every c in
# (1, 3); below y* lie at most _SERIES_START / (2*pi) ~ 10 periods.
_SERIES_START = 64.0
_SERIES_TOL = 2.0 ** -60
# Cap on vaaler_eval's phase work: len(x) x H entries at 24 bytes each (a
# complex128 phase plus its real part), as if the whole table were resident.
VAALER_MAX_BYTES = 2**30
# vaaler_eval builds its phase table this many x points at a time.
_VAALER_ROWS = 256


def saw_psi(x):
    """psi(x) = {x} - 1/2 (-1/2 at integers), an array of x's shape."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("saw_psi needs finite input")
    return np.asarray((arr - np.floor(arr)) - 0.5)  # 0-d for a scalar x


def phase_frac_array(t: float, ns: np.ndarray, c: float) -> np.ndarray:
    """frac(t * n^c) for each n of ns, a scalar (as a 0-d array) or a 1-d
    non-decreasing array, with absolute error <= 1e-10 (circularly, mod 1).

    Past the float64 tier the n, ascending as given, fall into anchored blocks.
    """
    if not (math.isfinite(t) and math.isfinite(c)):
        raise ParameterError("t and c must be finite")
    xs = np.asarray(ns).astype(np.float64)
    flat = xs.reshape(-1)
    if (xs.ndim > 1 or not np.all(flat[1:] >= flat[:-1])  # a NaN n fails
            or flat.size and not (flat[0] > 0 and flat[-1] < math.inf)):
        raise ParameterError("phase reduction needs finite n > 0, as a scalar "
                             "or a 1-d non-decreasing array")
    out = np.asarray(xs ** c)  # in place from here: a 0-d n stays an array
    out *= t  # t n^c, and |t n^c| = |t| n^c exactly
    hi = np.abs(out) > _TIER1_MAX
    np.subtract(out, np.floor(out), out=out, where=~hi)
    # Past float64: one decimal anchor a per block of ascending n, whose n
    # with |t| (n^c - a^c) <= _TIER1_MAX are float64 offsets from a
    idx = np.flatnonzero(hi)
    if idx.size:
        res = out.reshape(-1)
        mag = float(np.abs(res[idx]).max())
        if mag > _PHASE_BUDGET:
            raise ResourceError(
                f"|t|*n^c ~ {mag:.3e} exceeds the extended-precision budget")
        srt, i = flat[idx], 0
        while i < idx.size:
            a = float(srt[i])
            ta = t * a ** c
            end = a * (1 + _TIER1_MAX / abs(ta)) ** (1 / c) if c > 0 else a
            j = int(np.searchsorted(srt, end, side="right"))  # > i: end >= a
            ph = _anchor_frac(t, a, c) + _offset_phases(ta, a, srt[i:j] - a, c)
            res[idx[i:j]] = ph - np.floor(ph)
            i = j
    return out


def _anchor_frac(t: float, a: float, c: float) -> float:
    """frac(t a^c) in a decimal context of its own, 30 digits past |t| a^c."""
    digits = 30 + int(math.log10(abs(t) * a ** c + 10.0))
    with decimal.localcontext(decimal.Context(prec=digits)):
        val = decimal.Decimal(t) * decimal.Decimal(a) ** decimal.Decimal(c)
        return float(val - math.floor(val))


def _offset_phases(ta: float, a: float, s: np.ndarray, c: float) -> np.ndarray:
    """t (a + s)^c - t a^c, ta = t a^c, to a few eps of itself."""
    return ta * np.expm1(c * np.log1p(s / a))


# ---------------------------------------------------------------------------
# Vaaler-style sawtooth approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VaalerExpansion:
    """Degree-H approximation of psi plus its error majorant, H = len(a).

    a[h-1] is the coefficient of e(hx) for h = 1..H (a(-h) = conj(a(h))).
    b[h] for h = 0..H gives the majorant Re sum b(h) e(hx) >= 0.
    """

    a: np.ndarray
    b: np.ndarray


def _jhat(theta: np.ndarray) -> np.ndarray:
    t = np.abs(theta)
    return np.pi * theta * (1.0 - t) / np.tan(np.pi * theta) + t


def vaaler_expansion(H: int) -> VaalerExpansion:
    """Coefficients of the degree-H sawtooth approximation."""
    if not isinstance(H, (int, np.integer)) or H < 1:
        raise ParameterError(f"H must be an integer >= 1, got {H}")
    h = np.arange(1, H + 1, dtype=np.float64)
    a = -_jhat(h / (H + 1)) / (2j * np.pi * h)
    b = (1.0 - np.arange(0, H + 1) / (H + 1)) / (2 * H + 2)
    return VaalerExpansion(a=a, b=b)


def check_vaaler_size(points: int, H: int) -> None:
    """Raise ResourceError for vaaler_eval work over VAALER_MAX_BYTES."""
    need = points * H * 24
    if need > VAALER_MAX_BYTES:
        raise ResourceError(
            f"Vaaler phase work of {points} points x H={H} is "
            f"{need / 2**30:.1f} GiB of phase table, over "
            f"{VAALER_MAX_BYTES / 2**30:g} GiB")


def vaaler_eval(x, exp: VaalerExpansion):
    """(approximation, majorant) at x; |psi(x) - approx| <= majorant.

    Both outputs are real arrays of x's shape (0-d for a scalar).  The
    phases e(x h), of x h reduced mod 1 exactly (so their rounding does not
    grow with H), are built for _VAALER_ROWS points at a time, so the
    working set is O(_VAALER_ROWS * H) beside the outputs, whatever x.size
    is.  Every point's sums are the same floats as from one x.size x H
    table: numpy evaluates a one-row product as a dot, which rounds
    differently, so a last block of one point joins the block before it.
    A non-finite x raises ParameterError, and work over VAALER_MAX_BYTES
    (see check_vaaler_size) ResourceError, first.
    """
    shape = np.shape(x)
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ParameterError("vaaler_eval needs finite input")
    check_vaaler_size(arr.size, len(exp.a))
    h = np.arange(1, len(exp.a) + 1, dtype=np.float64)
    approx, majorant = np.empty((2, arr.size))
    starts = list(range(0, arr.size, _VAALER_ROWS))
    if len(starts) > 1 and arr.size - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [arr.size]):
        xh = np.outer(arr[lo:hi], h)
        xh -= np.floor(xh)  # exact in float64
        ph = np.exp(2j * np.pi * xh)
        approx[lo:hi] = 2.0 * (ph @ exp.a).real
        majorant[lo:hi] = exp.b[0] + 2.0 * (ph.real @ exp.b[1:])
    return approx.reshape(shape), majorant.reshape(shape)


# ---------------------------------------------------------------------------
# Main-term integral and the prime exponential sum
# ---------------------------------------------------------------------------

def oscillatory_integral(a: float, b: float, t: float, c: float) -> complex:
    """integral of e(t y^c) dy over [a, b], 0 < a <= b, a, b, t, c finite.

    With u = y^c the integrand is g(u) e(t u), g(u) = u^(1/c - 1) / c.  The
    range splits at y*, where 2*pi*|t| y*^c = _SERIES_START:

    * head [a, min(b, y*)]: at most _SERIES_START / (2*pi) ~ 10 periods,
      so at most 9 panels of `_panel_integral`;
    * tail [max(a, y*), b]: F(b) - F(max(a, y*)) with F the endpoint
      (integration-by-parts) series of `_endpoint_series`.

    A range of at most ~10 periods is all head, wherever it lies: F is of
    the size of one period's integral, so F(b) - F(a) would lose relative
    accuracy on a range much shorter than a period.

    Each call costs O(1), whatever the number of periods.  Against the
    closed form (1/c) z^(-1/c) Gamma(1/c, z a^c, z b^c), z = -2*pi*i*t, the
    relative error is below 1e-11 (tests hold it there up to X = 1e8, 2.6e7
    periods, at 3.7e9 periods, and on short ranges out to [1e9, 1e9 + 0.2]),
    except when a lies far below y*: Gauss-Legendre in y then meets the
    non-analytic y^c near 0, about 3e-6 on [1e-6, 100] at t = 0.5, c = 1.5.
    An endpoint phase |t| y^c past the extended-precision budget of
    `phase_frac_array` raises ResourceError.
    """
    if not all(map(math.isfinite, (a, b, t, c))):
        raise ParameterError(f"need finite a, b, t and c, got {(a, b, t, c)}")
    if not 0 < a <= b:
        raise ParameterError(f"need 0 < a <= b, got [{a}, {b}]")
    if a == b:
        return 0j
    if t == 0.0:
        return complex(b - a)
    n_osc = abs(t) * (b ** c - a ** c)
    if n_osc <= _SERIES_START / (2.0 * math.pi):
        return _panel_integral(a, b, t, c)  # this holds whenever b <= y*
    y_star = (_SERIES_START / (2.0 * math.pi * abs(t))) ** (1.0 / c)
    if a >= y_star:
        return _endpoint_series(b, t, c) - _endpoint_series(a, t, c)
    return (_panel_integral(a, y_star, t, c)
            + _endpoint_series(b, t, c) - _endpoint_series(y_star, t, c))


def _endpoint_series(y: float, t: float, c: float) -> complex:
    """F(y^c) with F(U) = e(tU) sum_k (-1)^k g^(k)(U) / (2*pi*i*t)^(k+1).

    F is the antiderivative of g(u) e(tu) that vanishes at infinity, up to
    the remainder of the truncated sum.  Each g^(k) keeps one sign and
    |g^(k)| decreases to 0, so after K terms that remainder is at most
    |2*pi*t|^-K |g^(K-1)(U)|: the size of the last term taken.  Summing
    stops once it is below _SERIES_TOL of the partial sum.
    """
    u = y ** c
    alpha = 1.0 / c - 1.0
    iw = 2j * math.pi * t
    term = u ** alpha / (c * iw)
    total = term
    k = 0
    while abs(term) > _SERIES_TOL * abs(total):
        term *= (k - alpha) / (iw * u)
        total += term
        k += 1
    return cmath.exp(2j * math.pi * float(phase_frac_array(t, y, c))) * total


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The GL_POINTS-point rule, read-only, built on first use: runs that
    never integrate by panels never load `numpy.polynomial`."""
    nodes, weights = np.polynomial.legendre.leggauss(GL_POINTS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_integral(a: float, b: float, t: float, c: float) -> complex:
    """integral of e(t y^c) dy over [a, b], 0 < a < b, t != 0, by panels.

    P >= 8 equal-phase panels of GL_POINTS-point Gauss-Legendre, with at
    least NODES_PER_PERIOD nodes per period.  Ends and nodes are offsets s
    from a, s_k = a expm1(log1p(k g / P) / c) with g = (b/a)^c - 1, and a
    node's phase is frac(t a^c) plus t a^c expm1(c log1p(s / a)), so it is
    off by about eps times the phase turned over [a, b], wherever [a, b]
    lies.  Callers pass at most about 10 periods (9 panels), evaluated at
    once; the totals are the correctly rounded sums of the panel values.
    """
    a = max(a, 1e-100 * b)  # (b/a)^c stays finite; drops under 1e-100 b
    g = math.expm1(c * math.log1p((b - a) / a))
    ta = t * a ** c
    panels = max(8, math.ceil(abs(ta) * g * NODES_PER_PERIOD / GL_POINTS))
    k = np.arange(panels + 1, dtype=np.float64)
    s = a * np.expm1(np.log1p(k * g / panels) / c)
    s[-1] = b - a
    mid = 0.5 * (s[1:] + s[:-1])
    half = 0.5 * (s[1:] - s[:-1])
    nodes, weights = _gauss_legendre()
    offsets = mid[:, None] + half[:, None] * nodes[None, :]
    ph = phase_frac_array(t, a, c) + _offset_phases(ta, a, offsets, c)
    vals = (np.exp(2j * np.pi * (ph % 1.0)) @ weights) * half
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _check_twist(X: float, mu: float, c: float, t: float) -> None:
    """Refuse a twist e(t n^c) on (mu X, X] outside X >= 2 (finite),
    0 < mu < 1, 1 < c < 3 with c != 2, t finite."""
    if not (X >= 2 and math.isfinite(X)):
        raise ParameterError(f"X must be finite and >= 2, got {X}")
    if not 0.0 < mu < 1.0:
        raise ParameterError(f"mu must be in (0, 1), got {mu}")
    if not 1.0 < c < 3.0:
        raise ParameterError(f"c must be in (1, 3), got {c}")
    if c == 2.0:
        raise ParameterError("c = 2 is excluded (quadratic phase)")
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")


def main_term_integral(X: float, mu: float, *, c: float, t: float) -> complex:
    """integral of e(t y^c) dy over (mu X, X]; equals (1-mu) X when t = 0."""
    _check_twist(X, mu, c, t)
    if t == 0.0:
        return complex((1.0 - mu) * X)
    return oscillatory_integral(mu * X, X, t, c)


def prime_exp_sum(X: float, mu: float, *, c: float, t: float) -> complex:
    """sum of e(t p^c) log p over primes mu X < p <= X, ascending p.

    Only that window is sieved.  Accumulation is exactly rounded via
    math.fsum.
    """
    _check_twist(X, mu, c, t)
    ps = primes_segment(math.floor(mu * X) + 1, math.floor(X))
    if ps.size == 0:
        return 0j
    fr = phase_frac_array(t, ps, c)
    vals = np.exp(2j * np.pi * fr) * np.log(ps.astype(np.float64))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))
