"""Oscillatory building blocks: e(t n^c) phases, the sawtooth approximation
by trigonometric polynomials, and the archimedean main-term integral.

Phase reduction is tiered by the magnitude M = |t| n^c.  Small M is done in
float64; mid-range M uses 80-bit long doubles; beyond that each phase is
reduced with mpmath at a precision chosen from M.  Tier cutoffs are derived
at import time from the machine epsilons together with the worst-case
conditioning factor of n^c, so the documented 1e-10 absolute error on the
fractional part holds throughout.

The sawtooth psi(t) = {t} - 1/2 is approximated by the degree-H polynomial
with coefficients a(h) = -(2*pi*i*h)^(-1) * Jhat(h/(H+1)), where

    Jhat(theta) = pi*theta*(1-|theta|)*cot(pi*theta) + |theta|,

and the pointwise error is majorised by the nonnegative Fejer-type kernel
with coefficients b(h) = (2H+2)^(-1) * (1 - |h|/(H+1)).

The main-term integral over (mu*X, X] is evaluated by 15-point
Gauss-Legendre on equal-phase panels sized to keep at least 12 nodes per
oscillation period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import ParameterError, ResourceError

# Absolute-error target for reduced phases.
PHASE_ABS_TOL = 1e-10
# Worst-case conditioning of n^c over the supported domain (c < 3, n <= 1e9).
_COND = 64.0
_TIER1_MAX = (0.5 * PHASE_ABS_TOL) / (_COND * float(np.finfo(np.float64).eps))
_TIER2_MAX = (0.5 * PHASE_ABS_TOL) / (_COND * float(np.finfo(np.longdouble).eps))
_MPMATH_BUDGET = 1e60

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
NODES_PER_PERIOD = 12          # spec floor is 8; extra nodes buy margin
MAX_OSCILLATIONS = 1e9
# Panels evaluated per vectorised step of oscillatory_integral (at least 2);
# bounds its working set and does not change its result.
_PANEL_CHUNK = 1 << 13


@dataclass(frozen=True)
class ExpWeightParams:
    """Parameters (X, mu, c, t) of the weight Lambda(n) e(t n^c).

    Constraints: X >= 2, 0 < mu < 1, 1 < c < 3 with c != 2, t finite.
    """

    X: float
    mu: float
    c: float
    t: float

    def __post_init__(self):
        if not (self.X >= 2 and math.isfinite(self.X)):
            raise ParameterError(f"X must be finite and >= 2, got {self.X}")
        if not 0.0 < self.mu < 1.0:
            raise ParameterError(f"mu must be in (0, 1), got {self.mu}")
        if not 1.0 < self.c < 3.0:
            raise ParameterError(f"c must be in (1, 3), got {self.c}")
        if self.c == 2.0:
            raise ParameterError("c = 2 is excluded (quadratic phase)")
        if not math.isfinite(self.t):
            raise ParameterError(f"t must be finite, got {self.t}")


def unit_exp(x):
    """e(x) = exp(2*pi*i*x), reducing x mod 1 before the trig call.

    Accepts scalars or arrays; rejects non-finite input.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("unit_exp needs finite input")
    frac = arr - np.floor(arr)
    out = np.exp(2j * np.pi * frac)
    return complex(out) if np.isscalar(x) or arr.ndim == 0 else out


def saw_psi(x):
    """psi(x) = {x} - 1/2, with psi(integer) = -1/2."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("saw_psi needs finite input")
    out = (arr - np.floor(arr)) - 0.5
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _phase_frac_mp(t: float, n: float, c: float) -> float:
    mag = abs(t) * float(n) ** c
    if mag > _MPMATH_BUDGET:
        raise ResourceError(
            f"|t|*n^c ~ {mag:.3e} exceeds the extended-precision budget")
    digits = 30 + int(math.log10(mag + 10.0))
    with mpmath.workdps(digits):
        val = mpmath.mpf(t) * mpmath.power(n, c)
        return float(val - mpmath.floor(val))


def reduced_phase(t: float, n: float, c: float) -> float:
    """frac(t * n^c) with absolute error <= 1e-10 (circularly, mod 1).

    Escalates through long-double and mpmath tiers as |t| n^c grows.
    """
    if n <= 0:
        raise ParameterError(f"reduced_phase needs n > 0, got {n}")
    if not (math.isfinite(t) and math.isfinite(c)):
        raise ParameterError("t and c must be finite")
    mag = abs(t) * float(n) ** c
    if mag <= _TIER1_MAX:
        v = t * float(n) ** c
        return v - math.floor(v)
    if mag <= _TIER2_MAX:
        v = np.longdouble(t) * np.longdouble(n) ** np.longdouble(c)
        return float(v - np.floor(v))
    return _phase_frac_mp(t, n, c)


def phase_frac_array(t: float, ns: np.ndarray, c: float) -> np.ndarray:
    """Vectorised reduced_phase over an array of n values."""
    ns = np.asarray(ns)
    xs = ns.astype(np.float64)
    if xs.size and float(xs.min()) <= 0:
        raise ParameterError("phase reduction needs n > 0")
    mags = abs(t) * xs ** c
    out = np.empty(xs.shape, dtype=np.float64)
    lo = mags <= _TIER1_MAX
    v = t * xs[lo] ** c
    out[lo] = v - np.floor(v)
    mid = ~lo & (mags <= _TIER2_MAX)
    if np.any(mid):
        w = np.longdouble(t) * xs[mid].astype(np.longdouble) ** np.longdouble(c)
        out[mid] = (w - np.floor(w)).astype(np.float64)
    hi = np.flatnonzero(mags > _TIER2_MAX)
    for i in hi.tolist():
        out.flat[i] = _phase_frac_mp(t, float(xs.flat[i]), c)
    return out


# ---------------------------------------------------------------------------
# Vaaler-style sawtooth approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VaalerExpansion:
    """Degree-H approximation of psi plus its error majorant.

    a[h-1] is the coefficient of e(hx) for h = 1..H (a(-h) = conj(a(h))).
    b[h] for h = 0..H gives the majorant Re sum b(h) e(hx) >= 0.
    """

    H: int
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
    return VaalerExpansion(H=int(H), a=a, b=b)


def vaaler_eval(x, exp: VaalerExpansion):
    """(approximation, majorant) at x; |psi(x) - approx| <= majorant.

    Both outputs are real; x may be a scalar or an array.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h = np.arange(1, exp.H + 1, dtype=np.float64)
    ph = np.exp(2j * np.pi * np.outer(arr, h))
    approx = 2.0 * (ph @ exp.a).real
    majorant = exp.b[0] + 2.0 * (ph.real @ exp.b[1:])
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(approx[0]), float(majorant[0])
    return approx, majorant


# ---------------------------------------------------------------------------
# Main-term integral and the prime exponential sum
# ---------------------------------------------------------------------------

def oscillatory_integral(a: float, b: float, t: float, c: float) -> complex:
    """integral of e(t y^c) dy over [a, b], 0 < a <= b.

    Equal-phase panels with 15-point Gauss-Legendre; panel sizes keep at
    least NODES_PER_PERIOD nodes per period of the phase.  Panels are
    evaluated _PANEL_CHUNK at a time, and the real and imaginary totals are
    the correctly rounded sums of all panel values, for any chunk size.
    """
    if not 0 < a <= b:
        raise ParameterError(f"need 0 < a <= b, got [{a}, {b}]")
    if a == b:
        return 0j
    if t == 0.0:
        return complex(b - a)
    n_osc = abs(t) * (b ** c - a ** c)
    if n_osc > MAX_OSCILLATIONS:
        raise ResourceError(
            f"{n_osc:.3e} oscillation periods exceed the {MAX_OSCILLATIONS:.0e} cap")
    panels = max(8, math.ceil(n_osc * NODES_PER_PERIOD / len(GL_NODES)))
    equal_phase = n_osc >= 1.0
    pa, pb = a ** c, b ** c

    def edge_slice(i0: int, i1: int) -> np.ndarray:
        # Panel edges i0..i1; equal phase spacing once oscillation matters.
        frac = np.arange(i0, i1 + 1, dtype=np.float64) / panels
        if equal_phase:
            e = (pa + (pb - pa) * frac) ** (1.0 / c)
        else:
            e = a + (b - a) * frac
        if i0 == 0:
            e[0] = a
        if i1 == panels:
            e[-1] = b
        return e

    re_parts: list[float] = []
    im_parts: list[float] = []
    s = 0
    while s < panels:
        end = min(panels, s + _PANEL_CHUNK)
        if end == panels - 1:
            end = panels  # a one-row matmul is a dot, which rounds differently
        e = edge_slice(s, end)
        mid = 0.5 * (e[1:] + e[:-1])
        half = 0.5 * (e[1:] - e[:-1])
        ys = mid[:, None] + half[:, None] * GL_NODES[None, :]
        ph = (t * ys ** c) % 1.0
        vals = (np.exp(2j * np.pi * ph) @ GL_WEIGHTS) * half
        re_parts += _exact_parts(vals.real.tolist())
        im_parts += _exact_parts(vals.imag.tolist())
        s = end
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def _exact_parts(xs: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of `xs` (appends to `xs`).

    Each part is the correctly rounded remainder left by the parts before
    it, so math.fsum over the parts of consecutive chunks equals math.fsum
    over all their values at once: the total does not depend on the chunk
    size.  The remainders shrink by 2^-52 per part, so there are few.
    """
    parts = []
    while (s := math.fsum(xs)) != 0.0:
        parts.append(s)
        if not math.isfinite(s):
            break  # a nan remainder would never reach 0
        xs.append(-s)
    return parts


def main_term_integral(params: ExpWeightParams) -> complex:
    """integral of e(t y^c) dy over (mu X, X]; equals (1-mu) X when t = 0."""
    if params.t == 0.0:
        return complex((1.0 - params.mu) * params.X)
    return oscillatory_integral(params.mu * params.X, params.X,
                                params.t, params.c)


def prime_exp_sum(params: ExpWeightParams, primes: np.ndarray) -> complex:
    """sum of e(t p^c) log p over primes mu X < p <= X, ascending p.

    `primes` is an ascending array covering at least [2, X] (for example
    PrimeTable.primes).  Accumulation is exactly rounded via math.fsum.
    """
    ps = primes[(primes > params.mu * params.X) & (primes <= params.X)]
    if ps.size == 0:
        return 0j
    fr = phase_frac_array(params.t, ps, params.c)
    vals = np.exp(2j * np.pi * fr) * np.log(ps.astype(np.float64))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))
