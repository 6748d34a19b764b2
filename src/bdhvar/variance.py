"""Variance of weighted counts over arithmetic progressions.

For a weight w supported on (mu X, X] and a main term M, the quantity of
interest is

    V(Q) = sum_{q <= Q} sum_{a mod q, gcd(a,q)=1} | S_q(a) - M/phi(q) |^2,

with S_q(a) the sum of w(n) over n == a (mod q).  `variance_report`
computes it by two routes from the same residue sums of each q:

    * direct       -- residue-bucketed progression sums per q;
    * characters   -- the exact identity
      sum_{(a,q)=1} |S_q(a) - M/phi(q)|^2
          = (1/phi(q)) * sum_{chi mod q} | Psi_chi - delta(chi) M |^2,
      where Psi_chi = sum w(n) chi(n) and delta is 1 only at the principal
      character.

This module is the one place that knows the weight kinds.
`build_weight_table` gives each table its kind's main-term readings `mains`
and the power `scale` = X^e of the theorem's bound X^e * Q * log X, which
reports divide V(Q) by, one result per reading; `theorem_range_warnings`
holds a row to its theorem's Q-range and t-cap; `TWISTED_KINDS` names the
kinds that read c and t (the PS kinds read gamma, as `ps_config` gives it).

The identity is Parseval over the unit group and holds for arbitrary
complex weights, so route agreement is a strong end-to-end check; reports
carry the relative discrepancy and anything above 1e-8 is flagged.

Parseval holds for any orthogonal transform whose first row is the coprime
indicator, so route agreement alone cannot see a unit table that lists
every unit once but in the wrong cells, a wrong character order or a
conjugated transform.  Reports therefore also spot-check a few transform
entries per modulus against a direct evaluation
(`CharacterGroup.check_transform`) and fail the cross-check when that gap
exceeds the same tolerance.  The direct route sieves its own units from
the group's primes and never reads `CharacterGroup.units`, so a table
that misses a unit moves the character route alone.

Accumulation discipline: a `WeightTable` is its support, the n where
w(n) != 0 in ascending order and w(n) there.  The built-in kinds vanish off
the prime powers, so each is computed only there (from
`arith.lambda_support`, for the PS kinds kept where the indicator
`psprimes.ps_indicator_at` holds); nothing over (mu X, X] is held but the
sieve's bool mask of the window while it is built.  Per q the progression
sums are float64 `np.bincount` sums over the support, added one term at a
time in ascending n.  For a class with k support terms, each of the real
and imaginary parts is within (k - 1) * 2^-53 * (sum of the |parts|) of
the exact sum (the standard recursive-summation bound); tests hold it
against a math.fsum oracle.  The character side is
`CharacterGroup.transform`, an FFT over the discrete-log grid (relative
error about 1e-15 against a dense evaluation of every character in the
tests).  All per-q squared deviations and the cross-q total go through
math.fsum, in ascending q.

One loop over q, `_transformed_sums`, feeds both reports: `variance_report`
takes every q <= Q, `large_sieve_check` the q != 2 (mod 4), the only moduli
with primitive characters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import lambda_support, primes_segment
from .characters import MAX_MODULUS, character_group
from .errors import ParameterError
from .oscillatory import main_term_integral, phase_frac_array
from .psprimes import ps_indicator_at

CROSS_CHECK_TOL = 1e-8


class WeightKind(enum.Enum):
    CLASSIC_EXP = "classic_exp"    # Lambda(n) e(t n^c)
    PS_PLAIN = "ps_plain"          # Lambda(n) restricted to PS indices
    PS_EXP = "ps_exp"              # Lambda(n) n^(1-gamma) [PS] e(t n^c)
    RAW_LAMBDA = "raw_lambda"      # Lambda(n)
    LOGP_ONLY = "logp_only"        # log p at primes, 0 elsewhere


# The kinds twisted by e(t n^c), the only ones that read c and t.
TWISTED_KINDS = frozenset({WeightKind.CLASSIC_EXP, WeightKind.PS_EXP})


@dataclass
class WeightTable:
    """A complex weight w on the integers of (mu X, X], as its support,
    with its theorem.

    n holds, ascending (int64), the n in (mu X, X] where w(n) != 0, and
    values[i] = w(n[i]) (complex128); w is 0 at every other n of the range.
    `mains` holds the kind's main-term readings in report order: for
    PS_PLAIN X^gamma - (mu X)^gamma, the reading consistent with the
    summation range, then the paper-literal X^gamma; one for every other
    kind, and for a custom table the one it was given.  `scale` is the
    power X^e of the normaliser X^e * Q * log X.
    """

    X: float
    n: np.ndarray
    values: np.ndarray
    mains: tuple[complex, ...]
    scale: float


def custom_weight_table(X: float, mu: float, values: np.ndarray,
                        main: complex) -> WeightTable:
    """A custom weight table from values[i] = w(floor(mu X) + 1 + i), one
    value per integer of (mu X, X]; the table keeps their support and reads
    the one main term `main`."""
    n0, n1 = _range_bounds(X, mu)
    arr = np.asarray(values, dtype=np.complex128)
    if len(arr) != n1 - n0 + 1:
        raise ParameterError(
            f"need {n1 - n0 + 1} values for (mu X, X], got {len(arr)}")
    idx = np.flatnonzero(arr)
    return WeightTable(X=float(X), n=n0 + idx, values=arr[idx],
                       mains=(complex(main),), scale=float(X))


def _range_bounds(X: float, mu: float) -> tuple[int, int]:
    if not (X >= 2 and math.isfinite(X)):
        raise ParameterError(f"X must be finite and >= 2, got {X}")
    if not 0.0 <= mu < 1.0:
        raise ParameterError(f"mu must be in [0, 1), got {mu}")
    n0 = math.floor(mu * X) + 1
    n1 = math.floor(X)
    if n1 < n0:
        raise ParameterError(f"empty range (mu X, X] for X={X}, mu={mu}")
    return n0, n1


def build_weight_table(X: float, mu: float, kind: WeightKind, *,
                       c: float | None = None, t: float | None = None,
                       gamma: Fraction | float | None = None) -> WeightTable:
    """Build a built-in weight kind on (mu X, X], with its main-term
    readings and normaliser power X^e (e = 1, gamma for PS_PLAIN, 2 - gamma
    for PS_EXP).

    Only that window is sieved, from the primes <= sqrt(X), and each kind
    is evaluated on its support only: the prime powers (primes for
    LOGP_ONLY), for the PS kinds those that `ps_indicator_at` keeps.  The
    twisted kinds read c and t, the PS kinds gamma (as `ps_config` returns
    it); unused ones are ignored.
    """
    n0, n1 = _range_bounds(X, mu)
    X = float(X)
    twisted = kind in TWISTED_KINDS
    if twisted:
        if c is None or t is None:
            raise ParameterError(f"{kind} needs both c and t")
        c, t = float(c), float(t)
        integral = main_term_integral(X, float(mu), c=c, t=t)  # checks them
    if kind in (WeightKind.PS_PLAIN, WeightKind.PS_EXP):
        if gamma is None:
            raise ParameterError(f"{kind} needs gamma")
        g = float(gamma)
    else:
        gamma = None  # only the PS kinds read it

    if kind in (WeightKind.RAW_LAMBDA, WeightKind.LOGP_ONLY):
        mains, scale = ((1.0 - mu) * X,), X
    elif kind is WeightKind.CLASSIC_EXP:
        mains, scale = (integral,), X
    elif kind is WeightKind.PS_PLAIN:
        scale = X ** g
        mains = (scale - (mu * X) ** g, scale)
    elif kind is WeightKind.PS_EXP:
        mains, scale = (g * integral,), X ** (2.0 - g)
    else:
        raise ParameterError(f"no built-in weight kind {kind!r}; "
                             "custom tables come from custom_weight_table")

    if kind is WeightKind.LOGP_ONLY:
        n = primes_segment(n0, n1)
        vals = np.log(n.astype(np.float64))
    else:
        n, vals = lambda_support(n0, n1)
    if gamma is not None:
        keep = ps_indicator_at(n, gamma)
        n, vals = n[keep], vals[keep]
    if kind is WeightKind.PS_EXP:
        vals = vals * n.astype(np.float64) ** (1.0 - g)
    if twisted and t != 0.0:
        vals = vals * np.exp(2j * np.pi * phase_frac_array(t, n, c))
    return WeightTable(X=X, n=n, values=vals.astype(np.complex128, copy=False),
                       mains=tuple(complex(m) for m in mains), scale=scale)


def theorem_range_warnings(kind: WeightKind, X: float, Q: int, t: float,
                           c: float, gamma: float, a: float,
                           delta: float) -> list[str]:
    """Q- and t-range checks for the three theorem-style weightings."""
    lx = math.log(X)
    warns: list[str] = []
    try:
        if kind is WeightKind.CLASSIC_EXP:
            lo, hi = X / lx ** a, X
            t_cap = X ** (2.0 / 3.0 - c - delta)
        elif kind is WeightKind.PS_PLAIN:
            lo, hi = X ** gamma / lx ** 2, X ** gamma
            t_cap = None
        elif kind is WeightKind.PS_EXP:
            lo, hi = X ** gamma / lx ** a, X ** gamma
            t_cap = X ** ((4.0 * gamma - 3.0 * c - 1.0) / 3.0 - delta)
        else:
            return warns
    except ArithmeticError as exc:
        raise ParameterError(
            f"{kind.value} has no theorem range at X = {X:g}: {exc}") from exc
    if not (lo - 1.0 <= Q <= hi):
        warns.append(f"Q = {Q} outside the admissible range "
                     f"[{lo:.6g}, {hi:.6g}] at X = {X:g}")
    if t_cap is not None and abs(t) > t_cap * (1.0 + 1e-12):
        warns.append(f"|t| = {abs(t):.6g} above the admissible cap "
                     f"{t_cap:.6g} at X = {X:g}")
    return warns


# ---------------------------------------------------------------------------
# Accumulation kernels
# ---------------------------------------------------------------------------

def _terms(n: np.ndarray, w: np.ndarray):
    """(n, Re w, Im w) for weights w at ascending n, as `_residue_sums`
    takes them; n is returned as given, not copied."""
    return n, np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)


def _residue_sums(support, q: int) -> np.ndarray:
    """out[r] = sum of w(n) over the support with n == r (mod q)."""
    n, re, im = support
    r = n % q
    out = np.empty(q, dtype=np.complex128)
    out.real = np.bincount(r, weights=re, minlength=q)
    out.imag = np.bincount(r, weights=im, minlength=q)
    return out


def _sq_abs_sum(z: np.ndarray) -> float:
    return math.fsum((z.real * z.real + z.imag * z.imag).tolist())


def _transformed_sums(n: np.ndarray, w: np.ndarray, moduli):
    """(G, sums, psi) for each q of ascending `moduli`: the group, the
    residue sums of the weights w at ascending n, and their transform."""
    support = _terms(n, w)
    for q in moduli:
        G = character_group(q)
        sums = _residue_sums(support, q)
        yield G, sums, G.transform(sums)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    """Both variance routes plus normalisations for one (X, Q) cell.

    direct, character and ratios hold one entry per reading of `mains`, in
    order (range-consistent first for PS_PLAIN); per_q[q - 1] = (direct,
    character) is the contribution of q under the first.  transform_gap is
    the worst `CharacterGroup.check_transform` gap over all q.
    """

    direct: tuple[float, ...]
    character: tuple[float, ...]
    ratios: tuple[float, ...]
    per_q: list[tuple[float, float]]
    transform_gap: float

    @property
    def cross_check_rel(self) -> float:
        return max(abs(d - c) / max(d, 1.0)
                   for d, c in zip(self.direct, self.character))

    @property
    def cross_check_ok(self) -> bool:
        return (self.cross_check_rel <= CROSS_CHECK_TOL
                and self.transform_gap <= CROSS_CHECK_TOL)


def variance_report(w: WeightTable, Q: int) -> VarianceReport:
    """V(Q) by both routes, for each of `w.mains`, in one pass over q.

    Per q the residue sums are computed once and fed to both routes; the
    character transform versus the direct squared deviations remains the
    substantive cross-check, and sampled transform entries are checked
    against a direct evaluation (see `VarianceReport.transform_gap`).
    Another reading is another table, `dataclasses.replace(w, mains=(m,))`.
    The ratios divide by w.scale * Q * log X.
    """
    if not 1 <= Q <= MAX_MODULUS:
        raise ParameterError(f"Q must be in [1, {MAX_MODULUS}], got {Q}")
    if not w.mains:
        raise ParameterError("the table has no main-term reading")

    # cells[k][q - 1] = (direct, character) contribution of q for mains[k]
    cells: list[list[tuple[float, float]]] = [[] for _ in w.mains]
    gaps = []
    for G, sums, psi in _transformed_sums(w.n, w.values, range(1, Q + 1)):
        coprime = np.ones(G.modulus, dtype=bool)
        for p in G.primes:
            coprime[::p] = False
        unit_sums = sums[coprime]
        phi = len(unit_sums)
        if G.phi != phi:
            raise AssertionError(
                f"phi mismatch at q={G.modulus}: {G.phi} != {phi}")
        for mv, col in zip(w.mains, cells):
            dev = unit_sums - mv / phi
            shifted = psi.copy()
            shifted[0] -= mv  # principal character sits at index 0
            col.append((_sq_abs_sum(dev), _sq_abs_sum(shifted) / phi))
        gaps.append(G.check_transform(sums, psi))

    # one (direct, character) total per reading
    direct, chars = zip(*(map(math.fsum, zip(*col)) for col in cells))
    norm = w.scale * Q * math.log(w.X)
    return VarianceReport(
        direct=direct, character=chars,
        ratios=tuple(d / norm for d in direct),
        per_q=cells[0], transform_gap=max(gaps))


# ---------------------------------------------------------------------------
# Large sieve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeSieveResult:
    lhs: float
    bound: float
    ratio: float


def large_sieve_check(M: int, Q: int, coeffs: np.ndarray) -> LargeSieveResult:
    """Primitive-character large-sieve quotient.

    lhs   = sum_{q <= Q} (q/phi(q)) sum*_{chi mod q} |sum a_n chi(n)|^2
    bound = (N + Q^2) * sum |a_n|^2,

    with a_n = coeffs[n - M - 1] for n running over M+1 .. M+N, N =
    len(coeffs), and sum* over primitive characters.  The returned ratio
    lhs/bound never exceeds 1 (up to rounding); it is 0 for all-zero
    coefficients.
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    N = arr.size
    if arr.ndim != 1 or N < 1 or not 1 <= Q <= MAX_MODULUS or M < 0:
        raise ParameterError(f"need 1-D coeffs of length N >= 1, "
                             f"1 <= Q <= {MAX_MODULUS} and M >= 0, got "
                             f"shape {arr.shape} Q={Q} M={M}")
    norm2 = _sq_abs_sum(arr)
    bound = (N + Q * Q) * norm2

    moduli = (q for q in range(1, Q + 1) if q % 4 != 2)  # masks not all False
    idx = np.flatnonzero(arr)
    lhs = math.fsum(
        G.modulus / G.phi * _sq_abs_sum(psi[G.primitive_mask()])
        for G, _, psi in _transformed_sums(M + 1 + idx, arr[idx], moduli))
    ratio = lhs / bound if bound > 0 else 0.0
    return LargeSieveResult(lhs=lhs, bound=bound, ratio=ratio)
