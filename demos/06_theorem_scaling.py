"""Desk-scale scaling study for the three theorem-style weightings.

Each block walks X over a small grid, sets Q at the lower edge of the
admissible range (X/log^2 X, or X^gamma/log^2 X for the restricted
weights), and reports V(Q) divided by the theorem-scale bound.  Bounded
ratios along the grid are the empirical signature of the variance bounds;
nothing here proves anything, but runaway growth would be a red flag.
"""

import math
from fractions import Fraction

from bdhvar import WeightKind, build_weight_table, ps_config, variance_report

XS = (10**4, 3 * 10**4, 10**5)
MU, C, DELTA = 0.5, 1.5, 0.05

gamma = ps_config(Fraction(9, 10))

print("classic weight Lambda(n) e(t n^c), normaliser X Q log X")
print(f"{'X':>8} {'Q':>5} {'t':>10} {'ratio':>8} {'xcheck':>9}")
for X in XS:
    Q = math.floor(X / math.log(X) ** 2)
    for t in (0.0, float(X) ** (2 / 3 - C - DELTA)):
        w = build_weight_table(float(X), MU, WeightKind.CLASSIC_EXP, c=C, t=t)
        rep = variance_report(w, Q)
        print(f"{X:>8} {Q:>5} {t:>10.3e} {rep.ratios[0]:>8.3f} "
              f"{rep.cross_check_rel:>9.1e}")

print("\nPS-restricted Lambda, normaliser X^g Q log X (g = 9/10)")
print(f"{'X':>8} {'Q':>5} {'ratio':>8} {'alt-main ratio':>15}")
for X in XS:
    Q = math.floor(float(X) ** float(gamma) / math.log(X) ** 2)
    w = build_weight_table(float(X), MU, WeightKind.PS_PLAIN, gamma=gamma)
    rep = variance_report(w, Q)
    print(f"{X:>8} {Q:>5} {rep.ratios[0]:>8.3f} {rep.ratios[1]:>15.3f}")

print("\nPS-restricted n^(1-g) Lambda(n) e(t n^c), normaliser X^(2-g) Q log X")
print(f"{'X':>8} {'Q':>5} {'t':>10} {'ratio':>8}")
for X in XS:
    Q = math.floor(float(X) ** float(gamma) / math.log(X) ** 2)
    t = float(X) ** ((4 * float(gamma) - 3 * C - 1) / 3 - DELTA)
    w = build_weight_table(float(X), MU, WeightKind.PS_EXP, c=C, t=t,
                           gamma=gamma)
    rep = variance_report(w, Q)
    print(f"{X:>8} {Q:>5} {t:>10.3e} {rep.ratios[0]:>8.3f}")
