"""The progression-variance identity, empirically.

For any complex weight w on (mu X, X] and any main term M,

  sum_{(a,q)=1} |S_q(a) - M/phi(q)|^2
      = (1/phi(q)) sum_{chi mod q} |Psi_chi - delta(chi) M|^2.

Parseval over the unit group -- no approximation involved, so the two
routes must agree to rounding error.  That agreement is the package's
standing cross-check; this script shows it on a real weight and on noise.
A built-in weight carries its own main term; a custom table is given M
when it is built.
"""

import numpy as np

from bdhvar import (WeightKind, build_weight_table, custom_weight_table,
                    variance_report)

w = build_weight_table(20000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=2e-4)
rep = variance_report(w, 40)
print("weight Lambda(n) e(t n^1.5), X = 20000, Q = 40")
print(f"  direct route    : {rep.direct[0]:.6f}")
print(f"  character route : {rep.character[0]:.6f}")
print(f"  relative gap    : {rep.cross_check_rel:.2e}  "
      f"(ok = {rep.cross_check_ok})")
print(f"  V(Q) / (X Q log X) = {rep.ratios[0]:.4f}")
print("  first moduli (q, direct, characters):")
for q, (dv, cv) in enumerate(rep.per_q[:5], start=1):
    print(f"    {q:2d}  {dv:16.6f}  {cv:16.6f}")

rng = np.random.default_rng(8)
vals = rng.normal(size=5000) + 1j * rng.normal(size=5000)
w2 = custom_weight_table(5000.0, 0.0, vals, 100 + 30j)
rep2 = variance_report(w2, 40)
print("\ncomplex Gaussian noise, X = 5000, Q = 40")
print(f"  direct {rep2.direct[0]:.6f} vs characters "
      f"{rep2.character[0]:.6f} (gap {rep2.cross_check_rel:.2e})")
