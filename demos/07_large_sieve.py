import math

import numpy as np

from bdhvar import WeightKind, build_weight_table, large_sieve_check

# The large sieve bounds sum_{q<=Q} (q/phi q) sum*_chi |sum a_n chi(n)|^2
# by (N + Q^2) ||a||^2 over arbitrary coefficients a_(M+1) .. a_(M+N);
# large_sieve_check(M, Q, coeffs) reads N as len(coeffs).  Random Gaussian
# coefficients typically sit far below the bound; adversarial flat
# coefficients at N = 1 reach ratio 1/2.

rng = np.random.default_rng(42)
worst = (0.0, None)
for trial in range(200):
    n = int(rng.integers(1, 201))
    q = int(rng.integers(1, 201))
    m = int(rng.integers(0, 201))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    res = large_sieve_check(m, q, coeffs)
    if res.ratio > worst[0]:
        worst = (res.ratio, (n, q, m))
print(f"200 random trials, N,Q <= 200: worst ratio {worst[0]:.4f} "
      f"at (N, Q, M) = {worst[1]}")

res = large_sieve_check(0, 1, np.ones(1, dtype=complex))
print(f"single coefficient, Q = 1: ratio {res.ratio:.3f}")

# concentrating mass on one residue class pushes the ratio up
coeffs = np.zeros(120, dtype=complex)
coeffs[::7] = 1.0
res = large_sieve_check(0, 35, coeffs)
print(f"mass on 1 mod 7, N = 120, Q = 35: ratio {res.ratio:.4f}")

# The paper's path to V(Q) ends in this inequality, so run it on a theorem
# weight too: Lambda(n) e(t n^c) at the t cap X^(2/3 - c - delta), as
# dense coefficients over (mu X, X], with Q = X / log^2 X.
MU, C, DELTA = 0.5, 1.5, 0.05
print("classic_exp at the t cap:")
for X in (10**4, 3 * 10**4, 10**5):
    t = X ** (2 / 3 - C - DELTA) * (1 - 1e-9)
    w = build_weight_table(float(X), MU, WeightKind.CLASSIC_EXP, c=C, t=t)
    n0 = math.floor(MU * X) + 1
    coeffs = np.zeros(X - n0 + 1, dtype=complex)
    coeffs[w.n - n0] = w.values
    Q = math.floor(X / math.log(X) ** 2)
    res = large_sieve_check(n0 - 1, Q, coeffs)
    print(f"  X = {X:>6}, Q = {Q:>3}: ratio {res.ratio:.4f}")
