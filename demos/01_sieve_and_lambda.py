import math

import numpy as np

from bdhvar import lambda_support, primes_segment

X = 10**6

primes = primes_segment(2, X)
print(f"primes up to {X:,}: {len(primes):,}")
print(f"last few: {primes[-5:].tolist()}")

# the prime powers n <= X, ascending, and Lambda(n) = log p there
ns, lam = lambda_support(0, X)
psi = math.fsum(lam)
print(f"sum of Lambda(n) for n <= {X:,}: {psi:.6f}")
print(f"  relative distance from X: {abs(psi - X) / X:.3e}")

# prime powers carry log p, everything else is 0
for n in (64, 243, 1024, 1000, 9973):
    i = np.searchsorted(ns, n)
    print(f"Lambda({n}) = {lam[i] if ns[i] == n else 0.0:.6f}")

# Mertens-style partial sums of Lambda(n)/n approach log X - gamma
acc = math.fsum(lam / ns)
print(f"sum Lambda(n)/n = {acc:.4f}, log X - 0.5772 = "
      f"{math.log(X) - 0.5772:.4f}")
