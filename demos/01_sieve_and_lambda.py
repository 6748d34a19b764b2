import math

import numpy as np

from bdhvar import lambda_segment, primes_segment

X = 10**6

primes = primes_segment(2, X)
print(f"primes up to {X:,}: {len(primes):,}")
print(f"last few: {primes[-5:].tolist()}")

lam = lambda_segment(0, X)  # lam[n] == Lambda(n)
psi = math.fsum(lam)
print(f"sum of Lambda(n) for n <= {X:,}: {psi:.6f}")
print(f"  relative distance from X: {abs(psi - X) / X:.3e}")

# prime powers carry log p, everything else is 0
for n in (64, 243, 1024, 1000, 9973):
    print(f"Lambda({n}) = {lam[n]:.6f}")

# Mertens-style partial sums of Lambda(n)/n approach log X - gamma
ns = np.arange(1, X + 1)
acc = math.fsum(lam[1:] / ns)
print(f"sum Lambda(n)/n = {acc:.4f}, log X - 0.5772 = "
      f"{math.log(X) - 0.5772:.4f}")
