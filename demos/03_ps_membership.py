import math
from fractions import Fraction

import numpy as np

from bdhvar import (primes_segment, ps_array, ps_config, ps_count_main_term,
                    ps_indicator_at)

# n belongs to the index set for gamma when [n^gamma, (n+1)^gamma) contains
# an integer; equivalently n = [k^(1/gamma)] for some k.

gamma = ps_config(Fraction(1, 2))
print("gamma = 1/2 gives the perfect squares:",
      ps_array(1, 100, gamma).tolist())

gamma = ps_config("3/4")
print("gamma = 3/4 members up to 60:", ps_array(1, 60, gamma).tolist())

X = 10**5
primes = primes_segment(2, X)
print(f"\nprime counts inside the index set, up to {X:,}:")
print(f"{'gamma':>12} {'members':>9} {'primes':>7} {'X^g/log X':>10} {'ratio':>6}")
for text in ("9/10", "2426/2817", "11/12", "0.837"):
    gamma = ps_config(text)
    members = ps_array(1, X, gamma)
    count = np.intersect1d(members, primes, assume_unique=True).size
    main = ps_count_main_term(X, gamma)
    print(f"{text:>12} {len(members):>9,} {count:>7,} {main:>10.1f} "
          f"{count / main:>6.3f}")

# the indicator route (vectorised floor differences) is an independent
# computation of the same set and must agree index by index
gamma = ps_config("9/10")
gen = set(ps_array(1, X, gamma).tolist())
ns = np.arange(1, X + 1)
ind = set(ns[ps_indicator_at(ns, gamma)].tolist())
print(f"\ngenerator vs indicator routes agree: {gen == ind}")
print(f"member count vs (X+1)^gamma - 1: {len(gen)} vs "
      f"{(X + 1) ** float(gamma) - 1:.2f}")
