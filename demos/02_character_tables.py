"""Dirichlet characters mod q through the character transform.

The group mod q is assembled from cyclic factors of (Z/q)^*, one per odd
prime power plus the {-1, 5} pair at powers of two, and a character is a
tuple of exponents on them.  `transform` maps residue sums S(a) to
Psi_chi = sum_a S(a) chi(a) for every chi at once, so the transform of the
unit vector at a is the column chi(a): the value table is the transform of
the identity.  The principal character is row 0.
"""

import numpy as np

from bdhvar import character_group

q = 12
G = character_group(q)
print(f"q = {q}: phi = {G.phi}, cyclic factor orders = {list(G.orders)}")
M = np.array([G.transform(e) for e in np.eye(q)]).T   # M[chi, a] = chi(a)
units = np.sort(G.units)


def conductor(row):
    # smallest f | q with chi = 1 on the units that are 1 mod f
    return next(f for f in range(1, q + 1) if q % f == 0
                and np.allclose(row[units[units % f == 1 % f]], 1.0))


np.set_printoptions(precision=3, suppress=True, linewidth=100)
for j, row in enumerate(M):
    print(f"  chi_{j} (conductor {conductor(row):2d}): {np.round(row.real, 3).tolist()}")

# Parseval-grade orthogonality: rows form an orthogonal basis of the
# functions on the unit group
gram = M @ M.conj().T
residual = np.max(np.abs(gram - G.phi * np.eye(G.phi)))
print(f"row-orthogonality residual: {residual:.2e}")

# conductor census over a few moduli: each character mod q is induced by
# exactly one primitive character mod its conductor f | q, so f occurs as
# often as primitive_mask mod f is set
for q in (8, 45, 100):
    counts = {f: int(character_group(f).primitive_mask().sum())
              for f in range(1, q + 1) if q % f == 0}
    counts = {f: n for f, n in counts.items() if n}
    print(f"q = {q:3d}: conductors {counts}, {counts.get(q, 0)} primitive")
