"""Dirichlet character groups: orthogonality, conductors, frozen examples.

Character values come from the dense oracle in `dense_characters`, and
conductors from its direct divisor scan (a character mod q is induced mod f
iff it is 1 on everything that is 1 mod f and coprime to q); the primitive
masks must agree with them.
"""

import math

import numpy as np
import pytest
from dense_characters import dense_table, oracle_conductor, oracle_phi

from bdhvar import ParameterError, character_group, variance
from bdhvar.characters import CharacterGroup


def divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


def test_group_sizes():
    for q in range(1, 101):
        G = character_group(q)
        assert G.phi == oracle_phi(q)
        assert dense_table(G).shape == (G.phi, q)
        assert int((G.cell >= 0).sum()) == oracle_phi(q)


def test_principal_character_first():
    for q in (1, 2, 7, 12, 45, 128):
        G = character_group(q)
        M = dense_table(G)
        assert np.allclose(M[0, G.cell >= 0], 1.0)
        assert oracle_conductor(M[0]) == 1
        assert all(oracle_conductor(row) > 1 for row in M[1:])


def test_row_orthogonality():
    # sum over residues of chi(a) * conj(chi'(a)) = phi(q) [chi = chi']
    for q in range(1, 201):
        G = character_group(q)
        M = dense_table(G)
        gram = M @ M.conj().T
        assert np.max(np.abs(gram - G.phi * np.eye(G.phi))) <= 1e-9 * max(q, 1)


def test_column_orthogonality():
    # sum over characters of chi(a) * conj(chi(b)) = phi(q) [a = b coprime]
    for q in range(1, 101):
        G = character_group(q)
        M = dense_table(G)
        gram = M.conj().T @ M
        expect = G.phi * np.diag((G.cell >= 0).astype(float))
        assert np.max(np.abs(gram - expect)) <= 1e-9 * max(q, 1)


def test_values_are_roots_of_unity():
    for q in (3, 8, 16, 21, 72, 100):
        G = character_group(q)
        M = dense_table(G)
        mags = np.abs(M[:, G.cell >= 0])
        assert np.max(np.abs(mags - 1.0)) <= 1e-12
        assert np.all(M[:, G.cell < 0] == 0)


def test_complete_multiplicativity():
    rng = np.random.default_rng(3)
    for q in (5, 8, 12, 36, 49):
        M = dense_table(character_group(q))
        for row in M:
            for _ in range(20):
                m, n = rng.integers(1, 5 * q, size=2)
                assert abs(row[m * n % q] - row[m % q] * row[n % q]) <= 1e-12


def test_conductor_against_divisor_scan():
    # each character mod q is induced by exactly one primitive character
    # mod its conductor f | q, so the scan finds conductor f as often as
    # primitive_mask mod f is set
    for q in list(range(1, 61)) + [72, 96, 100]:
        M = dense_table(character_group(q))
        conds = [oracle_conductor(row) for row in M]
        for f in divisors(q):
            want = int(character_group(f).primitive_mask().sum())
            assert conds.count(f) == want, (q, f)


def test_conductor_function_matches_field():
    # the scanned conductor divides q, is 1 exactly at the principal
    # character (index 0) and q exactly where primitive_mask is set
    for q in (1, 3, 12, 40, 96):
        G = character_group(q)
        M, mask = dense_table(G), G.primitive_mask()
        for j, (row, prim) in enumerate(zip(M, mask)):
            f = oracle_conductor(row)
            assert q % f == 0
            assert (f == 1) == (j == 0)
            assert (f == q) == prim


def test_conductor_induction_consistency():
    # every character agrees with some primitive character mod its conductor
    for q in (12, 36, 40, 90):
        units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
        for j, row in enumerate(dense_table(character_group(q))):
            f = oracle_conductor(row)
            H = character_group(f)
            prim = dense_table(H)[H.primitive_mask()]
            matches = 0
            for cand in prim:
                if all(abs(row[n % q] - cand[n % f]) < 1e-9 for n in units):
                    matches += 1
            assert matches == 1, (q, j, f)


def test_primitive_counts_match_moebius_formula():
    # number of primitive characters mod q is sum over d | q of mu(q/d) phi(d)
    def mu(n):
        m = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                m = -m
            d += 1
        if n > 1:
            m = -m
        return m

    for q in range(1, 151):
        G = character_group(q)
        expect = sum(mu(q // d) * oracle_phi(d) for d in divisors(q))
        assert int(G.primitive_mask().sum()) == expect, q


def test_mod5_generator_relations():
    M = dense_table(character_group(5))
    chis = [row for row in M if abs(row[2] - 1j) < 1e-12]
    assert len(chis) == 1
    chi = chis[0]
    assert chi[3] == pytest.approx(-1j)
    assert chi[4] == pytest.approx(-1.0)
    assert chi[5 % 5] == 0


def test_mod8_characters_are_real():
    G = character_group(8)
    assert G.phi == 4
    M = dense_table(G)
    assert np.max(np.abs(M.imag)) <= 1e-12
    assert sorted(oracle_conductor(row) for row in M) == [1, 4, 8, 8]


def test_mod12_conductors():
    M = dense_table(character_group(12))
    assert sorted(oracle_conductor(row) for row in M) == [1, 3, 4, 12]


def test_trivial_moduli():
    for q in (1, 2):
        G = character_group(q)
        assert G.phi == 1
        M = dense_table(G)
        assert oracle_conductor(M[0]) == 1
        assert M[0, 1 % q] == 1


def test_modulus_bounds():
    with pytest.raises(ParameterError):
        CharacterGroup(0)
    with pytest.raises(ParameterError):
        CharacterGroup(10**6 + 1)


def test_psi_chi_matches_direct_loop():
    # Psi_chi = sum_n w(n) chi(n) by the transform of the class sums
    rng = np.random.default_rng(17)
    vals = rng.normal(size=40) + 1j * rng.normal(size=40)
    G = character_group(7)
    idx = np.flatnonzero(vals)
    support = variance._terms(11 + idx, vals[idx])
    psi = G.transform(variance._residue_sums(support, 7))
    for j, row in enumerate(dense_table(G)):
        direct = sum(v * row[(11 + i) % 7] for i, v in enumerate(vals))
        assert abs(psi[j] - direct) <= 1e-10


def test_psi_chi_principal_mod_one_is_plain_sum():
    from bdhvar import lambda_support
    n, lam = lambda_support(1, 100)
    G = character_group(1)
    support = variance._terms(n, lam.astype(complex))
    total = G.transform(variance._residue_sums(support, 1))[0]
    assert total.real == pytest.approx(94.0453112293574, abs=1e-9)
    assert total.imag == 0.0
