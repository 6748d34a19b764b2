"""Dirichlet character groups: orthogonality, conductors, frozen examples.

The conductor oracle below is a direct divisor scan (a character mod q is
induced mod f iff it is 1 on everything that is 1 mod f and coprime to q);
the group tables must agree with it.
"""

import cmath
import math

import numpy as np
import pytest

from bdhvar import (ParameterError, char_eval, character_group, euler_phi,
                    psi_chi)
from bdhvar.characters import CharacterGroup


def divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


def oracle_conductor(group, chi):
    """Smallest f | q with chi trivial on {n = 1 mod f, gcd(n, q) = 1}."""
    q = group.modulus
    row = group.values_row(chi)
    for f in divisors(q):
        ok = True
        for n in range(1, q + 1):
            if n % f == 1 % f and math.gcd(n, q) == 1 and abs(row[n % q] - 1) > 1e-9:
                ok = False
                break
        if ok:
            return f
    raise AssertionError("no conductor found")


def test_group_sizes():
    for q in range(1, 101):
        G = character_group(q)
        assert len(G) == euler_phi(q)
        assert len(G.characters) == G.phi
        assert int(G.coprime.sum()) == euler_phi(q)


def test_principal_character_first():
    for q in (1, 2, 7, 12, 45, 128):
        G = character_group(q)
        chi0 = G.characters[0]
        assert chi0.is_principal
        assert not any(c.is_principal for c in G.characters[1:])
        row = G.values_row(chi0)
        assert np.allclose(row[G.coprime], 1.0)


def test_row_orthogonality():
    # sum over residues of chi(a) * conj(chi'(a)) = phi(q) [chi = chi']
    for q in range(1, 201):
        G = character_group(q)
        M = G.value_table()
        gram = M @ M.conj().T
        assert np.max(np.abs(gram - G.phi * np.eye(G.phi))) <= 1e-9 * max(q, 1)


def test_column_orthogonality():
    # sum over characters of chi(a) * conj(chi(b)) = phi(q) [a = b coprime]
    for q in range(1, 101):
        G = character_group(q)
        M = G.value_table()
        gram = M.conj().T @ M
        expect = G.phi * np.diag(G.coprime.astype(float))
        assert np.max(np.abs(gram - expect)) <= 1e-9 * max(q, 1)


def test_values_are_roots_of_unity():
    for q in (3, 8, 16, 21, 72, 100):
        G = character_group(q)
        M = G.value_table()
        mags = np.abs(M[:, G.coprime])
        assert np.max(np.abs(mags - 1.0)) <= 1e-12
        assert np.all(M[:, ~G.coprime] == 0)


def test_complete_multiplicativity():
    rng = np.random.default_rng(3)
    for q in (5, 8, 12, 36, 49):
        G = character_group(q)
        for chi in G.characters:
            for _ in range(20):
                m, n = rng.integers(1, 5 * q, size=2)
                lhs = char_eval(chi, G, int(m) * int(n))
                rhs = char_eval(chi, G, int(m)) * char_eval(chi, G, int(n))
                assert abs(lhs - rhs) <= 1e-12


def test_conductor_against_divisor_scan():
    for q in list(range(1, 61)) + [72, 96, 100]:
        G = character_group(q)
        for chi in G.characters:
            assert chi.conductor == oracle_conductor(G, chi), (q, chi.index)


def test_conductor_function_matches_field():
    # the conductor field divides q, is 1 exactly at the principal
    # character and q exactly where primitive_mask is set
    for q in (1, 3, 12, 40, 96):
        G = character_group(q)
        for chi, prim in zip(G.characters, G.primitive_mask()):
            assert q % chi.conductor == 0
            assert (chi.conductor == 1) == chi.is_principal
            assert (chi.conductor == q) == prim


def test_conductor_induction_consistency():
    # every character agrees with some primitive character mod its conductor
    for q in (12, 36, 40, 90):
        G = character_group(q)
        for chi in G.characters:
            f = chi.conductor
            H = character_group(f)
            prim = [c for c, keep in zip(H.characters, H.primitive_mask())
                    if keep]
            matches = 0
            for cand in prim:
                if all(abs(char_eval(chi, G, n) - char_eval(cand, H, n)) < 1e-9
                       for n in range(1, q + 1) if math.gcd(n, q) == 1):
                    matches += 1
            assert matches == 1, (q, chi.index, f)


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
        expect = sum(mu(q // d) * euler_phi(d) for d in divisors(q))
        assert int(G.primitive_mask().sum()) == expect, q


def test_mod5_generator_relations():
    G = character_group(5)
    chis = [c for c in G.characters if abs(char_eval(c, G, 2) - 1j) < 1e-12]
    assert len(chis) == 1
    chi = chis[0]
    assert char_eval(chi, G, 3) == pytest.approx(-1j)
    assert char_eval(chi, G, 4) == pytest.approx(-1.0)
    assert char_eval(chi, G, 5) == 0


def test_mod8_characters_are_real():
    G = character_group(8)
    assert G.phi == 4
    M = G.value_table()
    assert np.max(np.abs(M.imag)) <= 1e-12
    assert sorted(c.conductor for c in G.characters) == [1, 4, 8, 8]


def test_mod12_conductors():
    G = character_group(12)
    assert sorted(c.conductor for c in G.characters) == [1, 3, 4, 12]


def test_trivial_moduli():
    for q in (1, 2):
        G = character_group(q)
        assert G.phi == 1
        assert G.characters[0].conductor == 1
        assert char_eval(G.characters[0], G, 1) == 1


def test_modulus_bounds():
    with pytest.raises(ParameterError):
        CharacterGroup(0)
    with pytest.raises(ParameterError):
        CharacterGroup(10**6 + 1)


class _Table:
    def __init__(self, n0, values):
        self.n0 = n0
        self.values = np.asarray(values)


def test_psi_chi_matches_direct_loop():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=40) + 1j * rng.normal(size=40)
    w = _Table(11, vals)
    G = character_group(7)
    for chi in G.characters:
        direct = sum(v * char_eval(chi, G, 11 + i) for i, v in enumerate(vals))
        assert abs(psi_chi(w, chi, G) - direct) <= 1e-10


def test_psi_chi_principal_mod_one_is_plain_sum():
    from bdhvar import build_lambda_table
    lam = build_lambda_table(100).values
    w = _Table(1, lam[1:101].astype(complex))
    G = character_group(1)
    total = psi_chi(w, G.characters[0], G)
    assert total.real == pytest.approx(94.0453112293574, abs=1e-9)
    assert total.imag == 0.0
