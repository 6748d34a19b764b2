"""The FFT character transform, its spot checks, and the vectorised masks.

The dense evaluation in `dense_characters` is the reference here: the
transform must reproduce `dense_table(G) @ S`, and `primitive_mask` must
reproduce a value-level primitivity criterion.
"""

import hashlib
import math

import numpy as np
import pytest
from dense_characters import coprime, dense_table, unit_phases

from bdhvar import (WeightKind, build_weight_table, cli, factorize, variance,
                    variance_report)
from bdhvar.characters import CharacterGroup, _local_factors


def test_transform_matches_value_table():
    rng = np.random.default_rng(404)
    worst = 0.0
    for q in range(1, 400):
        G = CharacterGroup(q)
        sums = rng.normal(size=q) + 1j * rng.normal(size=q)
        want = dense_table(G) @ sums
        got = G.transform(sums)
        assert got.shape == (G.phi,)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    assert worst <= 1e-13


def test_transform_ignores_non_coprime_classes():
    G = CharacterGroup(36)
    sums = np.arange(36, dtype=float) + 1j
    clean = np.where(coprime(36), sums, 0.0)
    assert np.array_equal(G.transform(sums), G.transform(clean))


def test_cell_dtype_boundary():
    # every unit lies in [0, q): above q = 2^15 the table is int32
    rng = np.random.default_rng(65536)
    for q, phi in ((65536, 2**15), (65537, 2**16)):
        G = CharacterGroup(q)
        assert G.phi == phi and G.units.dtype == np.int32, q
        assert int(G.units.max()) == q - 1
        sums = rng.normal(size=q) + 1j * rng.normal(size=q)
        psi = G.transform(sums)
        assert G.check_transform(sums, psi) <= 1e-13, q
        parseval = G.phi * math.fsum(np.abs(sums[G.units]) ** 2)
        assert abs(math.fsum(np.abs(psi) ** 2) - parseval) <= 1e-12 * parseval


def test_primitive_mask_matches_conductors():
    # chi has conductor q iff it does not factor through any q/p, i.e. iff
    # for each prime p | q it is not identically 1 on the units n == 1
    # (mod q/p)
    for q in range(1, 1201):
        G = CharacterGroup(q)
        want = np.ones(G.phi, dtype=bool)
        for p, _ in factorize(q):
            n = (1 + q // p * np.arange(p)) % q
            phases = unit_phases(G, n[coprime(q)[n]])
            want &= np.any(phases != 0, axis=1)
        assert np.array_equal(G.primitive_mask(), want), q
        # the premise of the large sieve's moduli: q == 2 (mod 4) alone
        # has no primitive character
        assert G.primitive_mask().any() == (q % 4 != 2), q


def test_primitive_mask_is_cached_and_read_only():
    G = CharacterGroup(60)
    mask = G.primitive_mask()
    assert G.primitive_mask() is mask
    with pytest.raises(ValueError):
        mask[0] = True


def test_prime_power_tables_are_shared_and_read_only():
    # 45 and 63 both contain 3^2: the second group reuses its power list
    _local_factors.cache_clear()
    G, H = CharacterGroup(45), CharacterGroup(63)
    assert _local_factors.cache_info().hits == 1
    orders, table = _local_factors(3, 2)
    assert _local_factors(3, 2)[1] is table
    assert orders == (6,) and G.orders[0] == H.orders[0] == 6
    with pytest.raises(ValueError):
        table[1] = 0
    # mod 9, every unit of a row of the 3^2 axis is that row's power
    assert np.array_equal(G.units.reshape(G.orders) % 9,
                          np.broadcast_to(table[:, None], G.orders))


def _conjugated(G, sums):
    """What fftn in place of ifftn gives: every character conjugated."""
    return np.conj(G.transform(np.conj(sums)))


def test_check_transform_catches_wrong_transforms():
    rng = np.random.default_rng(8)
    # 16 and 720: 2^k with k >= 4, and four cyclic factors with
    # lcm(d_j) = 12 < phi = 192; 10 and 514: q == 2 (mod 4), whose grid
    # leads with the order-1 factor mod 2
    for q in (5, 7, 13, 36, 63, 100, 257, 391, 16, 720, 10, 514):
        G = CharacterGroup(q)
        sums = rng.normal(size=q) + 1j * rng.normal(size=q)
        psi = G.transform(sums)
        assert G.check_transform(sums, psi) <= 1e-13, q
        assert G.check_transform(sums, _conjugated(G, sums)) > 1e-3, q
        assert G.check_transform(sums, np.roll(psi, 1)) > 1e-3, q


def test_check_transform_catches_non_additive_dlog():
    G = CharacterGroup(45)
    sums = np.ones(45, dtype=complex)
    psi = G.transform(sums)
    G.units = G.units * 2 % 45  # scaled by the unit 2: not multiplicative
    assert G.check_transform(sums, psi) == math.inf


def test_conjugated_transform_fails_report_not_routes(monkeypatch, tmp_path,
                                                      capsys):
    real = CharacterGroup.transform
    monkeypatch.setattr(CharacterGroup, "transform",
                        lambda G, sums: np.conj(real(G, np.conj(sums))))
    w = build_weight_table(2000.0, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=1e-3)
    assert np.abs(w.values.imag).max() > 0.5     # genuinely complex weights
    rep = variance_report(w, 30)
    assert rep.cross_check_rel <= 1e-10          # Parseval cannot see it
    assert rep.transform_gap > 1e-3
    assert not rep.cross_check_ok

    code = cli.main(["variance", "--x-grid", "2000", "--kind", "classic_exp",
                     "--t-rule", "x_pow:-0.9", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "transform gap" in capsys.readouterr().err


def test_class_sums_within_recursive_summation_bound():
    # Lambda-like weights Lambda(n) e(t n^c) on (1e5, 2e5]: for a class with
    # k nonzero terms each part is within (k - 1) * 2^-53 * sum |part| of
    # the exactly rounded math.fsum.
    w = build_weight_table(2e5, 0.5, WeightKind.CLASSIC_EXP, c=1.5, t=1e-5)
    n, vals = w.n, w.values
    assert 10**5 < n[0] and n[-1] <= 2 * 10**5 and np.all(np.diff(n) > 0)
    assert np.all(vals != 0)
    rng = np.random.default_rng(2000)
    u = 2.0 ** -53
    re, im = np.ascontiguousarray(vals.real), np.ascontiguousarray(vals.imag)
    for q in [1, 2, 1999, 2000] + rng.integers(3, 2001, size=16).tolist():
        got = variance._residue_sums(n, re, im, q)  # as variance_report does
        res = n % q
        order = np.argsort(res, kind="stable")
        starts = np.cumsum(np.bincount(res, minlength=q))[:-1]
        for r, terms in enumerate(np.split(vals[order], starts)):
            k = len(terms)
            for part, value in ((terms.real, got[r].real),
                                (terms.imag, got[r].imag)):
                bound = max(k - 1, 0) * u * math.fsum(np.abs(part))
                assert abs(value - math.fsum(part)) <= bound, (q, r)


def test_group_layer_bytes_pinned():
    # The transform of seeded random sums for every q <= 3000, then its
    # primitive mask where q != 2 (mod 4): a change of table layout, factor
    # order or FFT convention changes these bytes.
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for q in range(1, 3001):
        G = CharacterGroup(q)
        digest.update(G.transform(rng.standard_normal(q)
                                  + 1j * rng.standard_normal(q)).tobytes())
        if q % 4 != 2:
            digest.update(G.primitive_mask().tobytes())
    assert digest.hexdigest() == (
        "2c192d9c43c5171a3749d55ff08f148f026f11a33e0c55f5e715ba34f61619a5")
