"""Working-set bounds of the range kernels.  Peaks are tracemalloc's, i.e.
numpy and Python allocations."""

import tracemalloc

import numpy as np

from bdhvar import (WeightKind, build_weight_table, character_group, cli,
                    ps_array, ps_config, ps_indicator_at, vaaler_eval,
                    vaaler_expansion)
from bdhvar.characters import _local_factors

MB = 10**6


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_ps_routes_working_set_at_1e7():
    # The mask alone is 10 MB and the generator's output 16 MB; one pass
    # over the whole range peaked at 570 MB and 132 MB.  The indicator's
    # input n is built before tracing.
    cfg = ps_config("9/10")
    ns = np.arange(2, 10**7 + 1)
    mask, mask_peak = traced_peak(ps_indicator_at, ns, cfg)
    assert mask_peak <= 32 * MB, mask_peak / MB
    members, array_peak = traced_peak(ps_array, 1, 10**7, cfg)
    assert array_peak <= 64 * MB, array_peak / MB
    assert np.array_equal(np.flatnonzero(mask) + 2, members[members >= 2])


def test_ps_count_working_set_at_1e7(tmp_path):
    # The blocks are sieved as they are counted and read a window at a
    # time; a prime table over [0, X] (10 MB of flags plus the primes array
    # and its astype copy) peaked at 22.6 MB, and each route's whole-block
    # array beside the block's mask at 9.5 MB.
    code, peak = traced_peak(cli.main, [
        "ps-count", "--x-grid", "1e7", "--gamma", "9/10",
        "--out", str(tmp_path / "ps.csv")])
    assert code == 0
    assert peak <= 6 * MB, peak / MB


def test_variance_row_sieves_only_its_window(tmp_path):
    # X = 4e6, mu = 0.9: the weight lives on 4e5 integers.  A prime table
    # and a Lambda table over [0, X] beside it peaked at 48.1 MB.
    code, peak = traced_peak(cli.main, [
        "variance", "--kind", "raw_lambda", "--x-grid", "4e6", "--mu", "0.9",
        "--q-rule", "fixed:10", "--allow-out-of-range",
        "--out", str(tmp_path / "v.csv")])
    assert code == 0
    assert peak <= 24 * MB, peak / MB


def test_weight_tables_hold_only_their_support_at_1e7():
    # (5e6, 1e7] holds 316,194 prime powers, 58,313 of them PS indices for
    # gamma = 9/10.  A dense complex128 table over the window is 80 MB on
    # its own; building it peaked at 137.7 MB (classic_exp) and 168.3 MB
    # (ps_exp).  The support form measured 28.5 and 24.9 MB peak, holding
    # 7.6 and 1.4 MB (24 bytes a term), 12.6 MB peak for ps_exp once its
    # support was kept by the indicator rather than a mask of the
    # generator's members, and 21.2 MB for classic_exp once its phases
    # were reduced in place; the bounds allow about 1.4 times that.
    X = 1e7
    cases = [(WeightKind.CLASSIC_EXP, dict(c=1.5, t=X ** -0.8333),
              30 * MB, 11 * MB),
             (WeightKind.PS_EXP,
              dict(c=1.5, t=X ** -0.6333, gamma=ps_config("9/10")),
              18 * MB, 2 * MB)]
    for kind, params, peak_cap, held_cap in cases:
        w, peak = traced_peak(lambda: build_weight_table(X, 0.5, kind,
                                                         **params))
        held = w.n.nbytes + w.values.nbytes
        assert peak <= peak_cap, (kind, peak / MB)
        assert held <= held_cap, (kind, held / MB)


def test_lemma3_row_sieves_only_its_window(tmp_path):
    # X = 4e6, mu = 0.9: the sum reads the primes of (3.6e6, 4e6].  A prime
    # table over [0, X] (4 MB of flags and every prime <= X as int64)
    # peaked at 8.6 MB.
    code, peak = traced_peak(cli.main, [
        "lemma3", "--x-grid", "4e6", "--mu", "0.9", "--t-count", "1",
        "--out", str(tmp_path / "l3.csv")])
    assert code == 0
    assert peak <= 5 * MB, peak / MB


def test_rows_are_made_as_they_are_reached(tmp_path):
    # 10^6 cells, ended by the row budget after the first row.  A list of
    # every cell made up front peaked at 96.7 MB (lemma3) and 42.1 MB
    # (large-sieve).
    for argv in (["lemma3", "--x-grid", "1e3", "--t-count", "1000000"],
                 ["large-sieve", "--trials", "1000000"]):
        code, peak = traced_peak(cli.main, [
            *argv, "--row-budget-s", "1e-9", "--out", str(tmp_path / "r")])
        assert code == 3, argv
        assert peak <= 8 * MB, (argv, peak / MB)


def test_vaaler_working_set_at_h100():
    # The CLI's default grid of 10^4 points.  One 10^4 x 100 phase table
    # with its real part peaked at 32.5 MB; row blocks keep it O(block x H).
    ints = np.arange(-2, 4, dtype=np.float64)
    grid = np.sort(np.concatenate([np.linspace(-2.0, 3.0, 10**4 - ints.size),
                                   ints]))
    (approx, majorant), peak = traced_peak(vaaler_eval, grid,
                                           vaaler_expansion(100))
    assert approx.size == majorant.size == 10**4
    assert peak <= 8 * MB, peak / MB


def test_cached_character_groups_near_5000():
    # A full cache of 1024 groups, each transformed once and asked for its
    # primitive mask, as variance rows and large-sieve trials use them.
    # With (q, k) int64 discrete logs, an int64 scatter pair and a roots
    # table per group this peaked at 174 MB, and at 32.6 MB with an int32
    # cell table beside a q-byte coprime mask.  An int16 cell table alone
    # measured 18.0 MB, and the int16 units table that replaced it 18.1 MB.
    character_group.cache_clear()
    _local_factors.cache_clear()

    def hold():
        groups = []
        for q in range(4216, 5240):
            G = character_group(q)
            G.transform(np.ones(q, dtype=complex))
            G.primitive_mask()
            groups.append(G)
        return groups

    try:
        groups, peak = traced_peak(hold)
        assert len(groups) == character_group.cache_info().currsize == 1024
        assert peak <= 24 * MB, peak / MB
        assert all(G.units.dtype == np.int16 and not hasattr(G, "cell")
                   and not hasattr(G, "coprime")
                   for G in groups)
    finally:
        character_group.cache_clear()
