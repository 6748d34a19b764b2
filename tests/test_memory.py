"""Working-set bounds of the range kernels.  Peaks are tracemalloc's, i.e.
numpy and Python allocations."""

import tracemalloc

import numpy as np

from bdhvar import character_group, ps_array, ps_config, ps_indicator_array
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
    # over the whole range peaked at 570 MB and 132 MB.
    cfg = ps_config("9/10")
    mask, mask_peak = traced_peak(ps_indicator_array, 2, 10**7, cfg)
    assert mask_peak <= 32 * MB, mask_peak / MB
    members, array_peak = traced_peak(ps_array, 1, 10**7, cfg)
    assert array_peak <= 64 * MB, array_peak / MB
    assert np.array_equal(np.flatnonzero(mask) + 2, members[members >= 2])


def test_cached_character_groups_near_5000():
    # A full cache of 1024 groups, each transformed once and asked for its
    # primitive mask, as variance rows and large-sieve trials use them.
    # With (q, k) int64 discrete logs, an int64 scatter pair and a roots
    # table per group this peaked at 174 MB.
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
        assert peak <= 48 * MB, peak / MB
    finally:
        character_group.cache_clear()
