"""Working-set bounds of the range kernels.  Peaks are tracemalloc's, i.e.
numpy and Python allocations."""

import tracemalloc

import numpy as np

from bdhvar import ps_array, ps_config, ps_indicator_array

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

