"""Brute-force oracles shared by the tests."""

import numpy as np

INT64_MAX = 2 ** 63 - 1


def cyclic_partial_sums_units(w, k):
    """S_k(w)(nu)/scale over nu = 1..h, as int64: the sum of the k units
    from position nu on, indices taken cyclically, read off the prefix
    sums position by position.  Raises OverflowError unless every sum
    surely fits int64."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h, tot = len(w), w.total_units()
    if (k // h + 1) * tot > INT64_MAX:
        raise OverflowError(f"S_{k} may leave the int64 range")
    # the window from 0-based nu ends before nu + k = wraps*h + r
    wraps, r = np.divmod(np.arange(k, k + h), h)
    return (w.prefix[r] - w.prefix[:h]) + wraps * np.int64(tot)
