"""Stable ordering of bounded non-negative integer keys.

``np.argsort(kind="stable")`` is a merge sort for 32- and 64-bit keys but
a radix sort for 8- and 16-bit ones, several times faster on the key
arrays the out-of-core passes group by (partition ids, vertex ids). A
stable sort's permutation is unique, so narrowing the keys changes the
time and nothing else.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_order"]


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Keys outside that range are the caller's error: they would be
    truncated, not rejected.
    """
    if bound <= 1 << 8:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        # Least-significant-digit radix: order by the low 16 bits, then
        # stably by the high 16.
        low = np.argsort(keys.astype(np.uint16), kind="stable")
        high = (keys[low] >> 16).astype(np.uint16)
        return low[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")
