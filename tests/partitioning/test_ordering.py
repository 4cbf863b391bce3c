"""``stable_order`` is ``np.argsort(kind="stable")`` on every dtype branch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.ordering import stable_order

#: One bound inside, and one exactly on, each branch's threshold.
BOUNDS = [1, 32, 1 << 8, (1 << 8) + 1, 1 << 16, (1 << 16) + 1,
          1 << 32, (1 << 32) + 1, 1 << 40]


@settings(max_examples=120, deadline=None)
@given(
    bound=st.sampled_from(BOUNDS),
    size=st.integers(0, 300),
    seed=st.integers(0, 10_000),
    spread=st.sampled_from([1, 7, None]),
)
def test_matches_stable_argsort(bound, size, seed, spread):
    rng = np.random.default_rng(seed)
    # A narrow ``spread`` piles keys just under the bound: many ties, and
    # the largest key the branch must still represent.
    low = 0 if spread is None else max(bound - spread, 0)
    keys = rng.integers(low, bound, size=size)
    if size:
        keys[rng.integers(size)] = bound - 1
    order = stable_order(keys, bound)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_key_dtypes_the_callers_pass(dtype):
    keys = np.array([3, 70_000, 3, 0, 65_536, 70_000, 1], dtype=dtype)
    assert np.array_equal(
        stable_order(keys, 70_001), np.argsort(keys, kind="stable")
    )
