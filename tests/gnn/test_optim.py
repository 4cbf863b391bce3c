"""Tests for the optimizer on a simple quadratic."""

import numpy as np
import pytest

from repro.gnn import Adam


def quadratic_pair(x):
    """f(x) = 0.5 ||x||^2, grad = x."""
    return [(x, x.copy())]


def test_adam_converges_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam(lr=0.3)
    for _ in range(200):
        opt.step(quadratic_pair(x))
    assert np.abs(x).max() < 1e-2


def test_adam_first_step_size_near_lr():
    x = np.array([1000.0])
    Adam(lr=0.1).step(quadratic_pair(x))
    # Bias-corrected Adam steps ~lr regardless of gradient magnitude.
    assert x[0] == pytest.approx(1000.0 - 0.1, abs=1e-6)


def test_invalid_lr_rejected():
    with pytest.raises(ValueError):
        Adam(lr=0.0)
    with pytest.raises(ValueError):
        Adam(lr=-1.0)


def test_updates_in_place():
    x = np.array([1.0])
    ref = x
    Adam(lr=0.1).step(quadratic_pair(x))
    assert ref is x
