"""The Adam optimizer, updating (parameter, gradient) pairs in place."""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["Adam"]

ParamGrad = Tuple[np.ndarray, np.ndarray]


class Adam:
    """Adam (Kingma and Ba, 2015)."""

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step = 0
        self._m: List[np.ndarray] | None = None
        self._v: List[np.ndarray] | None = None

    def step(self, params: Iterable[ParamGrad]) -> None:
        """Apply one bias-corrected Adam update in place."""
        pairs = list(params)
        if self._m is None:
            self._m = [np.zeros_like(p) for p, _ in pairs]
            self._v = [np.zeros_like(p) for p, _ in pairs]
        assert self._m is not None and self._v is not None
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for i, (param, grad) in enumerate(pairs):
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
