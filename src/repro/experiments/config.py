"""Experiment configuration mirroring the paper's methodology (Section 3).

Table 3 hyper-parameters: hidden dimension and feature size in
{16, 64, 512}, layers in {2, 3, 4}. Clusters of 4, 8, 16 and 32 machines.
Batch sizes for the Figure 26 sweep are the paper's 512..32768 divided by
``BATCH_SIZE_SCALE`` — our graphs are ~500x smaller than the paper's, so
the training-vertex pools are scaled accordingly (the mapping is recorded
with every result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Tuple

from ..cluster import FaultPlan, RecoveryPolicy
from ..comm import CommConfig, comm_grid

__all__ = [
    "TrainingParams",
    "FaultConfig",
    "CommConfig",
    "comm_grid",
    "HIDDEN_DIMENSIONS",
    "FEATURE_SIZES",
    "LAYER_COUNTS",
    "MACHINE_COUNTS",
    "PAPER_BATCH_SIZES",
    "BATCH_SIZE_SCALE",
    "scaled_batch_size",
    "parameter_grid",
    "reduced_grid",
]

#: Table 3 values.
HIDDEN_DIMENSIONS: Tuple[int, ...] = (16, 64, 512)
FEATURE_SIZES: Tuple[int, ...] = (16, 64, 512)
LAYER_COUNTS: Tuple[int, ...] = (2, 3, 4)
#: Cluster sizes used throughout the evaluation.
MACHINE_COUNTS: Tuple[int, ...] = (4, 8, 16, 32)
#: Figure 26 batch sizes (paper scale).
PAPER_BATCH_SIZES: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192, 16384, 32768)
#: Our graphs are ~500x smaller; batch sizes shrink by this factor so the
#: batch-to-training-set ratio matches the paper's regime.
BATCH_SIZE_SCALE: int = 64


def scaled_batch_size(paper_batch_size: int) -> int:
    """Map a paper-scale global batch size onto our graph scale."""
    return max(paper_batch_size // BATCH_SIZE_SCALE, 1)


@dataclass(frozen=True)
class TrainingParams:
    """One GNN training configuration of the sweep."""

    feature_size: int = 64
    hidden_dim: int = 64
    num_layers: int = 3
    arch: str = "sage"
    num_classes: int = 10
    global_batch_size: int = 16  # paper-scale 1024 / BATCH_SIZE_SCALE

    def with_(self, **changes) -> "TrainingParams":
        """Copy with the given fields replaced."""
        return replace(self, **changes)

    def label(self) -> str:
        """Compact human-readable label for sweep output."""
        return (
            f"{self.arch} f{self.feature_size} h{self.hidden_dim} "
            f"L{self.num_layers}"
        )


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection settings for one sweep (plain values only, so the
    config pickles across the process-parallel runners and serializes
    into result records).

    A config expands into a :class:`~repro.cluster.FaultPlan` via
    :meth:`plan` — deterministically, from ``seed`` and the cluster
    size — and into a :class:`~repro.cluster.RecoveryPolicy` via
    :meth:`policy`, so the serial and parallel runners reconstruct
    identical failures from the same config.
    """

    crash_rate: float = 0.0
    slowdown_rate: float = 0.0
    loss_rate: float = 0.0
    slowdown_factor: float = 4.0
    checkpoint_every: int = 5
    max_retries: int = 3
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    detection_timeout_seconds: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        for label, rate in (
            ("crash_rate", self.crash_rate),
            ("slowdown_rate", self.slowdown_rate),
            ("loss_rate", self.loss_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if not 1.0 <= self.slowdown_factor < math.inf:  # NaN fails both
            raise ValueError("slowdown_factor must be finite and >= 1")
        # Policy construction validates the remaining fields.
        self.policy()

    def __bool__(self) -> bool:
        return (
            self.crash_rate > 0
            or self.slowdown_rate > 0
            or self.loss_rate > 0
        )

    def with_(self, **changes) -> "FaultConfig":
        """Copy with the given fields replaced."""
        return replace(self, **changes)

    def plan(self, num_machines: int, num_epochs: int) -> FaultPlan:
        """The deterministic fault plan for one (cluster, run) shape."""
        return FaultPlan.generate(
            num_machines,
            num_epochs,
            crash_rate=self.crash_rate,
            slowdown_rate=self.slowdown_rate,
            loss_rate=self.loss_rate,
            slowdown_factor=self.slowdown_factor,
            seed=self.seed,
        )

    def policy(self) -> RecoveryPolicy:
        """The recovery policy induced by this configuration."""
        return RecoveryPolicy(
            checkpoint_every=self.checkpoint_every,
            max_retries=self.max_retries,
            backoff_base_seconds=self.backoff_base_seconds,
            backoff_factor=self.backoff_factor,
            detection_timeout_seconds=self.detection_timeout_seconds,
        )


def parameter_grid() -> Iterator[TrainingParams]:
    """The full Table 3 cross product (27 configurations)."""
    for feature, hidden, layers in product(
        FEATURE_SIZES, HIDDEN_DIMENSIONS, LAYER_COUNTS
    ):
        yield TrainingParams(
            feature_size=feature, hidden_dim=hidden, num_layers=layers
        )


def reduced_grid() -> Iterator[TrainingParams]:
    """A corner-covering subset of the grid for quick benchmark runs:
    all three values of each dimension appear while the others stay at
    their middle value, plus the extreme corners.
    """
    base = TrainingParams()
    seen = set()
    candidates = [base]
    for feature in FEATURE_SIZES:
        candidates.append(base.with_(feature_size=feature))
    for hidden in HIDDEN_DIMENSIONS:
        candidates.append(base.with_(hidden_dim=hidden))
    for layers in LAYER_COUNTS:
        candidates.append(base.with_(num_layers=layers))
    candidates.append(
        base.with_(feature_size=512, hidden_dim=16, num_layers=4)
    )
    candidates.append(
        base.with_(feature_size=16, hidden_dim=512, num_layers=2)
    )
    for params in candidates:
        if params not in seen:
            seen.add(params)
            yield params
